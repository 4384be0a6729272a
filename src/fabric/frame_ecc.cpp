#include "fabric/frame_ecc.hpp"

#include <array>
#include <bit>

namespace rvcap::fabric {

namespace {

/// kLowMask[k] selects the bits b < 31 whose position (b + 1) has bit k
/// set; bit 31's position (w + 1) * 32 has a zero low field.
constexpr std::array<u32, 5> make_low_masks() {
  std::array<u32, 5> m{};
  for (u32 b = 0; b < 31; ++b) {
    for (u32 k = 0; k < 5; ++k) {
      if (((b + 1) >> k) & 1) m[k] |= u32{1} << b;
    }
  }
  return m;
}

constexpr auto kLowMask = make_low_masks();

u32 parity(u32 v) { return static_cast<u32>(std::popcount(v) & 1); }

}  // namespace

FrameEcc compute_frame_ecc(std::span<const u32> words) {
  // Bit b < 31 of word w sits at (w << 5) | (b + 1); bit 31 sits at
  // (w + 1) << 5. The syndrome is linear, so the high field is the XOR
  // of w over words whose low 31 bits have odd parity, plus w + 1 over
  // words with bit 31 set, and the low field depends only on the XOR of
  // all words: five masked parities of it.
  u32 acc = 0;
  u32 high = 0;
  for (usize w = 0; w < words.size(); ++w) {
    const u32 v = words[w];
    const u32 idx = static_cast<u32>(w);
    acc ^= v;
    high ^= idx & (0u - parity(v & 0x7FFFFFFFu));
    high ^= (idx + 1) & (0u - (v >> 31));
  }
  u32 low = 0;
  for (u32 k = 0; k < 5; ++k) low |= parity(acc & kLowMask[k]) << k;
  FrameEcc e;
  e.syndrome = (high << 5) | low;
  e.parity = parity(acc) != 0;
  return e;
}

std::string_view to_string(EccClass c) {
  switch (c) {
    case EccClass::kClean: return "clean";
    case EccClass::kCorrectable: return "correctable";
    case EccClass::kUncorrectable: return "uncorrectable";
  }
  return "?";
}

EccDecode decode_frame_ecc(const FrameEcc& golden, const FrameEcc& observed,
                           u32 frame_words) {
  EccDecode d;
  const u32 diff = golden.syndrome ^ observed.syndrome;
  const bool parity_diff = golden.parity != observed.parity;
  if (diff == 0 && !parity_diff) {
    d.cls = EccClass::kClean;
    return d;
  }
  if (parity_diff && diff >= 1 && diff <= frame_words * 32) {
    d.cls = EccClass::kCorrectable;
    d.word = (diff - 1) / 32;
    d.bit = (diff - 1) % 32;
    return d;
  }
  d.cls = EccClass::kUncorrectable;
  return d;
}

bool essential_bit(u32 rm_id, u32 frame_index, u32 word, u32 bit) {
  if (frame_index == 0 && word < 4) return true;  // RM manifest words
  u64 x = (u64{rm_id} << 44) ^ (u64{frame_index} << 16) ^
          (u64{word} << 5) ^ u64{bit};
  x ^= 0x9E3779B97F4A7C15ULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return (x & 3) == 0;
}

}  // namespace rvcap::fabric
