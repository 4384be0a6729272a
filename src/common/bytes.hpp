// Little-endian byte (un)packing helpers.
//
// The SoC bus, DDR model, FAT32 on-disk structures, and DMA descriptors
// are all little-endian (RISC-V and FAT are LE); bitstream *packets* are
// big-endian 32-bit words per the Xilinx configuration-format convention
// and use the _be variants.
#pragma once

#include <array>
#include <span>

#include "common/types.hpp"

namespace rvcap {

inline u16 load_le16(std::span<const u8> b) {
  return static_cast<u16>(b[0] | (u16{b[1]} << 8));
}

inline u32 load_le32(std::span<const u8> b) {
  return u32{b[0]} | (u32{b[1]} << 8) | (u32{b[2]} << 16) | (u32{b[3]} << 24);
}

inline u64 load_le64(std::span<const u8> b) {
  return u64{load_le32(b)} | (u64{load_le32(b.subspan(4))} << 32);
}

inline void store_le16(std::span<u8> b, u16 v) {
  b[0] = static_cast<u8>(v);
  b[1] = static_cast<u8>(v >> 8);
}

inline void store_le32(std::span<u8> b, u32 v) {
  b[0] = static_cast<u8>(v);
  b[1] = static_cast<u8>(v >> 8);
  b[2] = static_cast<u8>(v >> 16);
  b[3] = static_cast<u8>(v >> 24);
}

inline void store_le64(std::span<u8> b, u64 v) {
  store_le32(b, static_cast<u32>(v));
  store_le32(b.subspan(4), static_cast<u32>(v >> 32));
}

inline u32 load_be32(std::span<const u8> b) {
  return (u32{b[0]} << 24) | (u32{b[1]} << 16) | (u32{b[2]} << 8) | u32{b[3]};
}

inline void store_be32(std::span<u8> b, u32 v) {
  b[0] = static_cast<u8>(v >> 24);
  b[1] = static_cast<u8>(v >> 16);
  b[2] = static_cast<u8>(v >> 8);
  b[3] = static_cast<u8>(v);
}

/// Extract bit field [lo, lo+width) from a word.
inline constexpr u32 bits(u32 v, unsigned lo, unsigned width) {
  return (v >> lo) & ((width >= 32) ? ~u32{0} : ((u32{1} << width) - 1));
}

inline constexpr u64 bits64(u64 v, unsigned lo, unsigned width) {
  return (v >> lo) & ((width >= 64) ? ~u64{0} : ((u64{1} << width) - 1));
}

namespace detail {

/// Slice-by-8 tables for the reflected IEEE polynomial: kCrc32Tables[0]
/// is the classic byte table, and entry [s][i] advances [s-1][i] by one
/// more zero byte, so one step folds eight input bytes at once.
constexpr std::array<std::array<u32, 256>, 8> make_crc32_tables() {
  std::array<std::array<u32, 256>, 8> t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    t[0][i] = c;
  }
  for (usize s = 1; s < 8; ++s) {
    for (u32 i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFF];
    }
  }
  return t;
}

inline constexpr auto kCrc32Tables = make_crc32_tables();

}  // namespace detail

/// CRC-32 (IEEE 802.3, reflected) — integrity check for staged
/// bitstream images; incremental via the `crc` parameter (pass the
/// previous return value to continue, default for a fresh run).
/// Slice-by-8: eight bytes per table step, then byte steps for the tail.
inline constexpr u32 crc32(std::span<const u8> data, u32 crc = 0) {
  const auto& t = detail::kCrc32Tables;
  crc = ~crc;
  usize i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    const u32 lo = crc ^ (u32{data[i]} | (u32{data[i + 1]} << 8) |
                          (u32{data[i + 2]} << 16) | (u32{data[i + 3]} << 24));
    const u32 hi = u32{data[i + 4]} | (u32{data[i + 5]} << 8) |
                   (u32{data[i + 6]} << 16) | (u32{data[i + 7]} << 24);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; i < data.size(); ++i) crc = (crc >> 8) ^ t[0][(crc ^ data[i]) & 0xFF];
  return ~crc;
}

}  // namespace rvcap
