#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/bytes.hpp"
#include "common/hexdump.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/units.hpp"

namespace rvcap {
namespace {

TEST(Units, ClintDividerMatchesPaperClocks) {
  EXPECT_EQ(kCoreClockHz, 100'000'000u);
  EXPECT_EQ(kClintClockHz, 5'000'000u);
  EXPECT_EQ(kCyclesPerClintTick, 20u);
}

TEST(Units, CyclesToMicroseconds) {
  EXPECT_DOUBLE_EQ(cycles_to_us(100), 1.0);
  EXPECT_DOUBLE_EQ(cycles_to_us(165'100), 1651.0);
  EXPECT_DOUBLE_EQ(cycles_to_ms(15'645'000), 156.45);
}

TEST(Units, ThroughputMatchesPaperHeadline) {
  // 650892 bytes in 1651 us -> 394.2 MB/s (the paper's largest-case
  // number; 398.1 is the max across sizes).
  const double t = throughput_mbps(650892, 165100);
  EXPECT_NEAR(t, 394.2, 0.1);
}

TEST(Units, ThroughputZeroCyclesIsZero) {
  EXPECT_DOUBLE_EQ(throughput_mbps(1000, 0), 0.0);
}

TEST(Units, ByteSizes) {
  EXPECT_EQ(KiB(4), 4096u);
  EXPECT_EQ(MiB(1), 1048576u);
}

TEST(Bytes, LittleEndianRoundtrip16) {
  u8 buf[2];
  store_le16(buf, 0xBEEF);
  EXPECT_EQ(buf[0], 0xEF);
  EXPECT_EQ(buf[1], 0xBE);
  EXPECT_EQ(load_le16(buf), 0xBEEF);
}

TEST(Bytes, LittleEndianRoundtrip32) {
  u8 buf[4];
  store_le32(buf, 0xDEADBEEF);
  EXPECT_EQ(buf[0], 0xEF);
  EXPECT_EQ(load_le32(buf), 0xDEADBEEFu);
}

TEST(Bytes, LittleEndianRoundtrip64) {
  u8 buf[8];
  store_le64(buf, 0x0123456789ABCDEFULL);
  EXPECT_EQ(buf[0], 0xEF);
  EXPECT_EQ(buf[7], 0x01);
  EXPECT_EQ(load_le64(buf), 0x0123456789ABCDEFULL);
}

TEST(Bytes, BigEndian32) {
  u8 buf[4];
  store_be32(buf, 0xAA995566);  // the Xilinx sync word
  EXPECT_EQ(buf[0], 0xAA);
  EXPECT_EQ(buf[3], 0x66);
  EXPECT_EQ(load_be32(buf), 0xAA995566u);
}

TEST(Bytes, BitFieldExtraction) {
  EXPECT_EQ(bits(0xFFFFFFFF, 0, 32), 0xFFFFFFFFu);
  EXPECT_EQ(bits(0x12345678, 8, 8), 0x56u);
  EXPECT_EQ(bits(0x12345678, 28, 4), 0x1u);
  EXPECT_EQ(bits64(0xFF00000000ULL, 32, 8), 0xFFu);
}

TEST(Rng, Deterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, RangeBounds) {
  SplitMix64 r(7);
  for (int i = 0; i < 1000; ++i) {
    const u64 v = r.next_range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  SplitMix64 r(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Status, ToStringCoversAllCodes) {
  EXPECT_EQ(to_string(Status::kOk), "ok");
  EXPECT_EQ(to_string(Status::kCrcError), "crc_error");
  EXPECT_EQ(to_string(Status::kDecoupled), "decoupled");
  EXPECT_TRUE(ok(Status::kOk));
  EXPECT_FALSE(ok(Status::kTimeout));
}

TEST(Status, EveryEnumeratorHasDistinctNonEmptyName) {
  const Status all[] = {
      Status::kOk,            Status::kInvalidArgument,
      Status::kOutOfRange,    Status::kNotFound,
      Status::kAlreadyExists, Status::kDeviceBusy,
      Status::kTimeout,       Status::kIoError,
      Status::kCrcError,      Status::kProtocolError,
      Status::kNoSpace,       Status::kNotSupported,
      Status::kDecoupled,     Status::kInternal,
  };
  std::set<std::string_view> seen;
  for (const Status s : all) {
    const std::string_view name = to_string(s);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown") << static_cast<int>(s);
    EXPECT_TRUE(seen.insert(name).second) << name;  // round-trip unique
  }
  EXPECT_EQ(seen.size(), std::size(all));
}

TEST(Bytes, Crc32MatchesKnownVectors) {
  // IEEE CRC-32 of "123456789" is the classic check value.
  const u8 check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check), 0xCBF43926u);
  EXPECT_EQ(crc32(std::span<const u8>{}), 0u);
}

TEST(Bytes, Crc32ChainsIncrementally) {
  const u8 check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  const auto span = std::span<const u8>(check);
  u32 crc = crc32(span.first(4));
  crc = crc32(span.subspan(4), crc);
  EXPECT_EQ(crc, crc32(span));
}

// Bit-serial definition of CRC-32 (8 shift/xor steps per byte): the
// reference the slice-by-8 kernel must equal on every input.
u32 crc32_bitwise(std::span<const u8> data, u32 crc = 0) {
  crc = ~crc;
  for (const u8 byte : data) {
    crc ^= byte;
    for (int i = 0; i < 8; ++i) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

std::vector<u8> random_bytes(SplitMix64& rng, usize n) {
  std::vector<u8> v(n);
  for (u8& b : v) b = rng.next_byte();
  return v;
}

TEST(Bytes, Crc32EqualsBitSerialReferenceForShortLengths) {
  SplitMix64 rng(0xC3C32);
  for (usize n = 0; n <= 64; ++n) {
    const auto data = random_bytes(rng, n);
    EXPECT_EQ(crc32(data), crc32_bitwise(data)) << "length " << n;
  }
}

TEST(Bytes, Crc32EqualsBitSerialReferenceOnUnalignedTails) {
  SplitMix64 rng(0x7A11);
  const auto buf = random_bytes(rng, 4096 + 64);
  const auto all = std::span<const u8>(buf);
  for (usize off : {0, 1, 3, 5, 7}) {
    for (usize n : {9, 15, 17, 255, 1023, 4095, 4097}) {
      const auto part = all.subspan(off, n);
      EXPECT_EQ(crc32(part), crc32_bitwise(part)) << off << "+" << n;
    }
  }
}

TEST(Bytes, Crc32ChainedCallsEqualBitSerialReference) {
  SplitMix64 rng(0xC4A1);
  const auto buf = random_bytes(rng, 3000);
  const auto all = std::span<const u8>(buf);
  u32 fast = 0;
  u32 ref = 0;
  usize done = 0;
  while (done < all.size()) {
    const usize n = std::min<usize>(rng.next_range(0, 97), all.size() - done);
    fast = crc32(all.subspan(done, n), fast);
    ref = crc32_bitwise(all.subspan(done, n), ref);
    EXPECT_EQ(fast, ref) << "after " << done + n << " bytes";
    done += n;
  }
  EXPECT_EQ(fast, crc32_bitwise(all));
}

TEST(Bytes, Crc32IsUsableInConstantExpressions) {
  static constexpr u8 kCheck[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  static_assert(crc32(kCheck) == 0xCBF43926u);
}

TEST(Hexdump, FormatsAsciiGutter) {
  const u8 data[] = {'R', 'V', '-', 'C', 'A', 'P', 0x00, 0xFF};
  const std::string out = hexdump(data, 0x1000);
  EXPECT_NE(out.find("00001000"), std::string::npos);
  EXPECT_NE(out.find("|RV-CAP..|"), std::string::npos);
}

TEST(Hexdump, EmptyInputProducesNothing) {
  EXPECT_TRUE(hexdump({}).empty());
}

}  // namespace
}  // namespace rvcap
