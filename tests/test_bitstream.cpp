// Bitstream writer/parser/generator and the ICAP primitive.
#include <gtest/gtest.h>

#include "bitstream/generator.hpp"
#include "bitstream/parser.hpp"
#include "bitstream/writer.hpp"
#include "common/bytes.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "fabric/pbit_layout.hpp"
#include "icap/icap.hpp"
#include "sim/simulator.hpp"

namespace rvcap {
namespace {

using bitstream::BitstreamWriter;
using bitstream::FrameFill;
using bitstream::generate_partial_bitstream;
using bitstream::ParsedBitstream;
using bitstream::parse_bitstream;
using bitstream::RmDescriptor;
using fabric::case_study_partition;
using fabric::DeviceGeometry;
using fabric::kFrameWords;
using fabric::Partition;

struct BitstreamFixture : ::testing::Test {
  BitstreamFixture()
      : dev(DeviceGeometry::kintex7_325t()), rp(case_study_partition(dev)) {}
  DeviceGeometry dev;
  Partition rp;
};

TEST_F(BitstreamFixture, GeneratedSizeMatchesPaper) {
  const auto pbit = generate_partial_bitstream(dev, rp, {1, "sobel"});
  EXPECT_EQ(pbit.size(), 650892u);
}

TEST_F(BitstreamFixture, ParsesOwnOutput) {
  const auto pbit = generate_partial_bitstream(dev, rp, {1, "sobel"});
  ParsedBitstream parsed;
  ASSERT_EQ(parse_bitstream(pbit, &parsed), Status::kOk);
  EXPECT_TRUE(parsed.saw_sync);
  EXPECT_TRUE(parsed.saw_desync);
  EXPECT_TRUE(parsed.crc_ok);
  EXPECT_EQ(parsed.idcode, bitstream::kIdCode);
  ASSERT_EQ(parsed.sections.size(), 1u);
  EXPECT_EQ(parsed.sections[0].frame_count, 805u);
  EXPECT_EQ(parsed.payload_words, 805u * kFrameWords);
}

TEST_F(BitstreamFixture, MultiRangePartitionGetsMultipleSections) {
  const Partition p("multi", {{0, 2}, {0, 3}, {0, 10}, {0, 11}});
  const auto pbit = generate_partial_bitstream(dev, p, {2, "x"});
  ParsedBitstream parsed;
  ASSERT_EQ(parse_bitstream(pbit, &parsed), Status::kOk);
  EXPECT_EQ(parsed.sections.size(), 2u);
  EXPECT_EQ(pbit.size(), p.pbit_bytes(dev));
  EXPECT_EQ(fabric::count_ranges(p), 2u);
}

TEST_F(BitstreamFixture, CorruptionBreaksCrc) {
  auto pbit = generate_partial_bitstream(dev, rp, {1, "sobel"});
  pbit[pbit.size() / 2] ^= 0x10;  // flip one payload bit
  ParsedBitstream parsed;
  ASSERT_EQ(parse_bitstream(pbit, &parsed), Status::kOk);
  EXPECT_FALSE(parsed.crc_ok);
}

TEST_F(BitstreamFixture, TruncationIsProtocolError) {
  auto pbit = generate_partial_bitstream(dev, rp, {1, "sobel"});
  pbit.resize(pbit.size() / 2);
  ParsedBitstream parsed;
  EXPECT_EQ(parse_bitstream(pbit, &parsed), Status::kProtocolError);
}

TEST_F(BitstreamFixture, UnalignedInputRejected) {
  ParsedBitstream parsed;
  const u8 junk[] = {1, 2, 3};
  EXPECT_EQ(parse_bitstream(junk, &parsed), Status::kProtocolError);
}

TEST_F(BitstreamFixture, SparseFillIsMostlyZero) {
  const auto dense = generate_partial_bitstream(dev, rp, {1, "a"},
                                                FrameFill::kHashed);
  const auto sparse = generate_partial_bitstream(dev, rp, {1, "a"},
                                                 FrameFill::kSparse);
  EXPECT_EQ(dense.size(), sparse.size());
  const auto zeros = [](std::span<const u8> v) {
    usize n = 0;
    for (u8 b : v) n += (b == 0);
    return n;
  };
  EXPECT_GT(zeros(sparse), zeros(dense) * 4);
}

TEST_F(BitstreamFixture, DifferentModulesProduceDifferentPayloads) {
  const auto a = generate_partial_bitstream(dev, rp, {1, "a"});
  const auto b = generate_partial_bitstream(dev, rp, {2, "b"});
  EXPECT_EQ(a.size(), b.size());
  EXPECT_NE(a, b);
}

TEST(ConfigCrcTest, ResetAndDeterminism) {
  bitstream::ConfigCrc a, b;
  a.update(2, 0x1234);
  b.update(2, 0x1234);
  EXPECT_EQ(a.value(), b.value());
  a.update(2, 0x9999);
  EXPECT_NE(a.value(), b.value());
  a.reset();
  EXPECT_EQ(a.value(), 0u);
}

TEST(ConfigCrcTest, RegisterAddressMatters) {
  bitstream::ConfigCrc a, b;
  a.update(1, 0xABCD);
  b.update(2, 0xABCD);
  EXPECT_NE(a.value(), b.value());
}

// Bit-serial definition of the configuration CRC: the 37-bit message
// (5 address bits, then 32 data bits) shifted MSB-first through the
// poly-0x1EDC6F41 LFSR. The table-driven ConfigCrc must equal it.
u32 config_crc_bitwise(u32 crc, u32 reg, u32 word) {
  const u64 msg = (u64{reg & 0x1F} << 32) | word;
  for (int i = 36; i >= 0; --i) {
    const u32 bit = static_cast<u32>((msg >> i) & 1);
    const u32 top = (crc >> 31) & 1;
    crc <<= 1;
    if (bit ^ top) crc ^= 0x1EDC6F41;
  }
  return crc;
}

TEST(ConfigCrcTest, EqualsBitSerialReferenceForEveryRegister) {
  SplitMix64 rng(0x1EDC6F41);
  bitstream::ConfigCrc crc;
  u32 ref = 0;
  for (int round = 0; round < 64; ++round) {
    for (u32 reg = 0; reg < 32; ++reg) {
      const u32 word = static_cast<u32>(rng.next());
      crc.update(reg, word);
      ref = config_crc_bitwise(ref, reg, word);
      ASSERT_EQ(crc.value(), ref) << "reg " << reg << " round " << round;
    }
  }
}

TEST(ConfigCrcTest, RegisterAboveFiveBitsIsMasked) {
  SplitMix64 rng(0x37);
  for (int i = 0; i < 256; ++i) {
    const u32 reg = static_cast<u32>(rng.next());
    const u32 word = static_cast<u32>(rng.next());
    bitstream::ConfigCrc wide, masked;
    wide.update(reg, word);
    masked.update(reg & 0x1F, word);
    EXPECT_EQ(wide.value(), masked.value()) << std::hex << reg;
    EXPECT_EQ(wide.value(), config_crc_bitwise(0, reg, word))
        << std::hex << reg;
  }
}

// Values recorded with the bit-serial kernels before they were replaced
// by the table-driven ones: the case-study image must not change.
TEST_F(BitstreamFixture, CaseStudyImageChecksumsArePinned) {
  const auto pbit = generate_partial_bitstream(dev, rp, {1, "sobel"});
  ASSERT_EQ(pbit.size(), 650892u);
  EXPECT_EQ(crc32(pbit), 0xD4857200u);
  // The writer emits two CRC checks; the last is the final ConfigCrc.
  const u32 crc_hdr = bitstream::type1(bitstream::PacketOp::kWrite,
                                       bitstream::ConfigReg::kCrc, 1);
  std::vector<u32> crc_words;
  for (usize i = 0; i + 8 <= pbit.size(); i += 4) {
    if (load_be32(std::span(pbit).subspan(i, 4)) == crc_hdr) {
      crc_words.push_back(load_be32(std::span(pbit).subspan(i + 4, 4)));
    }
  }
  ASSERT_EQ(crc_words.size(), 2u);
  EXPECT_EQ(crc_words[0], 0x6F1F3C0Fu);
  EXPECT_EQ(crc_words[1], 0x7199829Au);
}

TEST(PacketCodec, Type1RoundTrip) {
  using namespace rvcap::bitstream;
  const u32 w = type1(PacketOp::kWrite, ConfigReg::kFar, 1);
  const PacketHeader h = decode_packet(w);
  EXPECT_EQ(h.type, 1u);
  EXPECT_EQ(h.op, PacketOp::kWrite);
  EXPECT_EQ(h.reg, static_cast<u32>(ConfigReg::kFar));
  EXPECT_EQ(h.count, 1u);
}

TEST(PacketCodec, Type2CarriesLargeCounts) {
  using namespace rvcap::bitstream;
  const u32 w = type2(PacketOp::kWrite, 805 * kFrameWords);
  const PacketHeader h = decode_packet(w);
  EXPECT_EQ(h.type, 2u);
  EXPECT_EQ(h.count, 805u * kFrameWords);
}

TEST(PacketCodec, NopIsNotAPayloadPacket) {
  const auto h = bitstream::decode_packet(bitstream::kNop);
  EXPECT_EQ(h.type, 1u);
  EXPECT_EQ(h.op, bitstream::PacketOp::kNop);
}

// ---------------------------------------------------------------------------
// ICAP primitive
// ---------------------------------------------------------------------------

struct IcapFixture : ::testing::Test {
  IcapFixture()
      : dev(DeviceGeometry::kintex7_325t()),
        rp(case_study_partition(dev)),
        cfg(dev),
        icap("icap", cfg) {
    handle = cfg.register_partition(rp);
    s.add(&icap);
  }

  /// Feed a byte stream into the 32-bit ICAP port with back-pressure.
  void feed(std::span<const u8> bytes) {
    usize i = 0;
    while (i < bytes.size()) {
      if (icap.port().push(load_be32(bytes.subspan(i, 4)))) {
        i += 4;
      }
      s.step();
    }
    ASSERT_TRUE(s.run_until_idle(1'000'000));
  }

  DeviceGeometry dev;
  Partition rp;
  fabric::ConfigMemory cfg;
  icap::Icap icap;
  sim::Simulator s;
  usize handle = 0;
};

TEST_F(IcapFixture, LoadsGeneratedBitstreamAndActivatesRm) {
  const auto pbit = generate_partial_bitstream(dev, rp, {3, "median"});
  feed(pbit);
  EXPECT_FALSE(icap.crc_error());
  EXPECT_FALSE(icap.synced()) << "DESYNC must end the pass";
  EXPECT_EQ(icap.frames_committed(), 805u);
  const auto st = cfg.partition_state(handle);
  EXPECT_TRUE(st.loaded);
  EXPECT_EQ(st.rm_id, 3u);
}

TEST_F(IcapFixture, ConsumesOneWordPerCycle) {
  const auto pbit = generate_partial_bitstream(dev, rp, {1, "x"});
  const Cycles t0 = s.now();
  feed(pbit);
  const Cycles dt = s.now() - t0;
  const Cycles words = pbit.size() / 4;
  EXPECT_GE(dt, words);        // hard 400 MB/s ceiling
  EXPECT_LE(dt, words + 64);   // feeding adds no real gaps
}

TEST_F(IcapFixture, CorruptPayloadSetsCrcErrorAndBlocksActivation) {
  ScopedLogLevel quiet(LogLevel::kError);
  auto pbit = generate_partial_bitstream(dev, rp, {4, "g"});
  pbit[200 * 1024] ^= 0x01;
  feed(pbit);
  EXPECT_TRUE(icap.crc_error());
  EXPECT_FALSE(cfg.partition_state(handle).loaded);
}

TEST_F(IcapFixture, WrongIdcodeBlocksFrameCommits) {
  ScopedLogLevel quiet(LogLevel::kError);
  const BitstreamWriter writer(0xDEADBEEF);  // wrong device
  BitstreamWriter::Section sec;
  sec.start = rp.base_frame(dev);
  sec.frame_words.assign(kFrameWords, 0x11111111);
  const auto bytes = BitstreamWriter::to_bytes(writer.build({{sec}}));
  feed(bytes);
  EXPECT_TRUE(icap.idcode_mismatch());
  EXPECT_EQ(icap.frames_committed(), 0u);
  icap.clear_errors();
  EXPECT_FALSE(icap.idcode_mismatch());
}

TEST_F(IcapFixture, GarbageBeforeSyncIsIgnored) {
  std::vector<u8> noise(256, 0x77);
  feed(noise);
  EXPECT_FALSE(icap.synced());
  const auto pbit = generate_partial_bitstream(dev, rp, {5, "y"});
  feed(pbit);
  EXPECT_TRUE(cfg.partition_state(handle).loaded);
}

TEST_F(IcapFixture, BackToBackLoadsSwapModules) {
  feed(generate_partial_bitstream(dev, rp, {1, "a"}));
  EXPECT_EQ(cfg.partition_state(handle).rm_id, 1u);
  feed(generate_partial_bitstream(dev, rp, {2, "b"}));
  const auto st = cfg.partition_state(handle);
  EXPECT_EQ(st.rm_id, 2u);
  EXPECT_EQ(st.loads_completed, 2u);
  EXPECT_EQ(icap.desync_count(), 2u);
}

TEST_F(IcapFixture, WordAndFrameCountersTrack) {
  const auto pbit = generate_partial_bitstream(dev, rp, {1, "a"});
  feed(pbit);
  EXPECT_EQ(icap.words_consumed(), pbit.size() / 4);
  EXPECT_EQ(icap.frames_committed(), 805u);
}

}  // namespace
}  // namespace rvcap
