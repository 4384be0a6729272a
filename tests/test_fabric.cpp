#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/rng.hpp"
#include "fabric/config_memory.hpp"
#include "fabric/frame_ecc.hpp"
#include "fabric/geometry.hpp"
#include "fabric/pbit_layout.hpp"

namespace rvcap {
namespace {

using fabric::case_study_partition;
using fabric::ColumnType;
using fabric::DeviceGeometry;
using fabric::FrameAddr;
using fabric::kFrameWords;
using fabric::Partition;
using fabric::plan_partition;
using fabric::RmManifest;
using resources::ResourceVec;

TEST(Geometry, FramesPerColumnMatch7Series) {
  EXPECT_EQ(fabric::frames_per_column(ColumnType::kClb), 36u);
  EXPECT_EQ(fabric::frames_per_column(ColumnType::kDsp), 28u);
  EXPECT_EQ(fabric::frames_per_column(ColumnType::kBram), 156u);
}

TEST(Geometry, ResourcesPerColumnRow) {
  EXPECT_EQ(fabric::resources_per_column(ColumnType::kClb),
            (ResourceVec{400, 800, 0, 0}));
  EXPECT_EQ(fabric::resources_per_column(ColumnType::kDsp),
            (ResourceVec{0, 0, 0, 20}));
  EXPECT_EQ(fabric::resources_per_column(ColumnType::kBram),
            (ResourceVec{0, 0, 10, 0}));
}

TEST(Geometry, ModelDeviceApproximatesK325T) {
  const auto dev = DeviceGeometry::kintex7_325t();
  const ResourceVec total = dev.total_resources();
  // Real XC7K325T: 203800 LUT, 407600 FF, 445 BRAM36, 840 DSP.
  EXPECT_NEAR(total.luts, 203800, 203800 * 0.05);
  EXPECT_NEAR(total.ffs, 407600, 407600 * 0.05);
  EXPECT_NEAR(total.brams, 445, 445 * 0.10);
  EXPECT_EQ(total.dsps, 840u);
  EXPECT_EQ(dev.rows(), 7u);
}

TEST(Geometry, FrameAddrEncodeDecodeRoundtrip) {
  const FrameAddr fa{5, 301, 97};
  EXPECT_EQ(FrameAddr::decode(fa.encode()), fa);
}

TEST(Geometry, NextFrameWalksMinorColumnRow) {
  const auto dev = DeviceGeometry::kintex7_325t();
  FrameAddr fa{0, 0, 0};
  const u32 col0_frames = dev.frames_in_column(0);
  for (u32 i = 1; i < col0_frames; ++i) {
    ASSERT_TRUE(dev.next_frame(&fa));
    EXPECT_EQ(fa.column, 0u);
    EXPECT_EQ(fa.minor, i);
  }
  ASSERT_TRUE(dev.next_frame(&fa));
  EXPECT_EQ(fa.column, 1u);
  EXPECT_EQ(fa.minor, 0u);
}

TEST(Geometry, NextFrameEndsAtDeviceEnd) {
  const auto dev = DeviceGeometry::kintex7_325t();
  FrameAddr fa{dev.rows() - 1, dev.num_columns() - 1,
               dev.frames_in_column(dev.num_columns() - 1) - 1};
  EXPECT_FALSE(dev.next_frame(&fa));
}

TEST(Geometry, WalkVisitsEveryFrameExactlyOnce) {
  const auto dev = DeviceGeometry::kintex7_325t();
  FrameAddr fa{0, 0, 0};
  u32 count = 1;
  while (dev.next_frame(&fa)) ++count;
  EXPECT_EQ(count, dev.total_frames());
}

TEST(CaseStudyPartition, MatchesPaperResources) {
  const auto dev = DeviceGeometry::kintex7_325t();
  const Partition rp = case_study_partition(dev);
  // Table III: RP = 3200 LUTs, 6400 FFs, 30 BRAMs, 20 DSPs.
  EXPECT_EQ(rp.resources(dev), (ResourceVec{3200, 6400, 30, 20}));
}

TEST(CaseStudyPartition, PbitSizeIsExactly650892Bytes) {
  const auto dev = DeviceGeometry::kintex7_325t();
  const Partition rp = case_study_partition(dev);
  EXPECT_EQ(rp.frame_count(dev), 805u);
  EXPECT_EQ(fabric::count_ranges(rp), 1u);
  EXPECT_EQ(rp.pbit_bytes(dev), 650892u);  // §IV-A
}

TEST(Partition, RangeCountingSplitsGaps) {
  const Partition p("p", {{0, 5}, {0, 6}, {0, 9}, {1, 10}, {1, 11}});
  EXPECT_EQ(fabric::count_ranges(p), 3u);
}

TEST(PlanPartition, CoversRequestedResources) {
  const auto dev = DeviceGeometry::kintex7_325t();
  const auto p =
      plan_partition(dev, "RP1", ResourceVec{1200, 2400, 10, 20}, 2);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->resources(dev).covers(ResourceVec{1200, 2400, 10, 20}));
}

TEST(PlanPartition, ImpossibleRequestFails) {
  const auto dev = DeviceGeometry::kintex7_325t();
  EXPECT_FALSE(
      plan_partition(dev, "RPX", ResourceVec{10'000'000, 0, 0, 0}, 0)
          .has_value());
}

TEST(PlanPartition, AvoidsReservedColumns) {
  const auto dev = DeviceGeometry::kintex7_325t();
  const auto p1 = plan_partition(dev, "A", ResourceVec{400, 800, 0, 0}, 0);
  ASSERT_TRUE(p1.has_value());
  const auto p2 = plan_partition(dev, "B", ResourceVec{400, 800, 0, 0}, 0,
                                 p1->columns());
  ASSERT_TRUE(p2.has_value());
  for (const auto& c1 : p1->columns()) {
    for (const auto& c2 : p2->columns()) {
      EXPECT_FALSE(c1 == c2);
    }
  }
}

// ---------------------------------------------------------------------------
// Configuration memory / RM activation tracking
// ---------------------------------------------------------------------------

struct CfgMemFixture : ::testing::Test {
  CfgMemFixture()
      : dev(DeviceGeometry::kintex7_325t()),
        rp(case_study_partition(dev)),
        cfg(dev) {
    handle = cfg.register_partition(rp);
    addrs = rp.frame_addrs(dev);
  }

  std::vector<u32> frame_with_manifest(u32 rm_id) const {
    std::vector<u32> words(kFrameWords, 0xA5A5A5A5);
    RmManifest m{rm_id, static_cast<u32>(addrs.size())};
    m.encode(std::span(words).subspan(0, 4));
    return words;
  }

  void load_full(u32 rm_id) {
    cfg.notify_rcrc();
    std::vector<u32> plain(kFrameWords, 0x5A5A5A5A);
    for (usize i = 0; i < addrs.size(); ++i) {
      cfg.write_frame(addrs[i],
                      i == 0 ? frame_with_manifest(rm_id) : plain);
    }
  }

  DeviceGeometry dev;
  Partition rp;
  fabric::ConfigMemory cfg;
  usize handle = 0;
  std::vector<FrameAddr> addrs;
};

TEST_F(CfgMemFixture, FullInOrderPassActivatesModule) {
  load_full(7);
  const auto st = cfg.partition_state(handle);
  EXPECT_TRUE(st.loaded);
  EXPECT_EQ(st.rm_id, 7u);
  EXPECT_EQ(st.loads_completed, 1u);
}

TEST_F(CfgMemFixture, PartialPassLeavesModuleInactive) {
  cfg.notify_rcrc();
  std::vector<u32> plain(kFrameWords, 1);
  for (usize i = 0; i < addrs.size() / 2; ++i) {
    cfg.write_frame(addrs[i], i == 0 ? frame_with_manifest(3) : plain);
  }
  EXPECT_FALSE(cfg.partition_state(handle).loaded);
}

TEST_F(CfgMemFixture, OutOfOrderWriteInvalidates) {
  load_full(1);
  ASSERT_TRUE(cfg.partition_state(handle).loaded);
  // A stray write into the middle of the partition wrecks it.
  cfg.write_frame(addrs[10], std::vector<u32>(kFrameWords, 9));
  EXPECT_FALSE(cfg.partition_state(handle).loaded);
}

TEST_F(CfgMemFixture, ReloadSwapsModule) {
  load_full(1);
  EXPECT_EQ(cfg.partition_state(handle).rm_id, 1u);
  load_full(2);
  const auto st = cfg.partition_state(handle);
  EXPECT_TRUE(st.loaded);
  EXPECT_EQ(st.rm_id, 2u);
  EXPECT_EQ(st.loads_completed, 2u);
}

TEST_F(CfgMemFixture, BadManifestPreventsActivation) {
  cfg.notify_rcrc();
  std::vector<u32> plain(kFrameWords, 2);
  for (usize i = 0; i < addrs.size(); ++i) {
    cfg.write_frame(addrs[i], plain);  // no manifest anywhere
  }
  EXPECT_FALSE(cfg.partition_state(handle).loaded);
}

TEST_F(CfgMemFixture, CrcErrorInvalidatesTouchedPartition) {
  load_full(4);
  ASSERT_TRUE(cfg.partition_state(handle).loaded);
  // Next pass loads fully but then reports a CRC error.
  load_full(5);
  cfg.notify_crc_error();
  EXPECT_FALSE(cfg.partition_state(handle).loaded);
}

TEST_F(CfgMemFixture, CrcErrorDoesNotTouchOtherPassPartitions) {
  load_full(4);
  cfg.notify_rcrc();    // a new pass that never touches the partition
  cfg.notify_crc_error();
  EXPECT_TRUE(cfg.partition_state(handle).loaded);
}

TEST_F(CfgMemFixture, InvalidFrameAddressCounted) {
  cfg.write_frame(FrameAddr{99, 99, 99}, std::vector<u32>(kFrameWords, 0));
  EXPECT_EQ(cfg.bad_address_writes(), 1u);
  EXPECT_EQ(cfg.frames_written(), 0u);
}

TEST_F(CfgMemFixture, FrameReadbackMatchesWrite) {
  const auto words = frame_with_manifest(9);
  cfg.write_frame(addrs[0], words);
  const auto* back = cfg.frame(addrs[0]);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(*back, words);
  EXPECT_EQ(cfg.frame(addrs[1]), nullptr);
}

// Bit-serial definition of the frame ECC: every set bit XORs its
// 1-based position (word*32 + bit + 1) into the syndrome. The
// popcount-parity kernel must equal it.
fabric::FrameEcc frame_ecc_bitwise(std::span<const u32> words) {
  fabric::FrameEcc e;
  u32 acc = 0;
  for (usize w = 0; w < words.size(); ++w) {
    acc ^= words[w];
    for (u32 b = 0; b < 32; ++b) {
      if ((words[w] >> b) & 1) e.syndrome ^= static_cast<u32>(w) * 32 + b + 1;
    }
  }
  e.parity = (std::popcount(acc) & 1) != 0;
  return e;
}

std::vector<u32> random_words(SplitMix64& rng, usize n) {
  std::vector<u32> v(n);
  for (u32& x : v) x = static_cast<u32>(rng.next());
  return v;
}

TEST(FrameEccKernel, EqualsBitSerialReferenceOnRandomFrames) {
  SplitMix64 rng(0xECC1);
  for (usize n : {usize{0}, usize{1}, usize{2}, usize{31}, usize{101},
                  usize{kFrameWords}}) {
    for (int i = 0; i < 16; ++i) {
      const auto w = random_words(rng, n);
      EXPECT_EQ(fabric::compute_frame_ecc(w), frame_ecc_bitwise(w)) << n;
    }
  }
}

TEST(FrameEccKernel, BitThirtyOneCarriesIntoNextWordSlot) {
  SplitMix64 rng(0xECC31);
  for (usize n : {usize{101}, usize{kFrameWords}}) {
    auto w = random_words(rng, n);
    for (u32& x : w) x |= 0x80000000u;
    EXPECT_EQ(fabric::compute_frame_ecc(w), frame_ecc_bitwise(w));
    const std::vector<u32> only_top(n, 0x80000000u);
    EXPECT_EQ(fabric::compute_frame_ecc(only_top), frame_ecc_bitwise(only_top));
  }
}

TEST(FrameEccKernel, AllOnesAndAllZeroFrames) {
  for (usize n : {usize{101}, usize{kFrameWords}}) {
    const std::vector<u32> ones(n, 0xFFFFFFFFu);
    EXPECT_EQ(fabric::compute_frame_ecc(ones), frame_ecc_bitwise(ones));
    const std::vector<u32> zeros(n, 0);
    EXPECT_EQ(fabric::compute_frame_ecc(zeros), fabric::FrameEcc{});
  }
}

TEST(FrameEccKernel, EverySingleBitFlipOfA101WordFrameLocalizes) {
  SplitMix64 rng(0xECC101);
  const auto golden = random_words(rng, 101);
  const fabric::FrameEcc g = fabric::compute_frame_ecc(golden);
  ASSERT_EQ(g, frame_ecc_bitwise(golden));
  for (u32 word = 0; word < 101; ++word) {
    for (u32 bit = 0; bit < 32; ++bit) {
      auto w = golden;
      w[word] ^= u32{1} << bit;
      const auto d =
          fabric::decode_frame_ecc(g, fabric::compute_frame_ecc(w), 101);
      ASSERT_EQ(d.cls, fabric::EccClass::kCorrectable) << word << ":" << bit;
      EXPECT_EQ(d.word, word);
      EXPECT_EQ(d.bit, bit);
    }
  }
}

TEST(Manifest, EncodeDecodeRoundtrip) {
  std::vector<u32> frame(kFrameWords, 0);
  RmManifest m{42, 805};
  m.encode(std::span(frame).subspan(0, 4));
  const auto back = RmManifest::decode(frame);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->rm_id, 42u);
  EXPECT_EQ(back->frame_count, 805u);
}

TEST(Manifest, CorruptedChecksumRejected) {
  std::vector<u32> frame(kFrameWords, 0);
  RmManifest{42, 805}.encode(std::span(frame).subspan(0, 4));
  frame[1] ^= 1;  // flip a bit in rm_id
  EXPECT_FALSE(RmManifest::decode(frame).has_value());
}

}  // namespace
}  // namespace rvcap
