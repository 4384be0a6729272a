#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "mem/ddr.hpp"
#include "mem/sram.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"

namespace rvcap {
namespace {

using mem::DdrController;
using test::bfm_read64;
using test::bfm_read_burst;
using test::bfm_write64;
using test::bfm_write_burst;

struct DdrFixture : ::testing::Test {
  DdrFixture() : ddr("ddr") { s.add(&ddr); }
  sim::Simulator s;
  DdrController ddr;
};

TEST_F(DdrFixture, BackdoorPokePeekRoundtrip) {
  const u8 data[] = {1, 2, 3, 4, 5};
  ddr.poke(0x1234, data);
  u8 out[5] = {};
  ddr.peek(0x1234, out);
  EXPECT_EQ(0, std::memcmp(data, out, 5));
}

TEST_F(DdrFixture, UntouchedMemoryReadsZero) {
  EXPECT_EQ(ddr.peek64(0x900000), 0u);
  u8 out[16] = {0xFF};
  ddr.peek(0x900000, out);
  for (u8 b : out) EXPECT_EQ(b, 0);
}

TEST_F(DdrFixture, BackdoorCopiesSpanPageBoundaries) {
  // A 10,000-byte image at an odd offset covers parts of four 4 KiB
  // pages; the read window adds an untouched page on each side.
  SplitMix64 rng(0xDD4);
  std::vector<u8> data(10'000);
  for (u8& b : data) b = rng.next_byte();
  const Addr at = 0x2FF3;
  ddr.poke(at, data);
  std::vector<u8> out(data.size() + 2 * 4096 + 0x1FF3, 0xAA);
  ddr.peek(0x1000, out);
  const usize lead = at - 0x1000;
  for (usize i = 0; i < lead; ++i) ASSERT_EQ(out[i], 0) << i;
  EXPECT_EQ(0, std::memcmp(out.data() + lead, data.data(), data.size()));
  for (usize i = lead + data.size(); i < out.size(); ++i) {
    ASSERT_EQ(out[i], 0) << i;
  }
}

TEST_F(DdrFixture, AxiWriteVisibleViaBackdoor) {
  bfm_write64(s, ddr.port(), 0x100, 0x0102030405060708ULL);
  EXPECT_EQ(ddr.peek64(0x100), 0x0102030405060708ULL);
}

TEST_F(DdrFixture, BackdoorVisibleViaAxiRead) {
  ddr.poke64(0x200, 0xFEEDFACECAFEBEEFULL);
  EXPECT_EQ(bfm_read64(s, ddr.port(), 0x200).first, 0xFEEDFACECAFEBEEFULL);
}

TEST_F(DdrFixture, WriteStrobesAreHonored) {
  ddr.poke64(0x300, 0xAAAAAAAAAAAAAAAAULL);
  bfm_write64(s, ddr.port(), 0x300, 0x00000000BBBBBBBBULL, 0x0F);
  EXPECT_EQ(ddr.peek64(0x300), 0xAAAAAAAABBBBBBBBULL);
}

TEST_F(DdrFixture, FirstBeatLatencyThenStreaming) {
  // A 16-beat burst should cost roughly latency + 16 cycles, not 16x
  // latency: the controller pipelines the data phase.
  for (u32 i = 0; i < 16; ++i) ddr.poke64(0x400 + 8 * i, i);
  const Cycles t0 = s.now();
  const auto beats = bfm_read_burst(s, ddr.port(), 0x400, 16);
  const Cycles dt = s.now() - t0;
  for (u32 i = 0; i < 16; ++i) EXPECT_EQ(beats[i], i);
  EXPECT_GE(dt, 16u);
  EXPECT_LE(dt, 16u + 24u);
}

TEST_F(DdrFixture, BackToBackBurstsPipelineLatency) {
  // Two sequential bursts should not pay the full first-access latency
  // twice: the second AR's countdown overlaps the first's data phase.
  const Cycles t0 = s.now();
  (void)bfm_read_burst(s, ddr.port(), 0x0, 16);
  const Cycles one = s.now() - t0;

  ddr.port().ar.push(axi::AxiAr{0x0, 15, 3});
  ddr.port().ar.push(axi::AxiAr{0x80, 15, 3});
  const Cycles t1 = s.now();
  u32 got = 0;
  ASSERT_TRUE(s.run_until(
      [&] {
        while (ddr.port().r.can_pop()) {
          ddr.port().r.pop();
          ++got;
        }
        return got == 32;
      },
      10000));
  const Cycles two = s.now() - t1;
  EXPECT_LT(two, 2 * one - 4);
}

TEST_F(DdrFixture, FullDuplexReadWriteStreamsConcurrently) {
  // AXI4 R and W data channels are independent: a saturating read
  // stream plus a saturating write stream complete in roughly the time
  // of either alone, not their sum.
  const u32 beats = 64;
  u32 ar_sent = 0, w_sent = 0, r_got = 0, b_got = 0;
  ddr.port().aw.push(axi::AxiAw{0x1000, 63, 3});
  const Cycles t0 = s.now();
  ASSERT_TRUE(s.run_until(
      [&] {
        if (ar_sent < 4 &&
            ddr.port().ar.push(axi::AxiAr{ar_sent * 0x80, 15, 3})) {
          ++ar_sent;
        }
        if (w_sent < beats && ddr.port().w.can_push()) {
          ddr.port().w.push(axi::AxiW{w_sent, 0xFF, w_sent + 1 == beats});
          ++w_sent;
        }
        while (ddr.port().r.can_pop()) {
          ddr.port().r.pop();
          ++r_got;
        }
        while (ddr.port().b.can_pop()) {
          ddr.port().b.pop();
          ++b_got;
        }
        return r_got == beats && b_got == 1;
      },
      10000));
  const Cycles dt = s.now() - t0;
  EXPECT_GE(dt, beats);           // each channel is 1 beat/cycle max
  EXPECT_LE(dt, beats + 64);      // but they overlap, not serialize
}

TEST_F(DdrFixture, BurstWriteReadbackRandomPayload) {
  SplitMix64 rng(77);
  std::vector<u64> payload(32);
  for (auto& v : payload) v = rng.next();
  ASSERT_EQ(bfm_write_burst(s, ddr.port(), 0x2000,
                            std::span<const u64>(payload).first(16)),
            axi::Resp::kOkay);
  ASSERT_EQ(bfm_write_burst(s, ddr.port(), 0x2080,
                            std::span<const u64>(payload).subspan(16)),
            axi::Resp::kOkay);
  const auto a = bfm_read_burst(s, ddr.port(), 0x2000, 16);
  const auto b = bfm_read_burst(s, ddr.port(), 0x2080, 16);
  for (u32 i = 0; i < 16; ++i) {
    EXPECT_EQ(a[i], payload[i]);
    EXPECT_EQ(b[i], payload[16 + i]);
  }
}

TEST_F(DdrFixture, PagesAllocatedLazily) {
  DdrController::Config cfg;
  EXPECT_EQ(cfg.size_bytes, 1ULL << 30);
  // Touch two distant pages on a fresh controller; both work.
  ddr.poke64(0, 1);
  ddr.poke64((1ULL << 29), 2);
  EXPECT_EQ(ddr.peek64(0), 1u);
  EXPECT_EQ(ddr.peek64(1ULL << 29), 2u);
}

struct SramFixture : ::testing::Test {
  SramFixture() : ram("boot", 4096) { s.add(&ram); }
  sim::Simulator s;
  mem::AxiSram ram;
};

TEST_F(SramFixture, SingleCycleClassAccess) {
  bfm_write64(s, ram.port(), 0x10, 0x1122334455667788ULL);
  const Cycles t0 = s.now();
  EXPECT_EQ(bfm_read64(s, ram.port(), 0x10).first, 0x1122334455667788ULL);
  EXPECT_LE(s.now() - t0, 4u);
}

TEST_F(SramFixture, BackdoorAndBusAgree) {
  const u8 blob[] = "boot.bin";
  ram.poke(0x40, {blob, sizeof blob});
  u8 out[sizeof blob] = {};
  ram.peek(0x40, out);
  EXPECT_STREQ(reinterpret_cast<const char*>(out), "boot.bin");
}

TEST_F(SramFixture, BurstRoundtrip) {
  std::vector<u64> data{9, 8, 7, 6};
  bfm_write_burst(s, ram.port(), 0x100, data);
  EXPECT_EQ(bfm_read_burst(s, ram.port(), 0x100, 4), data);
}

}  // namespace
}  // namespace rvcap
