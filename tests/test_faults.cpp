// Deterministic fault injection + self-healing reconfiguration.
//
// Covers the FaultInjector itself (determinism, plans) and the recovery
// pipeline end to end: for every instrumented site, activation under
// the default RecoveryPolicy must converge to kOk with the RP coupled
// to a verified configuration — and when recovery is impossible, the RP
// must be left decoupled, never coupled to a corrupt partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "bitstream/generator.hpp"
#include "driver/dpr_manager.hpp"
#include "driver/spi_sd.hpp"
#include "driver/stack.hpp"
#include "sim/fault_injector.hpp"
#include "soc/ariane_soc.hpp"
#include "storage/fat32.hpp"
#include "healing_world.hpp"

namespace rvcap {
namespace {

using driver::DmaMode;
using driver::DprManager;
using driver::FailStage;
using sim::FaultInjector;
using soc::ArianeSoc;
using soc::SocConfig;
namespace sites = sim::fault_sites;

// ---------------------------------------------------------------------
// FaultInjector unit behaviour
// ---------------------------------------------------------------------

TEST(FaultInjector, UnarmedAndUnknownSitesNeverFire) {
  FaultInjector fi(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(fi.should_fire("no.such.site"));
  }
  EXPECT_EQ(fi.total_fires(), 0u);
}

TEST(FaultInjector, TypoedSiteNameIsAHardError) {
  FaultInjector fi(7);
  // Neither canonical nor declared: arm must refuse and leave the site
  // unarmed instead of silently creating a no-op site.
  EXPECT_EQ(fi.arm("sd.read.tokn", /*count=*/1), Status::kNotFound);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(fi.should_fire("sd.read.tokn"));
  }
  EXPECT_EQ(fi.total_fires(), 0u);
  // Canonical names arm without any declaration.
  EXPECT_EQ(fi.arm(sites::kSdReadToken, /*count=*/1), Status::kOk);
  EXPECT_TRUE(fi.should_fire(sites::kSdReadToken));
}

TEST(FaultInjector, DeclaredSitesArmAndSurviveReseed) {
  FaultInjector fi(7);
  EXPECT_FALSE(fi.known("test.site"));
  fi.declare_site("test.site");
  EXPECT_TRUE(fi.known("test.site"));
  EXPECT_EQ(fi.arm("test.site", /*count=*/1), Status::kOk);
  EXPECT_TRUE(fi.should_fire("test.site"));
  fi.reseed(8);  // clears armed plans, keeps the declared registry
  EXPECT_TRUE(fi.known("test.site"));
  EXPECT_EQ(fi.arm("test.site", /*count=*/1), Status::kOk);
}

TEST(FaultInjector, CanonicalSiteListIsSortedAndComplete) {
  const auto& all = sites::all();
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  for (std::string_view name : all) {
    EXPECT_TRUE(sites::is_canonical(name)) << name;
  }
  // Every site the components consult must be enumerable, including
  // the network plant's.
  const std::set<std::string_view> s(all.begin(), all.end());
  EXPECT_TRUE(s.count(sites::kSdReadToken));
  EXPECT_TRUE(s.count(sites::kSdReadCrc));
  EXPECT_TRUE(s.count(sites::kIcapCrcCorrupt));
  EXPECT_TRUE(s.count(sites::kNetDrop));
  EXPECT_TRUE(s.count(sites::kNetDup));
  EXPECT_TRUE(s.count(sites::kNetReorder));
  EXPECT_TRUE(s.count(sites::kNetCorrupt));
  EXPECT_TRUE(s.count(sites::kNetServerStall));
  EXPECT_FALSE(sites::is_canonical("no.such.site"));
}

TEST(FaultInjector, CountLimitsFires) {
  FaultInjector fi(7);
  fi.declare_site("x");
  fi.arm("x", /*count=*/2);
  u32 fired = 0;
  for (int i = 0; i < 50; ++i) {
    if (fi.should_fire("x")) ++fired;
  }
  EXPECT_EQ(fired, 2u);
  EXPECT_EQ(fi.fires("x"), 2u);
  EXPECT_EQ(fi.queries("x"), 50u);
}

TEST(FaultInjector, SkipDelaysFirstFire) {
  FaultInjector fi(7);
  fi.declare_site("x");
  fi.arm("x", /*count=*/1, /*probability=*/1.0, /*skip=*/3);
  EXPECT_FALSE(fi.should_fire("x"));
  EXPECT_FALSE(fi.should_fire("x"));
  EXPECT_FALSE(fi.should_fire("x"));
  EXPECT_TRUE(fi.should_fire("x"));
  EXPECT_FALSE(fi.should_fire("x"));
}

TEST(FaultInjector, UnlimitedCountKeepsFiring) {
  FaultInjector fi(7);
  fi.declare_site("x");
  fi.arm("x", /*count=*/0);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(fi.should_fire("x"));
  }
}

TEST(FaultInjector, ProbabilityIsSeedDeterministic) {
  FaultInjector a(42), b(42), c(43);
  a.declare_site("p");
  b.declare_site("p");
  c.declare_site("p");
  a.arm("p", 0, 0.5);
  b.arm("p", 0, 0.5);
  c.arm("p", 0, 0.5);
  u32 same = 0, diff_seed_same = 0;
  for (int i = 0; i < 400; ++i) {
    const bool fa = a.should_fire("p");
    if (fa == b.should_fire("p")) ++same;
    if (fa == c.should_fire("p")) ++diff_seed_same;
  }
  EXPECT_EQ(same, 400u);            // identical seeds agree exactly
  EXPECT_LT(diff_seed_same, 400u);  // a different seed diverges
  // Roughly half fire at p=0.5.
  EXPECT_GT(a.fires("p"), 100u);
  EXPECT_LT(a.fires("p"), 300u);
}

TEST(FaultInjector, SiteStreamsAreInterleavingIndependent) {
  // The decisions at site "a" must not depend on how often other sites
  // are queried in between.
  FaultInjector x(9), y(9);
  x.declare_site("a");
  y.declare_site("a");
  y.declare_site("b");
  x.arm("a", 0, 0.5);
  y.arm("a", 0, 0.5);
  y.arm("b", 0, 0.5);
  std::vector<bool> xs, ys;
  for (int i = 0; i < 64; ++i) {
    xs.push_back(x.should_fire("a"));
    ys.push_back(y.should_fire("a"));
    y.should_fire("b");
    y.should_fire("b");
  }
  EXPECT_EQ(xs, ys);
}

TEST(FaultInjector, ValueIsDeterministicAndBounded) {
  FaultInjector a(5), b(5);
  for (int i = 0; i < 64; ++i) {
    const u64 va = a.value("v", 97);
    EXPECT_EQ(va, b.value("v", 97));
    EXPECT_LT(va, 97u);
  }
  EXPECT_EQ(a.value("v", 0), 0u);
}

TEST(FaultInjector, DisarmStopsFiring) {
  FaultInjector fi(1);
  fi.declare_site("x");
  fi.declare_site("y");
  fi.arm("x", 0);
  EXPECT_TRUE(fi.should_fire("x"));
  fi.disarm("x");
  EXPECT_FALSE(fi.should_fire("x"));
  fi.arm("x", 0);
  fi.arm("y", 0);
  fi.disarm_all();
  EXPECT_FALSE(fi.should_fire("x"));
  EXPECT_FALSE(fi.should_fire("y"));
}

// ---------------------------------------------------------------------
// Recovery over pre-staged modules (rp0, DMA/ICAP fault sites)
// ---------------------------------------------------------------------

using RecoveryWorld = test::HealingWorld;

struct FaultRecoveryFixture : ::testing::Test, RecoveryWorld {};

TEST_F(FaultRecoveryFixture, NoFaultsCleanActivation) {
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  EXPECT_FALSE(decoupled());
  EXPECT_EQ(mgr.stats().recoveries, 0u);
  EXPECT_EQ(mgr.journal_events(), 0u);
}

TEST_F(FaultRecoveryFixture, RecoversFromDmaSlvErr) {
  fi.arm(sites::kDmaMm2sSlvErr, /*count=*/1);
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  EXPECT_EQ(mgr.active_module(), "sobel");
  EXPECT_FALSE(decoupled());
  EXPECT_EQ(mgr.stats().dma_errors, 1u);
  EXPECT_EQ(mgr.stats().recoveries, 1u);
  EXPECT_GE(mgr.stats().blank_passes, 1u);
  EXPECT_EQ(mgr.stats().scrub_verifies, 1u);
  const auto j = mgr.journal();
  ASSERT_GE(j.size(), 2u);
  EXPECT_EQ(j.front().stage, FailStage::kDma);
  EXPECT_EQ(j.front().status, Status::kIoError);
  EXPECT_EQ(j.back().stage, FailStage::kRecovered);
  EXPECT_EQ(j.back().status, Status::kOk);
}

TEST_F(FaultRecoveryFixture, RecoversFromDmaStallTimeout) {
  // Shrink the WFI bound so the wedged transfer times out quickly.
  auto t = drv.timeouts();
  t.irq_wait_cycles = 3'000'000;
  drv.set_timeouts(t);
  fi.arm(sites::kDmaMm2sStall, /*count=*/1);
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  EXPECT_FALSE(decoupled());
  EXPECT_EQ(mgr.stats().dma_timeouts, 1u);
  EXPECT_EQ(mgr.stats().recoveries, 1u);
}

TEST_F(FaultRecoveryFixture, RecoversFromEarlyIoc) {
  fi.arm(sites::kDmaMm2sEarlyIoc, /*count=*/1);
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  EXPECT_FALSE(decoupled());
  EXPECT_EQ(mgr.stats().config_failures, 1u);
  EXPECT_EQ(mgr.stats().recoveries, 1u);
}

TEST_F(FaultRecoveryFixture, RecoversFromIcapSyncLoss) {
  fi.arm(sites::kIcapSyncLoss, /*count=*/1);
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  EXPECT_EQ(mgr.active_module(), "sobel");
  EXPECT_FALSE(decoupled());
  EXPECT_EQ(mgr.stats().recoveries, 1u);
}

TEST_F(FaultRecoveryFixture, RecoversFromIcapCrcCorruption) {
  fi.arm(sites::kIcapCrcCorrupt, /*count=*/1);
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  EXPECT_FALSE(decoupled());
  EXPECT_EQ(mgr.stats().recoveries, 1u);
}

TEST_F(FaultRecoveryFixture, CorruptedRepairReloadNeverReplacesGoldenSnapshot) {
  // Regression: scrub_and_repair() must keep the existing snapshot
  // authoritative when the repair reload is itself corrupted. The old
  // behaviour re-snapshotted right after the reload, recording the
  // damaged image as golden — every later scrub then silently compared
  // against corruption.
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  ASSERT_EQ(scrubber.snapshot(soc.rp0()), Status::kOk);

  // Calibrate: count the injector queries one full scrub pass makes at
  // the ICAP write port (armed at p=0 so nothing fires), so the real
  // plan below can skip past the detection scrub.
  fi.arm(sites::kIcapCrcCorrupt, FaultInjector::Plan{0, 0.0, 0});
  bool clean = false;
  ASSERT_EQ(scrubber.scrub(soc.rp0(), &clean), Status::kOk);
  ASSERT_TRUE(clean);
  const u64 per_pass = fi.queries(sites::kIcapCrcCorrupt);

  // Land an upset so the next scrub detects, then corrupt the repair
  // reload itself: skip past the detection pass and ~50 words into the
  // reload, well inside the FDRI frame payload.
  fabric::FrameAddr fa = soc.rp0().base_frame(soc.device());
  ASSERT_TRUE(soc.device().next_frame(&fa));
  ASSERT_TRUE(soc.config_memory().inject_upset(fa, /*word=*/7, /*bit=*/3));
  fi.arm(sites::kIcapCrcCorrupt,
         FaultInjector::Plan{1, 1.0, static_cast<u32>(per_pass) + 50});

  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdSobel, "sobel"});
  const driver::ReconfigModule m{"sobel", accel::kRmIdSobel,
                                 staged_addr("sobel"),
                                 static_cast<u32>(pbit.size())};
  EXPECT_EQ(scrubber.scrub_and_repair(soc.rp0(), m), Status::kCrcError);
  EXPECT_EQ(fi.fires(sites::kIcapCrcCorrupt), 1u);
  EXPECT_EQ(scrubber.stats().repairs, 0u);
  // The corrupted pass tripped the bitstream CRC and invalidated the
  // partition rather than leaving the damage live.
  EXPECT_FALSE(soc.config_memory().partition_state(soc.rp0_handle()).loaded);

  // The snapshot survived: a clean reload scrubs clean against it, and
  // a repair through the same entry point now counts.
  ASSERT_EQ(drv.init_reconfig_process(m, DmaMode::kInterrupt), Status::kOk);
  EXPECT_EQ(scrubber.scrub(soc.rp0(), &clean), Status::kOk);
  EXPECT_TRUE(clean);
  ASSERT_TRUE(soc.config_memory().inject_upset(fa, /*word=*/9, /*bit=*/1));
  EXPECT_EQ(scrubber.scrub_and_repair(soc.rp0(), m), Status::kOk);
  EXPECT_EQ(scrubber.stats().repairs, 1u);
}

TEST_F(FaultRecoveryFixture, FallsBackToHwicapAfterRepeatedDmaFailures) {
  // DMA path always fails: tries 1..kFallbackAfterFailures run on it,
  // and the next (last) try takes the fallback.
  static_assert(DprManager::kFallbackAfterFailures < DprManager::kMaxAttempts);
  fi.arm(sites::kDmaMm2sSlvErr, /*count=*/0);
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  EXPECT_EQ(mgr.active_module(), "sobel");
  EXPECT_FALSE(decoupled());
  EXPECT_EQ(mgr.stats().fallback_reconfigs, 1u);
  EXPECT_EQ(mgr.stats().dma_errors, DprManager::kFallbackAfterFailures);
}

TEST_F(FaultRecoveryFixture, ExhaustedRetriesLeaveRpDecoupled) {
  mgr.attach_fallback(nullptr);  // no escape hatch
  fi.arm(sites::kDmaMm2sSlvErr, /*count=*/0);
  EXPECT_EQ(mgr.activate("sobel"), Status::kIoError);
  EXPECT_TRUE(decoupled());
  EXPECT_FALSE(soc.config_memory().partition_state(soc.rp0_handle()).loaded);
  EXPECT_EQ(mgr.stats().retries_exhausted, 1u);
  const auto j = mgr.journal();
  ASSERT_FALSE(j.empty());
  EXPECT_EQ(j.back().stage, FailStage::kExhausted);
}

TEST_F(FaultRecoveryFixture, CorruptPinnedImageNeverCouples) {
  // Flip one byte of the pre-staged image: the golden CRC from
  // registration no longer matches and there is no SD copy to reload,
  // so every attempt must be refused before the ICAP sees a word.
  const Addr at = staged_addr("sobel") + 0x100;
  u8 byte = 0;
  soc.ddr().peek(at, std::span(&byte, 1));
  byte ^= 0xFF;
  soc.ddr().poke(at, std::span<const u8>(&byte, 1));
  EXPECT_EQ(mgr.activate("sobel"), Status::kCrcError);
  EXPECT_TRUE(decoupled());
  EXPECT_FALSE(soc.config_memory().partition_state(soc.rp0_handle()).loaded);
  EXPECT_EQ(mgr.stats().staged_crc_failures, DprManager::kMaxAttempts);
  EXPECT_EQ(mgr.stats().reconfigurations, 0u);
}

TEST_F(FaultRecoveryFixture, ActivationFailureKeepsPreviousModuleOut) {
  // A good module is active; switching to another module fails hard.
  // The RP must end decoupled and blanked, not left on the stale or the
  // partial configuration.
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  mgr.attach_fallback(nullptr);
  fi.arm(sites::kDmaMm2sSlvErr, /*count=*/0);
  EXPECT_EQ(mgr.activate("median"), Status::kIoError);
  EXPECT_TRUE(decoupled());
  EXPECT_FALSE(soc.config_memory().partition_state(soc.rp0_handle()).loaded);
}

TEST_F(FaultRecoveryFixture, SameSeedSameJournal) {
  // Probabilistic, unlimited faults: whatever sequence of failures,
  // recoveries, or exhaustion plays out, an identically-seeded world
  // must reproduce it exactly — statuses, journal, and fire counts.
  const auto scenario = [](RecoveryWorld& w) {
    // One transfer path, and no long post-recovery readback waits.
    w.mgr.attach_fallback(nullptr);
    w.mgr.attach_scrubber(nullptr, nullptr);
    w.fi.arm(sites::kDmaMm2sSlvErr, 0, 0.5);
    w.fi.arm(sites::kIcapCrcCorrupt, 3, 0.001);
    std::vector<Status> out;
    out.push_back(w.mgr.activate("sobel"));
    out.push_back(w.mgr.activate("median"));
    return out;
  };
  const auto s1 = scenario(*this);
  const auto j1 = mgr.journal();
  const auto report1 = fi.fire_report();

  // Fresh, identically-seeded world must reproduce the exact journal.
  RecoveryWorld other;
  const auto s2 = scenario(other);
  const auto j2 = other.mgr.journal();

  EXPECT_EQ(s1, s2);
  EXPECT_FALSE(j1.empty());  // p=0.5 over many transfers: events occur

  ASSERT_EQ(j1.size(), j2.size());
  for (usize i = 0; i < j1.size(); ++i) {
    EXPECT_EQ(j1[i].mtime, j2[i].mtime) << i;
    EXPECT_EQ(j1[i].stage, j2[i].stage) << i;
    EXPECT_EQ(j1[i].status, j2[i].status) << i;
    EXPECT_EQ(j1[i].rm_id, j2[i].rm_id) << i;
    EXPECT_EQ(j1[i].attempt, j2[i].attempt) << i;
  }
  EXPECT_EQ(report1, other.fi.fire_report());
}

// ---------------------------------------------------------------------
// Recovery over SD-backed modules (staging fault sites)
// ---------------------------------------------------------------------

struct SdFaultFixture : ::testing::Test {
  SdFaultFixture()
      : soc(SocConfig{}),
        drv(soc.cpu(), soc.plic()),
        small("RPA", {{0, 2}}),
        host_io(soc.sd_card()),
        fi(0xF00D) {
    handle = soc.add_partition(small);
    EXPECT_EQ(storage::fat32_format(host_io), Status::kOk);
    storage::Fat32Volume host_vol(host_io);
    EXPECT_EQ(host_vol.mount(), Status::kOk);
    for (u32 id : {60u, 61u}) {
      const auto pbit = bitstream::generate_partial_bitstream(
          soc.device(), small, {id, "m"});
      EXPECT_EQ(host_vol.write_file("M" + std::to_string(id) + ".PB", pbit),
                Status::kOk);
    }

    sd = std::make_unique<driver::SpiSdDriver>(soc.cpu());
    EXPECT_EQ(sd->init_card(), Status::kOk);
    io = std::make_unique<driver::CpuBlockIo>(*sd,
                                              soc.sd_card().block_count());
    vol = std::make_unique<storage::Fat32Volume>(*io);
    EXPECT_EQ(vol->mount(), Status::kOk);

    DprManager::Config cfg;
    cfg.num_slots = 2;
    cfg.slot_bytes = 64 * 1024;
    mgr = std::make_unique<DprManager>(drv, soc.config_memory(), handle,
                                       vol.get(), cfg);
    for (u32 id : {60u, 61u}) {
      EXPECT_EQ(mgr->register_module("m" + std::to_string(id), id,
                                     "M" + std::to_string(id) + ".PB"),
                Status::kOk);
    }
    // Faults armed per test; attach after host-side setup so formatting
    // traffic is not subject to injection.
    soc.attach_fault_injector(&fi);
    mgr->set_fault_injector(&fi);
  }

  ArianeSoc soc;
  driver::RvCapDriver drv;
  fabric::Partition small;
  usize handle = 0;
  storage::MemBlockIo host_io;
  FaultInjector fi;
  std::unique_ptr<driver::SpiSdDriver> sd;
  std::unique_ptr<driver::CpuBlockIo> io;
  std::unique_ptr<storage::Fat32Volume> vol;
  std::unique_ptr<DprManager> mgr;
};

TEST_F(SdFaultFixture, SdTokenDropRecoveredByDriverRetry) {
  fi.arm(sim::fault_sites::kSdReadToken, /*count=*/1);
  ASSERT_EQ(mgr->activate("m60"), Status::kOk);
  EXPECT_GE(sd->reads_recovered(), 1u);
  // Transparent to the manager: no journal event, no manager retry.
  EXPECT_EQ(mgr->journal_events(), 0u);
}

TEST_F(SdFaultFixture, SdCrcCorruptionRecoveredByDriverRetry) {
  fi.arm(sim::fault_sites::kSdReadCrc, /*count=*/1);
  ASSERT_EQ(mgr->activate("m60"), Status::kOk);
  EXPECT_GE(sd->reads_recovered(), 1u);
}

TEST_F(SdFaultFixture, StagedBitFlipCaughtByCrcAndReloaded) {
  fi.arm(sim::fault_sites::kStageBitFlip, /*count=*/1);
  ASSERT_EQ(mgr->activate("m60"), Status::kOk);
  EXPECT_EQ(mgr->active_module(), "m60");
  EXPECT_EQ(mgr->stats().staged_crc_failures, 1u);
  EXPECT_EQ(mgr->stats().staging_loads, 2u);  // corrupt load + reload
  EXPECT_EQ(mgr->stats().recoveries, 1u);
  const auto j = mgr->journal();
  ASSERT_GE(j.size(), 2u);
  EXPECT_EQ(j.front().stage, FailStage::kStagedCrc);
  EXPECT_EQ(j.back().stage, FailStage::kRecovered);
}

TEST_F(SdFaultFixture, BlockingModeDetectsDmaError) {
  fi.arm(sim::fault_sites::kDmaMm2sSlvErr, /*count=*/1);
  ASSERT_EQ(mgr->activate("m60", DmaMode::kBlocking), Status::kOk);
  EXPECT_EQ(mgr->stats().dma_errors, 1u);
  EXPECT_EQ(mgr->stats().recoveries, 1u);
}

// to_string coverage for the recovery-stage enum.
TEST(FailStageNames, AllDistinctAndNonEmpty) {
  const FailStage all[] = {
      FailStage::kStaging,   FailStage::kStagedCrc, FailStage::kDma,
      FailStage::kIcap,      FailStage::kActivate,  FailStage::kScrub,
      FailStage::kBlank,     FailStage::kRecovered, FailStage::kExhausted,
  };
  std::set<std::string_view> seen;
  for (const FailStage s : all) {
    const auto name = driver::to_string(s);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown");
    EXPECT_TRUE(seen.insert(name).second) << name;
  }
}

}  // namespace
}  // namespace rvcap
