// Dual-mode kernel equivalence (DESIGN.md §9).
//
// The activity-scheduled kernel must be indistinguishable from the flat
// reference loop at cycle granularity: a skipped tick is one that would
// have been a no-op. These tests run complete workloads — end-to-end
// DMA reconfigurations, the HWICAP baseline, and fault-injected
// self-healing activations — once under Simulator::Mode::kFlat and once
// under Mode::kScheduled, and assert the outcomes are identical: same
// now() at every milestone, same driver timing, same throughput, and
// bit-for-bit identical DprManager failure journals under the same
// fault seed. Any divergence here means a component broke the activity
// contract (returned false from a tick that changed state, or mutated
// state without raising a wake).
#include <gtest/gtest.h>

#include "accel/rm_slot.hpp"
#include "bitstream/generator.hpp"
#include "driver/dpr_manager.hpp"
#include "driver/rvcap_driver.hpp"
#include "driver/stack.hpp"
#include "fabric/seu_process.hpp"
#include "obs/trace.hpp"
#include "sim/fault_injector.hpp"
#include "soc/ariane_soc.hpp"
#include "healing_world.hpp"

namespace rvcap {
namespace {

using driver::DmaMode;
using driver::DprManager;
using sim::FaultInjector;
using sim::Simulator;
using soc::ArianeSoc;
using soc::SocConfig;
namespace sites = sim::fault_sites;

// ---------------------------------------------------------------------
// Clean reconfigurations: both DPR paths, both completion modes
// ---------------------------------------------------------------------

/// Everything observable about one reconfiguration run.
struct ReconfigOutcome {
  Cycles final_cycle = 0;
  Cycles decision_ticks = 0;
  Cycles reconfig_ticks = 0;
  u64 icap_words = 0;
  u64 frames_committed = 0;
  u64 clint_mtime = 0;
  bool loaded = false;

  bool operator==(const ReconfigOutcome&) const = default;
};

ReconfigOutcome run_rvcap(Simulator::Mode mode, DmaMode dma_mode) {
  SocConfig cfg;
  cfg.sim_mode = mode;
  ArianeSoc soc(cfg);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdSobel, "sobel"});
  const Addr staging = soc::MemoryMap::kPbitStagingBase;
  soc.ddr().poke(staging, pbit);
  driver::ReconfigModule m{"", accel::kRmIdSobel, staging,
                           static_cast<u32>(pbit.size())};
  const Status st = drv.init_reconfig_process(m, dma_mode);
  ReconfigOutcome o;
  o.final_cycle = soc.sim().now();
  o.decision_ticks = drv.last_timing().decision_ticks;
  o.reconfig_ticks = drv.last_timing().reconfig_ticks;
  o.icap_words = soc.icap().words_consumed();
  o.frames_committed = soc.icap().frames_committed();
  o.clint_mtime = soc.clint().mtime();
  o.loaded = ok(st) &&
             soc.config_memory().partition_state(soc.rp0_handle()).loaded;
  return o;
}

ReconfigOutcome run_hwicap(Simulator::Mode mode, u32 unroll) {
  SocConfig cfg;
  cfg.sim_mode = mode;
  cfg.with_hwicap = true;
  ArianeSoc soc(cfg);
  driver::HwIcapDriver drv(soc.cpu(), unroll);
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdSobel, "sobel"});
  const Addr staging = soc::MemoryMap::kPbitStagingBase;
  soc.ddr().poke(staging, pbit);
  driver::ReconfigModule m{"", accel::kRmIdSobel, staging,
                           static_cast<u32>(pbit.size())};
  const Status st = drv.init_reconfig_process(m);
  ReconfigOutcome o;
  o.final_cycle = soc.sim().now();
  o.reconfig_ticks = drv.last_timing().reconfig_ticks;
  o.icap_words = soc.icap().words_consumed();
  o.frames_committed = soc.icap().frames_committed();
  o.clint_mtime = soc.clint().mtime();
  o.loaded = ok(st) &&
             soc.config_memory().partition_state(soc.rp0_handle()).loaded;
  return o;
}

void expect_same(const ReconfigOutcome& flat, const ReconfigOutcome& sched) {
  EXPECT_EQ(flat.final_cycle, sched.final_cycle);
  EXPECT_EQ(flat.decision_ticks, sched.decision_ticks);
  EXPECT_EQ(flat.reconfig_ticks, sched.reconfig_ticks);
  EXPECT_EQ(flat.icap_words, sched.icap_words);
  EXPECT_EQ(flat.frames_committed, sched.frames_committed);
  EXPECT_EQ(flat.clint_mtime, sched.clint_mtime);
  EXPECT_TRUE(flat.loaded);
  EXPECT_TRUE(sched.loaded);
}

TEST(KernelEquivalence, RvcapInterruptModeIdentical) {
  expect_same(run_rvcap(Simulator::Mode::kFlat, DmaMode::kInterrupt),
              run_rvcap(Simulator::Mode::kScheduled, DmaMode::kInterrupt));
}

TEST(KernelEquivalence, RvcapBlockingModeIdentical) {
  expect_same(run_rvcap(Simulator::Mode::kFlat, DmaMode::kBlocking),
              run_rvcap(Simulator::Mode::kScheduled, DmaMode::kBlocking));
}

TEST(KernelEquivalence, HwicapBaselineIdentical) {
  expect_same(run_hwicap(Simulator::Mode::kFlat, 16),
              run_hwicap(Simulator::Mode::kScheduled, 16));
}

// ---------------------------------------------------------------------
// Long idle stretches: the time-skip must not shift device time bases
// ---------------------------------------------------------------------

TEST(KernelEquivalence, IdleStretchKeepsClintPhase) {
  ReconfigOutcome out[2];
  int i = 0;
  for (const auto mode :
       {Simulator::Mode::kFlat, Simulator::Mode::kScheduled}) {
    SocConfig cfg;
    cfg.sim_mode = mode;
    ArianeSoc soc(cfg);
    // An odd cycle count lands mid-way through a CLINT divider period,
    // so a lazily derived mtime with the wrong phase would show here.
    soc.sim().run_cycles(1'234'567);
    out[i].final_cycle = soc.sim().now();
    out[i].clint_mtime = soc.clint().mtime();
    ++i;
  }
  EXPECT_EQ(out[0].final_cycle, out[1].final_cycle);
  EXPECT_EQ(out[0].clint_mtime, out[1].clint_mtime);
}

// ---------------------------------------------------------------------
// Fault-injected self-healing: bit-identical journals per seed
// ---------------------------------------------------------------------

/// The self-healing rig of test_faults.cpp, per kernel mode.
struct RecoveryRun : test::HealingWorld {
  explicit RecoveryRun(Simulator::Mode mode) : HealingWorld(0x5EED, mode) {}
};

void expect_same_journal(const std::vector<DprManager::JournalEntry>& a,
                         const std::vector<DprManager::JournalEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (usize i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mtime, b[i].mtime) << "entry " << i;
    EXPECT_EQ(a[i].stage, b[i].stage) << "entry " << i;
    EXPECT_EQ(a[i].status, b[i].status) << "entry " << i;
    EXPECT_EQ(a[i].rm_id, b[i].rm_id) << "entry " << i;
    EXPECT_EQ(a[i].attempt, b[i].attempt) << "entry " << i;
  }
}

TEST(KernelEquivalence, DmaFaultRecoveryJournalIdentical) {
  RecoveryRun flat(Simulator::Mode::kFlat);
  RecoveryRun sched(Simulator::Mode::kScheduled);
  flat.fi.arm(sites::kDmaMm2sSlvErr, /*count=*/1);
  sched.fi.arm(sites::kDmaMm2sSlvErr, /*count=*/1);
  ASSERT_EQ(flat.mgr.activate("sobel"), Status::kOk);
  ASSERT_EQ(sched.mgr.activate("sobel"), Status::kOk);
  EXPECT_EQ(flat.soc.sim().now(), sched.soc.sim().now());
  EXPECT_EQ(flat.mgr.stats().recoveries, 1u);
  EXPECT_EQ(sched.mgr.stats().recoveries, 1u);
  expect_same_journal(flat.mgr.journal(), sched.mgr.journal());
}

TEST(KernelEquivalence, IcapCorruptionRecoveryJournalIdentical) {
  RecoveryRun flat(Simulator::Mode::kFlat);
  RecoveryRun sched(Simulator::Mode::kScheduled);
  flat.fi.arm(sites::kIcapCrcCorrupt, /*count=*/1);
  sched.fi.arm(sites::kIcapCrcCorrupt, /*count=*/1);
  ASSERT_EQ(flat.mgr.activate("sobel"), Status::kOk);
  ASSERT_EQ(sched.mgr.activate("sobel"), Status::kOk);
  EXPECT_EQ(flat.soc.sim().now(), sched.soc.sim().now());
  expect_same_journal(flat.mgr.journal(), sched.mgr.journal());
  // The injected-fault streams must also have advanced identically:
  // the scheduled kernel issues the same should_fire() queries in the
  // same order, or the seeds would desynchronize.
  EXPECT_EQ(flat.fi.queries(sites::kIcapCrcCorrupt),
            sched.fi.queries(sites::kIcapCrcCorrupt));
  EXPECT_EQ(flat.fi.total_fires(), sched.fi.total_fires());
}

TEST(KernelEquivalence, BackToBackActivationsIdentical) {
  // Module swaps exercise decouple/recouple, RM slot wake paths and
  // the already-active fast path in both kernels.
  RecoveryRun flat(Simulator::Mode::kFlat);
  RecoveryRun sched(Simulator::Mode::kScheduled);
  for (const char* name : {"sobel", "median", "median", "sobel"}) {
    ASSERT_EQ(flat.mgr.activate(name), Status::kOk);
    ASSERT_EQ(sched.mgr.activate(name), Status::kOk);
    EXPECT_EQ(flat.soc.sim().now(), sched.soc.sim().now()) << name;
  }
  EXPECT_EQ(flat.mgr.stats().reconfigurations,
            sched.mgr.stats().reconfigurations);
  EXPECT_EQ(flat.mgr.stats().already_active_hits,
            sched.mgr.stats().already_active_hits);
}

// ---------------------------------------------------------------------
// Background SEU process + scrub repair: identical histories per seed
// ---------------------------------------------------------------------

/// Everything observable about one radiation-under-scrub run.
struct SeuOutcome {
  Cycles final_cycle = 0;
  std::vector<fabric::SeuProcess::Event> events;
  std::vector<driver::ScrubService::JournalEntry> journal;
  u64 landed = 0;
  u64 detections = 0;
  u64 rewrites = 0;
  u64 reloads = 0;
  u64 repaired = 0;
  u64 self_cancelled = 0;
  u64 passes = 0;
  u64 mttd_total = 0;
  u64 mttr_total = 0;
  u64 upset_queries = 0;
};

SeuOutcome run_seu(Simulator::Mode mode) {
  SocConfig cfg;
  cfg.sim_mode = mode;
  ArianeSoc soc(cfg);
  FaultInjector fi(0xBEEF);
  driver::Stack::Parts parts;
  parts.scrub = driver::ScrubService::Config{};
  parts.scrub->frames_per_slice = 128;
  driver::Stack stack(soc, parts, &fi);
  EXPECT_EQ(stack.stage(0, "sobel", accel::kRmIdSobel), Status::kOk);
  driver::ReconfigService& svc = stack.service();
  driver::ScrubService& scrub = *stack.scrub();
  scrub.watch_partition(soc.rp0_handle(), "sobel");
  scrub.install_upset_feed();

  driver::ReconfigService::ActivationRequest req;
  req.module = "sobel";
  req.priority = 1;
  EXPECT_EQ(svc.submit(req, nullptr), Status::kOk);
  svc.drain();

  fabric::SeuProcess::Config pc;
  pc.mean_cycles = 30'000;
  pc.targets = {soc.rp0_handle()};
  fabric::SeuProcess seu("seu0", soc.config_memory(), fi, pc);
  soc.sim().add(&seu);
  fi.arm(sites::kSeuUpset, /*count=*/5);

  // Scrub until the armed upset budget has fired out and every landed
  // hit is resolved (each pass advances sim time, so pending events on
  // the wheel get their chance to land).
  for (int pass = 0; pass < 20; ++pass) {
    if (fi.fires(sites::kSeuUpset) >= 5 && scrub.pending_upsets() == 0) {
      break;
    }
    EXPECT_EQ(scrub.scrub_pass(), Status::kOk);
  }
  EXPECT_EQ(scrub.pending_upsets(), 0u);

  SeuOutcome o;
  o.final_cycle = soc.sim().now();
  o.events = seu.log();
  o.journal = scrub.journal();
  o.landed = seu.landed();
  o.detections = scrub.stats().detections;
  o.rewrites = scrub.stats().frame_rewrites;
  o.reloads = scrub.stats().partition_reloads;
  o.repaired = scrub.stats().upsets_repaired;
  o.self_cancelled = scrub.stats().upsets_self_cancelled;
  o.passes = scrub.stats().passes;
  o.mttd_total = scrub.stats().mttd_cycles_total;
  o.mttr_total = scrub.stats().mttr_cycles_total;
  o.upset_queries = fi.queries(sites::kSeuUpset);
  return o;
}

TEST(KernelEquivalence, SeuScrubRepairHistoryIdentical) {
  const SeuOutcome flat = run_seu(Simulator::Mode::kFlat);
  const SeuOutcome sched = run_seu(Simulator::Mode::kScheduled);

  // The run is non-vacuous: upsets landed and repairs happened.
  EXPECT_GT(flat.landed, 0u);
  EXPECT_FALSE(flat.journal.empty());

  // Same seed, different kernel: the upset schedule must be identical
  // to the cycle — the SeuProcess rides the time wheel, so a wake
  // delivered early or late would shift every `at` below.
  EXPECT_EQ(flat.final_cycle, sched.final_cycle);
  ASSERT_EQ(flat.events.size(), sched.events.size());
  for (usize i = 0; i < flat.events.size(); ++i) {
    EXPECT_EQ(flat.events[i].at, sched.events[i].at) << i;
    EXPECT_EQ(flat.events[i].fa, sched.events[i].fa) << i;
    EXPECT_EQ(flat.events[i].word, sched.events[i].word) << i;
    EXPECT_EQ(flat.events[i].bit, sched.events[i].bit) << i;
    EXPECT_EQ(flat.events[i].landed, sched.events[i].landed) << i;
  }

  // Detection and repair history, including the cycle stamps feeding
  // MTTD/MTTR, must match entry for entry.
  ASSERT_EQ(flat.journal.size(), sched.journal.size());
  for (usize i = 0; i < flat.journal.size(); ++i) {
    EXPECT_TRUE(flat.journal[i] == sched.journal[i]) << "entry " << i;
  }
  EXPECT_EQ(flat.landed, sched.landed);
  EXPECT_EQ(flat.detections, sched.detections);
  EXPECT_EQ(flat.rewrites, sched.rewrites);
  EXPECT_EQ(flat.reloads, sched.reloads);
  EXPECT_EQ(flat.repaired, sched.repaired);
  EXPECT_EQ(flat.self_cancelled, sched.self_cancelled);
  EXPECT_EQ(flat.passes, sched.passes);
  EXPECT_EQ(flat.mttd_total, sched.mttd_total);
  EXPECT_EQ(flat.mttr_total, sched.mttr_total);
  EXPECT_EQ(flat.upset_queries, sched.upset_queries);
}

// ---------------------------------------------------------------------
// Trace-stream equivalence: the observability layer sees one history
// ---------------------------------------------------------------------

/// Full event stream of a traced reconfiguration: wrap-proof digest,
/// lifetime count, and the retained ring for entry-level diffing.
struct TraceOutcome {
  u64 digest = 0;
  u64 total = 0;
  std::vector<obs::TraceEvent> events;
  std::vector<std::string> sources;
};

TraceOutcome run_traced_rvcap(Simulator::Mode mode, DmaMode dma_mode) {
  SocConfig cfg;
  cfg.sim_mode = mode;
  ArianeSoc soc(cfg);
  soc.sim().obs().sink().set_enabled(true);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdSobel, "sobel"});
  const Addr staging = soc::MemoryMap::kPbitStagingBase;
  soc.ddr().poke(staging, pbit);
  driver::ReconfigModule m{"", accel::kRmIdSobel, staging,
                           static_cast<u32>(pbit.size())};
  EXPECT_TRUE(ok(drv.init_reconfig_process(m, dma_mode)));
  const obs::TraceSink& sink = soc.sim().obs().sink();
  TraceOutcome o;
  o.digest = sink.digest();
  o.total = sink.total_events();
  o.events.assign(sink.events().begin(), sink.events().end());
  o.sources = sink.sources();
  return o;
}

TEST(KernelEquivalence, TraceStreamIdentical) {
  if (!obs::trace_compiled_in()) GTEST_SKIP() << "built with RVCAP_NO_TRACE";
  for (const auto dma_mode : {DmaMode::kInterrupt, DmaMode::kBlocking}) {
    const TraceOutcome flat =
        run_traced_rvcap(Simulator::Mode::kFlat, dma_mode);
    const TraceOutcome sched =
        run_traced_rvcap(Simulator::Mode::kScheduled, dma_mode);

    // A reconfiguration is trace-dense: far more events than the ring
    // retains, so the digest (not the ring) is the real equivalence
    // check. The ring suffix is diffed too for a readable failure.
    EXPECT_GT(flat.total, 0u);
    EXPECT_EQ(flat.sources, sched.sources);
    EXPECT_EQ(flat.total, sched.total);
    ASSERT_EQ(flat.events.size(), sched.events.size());
    for (usize i = 0; i < flat.events.size(); ++i) {
      const obs::TraceEvent& a = flat.events[i];
      const obs::TraceEvent& b = sched.events[i];
      ASSERT_TRUE(a.ts == b.ts && a.kind == b.kind && a.src == b.src &&
                  a.a0 == b.a0 && a.a1 == b.a1 && a.a2 == b.a2)
          << "ring entry " << i << ": flat {ts=" << a.ts << ", "
          << obs::event_name(a.kind) << "} vs sched {ts=" << b.ts << ", "
          << obs::event_name(b.kind) << "}";
    }
    EXPECT_EQ(flat.digest, sched.digest);
  }
}

// ---------------------------------------------------------------------
// Mid-run mode switching stays consistent
// ---------------------------------------------------------------------

TEST(KernelEquivalence, ModeSwitchMidRunMatchesFlat) {
  // Reference: pure flat run. Candidate: flat for the first half of
  // the reconfiguration's setup, then switched to scheduled. The final
  // outcome must match the reference exactly.
  const ReconfigOutcome ref =
      run_rvcap(Simulator::Mode::kFlat, DmaMode::kInterrupt);

  SocConfig cfg;
  cfg.sim_mode = Simulator::Mode::kFlat;
  ArianeSoc soc(cfg);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdSobel, "sobel"});
  const Addr staging = soc::MemoryMap::kPbitStagingBase;
  soc.ddr().poke(staging, pbit);
  soc.sim().run_cycles(1000);  // some flat-mode history first
  soc.sim().set_mode(Simulator::Mode::kScheduled);
  driver::ReconfigModule m{"", accel::kRmIdSobel, staging,
                           static_cast<u32>(pbit.size())};
  ASSERT_TRUE(ok(drv.init_reconfig_process(m, DmaMode::kInterrupt)));
  EXPECT_EQ(soc.sim().now() - 1000, ref.final_cycle);
  EXPECT_EQ(drv.last_timing().reconfig_ticks, ref.reconfig_ticks);
  EXPECT_EQ(soc.icap().frames_committed(), ref.frames_committed);
}

}  // namespace
}  // namespace rvcap
