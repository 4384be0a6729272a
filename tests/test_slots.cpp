// Multi-RP slot serving: floorplan validation, concurrent residency,
// preemptive capture/restore, and fail-safe swap recovery.
//
// Covers the slot scheduler end to end over a live multi-slot SoC:
//  * floorplan — overlapping or out-of-geometry regions are hard
//    construction errors with a diagnostic;
//  * serving — two RMs resident concurrently on distinct slots, each
//    producing its golden output through the shared stream switch;
//  * preemption — a high-priority arrival captures the victim's frames
//    and architectural state, runs, and the victim resumes
//    bit-identically in the same slot, or in the other vacant slot
//    when a higher-priority task holds its own;
//  * fail-safe swap — torn captures, stale frames, captures taken
//    under an essential upset, and wedged swap transfers all end in a
//    diagnosed rollback to a golden reload, never corrupted output;
//  * degradation — priority-safe shedding, aging against starvation,
//    deadline expiry, and kFlat vs kScheduled kernel equivalence for
//    the whole scheduling scenario.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "accel/filters.hpp"
#include "accel/fir_filter.hpp"
#include "common/rng.hpp"
#include "driver/stack.hpp"
#include "fabric/floorplan.hpp"
#include "fabric/frame_ecc.hpp"
#include "sim/fault_injector.hpp"
#include "soc/ariane_soc.hpp"
#include "serving_world.hpp"

namespace rvcap {
namespace {

using driver::DprManager;
using driver::SlotScheduler;
using sim::FaultInjector;
using soc::ArianeSoc;
using soc::SocConfig;
namespace sites = sim::fault_sites;

using Task = SlotScheduler::HwTask;
using TaskState = SlotScheduler::TaskState;
using Swap = SlotScheduler::SwapEvent::Kind;

// ---------------------------------------------------------------------
// Floorplan validation (construction-time geometry checks)
// ---------------------------------------------------------------------

TEST(Floorplan, OverlapIsAHardError) {
  ArianeSoc soc((SocConfig()));
  const auto& rp0 = soc.rp0();
  // A partition sharing rp0's first column cell.
  fabric::Partition alias("RPX", {rp0.columns()[0]});

  std::string diag;
  std::vector<fabric::FloorplanRegion> regions{{"RP0", &rp0, '0'},
                                               {"RPX", &alias, 'X'}};
  EXPECT_EQ(fabric::Floorplan::validate(soc.device(), regions, &diag),
            Status::kInvalidArgument);
  EXPECT_NE(diag.find("overlap"), std::string::npos) << diag;
  EXPECT_NE(diag.find("RP0"), std::string::npos) << diag;
  EXPECT_NE(diag.find("RPX"), std::string::npos) << diag;
  EXPECT_THROW(fabric::Floorplan(soc.device(), regions),
               std::invalid_argument);
}

TEST(Floorplan, OutOfGeometryAndSelfAliasAreErrors) {
  ArianeSoc soc((SocConfig()));
  auto& dev = soc.device();

  fabric::Partition beyond("RPY", {{0, dev.num_columns()}});
  std::string diag;
  std::vector<fabric::FloorplanRegion> regions{{"RPY", &beyond, 'Y'}};
  EXPECT_EQ(fabric::Floorplan::validate(dev, regions, &diag),
            Status::kInvalidArgument);
  EXPECT_NE(diag.find("RPY"), std::string::npos) << diag;

  fabric::Partition twice("RPZ", {{0, 1}, {0, 1}});
  regions = {{"RPZ", &twice, 'Z'}};
  EXPECT_EQ(fabric::Floorplan::validate(dev, regions, &diag),
            Status::kInvalidArgument);
  EXPECT_NE(diag.find("twice"), std::string::npos) << diag;

  regions = {{"null", nullptr, 'n'}};
  EXPECT_EQ(fabric::Floorplan::validate(dev, regions, &diag),
            Status::kInvalidArgument);

  // A valid floorplan passes and renders.
  std::vector<fabric::FloorplanRegion> good{{"RP0", &soc.rp0(), '0'}};
  EXPECT_EQ(fabric::Floorplan::validate(dev, good, nullptr), Status::kOk);
  fabric::Floorplan fp(dev, good);
  EXPECT_EQ(fp.num_regions(), 1u);
  EXPECT_FALSE(fp.render().empty());
}

TEST(Floorplan, MultiSlotSocPlansDisjointPartitions) {
  SocConfig cfg;
  cfg.num_slots = 2;
  ArianeSoc soc(cfg);
  ASSERT_EQ(soc.num_slots(), 2u);
  // The geometry check ran at construction; verify disjointness too.
  const auto& a = soc.slot_partition(0).columns();
  const auto& b = soc.slot_partition(1).columns();
  for (const auto& ca : a) {
    for (const auto& cb : b) {
      EXPECT_FALSE(ca == cb) << "slots share (" << ca.row << "," << ca.column
                             << ")";
    }
  }
}

TEST(Floorplan, SocRejectsMoreSlotsThanTheDeviceHosts) {
  SocConfig cfg;
  cfg.device = soc::DeviceModel::kArtix7_100t;
  cfg.num_slots = 16;
  EXPECT_THROW(ArianeSoc{cfg}, std::invalid_argument);
}

// ---------------------------------------------------------------------
// DDR layout validation (the same construction-time check for DDR)
// ---------------------------------------------------------------------

using driver::DdrLayout;
using driver::DdrRegion;

TEST(DdrLayout, CommittedTableValidatesForOneToFourSlots) {
  for (u32 slots = 1; slots <= 4; ++slots) {
    std::string diag;
    EXPECT_EQ(DdrLayout::validate(DdrLayout::regions(), slots, &diag),
              Status::kOk)
        << slots << " slots: " << diag;
    EXPECT_NO_THROW(DdrLayout{slots});
  }
}

TEST(DdrLayout, OverlapIsAHardErrorNamingBothRegions) {
  const std::vector<DdrRegion> table{
      {"alpha", 0x8800'0000, 0x0100'0000, false, "test"},
      {"beta", 0x8880'0000, 0x0100'0000, false, "test"}};
  std::string diag;
  EXPECT_EQ(DdrLayout::validate(table, 1, &diag), Status::kInvalidArgument);
  EXPECT_NE(diag.find("overlap"), std::string::npos) << diag;
  EXPECT_NE(diag.find("alpha"), std::string::npos) << diag;
  EXPECT_NE(diag.find("beta"), std::string::npos) << diag;
}

TEST(DdrLayout, RegionPastTheEndOfDdrIsAnError) {
  const std::vector<DdrRegion> table{
      {"tail", 0xBFF0'0000, 0x0020'0000, false, "test"}};
  std::string diag;
  EXPECT_EQ(DdrLayout::validate(table, 1, &diag), Status::kInvalidArgument);
  EXPECT_NE(diag.find("tail"), std::string::npos) << diag;
  EXPECT_NE(diag.find("outside DDR"), std::string::npos) << diag;
}

TEST(DdrLayout, SlotStrideRunningIntoTheNextRegionFailsStackConstruction) {
  // Five 16 MiB staging windows from 0x8800'0000 reach the readback
  // scratch at 0x8C00'0000; the stack must refuse to wire them.
  SocConfig cfg;
  cfg.num_slots = 5;
  ArianeSoc soc(cfg);
  try {
    driver::Stack stack(soc, driver::Stack::Parts{});
    FAIL() << "a 5-slot stack was built over an exhausted staging region";
  } catch (const std::invalid_argument& e) {
    const std::string diag = e.what();
    EXPECT_NE(diag.find("pbit-staging"), std::string::npos) << diag;
    EXPECT_NE(diag.find("readback"), std::string::npos) << diag;
  }
}

// ---------------------------------------------------------------------
// World: two-slot SoC with per-slot manager/service stacks.
// ---------------------------------------------------------------------

using test::kDataBase;

struct SlotWorld : test::ServingWorld {
  explicit SlotWorld(u32 num_slots = 2,
                     sim::Simulator::Mode mode =
                         sim::Simulator::Mode::kScheduled,
                     const SlotScheduler::Config& cc =
                         test::serving_sched_config())
      : ServingWorld(num_slots, mode, parts(cc)) {
    // Each slot stages its own golden images (frame addresses are
    // per-partition).
    for (u32 s = 0; s < num_slots; ++s) {
      EXPECT_EQ(stack.stage(s, "cipher", accel::kRmIdCipher), Status::kOk);
      EXPECT_EQ(stack.stage(s, "fir", accel::kRmIdFir), Status::kOk);
      EXPECT_EQ(stack.stage(s, "sobel", accel::kRmIdSobel), Status::kOk);
    }
  }

  static driver::Stack::Parts parts(const SlotScheduler::Config& cc) {
    driver::Stack::Parts p;
    p.scheduler = cc;
    return p;
  }

  /// A Sobel task over one `dim` x `dim` frame.
  Task sobel_task(u32 dim, u32 priority, Addr src, Addr dst, u64 seed) {
    const accel::Image img = accel::make_test_image(dim, dim, seed);
    soc.ddr().poke(src, img.pixels);
    Task t;
    t.module = "sobel";
    t.rm_id = accel::kRmIdSobel;
    t.priority = priority;
    t.src = src;
    t.dst = dst;
    t.total_bytes = dim * dim;
    t.chunk_bytes = dim * dim;  // whole frames (pipeline skew)
    t.setup_regs = {{0, dim}, {1, dim}};
    return t;
  }

  std::vector<u8> sobel_golden(u32 dim, u64 seed) {
    const accel::Image img = accel::make_test_image(dim, dim, seed);
    return accel::apply_golden(accel::FilterKind::kSobel, img).pixels;
  }

  bool journal_has(Swap kind) {
    for (const auto& e : sched->journal()) {
      if (e.kind == kind) return true;
    }
    return false;
  }

  DprManager& mgr(u32 slot) { return stack.manager(slot); }
};

// ---------------------------------------------------------------------
// Concurrent residency and basic serving
// ---------------------------------------------------------------------

TEST(SlotServing, TwoModulesResidentConcurrently) {
  SlotWorld w;
  const u64 key = 0x9ABCDEF012345678ULL;
  SlotScheduler::TaskId a = 0, b = 0;
  ASSERT_EQ(w.sched->submit(w.cipher_task(key, 4096, 1, kDataBase,
                                          kDataBase + 0x10000, 11),
                            &a),
            Status::kOk);
  ASSERT_EQ(w.sched->submit(w.sobel_task(64, 1, kDataBase + 0x20000,
                                         kDataBase + 0x30000, 22),
                            &b),
            Status::kOk);
  // Equal priority: the least-recently-progressed tie-break places the
  // second task on the second slot instead of starving it.
  ASSERT_TRUE(w.sched->step());
  ASSERT_TRUE(w.sched->step());
  const auto* ta = w.sched->task(a);
  const auto* tb = w.sched->task(b);
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  EXPECT_NE(ta->slot, tb->slot);
  // Both partitions hold their modules simultaneously.
  const auto ps0 = w.soc.config_memory().partition_state(w.soc.slot_handle(0));
  const auto ps1 = w.soc.config_memory().partition_state(w.soc.slot_handle(1));
  EXPECT_TRUE(ps0.loaded);
  EXPECT_TRUE(ps1.loaded);
  EXPECT_NE(ps0.rm_id, ps1.rm_id);

  w.sched->drain();
  EXPECT_EQ(w.sched->task(a)->state, TaskState::kCompleted);
  EXPECT_EQ(w.sched->task(b)->state, TaskState::kCompleted);
  EXPECT_EQ(w.read_dst(kDataBase + 0x10000, 4096),
            w.cipher_golden(key, kDataBase, 4096, 512));
  EXPECT_EQ(w.read_dst(kDataBase + 0x30000, 64 * 64), w.sobel_golden(64, 22));
  EXPECT_EQ(w.sched->stats().completed, 2u);
  EXPECT_EQ(w.sched->stats().preemptions, 0u);
}

TEST(SlotServing, QueuedDeadlineExpiresInsteadOfDispatching) {
  SlotWorld w;
  w.soc.sim().run_cycles(kCyclesPerClintTick * 100);
  SlotScheduler::TaskId id = 0;
  Task t = w.cipher_task(1, 1024, 1, kDataBase, kDataBase + 0x10000, 33);
  t.deadline_mtime = 1;  // long past
  ASSERT_EQ(w.sched->submit(t, &id), Status::kOk);
  w.sched->drain();
  EXPECT_EQ(w.sched->task(id)->state, TaskState::kDeadlineMissed);
  EXPECT_EQ(w.sched->task(id)->status, Status::kDeadlineMissed);
  EXPECT_EQ(w.sched->stats().deadline_misses, 1u);
  EXPECT_TRUE(w.journal_has(Swap::kDeadlineMiss));
}

// ---------------------------------------------------------------------
// Preemptive capture/restore
// ---------------------------------------------------------------------

/// Shared scenario: cipher A and fir B (equal priority) fill both
/// slots; sobel C (priority 9) preempts the least-recently-progressed
/// resident. Used by the happy path, the fault variants, and the
/// kernel-equivalence sweep.
struct PreemptScenario {
  static constexpr u64 kKey = 0x0F1E2D3C4B5A6978ULL;
  SlotScheduler::TaskId a = 0, b = 0, c = 0;

  void run(SlotWorld& w) {
    Task ta = w.cipher_task(kKey, 8 * 512, 1, kDataBase,
                            kDataBase + 0x10000, 111);
    Task tb;
    {
      SplitMix64 rng(222);
      std::vector<u8> samples(4 * 512);
      for (auto& s : samples) s = rng.next_byte();
      w.soc.ddr().poke(kDataBase + 0x20000, samples);
      tb.module = "fir";
      tb.rm_id = accel::kRmIdFir;
      tb.priority = 1;
      tb.src = kDataBase + 0x20000;
      tb.dst = kDataBase + 0x30000;
      tb.total_bytes = 4 * 512;
      const auto coeffs = accel::fir_passthrough_coeffs();
      for (u32 i = 0; i + 1 < coeffs.size(); i += 2) {
        const u32 lo = static_cast<u16>(coeffs[i]);
        const u32 hi = static_cast<u16>(coeffs[i + 1]);
        tb.setup_regs.push_back({i / 2, (hi << 16) | lo});
      }
    }
    ASSERT_EQ(w.sched->submit(ta, &a), Status::kOk);
    ASSERT_EQ(w.sched->submit(tb, &b), Status::kOk);
    // Both resident, a couple of chunks in.
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(w.sched->step());
    ASSERT_EQ(w.sched->task(a)->state, TaskState::kRunning);
    ASSERT_EQ(w.sched->task(b)->state, TaskState::kRunning);

    ASSERT_EQ(w.sched->submit(w.sobel_task(64, 9, kDataBase + 0x40000,
                                           kDataBase + 0x50000, 333),
                              &c),
              Status::kOk);
    w.sched->drain();
  }

  void expect_all_golden(SlotWorld& w) {
    EXPECT_EQ(w.sched->task(a)->state, TaskState::kCompleted);
    EXPECT_EQ(w.sched->task(b)->state, TaskState::kCompleted);
    EXPECT_EQ(w.sched->task(c)->state, TaskState::kCompleted);
    EXPECT_EQ(w.read_dst(kDataBase + 0x10000, 8 * 512),
              w.cipher_golden(kKey, kDataBase, 8 * 512, 512));
    EXPECT_EQ(w.read_dst(kDataBase + 0x50000, 64 * 64),
              w.sobel_golden(64, 333));
    // FIR golden: the delay line resets per chunk packet.
    std::vector<u8> in(4 * 512);
    w.soc.ddr().peek(kDataBase + 0x20000, in);
    const auto coeffs = accel::fir_passthrough_coeffs();
    std::vector<u8> expect(in.size());
    for (u32 off = 0; off < in.size(); off += 512) {
      std::vector<i16> samples(256);
      std::memcpy(samples.data(), in.data() + off, 512);
      const auto out = accel::fir_reference(samples, coeffs);
      std::memcpy(expect.data() + off, out.data(), 512);
    }
    EXPECT_EQ(w.read_dst(kDataBase + 0x30000, 4 * 512), expect);
  }
};

TEST(SlotPreempt, CaptureSwapRestoreRoundTrip) {
  SlotWorld w;
  PreemptScenario sc;
  sc.run(w);
  sc.expect_all_golden(w);

  // One of the residents was preempted, captured, and later restored
  // in its original slot; the journal records the full swap.
  EXPECT_EQ(w.sched->stats().preemptions, 1u);
  EXPECT_EQ(w.sched->stats().captures, 1u);
  EXPECT_EQ(w.sched->stats().restores, 1u);
  EXPECT_EQ(w.sched->stats().rollbacks, 0u);
  EXPECT_TRUE(w.journal_has(Swap::kCapture));
  EXPECT_TRUE(w.journal_has(Swap::kRestore));
  SlotScheduler::TaskId victim = 0;
  u32 capture_slot = ~u32{0};
  bool same_slot_restore = false;
  for (const auto& e : w.sched->journal()) {
    if (e.kind == Swap::kCapture) {
      victim = e.task;
      capture_slot = e.slot;
    }
    if (e.kind == Swap::kRestore && e.task == victim &&
        e.slot == capture_slot) {
      same_slot_restore = true;
    }
  }
  EXPECT_TRUE(same_slot_restore);
  ASSERT_NE(w.sched->task(victim), nullptr);
  EXPECT_GE(w.sched->task(victim)->preemptions, 1u);
  EXPECT_EQ(w.sched->task(victim)->rollbacks, 0u);
}

TEST(SlotPreempt, RestoredOutputMatchesUninterruptedRun) {
  // The preemption scenario and an uninterrupted control run of the
  // same cipher task must produce byte-identical ciphertext: the
  // captured register file (the key) and stream counters survived the
  // capture/restore round trip exactly.
  SlotWorld w;
  PreemptScenario sc;
  sc.run(w);
  sc.expect_all_golden(w);

  SlotWorld control;
  SlotScheduler::TaskId ca = 0;
  ASSERT_EQ(control.sched->submit(
                control.cipher_task(PreemptScenario::kKey, 8 * 512, 1,
                                    kDataBase, kDataBase + 0x10000, 111),
                &ca),
            Status::kOk);
  control.sched->drain();
  ASSERT_EQ(control.sched->task(ca)->state, TaskState::kCompleted);
  EXPECT_EQ(w.read_dst(kDataBase + 0x10000, 8 * 512),
            control.read_dst(kDataBase + 0x10000, 8 * 512));
}

TEST(SlotPreempt, ParkedTaskResumesInTheOtherSlotWhenItsSlotIsTaken) {
  // Per-slot-staged rig: every slot's manager holds the module, and the
  // placement engine lets a parked task resume in any eligible slot.
  SlotScheduler::Config cc = test::serving_sched_config();
  cc.aging_quantum_mtime = 4000;  // A outranks H soon after H lands
  SlotWorld w(2, sim::Simulator::Mode::kScheduled, cc);
  const u64 key = 0x7A5C'0DE5'1DE5'7E9DULL;
  SlotScheduler::TaskId a = 0, h = 0;
  ASSERT_EQ(w.sched->submit(w.cipher_task(key, 8 * 512, 0, kDataBase,
                                          kDataBase + 0x10000, 91),
                            &a),
            Status::kOk);
  ASSERT_TRUE(w.sched->step());
  const u32 capture_slot = w.sched->task(a)->slot;
  ASSERT_EQ(w.sched->preempt_slot(capture_slot), Status::kOk);

  // The higher-priority H takes A's capture slot.
  ASSERT_EQ(w.sched->submit(w.cipher_task(key, 16 * 512, 9,
                                          kDataBase + 0x20000,
                                          kDataBase + 0x30000, 92),
                            &h),
            Status::kOk);
  ASSERT_TRUE(w.sched->step());
  ASSERT_EQ(w.sched->resident(capture_slot), h);
  ASSERT_EQ(w.sched->task(a)->state, TaskState::kPreempted);

  // Once aged past H, A resumes in the vacant slot instead of
  // preempting H: one migration, H never captured.
  w.sched->drain();
  EXPECT_EQ(w.sched->task(a)->state, TaskState::kCompleted);
  EXPECT_EQ(w.sched->task(h)->state, TaskState::kCompleted);
  EXPECT_NE(w.sched->task(a)->slot, capture_slot);
  EXPECT_EQ(w.stack.placement()->stats().migrations, 1u);
  EXPECT_EQ(w.sched->stats().preemptions, 1u);
  EXPECT_EQ(w.sched->stats().restores, 1u);
  EXPECT_EQ(w.sched->stats().rollbacks, 0u);
  EXPECT_EQ(w.sched->task(h)->preemptions, 0u);
  EXPECT_EQ(w.read_dst(kDataBase + 0x10000, 8 * 512),
            w.cipher_golden(key, kDataBase, 8 * 512, 512));
  EXPECT_EQ(w.read_dst(kDataBase + 0x30000, 16 * 512),
            w.cipher_golden(key, kDataBase + 0x20000, 16 * 512, 512));
}

// ---------------------------------------------------------------------
// Fail-safe swap recovery
// ---------------------------------------------------------------------

TEST(SlotRecovery, TornCaptureRollsBackToGoldenReload) {
  SlotWorld w;
  ASSERT_EQ(w.fi.arm(sites::kSlotCaptureTorn, 1), Status::kOk);
  PreemptScenario sc;
  sc.run(w);
  sc.expect_all_golden(w);  // rollback restarted the task: still golden

  EXPECT_EQ(w.sched->stats().torn_detected, 1u);
  EXPECT_GE(w.sched->stats().rollbacks, 1u);
  EXPECT_EQ(w.sched->stats().restores, 0u);
  EXPECT_TRUE(w.journal_has(Swap::kRollbackDigest));
}

TEST(SlotRecovery, StaleFramesRollBackToGoldenReload) {
  SlotWorld w;
  ASSERT_EQ(w.fi.arm(sites::kSlotRestoreStale, 1), Status::kOk);
  PreemptScenario sc;
  sc.run(w);
  sc.expect_all_golden(w);

  EXPECT_EQ(w.sched->stats().stale_detected, 1u);
  EXPECT_GE(w.sched->stats().rollbacks, 1u);
  EXPECT_EQ(w.sched->stats().restores, 0u);
  EXPECT_TRUE(w.journal_has(Swap::kRollbackStale));
}

TEST(SlotRecovery, RollbackBudgetExhaustionFailsTheTask) {
  // Every restore finds stale frames, so each forced preemption costs
  // the task one rollback. The (kMaxRollbacks + 1)-th abandons it.
  SlotWorld w;
  ASSERT_EQ(w.fi.arm(sites::kSlotRestoreStale, /*count=*/0), Status::kOk);
  SlotScheduler::TaskId a = 0;
  ASSERT_EQ(w.sched->submit(w.cipher_task(0x0BADC0DEull, 8 * 512, 1,
                                          kDataBase, kDataBase + 0x10000, 66),
                            &a),
            Status::kOk);
  ASSERT_TRUE(w.sched->step());
  const u32 slot = w.sched->task(a)->slot;
  for (u32 i = 0; i <= SlotScheduler::kMaxRollbacks; ++i) {
    ASSERT_EQ(w.sched->task(a)->state, TaskState::kRunning) << i;
    ASSERT_EQ(w.sched->preempt_slot(slot), Status::kOk) << i;
    ASSERT_NE(w.sched->task(a)->capture_area, SlotScheduler::kNoArea) << i;
    w.sched->step();  // restore -> stale -> rollback (+ reload)
  }

  const auto* t = w.sched->task(a);
  EXPECT_EQ(t->state, TaskState::kFailed);
  EXPECT_EQ(t->status, Status::kCrcError);
  EXPECT_EQ(t->rollbacks, SlotScheduler::kMaxRollbacks + 1);
  EXPECT_EQ(w.sched->stats().rollbacks, SlotScheduler::kMaxRollbacks + 1);
  EXPECT_EQ(t->capture_area, SlotScheduler::kNoArea);  // area released
  EXPECT_EQ(w.sched->resident(slot), 0u);              // slot vacant
  EXPECT_EQ(w.sched->stats().failed, 1u);
  EXPECT_FALSE(w.sched->step());  // nothing left to run
}

TEST(SlotRecovery, PoisonedCaptureIsNeverRestored) {
  SlotWorld w;
  const u64 key = 0x1122334455667788ULL;
  SlotScheduler::TaskId a = 0;
  ASSERT_EQ(w.sched->submit(w.cipher_task(key, 8 * 512, 1, kDataBase,
                                          kDataBase + 0x10000, 44),
                            &a),
            Status::kOk);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(w.sched->step());
  ASSERT_EQ(w.sched->task(a)->state, TaskState::kRunning);
  const u32 slot = w.sched->task(a)->slot;
  const usize handle = w.soc.slot_handle(slot);

  // Land an essential upset in the task's partition: the capture will
  // serialize corrupted logic, so the restore must refuse it.
  const auto& cols = w.soc.slot_partition(slot).columns();
  const fabric::FrameAddr fa{cols[0].row, cols[0].column, 0};
  bool landed = false;
  for (u32 word = 0; word < fabric::kFrameWords && !landed; ++word) {
    for (u32 bit = 0; bit < 32 && !landed; ++bit) {
      if (fabric::essential_bit(accel::kRmIdCipher, 0, word, bit)) {
        ASSERT_TRUE(w.soc.config_memory().inject_upset(fa, word, bit));
        landed = true;
      }
    }
  }
  ASSERT_TRUE(landed);
  ASSERT_GT(w.soc.config_memory().partition_state(handle).essential_upsets,
            0u);

  ASSERT_EQ(w.sched->preempt_slot(slot), Status::kOk);
  EXPECT_EQ(w.sched->task(a)->state, TaskState::kPreempted);
  w.sched->drain();

  EXPECT_EQ(w.sched->task(a)->state, TaskState::kCompleted);
  EXPECT_EQ(w.sched->stats().poisoned_detected, 1u);
  EXPECT_GE(w.sched->stats().rollbacks, 1u);
  EXPECT_EQ(w.sched->stats().restores, 0u);
  EXPECT_TRUE(w.journal_has(Swap::kRollbackPoisoned));
  // The rollback reloaded golden frames (clearing the upset) and
  // restarted from byte 0: the output carries no trace of it.
  EXPECT_EQ(w.soc.config_memory().partition_state(handle).essential_upsets,
            0u);
  EXPECT_EQ(w.read_dst(kDataBase + 0x10000, 8 * 512),
            w.cipher_golden(key, kDataBase, 8 * 512, 512));
}

TEST(SlotRecovery, WedgedSwapBecomesDiagnosedHang) {
  SlotWorld w;
  ASSERT_EQ(w.fi.arm(sites::kSlotSwapStall, 1), Status::kOk);
  const u64 key = 0xC001D00DCAFEF00DULL;
  SlotScheduler::TaskId a = 0;
  ASSERT_EQ(w.sched->submit(w.cipher_task(key, 4 * 512, 1, kDataBase,
                                          kDataBase + 0x10000, 55),
                            &a),
            Status::kOk);
  w.sched->drain();

  // The first swap-in wedged; the slot service's watchdog diagnosed a
  // kHang, the manager's recovery machine retried, and the task still
  // completed with golden output — no silent corruption, no lost task.
  EXPECT_EQ(w.sched->task(a)->state, TaskState::kCompleted);
  EXPECT_GE(w.sched->stats().swap_hangs, 1u);
  EXPECT_GE(w.stack.service(w.sched->task(a)->slot).stats().hangs, 1u);
  EXPECT_TRUE(w.journal_has(Swap::kSwapHang));
  EXPECT_EQ(w.read_dst(kDataBase + 0x10000, 4 * 512),
            w.cipher_golden(key, kDataBase, 4 * 512, 512));
}

// ---------------------------------------------------------------------
// Oversubscription: priority-safe shedding and aging
// ---------------------------------------------------------------------

TEST(SlotOversubscription, ShedsArePrioritySafeBothWays) {
  SlotScheduler::Config cc = test::serving_sched_config();
  cc.queue_capacity = 2;
  SlotWorld w(1, sim::Simulator::Mode::kScheduled, cc);

  const u64 key = 0xFEED5EED0BADF00DULL;
  std::vector<SlotScheduler::TaskId> ids(4, 0);
  for (u32 i = 0; i < 4; ++i) {
    const Status st = w.sched->submit(
        w.cipher_task(key, 2 * 512, i < 2 ? 1 : 5,
                      kDataBase + u64{i} * 0x20000,
                      kDataBase + u64{i} * 0x20000 + 0x10000, 100 + i),
        &ids[i]);
    EXPECT_EQ(st, Status::kOk) << i;
  }
  // The two priority-5 arrivals shed the two priority-1 entries (never
  // the reverse).
  u32 shed_low = 0;
  for (const auto& t : w.sched->tasks()) {
    if (t.state == TaskState::kShed) {
      EXPECT_EQ(t.task.priority, 1u);
      ++shed_low;
    }
  }
  EXPECT_EQ(shed_low, 2u);
  EXPECT_EQ(w.sched->stats().sheds, 2u);
  EXPECT_TRUE(w.journal_has(Swap::kShed));

  // A low-priority submit against a full high-priority queue is
  // refused (the arrival itself sheds) — priority-safe both ways.
  SlotScheduler::TaskId low = 0;
  EXPECT_EQ(w.sched->submit(w.cipher_task(key, 2 * 512, 0,
                                          kDataBase + 0x100000,
                                          kDataBase + 0x110000, 200),
                            &low),
            Status::kRejected);
  ASSERT_NE(w.sched->task(low), nullptr);
  EXPECT_EQ(w.sched->task(low)->state, TaskState::kShed);
  EXPECT_EQ(w.sched->task(low)->status, Status::kRejected);

  // The surviving high-priority tasks complete with golden output.
  w.sched->drain();
  for (u32 i = 2; i < 4; ++i) {
    EXPECT_EQ(w.sched->task(ids[i])->state, TaskState::kCompleted);
    EXPECT_EQ(w.read_dst(kDataBase + u64{i} * 0x20000 + 0x10000, 2 * 512),
              w.cipher_golden(key, kDataBase + u64{i} * 0x20000, 2 * 512,
                              512));
  }
}

TEST(SlotOversubscription, AgingLetsAStarvedTaskPreempt) {
  SlotScheduler::Config cc = test::serving_sched_config();
  cc.aging_quantum_mtime = 500;  // fast aging for the test
  SlotWorld w(1, sim::Simulator::Mode::kScheduled, cc);

  const u64 key = 0x5107A61267890123ULL;
  // A long-running priority-2 hog and a queued priority-0 task.
  SlotScheduler::TaskId hog = 0, starved = 0;
  ASSERT_EQ(w.sched->submit(w.cipher_task(key, 16 * 512, 2, kDataBase,
                                          kDataBase + 0x10000, 77),
                            &hog),
            Status::kOk);
  ASSERT_EQ(w.sched->submit(w.cipher_task(key, 2 * 512, 0,
                                          kDataBase + 0x20000,
                                          kDataBase + 0x30000, 78),
                            &starved),
            Status::kOk);
  w.sched->drain();

  // Waiting-time credit eventually let the priority-0 task strictly
  // outrank the hog and preempt it mid-flight; the hog was captured,
  // later restored, and both still produced golden output.
  EXPECT_EQ(w.sched->task(hog)->state, TaskState::kCompleted);
  EXPECT_EQ(w.sched->task(starved)->state, TaskState::kCompleted);
  EXPECT_GE(w.sched->task(hog)->preemptions, 1u);
  EXPECT_GE(w.sched->stats().captures, 1u);
  EXPECT_GE(w.sched->stats().restores, 1u);
  EXPECT_EQ(w.read_dst(kDataBase + 0x10000, 16 * 512),
            w.cipher_golden(key, kDataBase, 16 * 512, 512));
  EXPECT_EQ(w.read_dst(kDataBase + 0x30000, 2 * 512),
            w.cipher_golden(key, kDataBase + 0x20000, 2 * 512, 512));
}

// ---------------------------------------------------------------------
// Journal slot-id attribution and swap telemetry
// ---------------------------------------------------------------------

TEST(SlotJournal, ManagerJournalCarriesTheSlotId) {
  SlotWorld w;
  // Corrupt slot 1's staged cipher image: activation fails its golden
  // CRC and every journal entry must attribute to slot 1.
  DprManager::StagedInfo info;
  ASSERT_EQ(w.mgr(1).staged_image("cipher", &info), Status::kOk);
  u8 byte = 0;
  w.soc.ddr().peek(info.addr + 100, std::span(&byte, 1));
  byte ^= 0x40;
  w.soc.ddr().poke(info.addr + 100, std::span(&byte, 1));
  EXPECT_NE(w.mgr(1).activate("cipher"), Status::kOk);
  const auto journal = w.mgr(1).journal();
  ASSERT_FALSE(journal.empty());
  for (const auto& e : journal) {
    EXPECT_EQ(e.slot, 1u);
  }
  // Slot 0's manager is unaffected: its activation still succeeds, and
  // a failure of its own journals under slot 0, not slot 1.
  EXPECT_EQ(w.mgr(0).activate("cipher"), Status::kOk);
  EXPECT_TRUE(w.mgr(0).journal().empty());
  ASSERT_EQ(w.mgr(0).staged_image("fir", &info), Status::kOk);
  w.soc.ddr().peek(info.addr + 100, std::span(&byte, 1));
  byte ^= 0x40;
  w.soc.ddr().poke(info.addr + 100, std::span(&byte, 1));
  EXPECT_NE(w.mgr(0).activate("fir"), Status::kOk);
  ASSERT_FALSE(w.mgr(0).journal().empty());
  for (const auto& e : w.mgr(0).journal()) {
    EXPECT_EQ(e.slot, 0u);
  }
}

TEST(SlotJournal, StatsCountPreemptiveSwap) {
  SlotWorld w;
  PreemptScenario scn;
  scn.run(w);
  scn.expect_all_golden(w);

  const SlotScheduler::Stats& st = w.sched->stats();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.preemptions, 1u);
  EXPECT_EQ(st.captures, 1u);
  EXPECT_EQ(st.restores, 1u);
  EXPECT_EQ(st.rollbacks, 0u);
  for (const auto& t : w.sched->tasks()) {
    EXPECT_NE(t.state, TaskState::kQueued);
  }
}

// ---------------------------------------------------------------------
// Kernel equivalence: kFlat vs kScheduled
// ---------------------------------------------------------------------

TEST(SlotKernelEquivalence, SchedulingScenarioMatchesAcrossKernels) {
  struct Result {
    std::vector<u8> a, b, c;
    u64 captures, restores, rollbacks, completed;
    u64 cycles;
  };
  auto run = [](sim::Simulator::Mode mode) {
    auto w = std::make_unique<SlotWorld>(2, mode);
    PreemptScenario sc;
    sc.run(*w);
    sc.expect_all_golden(*w);
    return Result{w->read_dst(kDataBase + 0x10000, 8 * 512),
                  w->read_dst(kDataBase + 0x30000, 4 * 512),
                  w->read_dst(kDataBase + 0x50000, 64 * 64),
                  w->sched->stats().captures,
                  w->sched->stats().restores,
                  w->sched->stats().rollbacks,
                  w->sched->stats().completed,
                  w->soc.sim().now()};
  };
  const Result flat = run(sim::Simulator::Mode::kFlat);
  const Result act = run(sim::Simulator::Mode::kScheduled);
  EXPECT_EQ(flat.a, act.a);
  EXPECT_EQ(flat.b, act.b);
  EXPECT_EQ(flat.c, act.c);
  EXPECT_EQ(flat.captures, act.captures);
  EXPECT_EQ(flat.restores, act.restores);
  EXPECT_EQ(flat.rollbacks, act.rollbacks);
  EXPECT_EQ(flat.completed, act.completed);
  EXPECT_EQ(flat.cycles, act.cycles);
}

}  // namespace
}  // namespace rvcap
