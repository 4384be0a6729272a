// Multi-RP slot serving study: slots x load x preemption-rate x
// SEU-rate sweep over the preemptive capture/restore scheduler
// (DESIGN.md §13).
//
// Each cell builds a multi-slot SoC with per-slot {DprManager,
// ReconfigService} stacks under one SlotScheduler, offers a mixed
// cipher/FIR workload, and drives the scheduler step by step while a
// seeded process injects forced preemptions (GCAPTURE/GRESTORE swaps)
// and swap-window SEUs (an essential-bit upset landed in the victim
// partition right before its capture, plus torn-capture bit flips in
// the DDR image). The sweep reports completed/failed tasks, swap work
// (captures, restores, rollbacks by cause, diagnosed hangs) and the
// end-to-end cycle cost. Every cell verifies every task: all submitted
// tasks must reach a terminal state, none may fail, and every output
// byte must equal the module's golden reference — a preempted,
// captured, restored or rolled-back task is only "safe" if its output
// is indistinguishable from an uninterrupted run. Emits
// BENCH_slots.json (override with BENCH_SLOTS_JSON) and exits non-zero
// on any lost or corrupted task.
//
// `bench_slots --trace[=path]` skips the sweep and captures one
// preemption-heavy cell with the trace sink enabled, writing a
// Perfetto-loadable Chrome trace (default slots_trace.json) whose Slot
// track carries the place/preempt/capture/restore/rollback events; CI
// lints it with `trace-lint --require=Slot`.
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "driver/stack.hpp"
#include "sim/fault_injector.hpp"

using namespace rvcap;
namespace sites = sim::fault_sites;

namespace {

using driver::SlotScheduler;
using TaskState = SlotScheduler::TaskState;

// Task i reads kDataBase + i * 0x20000 and writes the 64 KiB above it.
const Addr kDataBase = driver::DdrLayout::base(driver::DdrLayout::kTaskData);
constexpr u32 kChunk = 512;

struct Cell {
  const char* label;
  u32 slots = 2;
  u32 load = 8;           // tasks offered
  double preempt = 0.0;   // forced-preemption probability per step
  double seu = 0.0;       // swap-window SEU probability per capture
};

struct CellResult {
  u32 offered = 0;
  u64 completed = 0;
  u64 failed = 0;
  u64 chunks = 0;
  u64 preemptions = 0;
  u64 captures = 0;
  u64 restores = 0;
  u64 rollbacks = 0;
  u64 torn = 0;
  u64 poisoned = 0;
  u64 stale = 0;
  u64 hangs = 0;
  u64 cycles = 0;
  u32 corrupted = 0;      // tasks whose output diverged from golden
  u32 lost = 0;           // tasks that never reached kCompleted
};

/// One cell: a multi-slot SoC and its driver stack, each slot staged
/// with its own golden cipher and FIR images.
struct World : bench::ServingWorld {
  World(u32 num_slots, u32 queue_capacity, u64 seed, bool traced)
      : ServingWorld(num_slots, queue_capacity, kChunk, seed, traced, {}) {
    for (u32 s = 0; s < num_slots; ++s) {
      stack.stage(s, "cipher", accel::kRmIdCipher);
      stack.stage(s, "fir", accel::kRmIdFir);
    }
  }
};

CellResult run_cell(const Cell& cell, u64 seed,
                    const char* trace_path = nullptr) {
  World w(cell.slots, /*queue_capacity=*/cell.load, seed,
          trace_path != nullptr);
  SplitMix64 rng(seed ^ 0x510'7);
  CellResult r;

  // Offer the whole load up front: the queue capacity admits every
  // task, so "lost" can only mean a scheduler defect, never a shed.
  std::vector<bench::StreamTask> tasks;
  for (u32 i = 0; i < cell.load; ++i) {
    bench::StreamTask p;
    p.fir = (rng.next_below(2) == 1);
    p.key = rng.next();
    p.src = kDataBase + u64{i} * 0x20000;
    p.dst = p.src + 0x10000;
    p.bytes = (4 + static_cast<u32>(rng.next_below(5))) * kChunk;
    std::vector<u8> in(p.bytes);
    for (auto& b : in) b = rng.next_byte();
    w.soc.ddr().poke(p.src, in);

    const u32 priority = static_cast<u32>(rng.next_below(4));
    if (ok(w.sched->submit(p.task(priority), &p.id))) {
      tasks.push_back(p);
      ++r.offered;
    }
  }

  // Step the scheduler to completion; a seeded process injects forced
  // preemptions, each optionally preceded by a swap-window SEU in the
  // victim partition (=> poisoned capture) or followed by a torn bit
  // in the DDR image (=> digest rollback).
  while (w.sched->step()) {
    if (cell.preempt <= 0.0 || rng.next_below(1000) >= cell.preempt * 1000) {
      continue;
    }
    const u32 s = static_cast<u32>(rng.next_below(cell.slots));
    if (w.sched->resident(s) == 0) continue;
    if (cell.seu > 0.0 && rng.next_below(1000) < cell.seu * 1000) {
      if (rng.next_below(2) == 0) {
        // Essential upset in the victim partition: the capture is
        // poisoned and must be refused at restore time.
        const auto& cols = w.soc.slot_partition(s).columns();
        w.soc.config_memory().inject_upset(
            {cols[0].row, cols[0].column, 0},
            static_cast<u32>(rng.next_below(fabric::kFrameWords)),
            static_cast<u32>(rng.next_below(32)));
      } else {
        // Torn capture: one DDR bit flips after the digest is sealed.
        w.fi.arm(sites::kSlotCaptureTorn, 1, 1.0);
      }
    }
    w.sched->preempt_slot(s);
  }

  const auto& st = w.sched->stats();
  r.completed = st.completed;
  r.failed = st.failed;
  r.chunks = st.chunks;
  r.preemptions = st.preemptions;
  r.captures = st.captures;
  r.restores = st.restores;
  r.rollbacks = st.rollbacks;
  r.torn = st.torn_detected;
  r.poisoned = st.poisoned_detected;
  r.stale = st.stale_detected;
  r.hangs = st.swap_hangs;
  r.cycles = w.soc.sim().now();

  // Safety audit: every offered task terminal + completed + golden.
  for (const bench::StreamTask& p : tasks) {
    const auto* rec = w.sched->task(p.id);
    if (rec == nullptr || rec->state != TaskState::kCompleted) {
      ++r.lost;
    } else if (!p.golden(w.soc, kChunk)) {
      ++r.corrupted;
    }
  }

  if (trace_path != nullptr && !bench::write_trace(w.soc, trace_path)) {
    ++r.lost;
  }
  return r;
}

// ------------------------------------------------------------------
// --trace mode: capture one preemption-heavy cell as a Chrome trace
// ------------------------------------------------------------------

int run_trace_capture(const char* path) {
  if (!bench::begin_trace_capture(
          "Traced preemptive slot serving -> Chrome trace JSON")) {
    return 1;
  }
  const Cell cell{"trace", 2, 4, /*preempt=*/0.5, /*seu=*/0.5};
  const CellResult r = run_cell(cell, 0x510'7CA9, path);
  if (r.lost != 0 || r.corrupted != 0 || r.captures == 0) {
    std::printf("  ERROR: traced slot run did not complete cleanly\n");
    return 1;
  }
  std::printf("  %llu tasks completed golden across %llu preemptions "
              "(%llu captures, %llu restores, %llu rollbacks)\n",
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.preemptions),
              static_cast<unsigned long long>(r.captures),
              static_cast<unsigned long long>(r.restores),
              static_cast<unsigned long long>(r.rollbacks));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* trace_path = bench::trace_arg(argc, argv, "slots_trace.json");
  if (trace_path != nullptr) return run_trace_capture(trace_path);

  bench::print_header(
      "SLOTS: slots x load x preemption x SEU sweep over preemptive "
      "capture/restore");

  constexpr u64 kSeed = 0x510'7CA9;
  // BENCH_SLOTS_QUICK trims the sweep for CI smoke runs; the recorded
  // EXPERIMENTS.md table comes from a full local run.
  const bool quick = std::getenv("BENCH_SLOTS_QUICK") != nullptr;
  const u32 load = quick ? 4 : 12;
  const u32 heavy = quick ? 6 : 24;

  const Cell cells[] = {
      {"1slot-clean", 1, load, 0.0, 0.0},
      {"2slot-clean", 2, load, 0.0, 0.0},
      {"2slot-preempt20", 2, load, 0.2, 0.0},
      {"2slot-preempt50", 2, load, 0.5, 0.0},
      {"2slot-p50-seu25", 2, load, 0.5, 0.25},
      {"2slot-oversub", 2, heavy, 0.3, 0.1},
  };

  std::printf("\n%16s %5s %4s %4s %4s | %4s %4s | %4s %4s %4s | "
              "%4s %4s %4s | %9s\n",
              "cell", "slots", "load", "done", "fail", "pre", "cap", "rst",
              "rb", "hang", "torn", "pois", "stal", "cycles");

  bool safe = true;
  std::string json = "{\n  \"cells\": [\n";
  bool first = true;
  for (const Cell& cell : cells) {
    const CellResult r = run_cell(cell, kSeed);
    if (r.lost != 0 || r.corrupted != 0 || r.failed != 0) safe = false;
    std::printf("%16s %5u %4u %4llu %4llu | %4llu %4llu | %4llu %4llu "
                "%4llu | %4llu %4llu %4llu | %9llu\n",
                cell.label, cell.slots, r.offered,
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.preemptions),
                static_cast<unsigned long long>(r.captures),
                static_cast<unsigned long long>(r.restores),
                static_cast<unsigned long long>(r.rollbacks),
                static_cast<unsigned long long>(r.hangs),
                static_cast<unsigned long long>(r.torn),
                static_cast<unsigned long long>(r.poisoned),
                static_cast<unsigned long long>(r.stale),
                static_cast<unsigned long long>(r.cycles));
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "%s    {\"cell\": \"%s\", \"slots\": %u, \"load\": %u, "
        "\"preempt_rate\": %.2f, \"seu_rate\": %.2f, \"completed\": %llu, "
        "\"failed\": %llu, \"chunks\": %llu, \"preemptions\": %llu, "
        "\"captures\": %llu, \"restores\": %llu, \"rollbacks\": %llu, "
        "\"torn_detected\": %llu, \"poisoned_detected\": %llu, "
        "\"stale_detected\": %llu, \"swap_hangs\": %llu, "
        "\"cycles\": %llu, \"lost\": %u, \"corrupted\": %u}",
        first ? "" : ",\n", cell.label, cell.slots, r.offered, cell.preempt,
        cell.seu, static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.failed),
        static_cast<unsigned long long>(r.chunks),
        static_cast<unsigned long long>(r.preemptions),
        static_cast<unsigned long long>(r.captures),
        static_cast<unsigned long long>(r.restores),
        static_cast<unsigned long long>(r.rollbacks),
        static_cast<unsigned long long>(r.torn),
        static_cast<unsigned long long>(r.poisoned),
        static_cast<unsigned long long>(r.stale),
        static_cast<unsigned long long>(r.hangs),
        static_cast<unsigned long long>(r.cycles), r.lost, r.corrupted);
    json += buf;
    first = false;
  }
  json += "\n  ],\n  \"all_tasks_safe\": ";
  json += safe ? "true" : "false";
  json += "\n}";

  bench::write_ledger(json, "BENCH_SLOTS_JSON", "BENCH_slots.json");

  if (!safe) {
    std::printf("\nERROR: a task was lost, failed, or produced corrupted "
                "output — preemption safety violated\n");
    return 1;
  }
  std::printf("\nall tasks terminal and bit-golden across the sweep\n");
  return 0;
}
