// Relocation-aware placement study: fragmentation x load sweep over
// the placement engine + defragmenting allocator (DESIGN.md §14).
//
// Each cell builds a multi-slot SoC whose modules are registered ONCE
// against their home region (slot 0); every other slot is served by
// on-demand relocation through the placement engine. A mixed
// cipher/FIR workload with long and short tasks splinters the free
// regions; a periodic wide-span tenant (len-2 reservation) probes the
// fragmented fabric with and without the compaction pass. The sweep
// reports placements, relocations, verified variant-cache hits,
// migrations, compaction passes, span grants/rejects and the peak
// fragmentation seen by a span request. Every cell verifies every
// task: all must complete and every output byte must match the
// module's golden reference — a task that was relocated, parked or
// live-migrated is only "placed" if its output is indistinguishable
// from a run in its home slot. Emits BENCH_place.json (override with
// BENCH_PLACE_JSON) and exits non-zero on any lost/corrupted task or
// failed relocation.
//
// The headline run demonstrates the allocator's reason to exist: a
// deterministic checkerboard (long tasks pinning slots 0 and 2 of 4)
// where a width-2 reservation is REFUSED without compaction and
// GRANTED with it — one live migration through the capture/restore
// path coalesces the free space. The bench fails if either half of
// that comparison flips.
//
// `bench_place --trace[=path]` skips the sweep and captures one
// relocating cell with the trace sink enabled, writing a
// Perfetto-loadable Chrome trace (default place_trace.json) whose
// Place track carries request/relocate/hit/migrate/compact/span
// events; CI lints it with `trace-lint --require=Place`.
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "driver/stack.hpp"
#include "sim/fault_injector.hpp"

using namespace rvcap;

namespace {

using driver::PlacementEngine;
using driver::SlotScheduler;
using TaskState = SlotScheduler::TaskState;

// Task i reads kDataBase + i * 0x20000 and writes the 64 KiB above it.
const Addr kDataBase = driver::DdrLayout::base(driver::DdrLayout::kTaskData);
constexpr u32 kChunk = 512;

struct Cell {
  const char* label;
  u32 slots = 3;
  u32 load = 8;
  u32 wide_every = 0;      // steps between span probes; 0 = never
  bool compaction = false; // allow the defragmenting pass
};

struct CellResult {
  u32 offered = 0;
  u64 completed = 0;
  u64 failed = 0;
  u64 requests = 0;
  u64 relocations = 0;
  u64 reloc_hits = 0;
  u64 reloc_failures = 0;
  u64 migrations = 0;
  u64 compactions = 0;
  u64 span_grants = 0;
  u64 span_rejects = 0;
  u32 frag_max_pct = 0;    // peak fragmentation seen by a span probe
  u64 cycles = 0;
  u32 corrupted = 0;
  u32 lost = 0;
};

/// One cell: per-slot manager/service pairs under one scheduler, ONE
/// engine holding the module catalogue. Each module is registered
/// once, against its home region: every other slot is served by
/// relocation, never by per-slot staging.
struct World : bench::ServingWorld {
  World(u32 num_slots, u32 queue_capacity, u64 seed, bool traced)
      : ServingWorld(num_slots, queue_capacity, kChunk, seed, traced, {}) {
    stack.stage_home("cipher", accel::kRmIdCipher);
    stack.stage_home("fir", accel::kRmIdFir);
  }

  PlacementEngine* engine = stack.placement();
};

bench::StreamTask make_task(World& w, u32 i, SplitMix64& rng, u32 bytes) {
  bench::StreamTask p;
  p.fir = (rng.next_below(2) == 1);
  p.key = rng.next();
  p.src = kDataBase + u64{i} * 0x20000;
  p.dst = p.src + 0x10000;
  p.bytes = bytes;
  std::vector<u8> in(p.bytes);
  for (auto& b : in) b = rng.next_byte();
  w.soc.ddr().poke(p.src, in);

  if (ok(w.sched->submit(p.task(/*priority=*/1), &p.id))) return p;
  p.id = 0;
  return p;
}

void audit(World& w, const std::vector<bench::StreamTask>& tasks,
           CellResult* r) {
  for (const bench::StreamTask& p : tasks) {
    const auto* rec = w.sched->task(p.id);
    if (rec == nullptr || rec->state != TaskState::kCompleted) {
      ++r->lost;
    } else if (!p.golden(w.soc, kChunk)) {
      ++r->corrupted;
    }
  }
  const auto& es = w.engine->stats();
  r->requests = es.requests;
  r->relocations = es.relocations;
  r->reloc_hits = es.reloc_cache_hits;
  r->reloc_failures = es.reloc_failures;
  r->migrations = es.migrations;
  r->compactions = es.compactions;
  r->span_grants = es.span_grants;
  r->span_rejects = es.span_rejects;
  r->completed = w.sched->stats().completed;
  r->failed = w.sched->stats().failed;
  r->cycles = w.soc.sim().now();
}

CellResult run_cell(const Cell& cell, u64 seed,
                    const char* trace_path = nullptr) {
  World w(cell.slots, /*queue_capacity=*/cell.load, seed,
          trace_path != nullptr);
  SplitMix64 rng(seed ^ 0x97AC'Eull);
  CellResult r;
  const u32 cls = w.soc.allocator().class_of(0);

  // Mixed long/short load offered up front: short tasks vacate their
  // slots early, splintering the free space around the long residents.
  std::vector<bench::StreamTask> tasks;
  for (u32 i = 0; i < cell.load; ++i) {
    const u32 bytes = (i % 2 == 0)
                          ? (16 + static_cast<u32>(rng.next_below(17))) * kChunk
                          : (2 + static_cast<u32>(rng.next_below(3))) * kChunk;
    bench::StreamTask p = make_task(w, i, rng, bytes);
    if (p.id != 0) {
      tasks.push_back(p);
      ++r.offered;
    }
  }

  // Step the scheduler to completion; every `wide_every` steps a
  // wide-span tenant probes the fragmented fabric, holds any grant for
  // a few steps, then releases it.
  std::vector<u32> held;
  u32 steps = 0, hold = 0;
  while (w.sched->step()) {
    ++steps;
    const double frag = w.soc.allocator().fragmentation(cls);
    r.frag_max_pct =
        std::max(r.frag_max_pct, static_cast<u32>(frag * 100.0 + 0.5));
    if (!held.empty() && ++hold >= 8) {
      w.sched->release_span(held);
      held.clear();
      hold = 0;
    }
    if (cell.wide_every != 0 && held.empty() &&
        steps % cell.wide_every == 0) {
      std::vector<u32> span;
      if (ok(w.sched->acquire_span(cls, 2, cell.compaction, &span))) {
        held = span;
        hold = 0;
      }
    }
  }
  if (!held.empty()) w.sched->release_span(held);

  audit(w, tasks, &r);

  if (trace_path != nullptr && !bench::write_trace(w.soc, trace_path)) {
    ++r.lost;
  }
  return r;
}

// ------------------------------------------------------------------
// Headline: compaction recovers a placement that fails without it
// ------------------------------------------------------------------

struct Headline {
  bool rejected_without = false;  // width-2 request refused as-is
  bool granted_with = false;      // same request granted after compaction
  u64 migrations = 0;
  u32 lost = 0, corrupted = 0;
};

Headline run_headline(u64 seed) {
  Headline h;
  World w(/*num_slots=*/4, /*queue_capacity=*/4, seed, false);
  SplitMix64 rng(seed);
  const u32 cls = w.soc.allocator().class_of(0);

  // Checkerboard: long tasks pin slots 0 and 2; the shorts on 1 and 3
  // finish early, leaving two free singletons that no width-2 window
  // can cover. Shorts are 2 chunks so every slot stays occupied until
  // all four tasks have been placed.
  std::vector<bench::StreamTask> tasks;
  for (u32 i = 0; i < 4; ++i) {
    const u32 bytes = (i % 2 == 0) ? 64 * kChunk : 2 * kChunk;
    bench::StreamTask p = make_task(w, i, rng, bytes);
    if (p.id != 0) tasks.push_back(p);
  }
  for (int guard = 0; guard < 64; ++guard) {
    const auto* t1 = w.sched->task(tasks[1].id);
    const auto* t3 = w.sched->task(tasks[3].id);
    if (t1->state == TaskState::kCompleted &&
        t3->state == TaskState::kCompleted) {
      break;
    }
    if (!w.sched->step()) break;
  }

  std::vector<u32> span;
  h.rejected_without =
      w.sched->acquire_span(cls, 2, /*allow_compaction=*/false, &span) ==
      Status::kNoSpace;
  h.granted_with =
      ok(w.sched->acquire_span(cls, 2, /*allow_compaction=*/true, &span));
  h.migrations = w.engine->stats().migrations;
  if (h.granted_with) w.sched->release_span(span);

  while (w.sched->step()) {
  }
  CellResult r;
  audit(w, tasks, &r);
  h.lost = r.lost;
  h.corrupted = r.corrupted;
  return h;
}

// ------------------------------------------------------------------
// --trace mode: capture one relocating cell as a Chrome trace
// ------------------------------------------------------------------

int run_trace_capture(const char* path) {
  if (!bench::begin_trace_capture(
          "Traced relocating placement -> Chrome trace JSON")) {
    return 1;
  }
  const Cell cell{"trace", 3, 6, /*wide_every=*/16, /*compaction=*/true};
  const CellResult r = run_cell(cell, 0x97AC'E51, path);
  if (r.lost != 0 || r.corrupted != 0 || r.reloc_failures != 0 ||
      r.relocations == 0) {
    std::printf("  ERROR: traced placement run did not complete cleanly\n");
    return 1;
  }
  std::printf("  %llu tasks completed golden across %llu relocations "
              "(%llu verified reuses, %llu span grants, %llu rejects)\n",
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.relocations),
              static_cast<unsigned long long>(r.reloc_hits),
              static_cast<unsigned long long>(r.span_grants),
              static_cast<unsigned long long>(r.span_rejects));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* trace_path = bench::trace_arg(argc, argv, "place_trace.json");
  if (trace_path != nullptr) return run_trace_capture(trace_path);

  bench::print_header(
      "PLACE: fragmentation x load sweep over relocation-aware placement");

  constexpr u64 kSeed = 0x97AC'E51;
  // BENCH_PLACE_QUICK trims the sweep for CI smoke runs; the recorded
  // EXPERIMENTS.md table comes from a full local run.
  const bool quick = std::getenv("BENCH_PLACE_QUICK") != nullptr;
  const u32 load = quick ? 6 : 12;
  const u32 heavy = quick ? 8 : 20;

  const Cell cells[] = {
      {"3slot-noreloc-base", 1, load, 0, false},
      {"3slot-serve", 3, load, 0, false},
      {"4slot-serve", 4, load, 0, false},
      {"4slot-wide-nocompact", 4, load, 24, false},
      {"4slot-wide-compact", 4, load, 24, true},
      {"4slot-oversub-compact", 4, heavy, 16, true},
  };

  std::printf("\n%22s %5s %4s %4s | %4s %4s %4s %4s | %4s %4s %4s %4s | "
              "%5s %9s\n",
              "cell", "slots", "load", "done", "req", "rloc", "hit", "fail",
              "mig", "cmp", "spn+", "spn-", "frag%", "cycles");

  bool safe = true;
  std::string json = "{\n  \"cells\": [\n";
  bool first = true;
  for (const Cell& cell : cells) {
    const CellResult r = run_cell(cell, kSeed);
    if (r.lost != 0 || r.corrupted != 0 || r.failed != 0 ||
        r.reloc_failures != 0) {
      safe = false;
    }
    std::printf("%22s %5u %4u %4llu | %4llu %4llu %4llu %4llu | "
                "%4llu %4llu %4llu %4llu | %5u %9llu\n",
                cell.label, cell.slots, r.offered,
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.requests),
                static_cast<unsigned long long>(r.relocations),
                static_cast<unsigned long long>(r.reloc_hits),
                static_cast<unsigned long long>(r.reloc_failures),
                static_cast<unsigned long long>(r.migrations),
                static_cast<unsigned long long>(r.compactions),
                static_cast<unsigned long long>(r.span_grants),
                static_cast<unsigned long long>(r.span_rejects),
                r.frag_max_pct, static_cast<unsigned long long>(r.cycles));
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "%s    {\"cell\": \"%s\", \"slots\": %u, \"load\": %u, "
        "\"wide_every\": %u, \"compaction\": %s, \"completed\": %llu, "
        "\"failed\": %llu, \"requests\": %llu, \"relocations\": %llu, "
        "\"reloc_cache_hits\": %llu, \"reloc_failures\": %llu, "
        "\"migrations\": %llu, \"compactions\": %llu, "
        "\"span_grants\": %llu, \"span_rejects\": %llu, "
        "\"frag_max_pct\": %u, \"cycles\": %llu, "
        "\"lost\": %u, \"corrupted\": %u}",
        first ? "" : ",\n", cell.label, cell.slots, r.offered,
        cell.wide_every, cell.compaction ? "true" : "false",
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.failed),
        static_cast<unsigned long long>(r.requests),
        static_cast<unsigned long long>(r.relocations),
        static_cast<unsigned long long>(r.reloc_hits),
        static_cast<unsigned long long>(r.reloc_failures),
        static_cast<unsigned long long>(r.migrations),
        static_cast<unsigned long long>(r.compactions),
        static_cast<unsigned long long>(r.span_grants),
        static_cast<unsigned long long>(r.span_rejects), r.frag_max_pct,
        static_cast<unsigned long long>(r.cycles), r.lost, r.corrupted);
    json += buf;
    first = false;
  }

  const Headline h = run_headline(kSeed);
  if (h.lost != 0 || h.corrupted != 0) safe = false;
  std::printf("\nheadline: width-2 reservation on the checkerboard: "
              "without compaction %s, with compaction %s "
              "(%llu live migration%s)\n",
              h.rejected_without ? "REFUSED" : "granted (unexpected)",
              h.granted_with ? "GRANTED" : "refused (unexpected)",
              static_cast<unsigned long long>(h.migrations),
              h.migrations == 1 ? "" : "s");

  char hbuf[256];
  std::snprintf(hbuf, sizeof(hbuf),
                "\n  ],\n  \"headline\": {\"rejected_without_compaction\": "
                "%s, \"granted_with_compaction\": %s, \"migrations\": "
                "%llu},\n  \"all_tasks_safe\": ",
                h.rejected_without ? "true" : "false",
                h.granted_with ? "true" : "false",
                static_cast<unsigned long long>(h.migrations));
  json += hbuf;
  json += safe ? "true" : "false";
  json += "\n}";

  bench::write_ledger(json, "BENCH_PLACE_JSON", "BENCH_place.json");

  if (!safe || !h.rejected_without || !h.granted_with) {
    std::printf("\nERROR: a task was lost/corrupted, a relocation failed, "
                "or compaction did not recover the refused placement\n");
    return 1;
  }
  std::printf("\nall tasks golden; compaction recovered the wide "
              "placement\n");
  return 0;
}
