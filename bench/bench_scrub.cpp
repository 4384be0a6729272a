// Scrub study: upset rate x scrub duty cycle over the frame-ECC scrub
// engine (DESIGN.md §10). Each cell runs a loaded partition under a
// seeded Poisson SEU process while the ScrubService walks the frames at
// the cell's duty cycle, and reports detection/repair counters plus the
// measured MTTD/MTTR. Emits BENCH_scrub.json and exits non-zero if any
// cell leaves an essential upset unrepaired past the repair deadline,
// or fails to converge at all.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.hpp"
#include "driver/stack.hpp"
#include "fabric/seu_process.hpp"
#include "sim/fault_injector.hpp"

using namespace rvcap;
namespace sites = sim::fault_sites;

namespace {

// Hardest upset an operator should ever wait on: one full-partition
// reload plus a couple of scrub passes. Anything older than this while
// still pending means the repair path lost an essential upset.
constexpr u64 kRepairDeadlineCycles = 60'000'000;

struct CellResult {
  u64 mean_cycles = 0;       // upset inter-arrival mean
  u32 frames_per_slice = 0;  // scrub duty cycle
  u64 landed = 0;
  u64 detections = 0;
  u64 repaired = 0;
  u64 self_cancelled = 0;
  u64 rewrites = 0;
  u64 reloads = 0;
  u64 passes = 0;
  double mttd_us = 0;
  double mttr_us = 0;
  u64 frames_per_sec = 0;
  Cycles final_cycle = 0;
  bool converged = false;       // budget fired out, nothing pending
  bool deadline_met = true;     // no essential upset aged past deadline
};

CellResult run_cell(u64 mean_cycles, u32 frames_per_slice, u32 upset_budget,
                    u64 seed) {
  CellResult r;
  r.mean_cycles = mean_cycles;
  r.frames_per_slice = frames_per_slice;

  soc::ArianeSoc soc((soc::SocConfig()));
  sim::FaultInjector fi(seed);
  driver::Stack::Parts parts;
  parts.scrub = driver::ScrubService::Config{};
  parts.scrub->frames_per_slice = frames_per_slice;
  driver::Stack stack(soc, parts, &fi);
  if (!ok(stack.stage(0, "sobel", accel::kRmIdSobel))) return r;
  driver::ReconfigService& svc = stack.service();
  driver::ScrubService& scrub = *stack.scrub();
  scrub.watch_partition(soc.rp0_handle(), "sobel");
  scrub.install_upset_feed();

  driver::ReconfigService::ActivationRequest req;
  req.module = "sobel";
  req.priority = 1;
  if (!ok(svc.submit(req, nullptr))) return r;
  svc.drain();

  fabric::SeuProcess::Config pc;
  pc.mean_cycles = mean_cycles;
  pc.targets = {soc.rp0_handle()};
  fabric::SeuProcess seu("seu0", soc.config_memory(), fi, pc);
  soc.sim().add(&seu);
  fi.arm(sites::kSeuUpset, upset_budget);

  // Scrub at the cell's duty cycle until the budget has fired out and
  // every landed upset is resolved; each step advances sim time, so
  // wheel events get their chance to land. The step bound covers the
  // slowest cell (smallest slice, every upset escalating to a reload)
  // with a wide margin.
  const u32 max_steps = 400 * (805 / frames_per_slice + 1);
  for (u32 i = 0; i < max_steps; ++i) {
    if (fi.fires(sites::kSeuUpset) >= upset_budget &&
        scrub.pending_upsets() == 0) {
      r.converged = true;
      break;
    }
    if (!ok(scrub.step())) break;
    if (scrub.pending_essential() > 0 &&
        scrub.max_pending_age(soc.sim().now()) > kRepairDeadlineCycles) {
      r.deadline_met = false;
      break;
    }
  }

  r.landed = seu.landed();
  r.detections = scrub.stats().detections;
  r.repaired = scrub.stats().upsets_repaired;
  r.self_cancelled = scrub.stats().upsets_self_cancelled;
  r.rewrites = scrub.stats().frame_rewrites;
  r.reloads = scrub.stats().partition_reloads;
  r.passes = scrub.stats().passes;
  r.mttd_us = cycles_to_us(
      static_cast<Cycles>(scrub.mean_mttd_cycles()));
  r.mttr_us = cycles_to_us(
      static_cast<Cycles>(scrub.mean_mttr_cycles()));
  r.frames_per_sec = scrub.stats().last_pass_frames_per_sec;
  r.final_cycle = soc.sim().now();
  return r;
}

}  // namespace

int main() {
  bench::print_header(
      "SCRUB: upset rate x duty cycle over the frame-ECC scrub engine");

  constexpr u64 kSeed = 0x5C12'0B5E;
  constexpr u32 kBudget = 6;  // upsets per cell
  const u64 rates[] = {20'000, 120'000};    // mean cycles between upsets
  const u32 slices[] = {32, 128, 805};      // frames scrubbed per step

  std::printf("\n%9s %6s | %6s %6s %6s %5s %5s %6s | %9s %9s %8s\n",
              "mean_cyc", "slice", "landed", "detect", "repair", "rewr",
              "reload", "passes", "mttd(us)", "mttr(us)", "frames/s");

  bool all_ok = true;
  std::string json = "{\n  \"bench\": \"bench_scrub upset rate x duty "
                     "cycle\",\n  \"cells\": [\n";
  bool first = true;
  for (const u64 rate : rates) {
    for (const u32 slice : slices) {
      const CellResult r = run_cell(rate, slice, kBudget, kSeed);
      if (!r.converged || !r.deadline_met) all_ok = false;
      std::printf("%9llu %6u | %6llu %6llu %6llu %5llu %5llu %6llu |"
                  " %9.1f %9.1f %8llu%s\n",
                  static_cast<unsigned long long>(r.mean_cycles), r.frames_per_slice,
                  static_cast<unsigned long long>(r.landed),
                  static_cast<unsigned long long>(r.detections),
                  static_cast<unsigned long long>(r.repaired),
                  static_cast<unsigned long long>(r.rewrites),
                  static_cast<unsigned long long>(r.reloads),
                  static_cast<unsigned long long>(r.passes),
                  r.mttd_us, r.mttr_us,
                  static_cast<unsigned long long>(r.frames_per_sec),
                  r.converged ? (r.deadline_met ? "" : "  DEADLINE")
                              : "  NO-CONVERGE");
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "%s    {\"mean_upset_cycles\": %llu, "
                    "\"frames_per_slice\": %u, \"landed\": %llu, "
                    "\"detections\": %llu, \"repaired\": %llu, "
                    "\"self_cancelled\": %llu, \"frame_rewrites\": %llu, "
                    "\"partition_reloads\": %llu, \"passes\": %llu, "
                    "\"mttd_us\": %.1f, \"mttr_us\": %.1f, "
                    "\"frames_per_sec\": %llu, \"final_cycle\": %llu, "
                    "\"converged\": %s, \"deadline_met\": %s}",
                    first ? "" : ",\n",
                    static_cast<unsigned long long>(r.mean_cycles),
                    r.frames_per_slice,
                    static_cast<unsigned long long>(r.landed),
                    static_cast<unsigned long long>(r.detections),
                    static_cast<unsigned long long>(r.repaired),
                    static_cast<unsigned long long>(r.self_cancelled),
                    static_cast<unsigned long long>(r.rewrites),
                    static_cast<unsigned long long>(r.reloads),
                    static_cast<unsigned long long>(r.passes),
                    r.mttd_us, r.mttr_us,
                    static_cast<unsigned long long>(r.frames_per_sec),
                    static_cast<unsigned long long>(r.final_cycle),
                    r.converged ? "true" : "false",
                    r.deadline_met ? "true" : "false");
      json += buf;
      first = false;
    }
  }
  json += "\n  ],\n  \"repair_deadline_cycles\": ";
  json += std::to_string(kRepairDeadlineCycles);
  json += ",\n  \"all_cells_ok\": ";
  json += all_ok ? "true" : "false";
  json += "\n}\n";

  bench::write_ledger(json, "BENCH_SCRUB_JSON", "BENCH_scrub.json");

  if (!all_ok) {
    std::printf("\nERROR: a cell left an essential upset unrepaired past "
                "the deadline, or never converged\n");
    return 1;
  }
  std::printf("\nevery landed upset was repaired (or self-cancelled) within "
              "the deadline\nat every upset rate and duty cycle; faster duty "
              "cycles buy lower MTTD,\nwhile MTTR tracks the rewrite-vs-"
              "reload mix.\n");
  bench::print_footnote();
  return 0;
}
