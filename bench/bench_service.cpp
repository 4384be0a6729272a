// Service study: offered load x fault rate sweep over the
// deadline-aware ReconfigService. Each cell submits bursts of
// randomized requests (module, priority, deadline) into the bounded
// queue, drains them through the self-healing pipeline under fault
// injection, and reports admission/degradation counters plus the
// p50/p99 request-to-active latency. Emits a JSON report and exits
// non-zero if any accepted request failed to reach a terminal state.
#include <algorithm>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "driver/stack.hpp"
#include "sim/fault_injector.hpp"

using namespace rvcap;
namespace sites = sim::fault_sites;

namespace {

using driver::ReconfigService;
using State = ReconfigService::RequestState;

struct CellResult {
  u32 offered = 0;        // requests submitted
  u64 accepted = 0;
  u64 completed = 0;
  u64 failed = 0;
  u64 shed = 0;           // evicted + refused at saturation
  u64 deadline_missed = 0;
  u64 coalesced = 0;
  u64 hangs = 0;
  u64 recoveries = 0;
  double p50_us = 0;      // request-to-active latency percentiles
  double p99_us = 0;
  bool all_terminal = true;  // every accepted request reached an end state
};

double ticks_to_us(u64 ticks) {
  return static_cast<double>(ticks) * 1e6 / kClintClockHz;
}

double percentile(std::vector<u64>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const usize idx = static_cast<usize>(p * (v.size() - 1) + 0.5);
  return ticks_to_us(v[std::min(idx, v.size() - 1)]);
}

CellResult run_cell(u32 burst_size, u32 bursts, double fault_rate, u64 seed) {
  soc::ArianeSoc soc((soc::SocConfig()));
  sim::FaultInjector fi(seed);
  // No scrubber: bounded runs skip the slow post-recovery readback.
  driver::Stack::Parts parts;
  parts.service.queue_capacity = 4;
  driver::Stack stack(soc, parts, &fi);
  driver::RvCapDriver& drv = stack.driver();
  driver::DprManager& mgr = stack.manager();

  // Five pre-staged modules (every registered RM behavior): enough
  // distinct targets that a 12-request burst saturates the 4-deep
  // queue instead of coalescing away.
  std::vector<std::string> mods;
  const u32 rm_ids[] = {accel::kRmIdSobel, accel::kRmIdMedian,
                        accel::kRmIdGaussian, accel::kRmIdCipher,
                        accel::kRmIdFir};
  for (u32 i = 0; i < 5; ++i) {
    const std::string name = "m" + std::to_string(i);
    if (!ok(stack.stage(0, name, rm_ids[i]))) return {};
    mods.push_back(name);
  }

  if (fault_rate > 0.0) {
    // Bounded single-shot-style plans so every cell converges; the
    // watchdog turns the stall into a fast hang + recovery.
    fi.arm(sites::kDmaMm2sSlvErr, 3, fault_rate);
    fi.arm(sites::kDmaMm2sStall, 1, fault_rate / 2);
    fi.arm(sites::kDmaMm2sEarlyIoc, 2, fault_rate / 2);
    fi.arm(sites::kIcapSyncLoss, 2, fault_rate / 2);
  }

  ReconfigService& svc = stack.service();

  SplitMix64 rng(seed ^ 0x5EED'F00D);
  CellResult r;
  for (u32 b = 0; b < bursts; ++b) {
    for (u32 i = 0; i < burst_size; ++i) {
      ReconfigService::ActivationRequest req;
      req.module = mods[rng.next_below(mods.size())];
      req.priority = static_cast<u32>(rng.next_below(8));
      req.client_id = b * burst_size + i;
      switch (rng.next_below(3)) {
        case 0: req.deadline_mtime = 0; break;
        case 1:
          // ~1-3 activation times out: met or missed depending on how
          // deep in the queue the request lands.
          req.deadline_mtime = drv.mtime() + 20'000 + rng.next_below(80'000);
          break;
        default:
          req.deadline_mtime = drv.mtime() + 20'000'000;
          break;
      }
      svc.submit(req);
      ++r.offered;
    }
    svc.drain();
  }

  const auto& st = svc.stats();
  r.accepted = st.accepted;
  r.completed = st.completed;
  r.failed = st.failed;
  r.shed = st.shed + st.rejected_full;
  r.deadline_missed = st.deadline_missed;
  r.coalesced = st.coalesced;
  r.hangs = st.hangs;
  r.recoveries = mgr.stats().recoveries;

  std::vector<u64> waits;
  for (const auto& rec : svc.history()) {
    if (rec.state == State::kQueued || rec.state == State::kActive) {
      r.all_terminal = false;  // a request was lost in flight
    }
    if (rec.start_mtime != 0) {
      waits.push_back(rec.start_mtime - rec.submit_mtime);
    }
  }
  // Terminal-state accounting must balance the admission counters too.
  u64 terminal_of_accepted = st.completed + st.failed + st.shed +
                             st.cancelled;
  for (const auto& rec : svc.history()) {
    if (rec.state == State::kDeadlineMissed &&
        rec.done_mtime > rec.submit_mtime) {
      ++terminal_of_accepted;  // missed at dispatch: was queued before
    }
  }
  if (terminal_of_accepted != st.accepted) r.all_terminal = false;

  r.p50_us = percentile(waits, 0.50);
  r.p99_us = percentile(waits, 0.99);
  return r;
}

}  // namespace

int main() {
  bench::print_header(
      "SERVICE: offered load x fault rate over the reconfig queue");

  constexpr u64 kSeed = 0xD15'7A7C;
  const u32 loads[] = {2, 6, 12};      // requests per burst (capacity 4)
  const double rates[] = {0.0, 0.3};
  constexpr u32 kBursts = 2;

  std::printf("\n%5s %6s | %7s %8s %6s %5s %7s %5s %5s | %9s %9s\n",
              "load", "fault", "offered", "accepted", "done", "shed",
              "missed", "coal", "hang", "p50(us)", "p99(us)");

  bool all_terminal = true;
  std::printf("\n");
  std::string json = "{\n  \"cells\": [\n";
  bool first = true;
  for (const u32 load : loads) {
    for (const double rate : rates) {
      const CellResult r = run_cell(load, kBursts, rate, kSeed);
      if (!r.all_terminal) all_terminal = false;
      std::printf("%5u %6.2f | %7u %8llu %6llu %5llu %7llu %5llu %5llu |"
                  " %9.1f %9.1f\n",
                  load, rate, r.offered,
                  static_cast<unsigned long long>(r.accepted),
                  static_cast<unsigned long long>(r.completed),
                  static_cast<unsigned long long>(r.shed),
                  static_cast<unsigned long long>(r.deadline_missed),
                  static_cast<unsigned long long>(r.coalesced),
                  static_cast<unsigned long long>(r.hangs),
                  r.p50_us, r.p99_us);
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "%s    {\"load\": %u, \"fault_rate\": %.2f, "
                    "\"offered\": %u, \"accepted\": %llu, "
                    "\"completed\": %llu, \"shed\": %llu, "
                    "\"deadline_missed\": %llu, \"coalesced\": %llu, "
                    "\"hangs\": %llu, \"recoveries\": %llu, "
                    "\"p50_request_to_active_us\": %.1f, "
                    "\"p99_request_to_active_us\": %.1f}",
                    first ? "" : ",\n", load, rate, r.offered,
                    static_cast<unsigned long long>(r.accepted),
                    static_cast<unsigned long long>(r.completed),
                    static_cast<unsigned long long>(r.shed),
                    static_cast<unsigned long long>(r.deadline_missed),
                    static_cast<unsigned long long>(r.coalesced),
                    static_cast<unsigned long long>(r.hangs),
                    static_cast<unsigned long long>(r.recoveries),
                    r.p50_us, r.p99_us);
      json += buf;
      first = false;
    }
  }
  json += "\n  ],\n  \"all_accepted_terminal\": ";
  json += all_terminal ? "true" : "false";
  json += "\n}";

  std::printf("\n--- JSON report ---\n%s\n", json.c_str());
  if (!all_terminal) {
    std::printf("\nERROR: an accepted request never reached a terminal "
                "state\n");
    return 1;
  }
  std::printf("\nevery accepted request reached exactly one terminal state\n"
              "(completed, failed, shed, cancelled, or deadline-missed);\n"
              "queue admission and the watchdog bounded every fault path.\n");
  bench::print_footnote();
  return 0;
}
