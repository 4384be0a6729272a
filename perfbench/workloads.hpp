// The benchmark's four workloads. Each repetition builds a fresh SoC
// and driver stack from the workload seed, runs a fixed, seeded batch
// of operations through the public driver API, checks every output and
// returns what it measured. The batch is fixed per seed, so every
// simulated number of a repetition is identical across repetitions;
// only host times differ.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "soc/ariane_soc.hpp"
#include "spans.hpp"

namespace rvcap::perfbench {

struct RepResult {
  // ---- host time ----
  double setup_s = 0;  // SoC + stack build, staging, goldens, warm-up op
  double timed_s = 0;  // host seconds inside the timed operation calls
  // ---- outcome ----
  u64 attempted = 0;
  u64 failed = 0;  // wrong output, lost task or failed fetch
  std::string first_error;
  // ---- simulated time ----
  std::vector<u64> latency_cycles;  // per op: issue (or due) -> done
  u64 sim_span_cycles = 0;          // simulated length of the timed run
  u64 reconfigs = 0;                // bitstream transfers into the RP(s)
  u64 reconfig_bytes = 0;
  u64 tr_ticks_sum = 0;             // sum of T_r over those, CLINT ticks
  std::vector<u64> td_ticks;        // T_d / T_r samples (last_timing())
  std::vector<u64> tr_ticks;
  std::map<u32, std::vector<u64>> tc_cycles;  // run_accelerator, by rm_id
  std::vector<u64> late_cycles;     // open loop: submit - due
  // ---- counters: deltas over the timed run ----
  std::map<std::string, u64> counters;
  std::map<std::string, std::pair<u64, u64>> histograms;  // count, sum
};

/// Counter state at a span boundary: the SoC's CounterRegistry plus
/// the component getters the registry does not export.
class CounterSnapshot {
 public:
  explicit CounterSnapshot(soc::ArianeSoc& soc);
  /// Deltas (this -> later) into r.counters / r.histograms.
  void delta_into(soc::ArianeSoc& soc, const CounterSnapshot& later,
                  RepResult& r) const;

 private:
  u64 cycles_ = 0;
  std::vector<u64> registry_;
  std::vector<std::pair<u64, u64>> histograms_;
  u64 ddr_beats_ = 0;
  u64 bus_reads_ = 0;
  u64 bus_writes_ = 0;
  u64 axis2icap_words_ = 0;
};

using WorkloadFn = RepResult (*)(u64 seed, SpanLog* spans);

struct Workload {
  const char* name;
  WorkloadFn run;
  bool paper_reference;  // reports paper_err_pct
  u32 helper_rm_id;      // its own image, for the helper timings
};

/// nullptr for an unknown name.
const Workload* find_workload(std::string_view name);

/// The workload names, in the order BENCHMARK.json lists them.
std::vector<std::string_view> workload_names();

/// Host milliseconds per call (median of `calls`) of the bitstream and
/// CRC helpers, called directly on the case-study image of `rm_id`;
/// empty when a helper's result is wrong.
std::map<std::string, double> time_helpers(u32 rm_id, u32 calls);

}  // namespace rvcap::perfbench
