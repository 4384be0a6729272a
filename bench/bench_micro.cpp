// Micro-benchmarks (google-benchmark) of the simulation substrate
// itself: how fast the kernel, interconnect, ICAP path and workload
// generators run on the host. These guard against performance
// regressions that would make the table harnesses impractically slow.
//
// After the google-benchmark suite, main() runs the kernel comparison:
// each workload executes once under Mode::kFlat and once under
// Mode::kScheduled, asserts cycle-level equivalence, prints the
// SimStats work-avoidance counters, and appends the wall-clock numbers
// to BENCH_kernel.json (the perf trajectory record). Exit status is
// non-zero if the two kernels diverge.
// `bench_micro --trace[=path]` skips the benchmark suite and instead
// captures a fully traced DMA reconfiguration: it writes a
// Perfetto-loadable Chrome trace (default trace.json), prints the
// counter/histogram dump, and reports the tracing overhead on the
// tick rate (EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "accel/filters.hpp"
#include "bench_util.hpp"
#include "bitstream/generator.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "fabric/frame_ecc.hpp"
#include "icap/icap.hpp"
#include "mem/ddr.hpp"
#include "obs/export.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace rvcap;

void BM_FifoPushPop(benchmark::State& state) {
  sim::Fifo<u64> f(64);
  u64 v = 0;
  for (auto _ : state) {
    f.push(v++);
    benchmark::DoNotOptimize(f.pop());
  }
}
BENCHMARK(BM_FifoPushPop);

class Nop : public sim::Component {
 public:
  Nop() : Component("nop") {}
  bool tick() override {
    benchmark::DoNotOptimize(count_++);
    return true;  // free-running: measures raw dispatch, never sleeps
  }

 private:
  u64 count_ = 0;
};

void BM_SimulatorTick(benchmark::State& state) {
  sim::Simulator s;
  std::vector<std::unique_ptr<Nop>> comps;
  for (i64 i = 0; i < state.range(0); ++i) {
    comps.push_back(std::make_unique<Nop>());
    s.add(comps.back().get());
  }
  for (auto _ : state) s.step();
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorTick)->Arg(8)->Arg(64)->Arg(256);

void BM_DdrBurstRead(benchmark::State& state) {
  sim::Simulator s;
  mem::DdrController ddr("ddr");
  s.add(&ddr);
  for (auto _ : state) {
    ddr.port().ar.push(axi::AxiAr{0x1000, 15, 3});
    u32 got = 0;
    while (got < 16) {
      s.step();
      while (ddr.port().r.can_pop()) {
        ddr.port().r.pop();
        ++got;
      }
    }
  }
  state.SetBytesProcessed(state.iterations() * 16 * 8);
}
BENCHMARK(BM_DdrBurstRead);

void BM_IcapWordDecode(benchmark::State& state) {
  const auto dev = fabric::DeviceGeometry::kintex7_325t();
  fabric::ConfigMemory cfg(dev);
  icap::Icap icap("icap", cfg);
  sim::Simulator s;
  s.add(&icap);
  for (auto _ : state) {
    if (icap.port().can_push()) icap.port().push(bitstream::kNop);
    s.step();
  }
  state.SetBytesProcessed(state.iterations() * 4);
}
BENCHMARK(BM_IcapWordDecode);

void BM_GeneratePartialBitstream(benchmark::State& state) {
  const auto dev = fabric::DeviceGeometry::kintex7_325t();
  const auto rp = fabric::case_study_partition(dev);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bitstream::generate_partial_bitstream(dev, rp, {1, "bench"}));
  }
  state.SetBytesProcessed(state.iterations() * 650892);
}
BENCHMARK(BM_GeneratePartialBitstream);

void BM_GoldenFilter(benchmark::State& state) {
  const auto kind = static_cast<accel::FilterKind>(state.range(0));
  const accel::Image img = accel::make_test_image(512, 512, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(accel::apply_golden(kind, img));
  }
  state.SetBytesProcessed(state.iterations() * 512 * 512);
}
BENCHMARK(BM_GoldenFilter)->Arg(0)->Arg(1)->Arg(2);

void BM_ConfigCrc(benchmark::State& state) {
  bitstream::ConfigCrc crc;
  u32 w = 0;
  for (auto _ : state) {
    crc.update(2, w++);
    benchmark::DoNotOptimize(crc.value());
  }
  state.SetBytesProcessed(state.iterations() * 4);
}
BENCHMARK(BM_ConfigCrc);

void BM_Crc32(benchmark::State& state) {
  const auto dev = fabric::DeviceGeometry::kintex7_325t();
  const auto pbit = bitstream::generate_partial_bitstream(
      dev, fabric::case_study_partition(dev), {1, "sobel"});
  for (auto _ : state) benchmark::DoNotOptimize(crc32(pbit));
  state.SetBytesProcessed(state.iterations() * pbit.size());
}
BENCHMARK(BM_Crc32);

void BM_FrameEcc(benchmark::State& state) {
  SplitMix64 rng(0xECC);
  std::vector<u32> frame(101);
  for (u32& w : frame) w = static_cast<u32>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(fabric::compute_frame_ecc(frame));
  }
  state.SetBytesProcessed(state.iterations() * frame.size() * 4);
}
BENCHMARK(BM_FrameEcc);

void BM_SplitMix64(benchmark::State& state) {
  SplitMix64 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_SplitMix64);

// ------------------------------------------------------------------
// Kernel comparison: flat vs. scheduled on SoC-scale workloads.
// ------------------------------------------------------------------

/// One workload execution under one kernel mode.
struct KernelRun {
  double seconds = 0;
  Cycles final_cycle = 0;
  sim::SimStats stats;
  double mbps = 0;   // dma_reconfig only
  bool loaded = true;
};

const char* mode_name(sim::Simulator::Mode m) {
  return m == sim::Simulator::Mode::kFlat ? "flat" : "scheduled";
}

/// Idle-heavy workload: a fully assembled SoC left alone for a long
/// stretch of simulated time (the shape of the deadline/service
/// benches, where the platform waits between reconfigurations).
KernelRun run_idle_wait(sim::Simulator::Mode mode, Cycles cycles) {
  soc::SocConfig cfg;
  cfg.sim_mode = mode;
  soc::ArianeSoc soc(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  soc.sim().run_cycles(cycles);
  const auto t1 = std::chrono::steady_clock::now();
  KernelRun r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.final_cycle = soc.sim().now();
  r.stats = soc.sim().stats();
  return r;
}

/// Busy workload: a complete Listing-1 reconfiguration (DMA + ICAP
/// streaming, interrupt completion). Little idle time, so this bounds
/// the scheduled kernel's bookkeeping overhead from above.
KernelRun run_dma_reconfig(sim::Simulator::Mode mode,
                           bool enable_trace = false) {
  soc::SocConfig cfg;
  cfg.sim_mode = mode;
  soc::ArianeSoc soc(cfg);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  soc.sim().obs().sink().set_enabled(enable_trace);
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = bench::run_rvcap_reconfig(soc, drv, accel::kRmIdSobel,
                                             driver::DmaMode::kInterrupt);
  const auto t1 = std::chrono::steady_clock::now();
  KernelRun r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.final_cycle = soc.sim().now();
  r.stats = soc.sim().stats();
  r.mbps = res.mbps;
  r.loaded = res.loaded;
  return r;
}

void print_run(const char* workload, sim::Simulator::Mode mode,
               const KernelRun& r) {
  std::printf(
      "  %-14s %-9s %9.3f s   cycle %12llu   ticks %12llu   "
      "skipped %12llu   wakeups %9llu   jumps %6llu\n",
      workload, mode_name(mode), r.seconds,
      static_cast<unsigned long long>(r.final_cycle),
      static_cast<unsigned long long>(r.stats.ticks_issued),
      static_cast<unsigned long long>(r.stats.ticks_skipped),
      static_cast<unsigned long long>(r.stats.wakeups),
      static_cast<unsigned long long>(r.stats.time_skip_jumps));
}

void json_run(std::FILE* f, const char* key, const KernelRun& r) {
  std::fprintf(f,
               "    \"%s\": {\"seconds\": %.6f, \"final_cycle\": %llu, "
               "\"ticks_issued\": %llu, \"ticks_skipped\": %llu, "
               "\"wakeups\": %llu, \"time_skip_jumps\": %llu, "
               "\"cycles_skipped\": %llu}",
               key, r.seconds,
               static_cast<unsigned long long>(r.final_cycle),
               static_cast<unsigned long long>(r.stats.ticks_issued),
               static_cast<unsigned long long>(r.stats.ticks_skipped),
               static_cast<unsigned long long>(r.stats.wakeups),
               static_cast<unsigned long long>(r.stats.time_skip_jumps),
               static_cast<unsigned long long>(r.stats.cycles_skipped));
}

int run_kernel_comparison() {
  using Mode = sim::Simulator::Mode;
  bench::print_header(
      "Kernel comparison: flat vs. activity-scheduled (BENCH_kernel.json)");

  // CI smoke runs (sanitizers, shared runners) shrink the idle window;
  // the recorded BENCH_kernel.json comes from a full local run.
  const bool quick = std::getenv("BENCH_KERNEL_QUICK") != nullptr;
  const Cycles idle_cycles = quick ? 200'000 : 5'000'000;

  const KernelRun idle_flat = run_idle_wait(Mode::kFlat, idle_cycles);
  const KernelRun idle_sched = run_idle_wait(Mode::kScheduled, idle_cycles);
  const KernelRun dma_flat = run_dma_reconfig(Mode::kFlat);
  const KernelRun dma_sched = run_dma_reconfig(Mode::kScheduled);

  print_run("idle_wait", Mode::kFlat, idle_flat);
  print_run("idle_wait", Mode::kScheduled, idle_sched);
  print_run("dma_reconfig", Mode::kFlat, dma_flat);
  print_run("dma_reconfig", Mode::kScheduled, dma_sched);

  const double idle_speedup =
      idle_sched.seconds > 0 ? idle_flat.seconds / idle_sched.seconds : 0;
  const double dma_speedup =
      dma_sched.seconds > 0 ? dma_flat.seconds / dma_sched.seconds : 0;

  const bool idle_match = idle_flat.final_cycle == idle_sched.final_cycle;
  const bool dma_match = dma_flat.final_cycle == dma_sched.final_cycle &&
                         dma_flat.mbps == dma_sched.mbps &&
                         dma_flat.loaded && dma_sched.loaded;

  std::printf("\n  idle_wait:    %.1fx speedup, cycle counts %s\n",
              idle_speedup, idle_match ? "MATCH" : "DIVERGED");
  std::printf("  dma_reconfig: %.2fx speedup, cycle counts + MB/s %s "
              "(%.1f MB/s both modes)\n",
              dma_speedup, dma_match ? "MATCH" : "DIVERGED",
              dma_sched.mbps);

  const char* path = std::getenv("BENCH_KERNEL_JSON");
  if (path == nullptr) path = "BENCH_kernel.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "{\n  \"bench\": \"bench_micro kernel comparison\",\n");
    std::fprintf(f, "  \"idle_wait\": {\n    \"cycles\": %llu,\n",
                 static_cast<unsigned long long>(idle_cycles));
    json_run(f, "flat", idle_flat);
    std::fprintf(f, ",\n");
    json_run(f, "scheduled", idle_sched);
    std::fprintf(f, ",\n    \"speedup\": %.2f, \"cycles_match\": %s\n  },\n",
                 idle_speedup, idle_match ? "true" : "false");
    std::fprintf(f, "  \"dma_reconfig\": {\n");
    json_run(f, "flat", dma_flat);
    std::fprintf(f, ",\n");
    json_run(f, "scheduled", dma_sched);
    std::fprintf(f,
                 ",\n    \"mbps\": %.2f, \"speedup\": %.2f, "
                 "\"cycles_match\": %s\n  }\n}\n",
                 dma_sched.mbps, dma_speedup, dma_match ? "true" : "false");
    std::fclose(f);
    std::printf("  wrote %s\n", path);
  } else {
    std::printf("  WARNING: could not open %s for writing\n", path);
  }

  if (!idle_match || !dma_match) {
    std::printf("\nKERNEL DIVERGENCE DETECTED — see DESIGN.md §9\n");
    return 1;
  }
  return 0;
}

// ------------------------------------------------------------------
// --trace mode: capture a Perfetto-loadable trace + overhead numbers
// ------------------------------------------------------------------

int run_trace_capture(const char* path) {
  if (!bench::begin_trace_capture(
          "Traced DMA reconfiguration -> Chrome trace JSON")) {
    return 1;
  }

  // Overhead on the same workload: macros present but sink disabled
  // (the default build's steady state) vs. sink enabled and recording.
  const KernelRun off = run_dma_reconfig(sim::Simulator::Mode::kScheduled,
                                         /*enable_trace=*/false);
  const KernelRun on = run_dma_reconfig(sim::Simulator::Mode::kScheduled,
                                        /*enable_trace=*/true);
  const double rate_off =
      off.seconds > 0 ? static_cast<double>(off.final_cycle) / off.seconds : 0;
  const double rate_on =
      on.seconds > 0 ? static_cast<double>(on.final_cycle) / on.seconds : 0;
  std::printf("  compiled-in, disabled: %.1f Mcycle/s\n", rate_off / 1e6);
  std::printf("  enabled + recording:   %.1f Mcycle/s (%.1f%% of disabled)"
              "\n",
              rate_on / 1e6, rate_off > 0 ? 100.0 * rate_on / rate_off : 0);
  if (!off.loaded || !on.loaded) {
    std::printf("  ERROR: reconfiguration failed\n");
    return 1;
  }

  // The enabled run above threw its SoC away; capture a fresh traced
  // run and export everything it observed.
  soc::SocConfig cfg;
  soc::ArianeSoc soc(cfg);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  soc.sim().obs().sink().set_enabled(true);
  const auto res = bench::run_rvcap_reconfig(soc, drv, accel::kRmIdSobel,
                                             driver::DmaMode::kInterrupt);
  if (!res.loaded) {
    std::printf("  ERROR: traced reconfiguration failed\n");
    return 1;
  }
  if (!bench::write_trace(soc, path)) return 1;
  std::printf("\n%s", obs::stats_text(soc.sim().obs()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --trace[=path] before google-benchmark sees the arg list.
  const char* trace_path = nullptr;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = "trace.json";
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (trace_path != nullptr) return run_trace_capture(trace_path);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_kernel_comparison();
}
