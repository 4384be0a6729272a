// Shared helpers for the table/figure regeneration harnesses.
//
// Each bench binary reproduces one table or figure of the paper: it
// runs the full SoC simulation (or the calibrated literature models
// where the paper quotes related work) and prints the same rows the
// paper reports, annotated with the paper's numbers for side-by-side
// comparison. EXPERIMENTS.md records a captured run.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "accel/fir_filter.hpp"
#include "accel/rm_slot.hpp"
#include "accel/stream_cipher.hpp"
#include "bitstream/generator.hpp"
#include "common/units.hpp"
#include "driver/hwicap_driver.hpp"
#include "driver/rvcap_driver.hpp"
#include "driver/stack.hpp"
#include "obs/export.hpp"
#include "sim/fault_injector.hpp"
#include "soc/ariane_soc.hpp"

namespace rvcap::bench {

struct ReconfigResult {
  double td_us = 0;
  double tr_us = 0;
  double mbps = 0;
  u32 pbit_bytes = 0;
  bool loaded = false;
};

/// Stage a partial bitstream for `rm_id` into DDR and run the full
/// Listing-1 flow on a fresh RV-CAP SoC.
inline ReconfigResult run_rvcap_reconfig(
    soc::ArianeSoc& soc, driver::RvCapDriver& drv, u32 rm_id,
    driver::DmaMode mode = driver::DmaMode::kInterrupt) {
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(),
      {rm_id, std::string(to_string(accel::rm_id_to_kind(rm_id)))});
  const Addr staging = soc::MemoryMap::kPbitStagingBase;
  soc.ddr().poke(staging, pbit);
  driver::ReconfigModule m{"", rm_id, staging,
                           static_cast<u32>(pbit.size())};
  const Status st = drv.init_reconfig_process(m, mode);
  ReconfigResult r;
  r.pbit_bytes = m.pbit_size;
  r.td_us = drv.last_timing().decision_us();
  r.tr_us = drv.last_timing().reconfig_us();
  r.mbps = m.pbit_size / r.tr_us;
  r.loaded = ok(st) &&
             soc.config_memory().partition_state(soc.rp0_handle()).loaded;
  return r;
}

/// Run the Listing-2 AXI_HWICAP flow with the given unroll factor on a
/// bitstream already staged in DDR.
inline ReconfigResult run_hwicap_reconfig(soc::ArianeSoc& soc,
                                          driver::HwIcapDriver& drv,
                                          u32 rm_id, u32 unroll) {
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(),
      {rm_id, std::string(to_string(accel::rm_id_to_kind(rm_id)))});
  const Addr staging = soc::MemoryMap::kPbitStagingBase;
  soc.ddr().poke(staging, pbit);
  driver::ReconfigModule m{"", rm_id, staging,
                           static_cast<u32>(pbit.size())};
  drv.set_unroll(unroll);
  const Status st = drv.init_reconfig_process(m);
  ReconfigResult r;
  r.pbit_bytes = m.pbit_size;
  r.tr_us = drv.last_timing().reconfig_us();
  r.mbps = m.pbit_size / r.tr_us;
  r.loaded = ok(st) &&
             soc.config_memory().partition_state(soc.rp0_handle()).loaded;
  return r;
}

/// `--trace` (capture to `default_path`) or `--trace=path` among the
/// arguments; nullptr when absent.
inline const char* trace_arg(int argc, char** argv,
                             const char* default_path) {
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      path = default_path;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      path = argv[i] + 8;
    }
  }
  return path;
}

/// Write a BENCH_*.json ledger to $`env`, else `default_path`.
inline void write_ledger(const std::string& json, const char* env,
                         const char* default_path) {
  const char* path = std::getenv(env);
  if (path == nullptr) path = default_path;
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", path);
  } else {
    std::printf("\nWARNING: could not open %s for writing\n", path);
  }
}

/// With `on`, enable the trace sink and size its ring for a whole run
/// (the dense ICAP word stream would roll the default ring past the
/// events a capture is for). Returns `soc`, so a rig can turn tracing
/// on before its driver stack is built.
inline soc::ArianeSoc& trace_all(soc::ArianeSoc& soc, bool on) {
  if (on) {
    soc.sim().obs().sink().set_capacity(usize{1} << 21);
    soc.sim().obs().sink().set_enabled(true);
  }
  return soc;
}

/// Write the run's Chrome trace to `path` and report it; false (after
/// printing the error) when the file could not be written.
inline bool write_trace(soc::ArianeSoc& soc, const char* path) {
  if (!obs::write_chrome_trace(soc.sim().obs(), path)) {
    std::printf("  ERROR: could not write %s\n", path);
    return false;
  }
  const obs::TraceSink& sink = soc.sim().obs().sink();
  std::printf("  wrote %s (%llu events emitted, %zu retained)\n", path,
              static_cast<unsigned long long>(sink.total_events()),
              sink.events().size());
  return true;
}

/// The rig of the slot-serving studies (bench_slots, bench_place): an
/// N-slot SoC and its driver stack, `parts` plus a SlotScheduler with
/// four capture areas, `chunk`-byte transfers and aging off.
struct ServingWorld {
  ServingWorld(u32 num_slots, u32 queue_capacity, u32 chunk, u64 seed,
               bool traced, driver::Stack::Parts parts)
      : soc([&] {
          soc::SocConfig cfg;
          cfg.num_slots = num_slots;
          return cfg;
        }()),
        fi(seed),
        stack(soc, with_scheduler(std::move(parts), queue_capacity, chunk),
              &fi) {
    trace_all(soc, traced);
  }

  static driver::Stack::Parts with_scheduler(driver::Stack::Parts p,
                                             u32 queue_capacity, u32 chunk) {
    driver::SlotScheduler::Config cc;
    cc.queue_capacity = queue_capacity;
    cc.capture_areas = 4;
    cc.default_chunk_bytes = chunk;
    cc.aging_quantum_mtime = 0;
    p.scheduler = cc;
    return p;
  }

  soc::ArianeSoc soc;
  sim::FaultInjector fi;
  driver::Stack stack;
  driver::SlotScheduler* sched = stack.scheduler();
};

/// One task of the slot-serving studies (bench_slots, bench_place):
/// `bytes` streamed from `src` through the cipher RM keyed with `key`,
/// or the pass-through FIR, into `dst` in `chunk`-byte transfers.
struct StreamTask {
  driver::SlotScheduler::TaskId id = 0;
  bool fir = false;  // else cipher
  u64 key = 0;
  Addr src = 0, dst = 0;
  u32 bytes = 0;

  driver::SlotScheduler::HwTask task(u32 priority) const {
    driver::SlotScheduler::HwTask t;
    t.priority = priority;
    t.src = src;
    t.dst = dst;
    t.total_bytes = bytes;
    if (fir) {
      t.module = "fir";
      t.rm_id = accel::kRmIdFir;
      const auto coeffs = accel::fir_passthrough_coeffs();
      for (u32 k = 0; k + 1 < coeffs.size(); k += 2) {
        const u32 lo = static_cast<u16>(coeffs[k]);
        const u32 hi = static_cast<u16>(coeffs[k + 1]);
        t.setup_regs.push_back({k / 2, (hi << 16) | lo});
      }
    } else {
      t.module = "cipher";
      t.rm_id = accel::kRmIdCipher;
      t.setup_regs = {{0, static_cast<u32>(key)},
                      {1, static_cast<u32>(key >> 32)}};
    }
    return t;
  }

  /// Whether `dst` holds exactly the RM's reference output for `src`
  /// (the cipher keystream restarts with every transfer).
  bool golden(soc::ArianeSoc& soc, u32 chunk) const {
    std::vector<u8> in(bytes), out(bytes), want(bytes);
    soc.ddr().peek(src, in);
    soc.ddr().peek(dst, out);
    const auto coeffs = accel::fir_passthrough_coeffs();
    for (u32 off = 0; off < bytes; off += chunk) {
      const u32 n = std::min(chunk, bytes - off);
      if (fir) {
        std::vector<i16> samples(n / 2);
        std::memcpy(samples.data(), in.data() + off, n);
        const auto filtered = accel::fir_reference(samples, coeffs);
        std::memcpy(want.data() + off, filtered.data(), n);
        continue;
      }
      for (u32 beat = 0; beat < n / 8; ++beat) {
        u64 p = 0;
        std::memcpy(&p, in.data() + off + beat * 8, 8);
        const u64 c = p ^ accel::StreamCipher::keystream(key, beat);
        std::memcpy(want.data() + off + beat * 8, &c, 8);
      }
    }
    return out == want;
  }
};

inline void print_header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

/// Open a --trace capture: print its header, then whether event tracing
/// is compiled in (an RVCAP_NO_TRACE build has nothing to capture).
inline bool begin_trace_capture(const char* title) {
  print_header(title);
  if (obs::trace_compiled_in()) return true;
  std::printf("  built with RVCAP_NO_TRACE: event tracing is compiled "
              "out, nothing to capture\n");
  return false;
}

inline void print_footnote() {
  std::printf(
      "\n(model) = measured on this reproduction's cycle-level simulation\n"
      "(paper) = value reported by the RV-CAP paper for comparison\n"
      "(lit.)  = value reported by the cited related work\n");
}

}  // namespace rvcap::bench
