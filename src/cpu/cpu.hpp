// CPU software-execution context.
//
// Co-simulation style: driver code (src/driver) is native C++ on the
// host call stack, but every memory access goes through this context,
// which (1) performs a real AXI transaction on the simulated bus as
// the crossbar's manager-0 and (2) advances simulated time by the bus
// round trip plus the CpuTimingModel's core-side cost. Blocking APIs
// run the simulator forward until the response arrives, so hardware
// (DMA, ICAP, SPI...) naturally progresses "while the CPU executes".
#pragma once

#include <functional>
#include <span>

#include "axi/types.hpp"
#include "common/status.hpp"
#include "cpu/timing_model.hpp"
#include "irq/plic.hpp"
#include "sim/simulator.hpp"

namespace rvcap::cpu {

class CpuContext {
 public:
  CpuContext(sim::Simulator& sim, const CpuTimingModel& tm = CpuTimingModel{})
      : sim_(sim), tm_(tm) {}

  /// The CPU's manager link; connect to the main crossbar.
  axi::AxiPort& port() { return port_; }
  sim::Simulator& simulator() { return sim_; }
  const CpuTimingModel& timing() const { return tm_; }
  Cycles now() const { return sim_.now(); }
  /// Trace emitter for driver code named `name`, stamped with this
  /// CPU's simulated clock. Interns `name` now: build it at the point
  /// of construction that fixes the source's id.
  obs::TraceSource trace_source(std::string_view name) {
    return obs::TraceSource(sim_.obs().sink(), name, sim_.now_ptr());
  }

  // ---- MMIO (non-cacheable) accesses: full pipeline drain ----
  u32 load32_uncached(Addr a);
  void store32_uncached(Addr a, u32 v);

  // ---- cached accesses (driver data buffers in DDR) ----
  u64 load64(Addr a);
  void store64(Addr a, u64 v);
  u8 load8(Addr a);
  void store8(Addr a, u8 v);

  /// Bulk cached transfers (memcpy-style driver loops): issued as
  /// 16-beat bursts, charging one core cycle per beat — the amortized
  /// cost of streaming through the D$ with hardware refill. Addresses
  /// need not be 8-byte aligned but transfers are whole bytes.
  void read_buffer(Addr a, std::span<u8> out);
  void write_buffer(Addr a, std::span<const u8> data);
  /// Software CRC-32 over `bytes` of a DDR buffer: read_buffer() in
  /// 4 KiB chunks plus roughly one ALU bundle per word, so an integrity
  /// check has a realistic cost. Chains via `crc` like rvcap::crc32().
  u32 crc32_buffer(Addr a, u32 bytes, u32 crc = 0);

  /// Annotate straight-line software cost (bundles ~= instructions).
  void spend_instructions(u64 n) {
    sim_.run_cycles(n * tm_.cycles_per_instruction);
  }
  /// Per-iteration loop-control cost next to non-cacheable accesses.
  void spend_loop_overhead() { sim_.run_cycles(tm_.loop_overhead_cycles); }
  void spend_call_overhead() { sim_.run_cycles(tm_.call_overhead_cycles); }

  /// Busy-wait until pred() holds (polling is accounted by the caller's
  /// loop of MMIO reads; this variant is for hardware conditions).
  bool wait_for(const std::function<bool()>& pred,
                Cycles timeout = 100'000'000) {
    return sim_.run_until(pred, timeout);
  }

  /// Sleep until the PLIC raises an external interrupt, then claim it.
  /// Returns the claimed source id (0 on timeout). `plic_claim_addr` is
  /// the bus address of the claim/complete register.
  u32 wait_for_irq(const irq::Plic& plic, Addr plic_claim_addr,
                   Cycles timeout = 100'000'000);
  /// Signal completion for a claimed source.
  void complete_irq(Addr plic_claim_addr, u32 source);

  // ---- statistics ----
  u64 bus_reads() const { return bus_reads_; }
  u64 bus_writes() const { return bus_writes_; }
  u64 bus_errors() const { return bus_errors_; }

 private:
  axi::AxiR blocking_read(Addr a, u8 size);
  void blocking_write(Addr a, u64 data, u8 strb, u8 size);

  sim::Simulator& sim_;
  CpuTimingModel tm_;
  axi::AxiPort port_;
  u64 bus_reads_ = 0;
  u64 bus_writes_ = 0;
  u64 bus_errors_ = 0;
};

}  // namespace rvcap::cpu
