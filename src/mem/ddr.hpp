// DDR memory-controller model (Genesys2 DDR3 behind a MIG, 64-bit AXI).
//
// Timing envelope, not per-bank DRAM simulation:
//  * fixed first-access latency per burst (row activation + controller
//    pipeline), with latency countdowns of queued bursts overlapping the
//    data phase of earlier ones — a MIG keeps the data bus saturated on
//    back-to-back sequential bursts, which is what the RV-CAP DMA issues;
//  * full-duplex data movement, as on AXI4: the R and W channels are
//    independent, so a concurrent read + write stream (accelerator
//    mode: MM2S fetch + S2MM write-back) moves one beat per channel per
//    cycle. The MIG behind the port runs at a 4:1 clock ratio and keeps
//    up with both.
//
// Backing store is 4 KiB-paged and lazily allocated, so a 1 GiB address
// window costs only what is touched. Byte access helpers provide the
// test/bench backdoor (paper §IV preloads bitstreams into DDR too).
#pragma once

#include <array>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>

#include "axi/types.hpp"
#include "common/types.hpp"
#include "sim/component.hpp"

namespace rvcap::mem {

class DdrController : public sim::Component {
 public:
  /// Cycles from the last W beat to the B response.
  static constexpr u32 kWriteLatency = 10;

  struct Config {
    u32 read_latency = 16;   // cycles from AR accept to first R beat
    u64 size_bytes = 1ULL << 30;
  };

  DdrController(std::string name, const Config& cfg);
  explicit DdrController(std::string name)
      : DdrController(std::move(name), Config{}) {}

  axi::AxiPort& port() { return port_; }
  u64 size_bytes() const { return cfg_.size_bytes; }

  bool tick() override;
  bool busy() const override;

  // ---- backdoor access (no simulation time) ----
  void poke(Addr addr, std::span<const u8> data);
  void peek(Addr addr, std::span<u8> out) const;
  u64 peek64(Addr addr) const;
  void poke64(Addr addr, u64 value);

  /// Total data beats transferred (read + write), for utilization probes.
  u64 beats_transferred() const { return beats_; }

 private:
  static constexpr usize kPageShift = 12;
  static constexpr usize kPageSize = usize{1} << kPageShift;
  using Page = std::array<u8, kPageSize>;

  struct ReadJob {
    Addr addr;
    u32 beats_left;
    u32 wait;  // remaining first-access latency
  };
  struct WriteJob {
    Addr addr;
    u32 beats_left;
    u32 wait;        // latency before B after data complete
    bool data_done = false;
  };

  static usize page_room(Addr addr) {  // bytes from addr to its page end
    return kPageSize - static_cast<usize>(addr & (kPageSize - 1));
  }
  u8* page_for(Addr addr);
  const u8* page_for(Addr addr) const;  // nullptr if untouched
  u64 read_beat(Addr addr) const;
  void write_beat(Addr addr, u64 data, u8 strb);

  Config cfg_;
  axi::AxiPort port_;
  std::deque<ReadJob> reads_;
  std::deque<WriteJob> writes_;
  mutable std::unordered_map<u64, std::unique_ptr<Page>> pages_;
  u64 beats_ = 0;
};

}  // namespace rvcap::mem
