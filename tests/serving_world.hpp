// Multi-slot serving rig shared by the slot-scheduler and placement
// tests: an N-slot SoC, its driver stack with a SlotScheduler, and the
// cipher-task helpers both suites stream through it.
#pragma once

#include <algorithm>
#include <cstring>
#include <vector>

#include "accel/stream_cipher.hpp"
#include "common/rng.hpp"
#include "driver/stack.hpp"
#include "sim/fault_injector.hpp"

namespace rvcap::test {

/// Task src/dst buffers.
inline const Addr kDataBase =
    driver::DdrLayout::base(driver::DdrLayout::kTaskData);

/// Four capture areas, 512-byte chunks, aging off unless a test turns
/// it on.
inline driver::SlotScheduler::Config serving_sched_config() {
  driver::SlotScheduler::Config cc;
  cc.capture_areas = 4;
  cc.default_chunk_bytes = 512;
  cc.aging_quantum_mtime = 0;
  return cc;
}

struct ServingWorld {
  using Task = driver::SlotScheduler::HwTask;

  ServingWorld(u32 num_slots, sim::Simulator::Mode mode,
               const driver::Stack::Parts& parts)
      : soc([&] {
          soc::SocConfig cfg;
          cfg.num_slots = num_slots;
          cfg.sim_mode = mode;
          return cfg;
        }()),
        fi(0x5EED),
        stack(soc, parts, &fi) {}

  /// A cipher task: `bytes` of seeded data XOR-encrypted under `key`.
  Task cipher_task(u64 key, u32 bytes, u32 priority, Addr src, Addr dst,
                   u64 seed) {
    SplitMix64 rng(seed);
    std::vector<u8> plain(bytes);
    for (auto& b : plain) b = rng.next_byte();
    soc.ddr().poke(src, plain);
    Task t;
    t.module = "cipher";
    t.rm_id = accel::kRmIdCipher;
    t.priority = priority;
    t.src = src;
    t.dst = dst;
    t.total_bytes = bytes;
    t.setup_regs = {{0, static_cast<u32>(key)},
                    {1, static_cast<u32>(key >> 32)}};
    return t;
  }

  /// Expected cipher output: the keystream restarts per chunk (each
  /// run_accelerator transfer is one AXI-Stream packet).
  std::vector<u8> cipher_golden(u64 key, Addr src, u32 bytes,
                                u32 chunk_bytes) {
    std::vector<u8> plain(bytes);
    soc.ddr().peek(src, plain);
    std::vector<u8> out(bytes);
    for (u32 off = 0; off < bytes; off += chunk_bytes) {
      const u32 n = std::min(chunk_bytes, bytes - off);
      for (u32 beat = 0; beat < n / 8; ++beat) {
        u64 p = 0;
        std::memcpy(&p, plain.data() + off + beat * 8, 8);
        const u64 c = p ^ accel::StreamCipher::keystream(key, beat);
        std::memcpy(out.data() + off + beat * 8, &c, 8);
      }
    }
    return out;
  }

  std::vector<u8> read_dst(Addr dst, u32 bytes) {
    std::vector<u8> out(bytes);
    soc.ddr().peek(dst, out);
    return out;
  }

  soc::ArianeSoc soc;
  sim::FaultInjector fi;
  driver::Stack stack;
  driver::SlotScheduler* sched = stack.scheduler();
};

}  // namespace rvcap::test
