// Cycle-timed lossy network link — the acquisition path's fault model.
//
// Models the single switched Ethernet hop between an RV-CAP node and
// the fleet's bitstream repository as a full-duplex serial channel with
// configurable bandwidth (cycles per byte on the wire) and propagation
// latency. Endpoints exchange whole NetFrames through bounded Fifos —
// the same valid/ready discipline as every other channel in the SoC —
// so back-pressure and quiescence fall out of the existing kernel
// contract rather than bespoke timers.
//
// Loss is deterministic: at the instant a frame is accepted onto the
// wire the link consults four seeded sim::FaultInjector sites in fixed
// order — drop, corrupt, duplicate, reorder — so a single seed replays
// an identical damage schedule under both the flat and the scheduled
// kernel (frames are only accepted from progressing ticks at cycles
// the kernel-equivalence contract already pins). A fifth control,
// set_down(), models a hard outage: every accepted frame is lost until
// the link comes back up.
#pragma once

#include <string>
#include <vector>

#include "sim/component.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fifo.hpp"

namespace rvcap::obs {
class Counter;
}  // namespace rvcap::obs

namespace rvcap::net {

/// Protocol chunk size: every kData payload but an image's last is
/// exactly this long, so client and server share the one constant.
inline constexpr u32 kChunkBytes = 1024;

/// One protocol datagram. TFTP-style stop-and-wait vocabulary: the
/// client sends kRrq naming an image and a chunk index; the server
/// answers with kData (payload + CRC32 + image geometry) or kError
/// (Status in `status`).
struct NetFrame {
  enum class Op : u8 { kRrq, kData, kError };

  Op op = Op::kRrq;
  std::string image;        // image name (request and response)
  u32 chunk = 0;            // chunk index this frame requests/carries
  u32 total_chunks = 0;     // kData: image geometry
  u32 image_bytes = 0;      // kData: exact image size
  u32 crc = 0;              // kData: CRC32 of payload as sent
  u32 status = 0;           // kError: rvcap::Status as u32
  std::vector<u8> payload;  // kData: chunk bytes

  /// Serialized size on the wire (fixed header + name + payload).
  usize wire_bytes() const { return 24 + image.size() + payload.size(); }
};

class NetLink : public sim::Component {
 public:
  static constexpr u64 kCyclesPerByte = 1;  // serialization (~100 MB/s)
  static constexpr Cycles kLatencyCycles = 500;  // propagation + switching
  static constexpr usize kQueueCapacity = 8;     // per-endpoint fifo depth

  explicit NetLink(std::string name);

  /// Client (A) endpoint: push requests into a_tx(), pop responses
  /// from a_rx(). Server (B) endpoint mirrors it.
  sim::Fifo<NetFrame>& a_tx() { return a_tx_; }
  sim::Fifo<NetFrame>& a_rx() { return a_rx_; }
  sim::Fifo<NetFrame>& b_tx() { return b_tx_; }
  sim::Fifo<NetFrame>& b_rx() { return b_rx_; }

  void attach_fault_injector(sim::FaultInjector* fi) { fi_ = fi; }

  /// Hard outage: while down, every frame accepted from either
  /// endpoint is lost (clients see pure timeouts).
  void set_down(bool down) {
    down_ = down;
    wake();
  }
  bool is_down() const { return down_; }

  bool tick() override;
  bool busy() const override {
    return !ab_.flight.empty() || !ba_.flight.empty();
  }
  void on_register(obs::Observability& o) override;

  // ---- lifetime statistics ----
  u64 accepted() const { return accepted_; }
  u64 delivered() const { return delivered_; }
  u64 dropped() const { return dropped_; }
  u64 duplicated() const { return duplicated_; }
  u64 corrupted() const { return corrupted_; }
  u64 reordered() const { return reordered_; }

 private:
  struct InFlight {
    NetFrame frame;
    Cycles deliver_at = 0;
    u64 seq = 0;  // tie-break: acceptance order
  };

  /// One direction of the full-duplex pipe.
  struct Direction {
    sim::Fifo<NetFrame>* in = nullptr;
    sim::Fifo<NetFrame>* out = nullptr;
    std::vector<InFlight> flight;  // sorted by (deliver_at, seq)
    Cycles last_depart = 0;
  };

  bool accept_one(Direction& d);
  bool deliver_due(Direction& d);
  void enqueue(Direction& d, NetFrame f, Cycles deliver_at);
  Cycles next_deliver() const;

  sim::Fifo<NetFrame> a_tx_;
  sim::Fifo<NetFrame> a_rx_;
  sim::Fifo<NetFrame> b_tx_;
  sim::Fifo<NetFrame> b_rx_;
  Direction ab_;
  Direction ba_;
  sim::FaultInjector* fi_ = nullptr;
  bool down_ = false;
  u64 seq_ = 0;
  u64 accepted_ = 0;
  u64 delivered_ = 0;
  u64 dropped_ = 0;
  u64 duplicated_ = 0;
  u64 corrupted_ = 0;
  u64 reordered_ = 0;
};

}  // namespace rvcap::net
