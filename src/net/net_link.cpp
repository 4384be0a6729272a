#include "net/net_link.hpp"

#include <algorithm>

#include "obs/observability.hpp"

namespace rvcap::net {

namespace sites = sim::fault_sites;

NetLink::NetLink(std::string name)
    : Component(std::move(name)),
      a_tx_(kQueueCapacity),
      a_rx_(kQueueCapacity),
      b_tx_(kQueueCapacity),
      b_rx_(kQueueCapacity) {
  ab_.in = &a_tx_;
  ab_.out = &b_rx_;
  ba_.in = &b_tx_;
  ba_.out = &a_rx_;
  a_tx_.watch(this);
  a_rx_.watch(this);
  b_tx_.watch(this);
  b_rx_.watch(this);
}

void NetLink::on_register(obs::Observability& o) {
  obs::CounterRegistry& c = o.counters();
  c.register_fn("net.link.accepted", [this] { return accepted_; });
  c.register_fn("net.link.delivered", [this] { return delivered_; });
  c.register_fn("net.link.dropped", [this] { return dropped_; });
  c.register_fn("net.link.duplicated", [this] { return duplicated_; });
  c.register_fn("net.link.corrupted", [this] { return corrupted_; });
  c.register_fn("net.link.reordered", [this] { return reordered_; });
}

void NetLink::enqueue(Direction& d, NetFrame f, Cycles deliver_at) {
  InFlight e;
  e.frame = std::move(f);
  e.deliver_at = deliver_at;
  e.seq = seq_++;
  auto pos = std::upper_bound(
      d.flight.begin(), d.flight.end(), e,
      [](const InFlight& a, const InFlight& b) {
        return a.deliver_at != b.deliver_at ? a.deliver_at < b.deliver_at
                                            : a.seq < b.seq;
      });
  d.flight.insert(pos, std::move(e));
}

bool NetLink::accept_one(Direction& d) {
  if (!d.in->can_pop()) return false;
  NetFrame f = std::move(*d.in->pop());
  ++accepted_;
  const u64 op = static_cast<u64>(f.op);
  RVCAP_TRACE(trace_sink(), obs::EventKind::kNetTx, trace_src(), sim_now(),
              op, f.chunk, f.payload.size());

  if (down_) {
    // Hard outage: the wire eats everything, no fault stream consumed
    // (outages are scripted, not drawn).
    ++dropped_;
    RVCAP_TRACE(trace_sink(), obs::EventKind::kNetDrop, trace_src(),
                sim_now(), op, f.chunk, 0);
    return true;
  }

  // Serialization then propagation: frames in one direction share the
  // wire, so departure is serialized behind the previous frame.
  const Cycles depart =
      std::max(sim_now(), d.last_depart) +
      static_cast<Cycles>(f.wire_bytes()) * kCyclesPerByte;
  d.last_depart = depart;
  Cycles deliver_at = depart + kLatencyCycles;

  // Fault sites, fixed query order so the damage schedule depends only
  // on the seed and the sequence of accepted frames.
  if (fi_ != nullptr) {
    if (fi_->should_fire(sites::kNetDrop)) {
      ++dropped_;
      RVCAP_TRACE(trace_sink(), obs::EventKind::kNetDrop, trace_src(),
                  sim_now(), op, f.chunk, 0);
      return true;
    }
    if (!f.payload.empty() && fi_->should_fire(sites::kNetCorrupt)) {
      const u64 bit = fi_->value(sites::kNetCorrupt, f.payload.size() * 8);
      f.payload[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
      ++corrupted_;
      RVCAP_TRACE(trace_sink(), obs::EventKind::kNetCorrupt, trace_src(),
                  sim_now(), f.chunk, bit, 0);
    }
    if (fi_->should_fire(sites::kNetDup)) {
      // The duplicate trails the original by one serialization slot.
      ++duplicated_;
      RVCAP_TRACE(trace_sink(), obs::EventKind::kNetDup, trace_src(),
                  sim_now(), op, f.chunk, 0);
      enqueue(d, f,
              deliver_at + static_cast<Cycles>(f.wire_bytes()) *
                               kCyclesPerByte);
    }
    if (fi_->should_fire(sites::kNetReorder)) {
      // Delay past anything currently in flight in this direction.
      ++reordered_;
      RVCAP_TRACE(trace_sink(), obs::EventKind::kNetReorder, trace_src(),
                  sim_now(), op, f.chunk, 0);
      Cycles latest = deliver_at;
      for (const InFlight& e : d.flight) {
        latest = std::max(latest, e.deliver_at);
      }
      deliver_at = latest + kLatencyCycles;
    }
  }

  enqueue(d, std::move(f), deliver_at);
  return true;
}

bool NetLink::deliver_due(Direction& d) {
  bool progress = false;
  while (!d.flight.empty() && d.flight.front().deliver_at <= sim_now() &&
         d.out->can_push()) {
    InFlight e = std::move(d.flight.front());
    d.flight.erase(d.flight.begin());
    ++delivered_;
    RVCAP_TRACE(trace_sink(), obs::EventKind::kNetRx, trace_src(),
                sim_now(), static_cast<u64>(e.frame.op), e.frame.chunk,
                e.frame.payload.size());
    d.out->push(std::move(e.frame));
    progress = true;
  }
  return progress;
}

Cycles NetLink::next_deliver() const {
  Cycles t = ~Cycles{0};
  if (!ab_.flight.empty()) t = std::min(t, ab_.flight.front().deliver_at);
  if (!ba_.flight.empty()) t = std::min(t, ba_.flight.front().deliver_at);
  return t;
}

bool NetLink::tick() {
  bool progress = false;
  // Accept at most one frame per direction per cycle (the MAC ingests
  // one datagram per cycle), deliver everything due.
  progress |= accept_one(ab_);
  progress |= accept_one(ba_);
  progress |= deliver_due(ab_);
  progress |= deliver_due(ba_);
  if (!progress) {
    const Cycles t = next_deliver();
    if (t != ~Cycles{0} && t > sim_now()) wake_at(t);
  }
  return progress;
}

}  // namespace rvcap::net
