// Channel movers ("wires") joining ports owned by different components.
//
// Every component owns its own FIFO ports; where two owned ports face
// each other, a wire shuttles beats across at one per channel per
// cycle, like a registered link. Wires are the explicit interconnect
// glue of the SoC assembly. Each wire watches both of its endpoints so
// it wakes the cycle a beat lands on either side.
#pragma once

#include "axi/types.hpp"
#include "obs/observability.hpp"
#include "sim/component.hpp"

namespace rvcap::axi {

/// AXI-Stream link: from -> to.
class AxisWire : public sim::Component {
 public:
  AxisWire(std::string name, AxisFifo& from, AxisFifo& to)
      : Component(std::move(name)), from_(from), to_(to) {
    from_.watch(this);
    to_.watch(this);
  }

  bool tick() override {
    if (from_.can_pop() && to_.can_push()) {
      const AxisBeat b = *from_.pop();
      to_.push(b);
      ++beats_;
      RVCAP_TRACE(trace_sink(), obs::EventKind::kAxisBeat, trace_src(),
                  sim_now(), b.data & 0xFFFFFFFF, b.last ? 1 : 0);
      return true;
    }
    return false;
  }
  bool busy() const override { return from_.can_pop(); }

  void on_register(obs::Observability& o) override {
    o.counters().register_fn(std::string(name()) + ".beats",
                             [this] { return beats_; });
  }

 private:
  AxisFifo& from_;
  AxisFifo& to_;
  u64 beats_ = 0;
};

/// Full AXI link between a manager-facing and a subordinate-facing port:
/// requests flow a->b, responses b->a.
class AxiWire : public sim::Component {
 public:
  AxiWire(std::string name, AxiPort& a, AxiPort& b)
      : Component(std::move(name)), a_(a), b_(b) {
    a_.watch(this);
    b_.watch(this);
  }

  bool tick() override {
    bool moved = false;
    if (a_.ar.can_pop() && b_.ar.can_push()) {
      b_.ar.push(*a_.ar.pop());
      moved = true;
    }
    if (a_.aw.can_pop() && b_.aw.can_push()) {
      b_.aw.push(*a_.aw.pop());
      moved = true;
    }
    if (a_.w.can_pop() && b_.w.can_push()) {
      b_.w.push(*a_.w.pop());
      moved = true;
    }
    if (b_.r.can_pop() && a_.r.can_push()) {
      a_.r.push(*b_.r.pop());
      moved = true;
    }
    if (b_.b.can_pop() && a_.b.can_push()) {
      a_.b.push(*b_.b.pop());
      moved = true;
    }
    return moved;
  }
  bool busy() const override {
    return a_.ar.can_pop() || a_.aw.can_pop() || a_.w.can_pop() ||
           b_.r.can_pop() || b_.b.can_pop();
  }

 private:
  AxiPort& a_;
  AxiPort& b_;
};

/// AXI4-Lite link, same direction convention as AxiWire.
class LiteWire : public sim::Component {
 public:
  LiteWire(std::string name, AxiLitePort& a, AxiLitePort& b)
      : Component(std::move(name)), a_(a), b_(b) {
    a_.watch(this);
    b_.watch(this);
  }

  bool tick() override {
    bool moved = false;
    if (a_.ar.can_pop() && b_.ar.can_push()) {
      b_.ar.push(*a_.ar.pop());
      moved = true;
    }
    if (a_.aw.can_pop() && b_.aw.can_push()) {
      b_.aw.push(*a_.aw.pop());
      moved = true;
    }
    if (a_.w.can_pop() && b_.w.can_push()) {
      b_.w.push(*a_.w.pop());
      moved = true;
    }
    if (b_.r.can_pop() && a_.r.can_push()) {
      a_.r.push(*b_.r.pop());
      moved = true;
    }
    if (b_.b.can_pop() && a_.b.can_push()) {
      a_.b.push(*b_.b.pop());
      moved = true;
    }
    return moved;
  }
  bool busy() const override {
    return a_.ar.can_pop() || a_.aw.can_pop() || a_.w.can_pop() ||
           b_.r.can_pop() || b_.b.can_pop();
  }

 private:
  AxiLitePort& a_;
  AxiLitePort& b_;
};

}  // namespace rvcap::axi
