#include "rvcap/controller.hpp"

#include <cassert>
#include <string>

namespace rvcap::rvcap_ctrl {

RvCapController::RvCapController(icap::Icap& icap, axi::AxiPort& ddr_port,
                                 const axi::AddrRange& ddr_window,
                                 const AxiDma::Config& dma_cfg,
                                 u32 num_slots)
    : icap_(icap),
      dma_("rvcap.dma", dma_cfg),
      switch_("rvcap.axis_switch", num_slots == 0 ? 1 : num_slots),
      decomp_("rvcap.decompressor", switch_.to_icap(), decomp_out_),
      axis2icap_("rvcap.axis2icap", decomp_out_, icap.port()),
      icap2axis_("rvcap.icap2axis", icap.read_port(), switch_.from_icap()),
      rp_ctrl_("rvcap.rp_ctrl", switch_),
      ddr_xbar_("rvcap.ddr_xbar"),
      dma_ctrl_conv_("rvcap.dma_ctrl.widthconv"),
      dma_ctrl_bridge_("rvcap.dma_ctrl.litebridge"),
      rp_ctrl_conv_("rvcap.rp_ctrl.widthconv"),
      rp_ctrl_bridge_("rvcap.rp_ctrl.litebridge"),
      w_dma_conv_bridge_("rvcap.w0", dma_ctrl_conv_.downstream(),
                         dma_ctrl_bridge_.upstream()),
      w_dma_bridge_dev_("rvcap.w1", dma_ctrl_bridge_.downstream(),
                        dma_.port()),
      w_rp_conv_bridge_("rvcap.w2", rp_ctrl_conv_.downstream(),
                        rp_ctrl_bridge_.upstream()),
      w_rp_bridge_dev_("rvcap.w3", rp_ctrl_bridge_.downstream(),
                       rp_ctrl_.port()),
      w_dma_to_switch_("rvcap.w4", dma_.mm2s_stream(), switch_.from_dma()),
      w_switch_to_dma_("rvcap.w7", switch_.to_dma(), dma_.s2mm_stream()) {
  // Additional crossbar: manager 0 = CPU path, manager 1 = DMA.
  ddr_xbar_.add_manager(&main_bus_ddr_port_);
  ddr_xbar_.add_manager(&dma_.mem_port());
  ddr_xbar_.add_subordinate(ddr_window, &ddr_port);
  rp_ctrl_.attach_decompressor(&decomp_);
  rp_ctrl_.set_abort_hook([this] { abort_datapath(); });
  icap2axis_.set_gate(&switch_);
  // Per slot: isolator + RM-port wire pair + RP-control window. Slot 0
  // keeps the single-RP names (rvcap.isolator, rvcap.w5, rvcap.w6), so
  // the trace source names of single-slot deployments never change.
  assert(num_slots <= RpControl::kMaxSlots);
  for (u32 s = 0; s < switch_.num_rm_ports(); ++s) {
    const std::string n = s == 0 ? "" : std::to_string(s);
    SlotPath p;
    p.isolator = std::make_unique<axi::AxisIsolator>("rvcap.isolator" + n);
    p.in = std::make_unique<axi::AxisWire>(
        s == 0 ? "rvcap.w5" : "rvcap.w_slot" + n + ".in", switch_.to_rm(s),
        p.isolator->in_to_rp());
    p.out = std::make_unique<axi::AxisWire>(
        s == 0 ? "rvcap.w6" : "rvcap.w_slot" + n + ".out",
        p.isolator->out_from_rp(), switch_.from_rm(s));
    rp_ctrl_.add_slot(*p.isolator);
    slots_.push_back(std::move(p));
  }
}

void RvCapController::abort_datapath() {
  switch_.from_dma().clear();
  switch_.to_icap().clear();
  switch_.from_icap().clear();
  switch_.to_dma().clear();
  decomp_out_.clear();
  decomp_.reset_stream();
  axis2icap_.reset_stream();
  icap_.abort();
}

void RvCapController::register_components(sim::Simulator& sim) {
  assert(!registered_);
  registered_ = true;
  // Dataflow order: control converters first, then engines, then the
  // stream fabric toward the ICAP/RM.
  sim.add(&dma_ctrl_conv_);
  sim.add(&w_dma_conv_bridge_);
  sim.add(&dma_ctrl_bridge_);
  sim.add(&w_dma_bridge_dev_);
  sim.add(&rp_ctrl_conv_);
  sim.add(&w_rp_conv_bridge_);
  sim.add(&rp_ctrl_bridge_);
  sim.add(&w_rp_bridge_dev_);
  sim.add(&rp_ctrl_);
  sim.add(&ddr_xbar_);
  sim.add(&dma_);
  sim.add(&w_dma_to_switch_);
  sim.add(&switch_);
  sim.add(&decomp_);
  sim.add(&axis2icap_);
  sim.add(&icap2axis_);
  const auto add_slot_path = [&sim](const SlotPath& p) {
    sim.add(p.in.get());
    sim.add(p.isolator.get());
    sim.add(p.out.get());
  };
  // Slot 0 sits ahead of the DMA return wire and slots 1..N-1 follow
  // it: single-slot deployments keep their registration order (and
  // golden traces) bit-identical.
  add_slot_path(slots_.front());
  sim.add(&w_switch_to_dma_);
  for (usize s = 1; s < slots_.size(); ++s) add_slot_path(slots_[s]);
}

}  // namespace rvcap::rvcap_ctrl
