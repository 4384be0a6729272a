#include "soc/ariane_soc.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "fabric/floorplan.hpp"

namespace rvcap::soc {

namespace {

// Slot s >= 1 replicates RP0's column footprint into clock-region row
// s - 1, skipping RP0's own row (the acceleration window exists at
// every row), so all slots land in one relocation-compatibility class:
// a single synthesized RM image serves any slot after FAR retargeting
// (bitstream::relocate_bitstream).
fabric::Partition replica_slot(const fabric::DeviceGeometry& dev,
                               const fabric::Partition& rp0, u32 s) {
  const u32 row = s - 1 + (s - 1 >= rp0.columns().front().row ? 1 : 0);
  if (row >= dev.rows()) {
    throw std::invalid_argument(
        "device cannot host reconfigurable-partition slot " +
        std::to_string(s));
  }
  std::vector<fabric::Partition::ColumnRef> cols;
  cols.reserve(rp0.columns().size());
  for (const auto& ref : rp0.columns()) cols.push_back({row, ref.column});
  return fabric::Partition("RP" + std::to_string(s), std::move(cols));
}

}  // namespace

ArianeSoc::ArianeSoc(const SocConfig& cfg)
    : cfg_(cfg),
      sim_(cfg.sim_mode),
      dev_(cfg.device == DeviceModel::kArtix7_100t
               ? fabric::DeviceGeometry::artix7_100t()
               : fabric::DeviceGeometry::kintex7_325t()),
      cfg_mem_(dev_),
      icap_("icap", cfg_mem_),
      ddr_("ddr", cfg.ddr),
      boot_("boot_mem", MemoryMap::kBootMem.size, MemoryMap::kBootMem.base),
      clint_("clint"),
      plic_("plic", IrqMap::kNumSources),
      uart_("uart"),
      perf_regs_("perf_regs"),
      owned_sd_(cfg.external_sd != nullptr
                    ? nullptr
                    : std::make_unique<storage::SdCard>(cfg.sd_blocks)),
      sd_(cfg.external_sd != nullptr ? *cfg.external_sd : *owned_sd_),
      spi_("spi", sd_),
      cpu_(sim_, cfg.timing),
      main_xbar_("main_xbar"),
      periph_conv_("periph.widthconv"),
      periph_bridge_("periph.litebridge"),
      periph_bus_("periph.litebus"),
      periph_w0_("periph.w0", periph_conv_.downstream(),
                 periph_bridge_.upstream()),
      periph_w1_("periph.w1", periph_bridge_.downstream(),
                 periph_bus_.upstream()) {
  // ---- interconnect: managers ----
  main_xbar_.add_manager(&cpu_.port());

  // ---- peripheral chain windows ----
  periph_bus_.add_device(MemoryMap::kClint, &clint_.port());
  periph_bus_.add_device(MemoryMap::kPlic, &plic_.port());
  periph_bus_.add_device(MemoryMap::kUart, &uart_.port());
  periph_bus_.add_device(MemoryMap::kSpi, &spi_.port());
  perf_regs_.bind(&sim_.obs().counters());
  periph_bus_.add_device(MemoryMap::kPerfRegs, &perf_regs_.port());
  main_xbar_.add_subordinate(MemoryMap::kPeripherals,
                             &periph_conv_.upstream());
  main_xbar_.add_subordinate(MemoryMap::kBootMem, &boot_.port());

  // ---- reconfigurable-partition slots ----
  // Slot 0 is the case-study partition; slot s registers ConfigMemory
  // handle s.
  const u32 num_slots = std::max<u32>(cfg_.num_slots, 1);
  slots_.reserve(num_slots);
  for (u32 s = 0; s < num_slots; ++s) {
    fabric::Partition p = s == 0 ? fabric::case_study_partition(dev_)
                                 : replica_slot(dev_, slots_[0].partition, s);
    const usize handle = cfg_mem_.register_partition(p);
    slots_.push_back({std::move(p), handle, nullptr, nullptr});
  }
  // Geometry-check the slot floorplan: an overlapping or
  // out-of-geometry slot would alias configuration frames, so the
  // Floorplan constructor turns it into a hard error.
  std::vector<fabric::FloorplanRegion> regions;
  for (u32 s = 0; s < num_slots; ++s) {
    const fabric::Partition& p = slots_[s].partition;
    regions.push_back({p.name(), &p, "0123456789ABCDEF"[s]});
  }
  (void)fabric::Floorplan(dev_, std::move(regions));
  // One allocator region per slot (region id == slot id): the
  // relocation-aware placement layer's free/busy view of the fabric.
  allocator_ = std::make_unique<fabric::FabricAllocator>(dev_);
  for (const Slot& slot : slots_) allocator_->add_region(slot.partition);

  // ---- DPR controllers ----
  rvcap_ = std::make_unique<rvcap_ctrl::RvCapController>(
      icap_, ddr_.port(), MemoryMap::kDdr, cfg_.dma, num_slots);
  main_xbar_.add_subordinate(MemoryMap::kDmaCtrl, &rvcap_->dma_ctrl_port());
  main_xbar_.add_subordinate(MemoryMap::kRpCtrl, &rvcap_->rp_ctrl_port());
  // CPU reaches DDR through the controller's additional crossbar.
  main_xbar_.add_subordinate(MemoryMap::kDdr, &rvcap_->main_bus_ddr_port());
  rvcap_->dma().set_mm2s_irq(irq::IrqLine(&plic_, IrqMap::kDmaMm2s));
  rvcap_->dma().set_s2mm_irq(irq::IrqLine(&plic_, IrqMap::kDmaS2mm));

  if (cfg_.with_hwicap) {
    hwicap_ =
        std::make_unique<hwicap::HwIcap>("hwicap", icap_,
                                         cfg_.hwicap_fifo_depth);
    hwicap_conv_ = std::make_unique<axi::WidthConverter64To32>(
        "hwicap.widthconv");
    hwicap_bridge_ = std::make_unique<axi::AxiToLiteBridge>(
        "hwicap.litebridge");
    hwicap_w0_ = std::make_unique<axi::AxiWire>(
        "hwicap.w0", hwicap_conv_->downstream(), hwicap_bridge_->upstream());
    hwicap_w1_ = std::make_unique<axi::LiteWire>(
        "hwicap.w1", hwicap_bridge_->downstream(), hwicap_->port());
    main_xbar_.add_subordinate(MemoryMap::kHwicap,
                               &hwicap_conv_->upstream());
  }

  // ---- networked bitstream delivery plant ----
  if (cfg_.with_net) {
    net_link_ = std::make_unique<net::NetLink>("net_link");
    net_server_ =
        std::make_unique<net::BitstreamServer>("net_server", *net_link_);
  }

  // ---- RM slots behind the isolators (need the RV-CAP streams) ----
  // Slot 0 keeps the single-RP names (rm_slot, rm_slot.out).
  for (u32 s = 0; s < num_slots; ++s) {
    Slot& slot = slots_[s];
    const std::string name = "rm_slot" + (s == 0 ? "" : std::to_string(s));
    slot.rm = std::make_unique<accel::RmSlot>(name, cfg_mem_, slot.handle,
                                              rvcap_->rm_input(s));
    accel::register_case_study_filters(*slot.rm);
    accel::register_cipher(*slot.rm);
    accel::register_fir(*slot.rm);
    slot.out_wire = std::make_unique<axi::AxisWire>(
        name + ".out", slot.rm->out(), rvcap_->rm_output_in(s));
    rvcap_->rp_control().attach_rm(s, slot.rm.get(), 0);
  }

  // ---- simulator registration (dataflow order) ----
  sim_.add(&main_xbar_);
  sim_.add(&periph_conv_);
  sim_.add(&periph_w0_);
  sim_.add(&periph_bridge_);
  sim_.add(&periph_w1_);
  sim_.add(&periph_bus_);
  sim_.add(&clint_);
  sim_.add(&plic_);
  sim_.add(&uart_);
  sim_.add(&perf_regs_);
  sim_.add(&spi_);
  sim_.add(&boot_);
  rvcap_->register_components(sim_);
  if (hwicap_) {
    sim_.add(hwicap_conv_.get());
    sim_.add(hwicap_w0_.get());
    sim_.add(hwicap_bridge_.get());
    sim_.add(hwicap_w1_.get());
    sim_.add(hwicap_.get());
  }
  sim_.add(&ddr_);
  for (Slot& slot : slots_) {
    sim_.add(slot.rm.get());
    sim_.add(slot.out_wire.get());
  }
  sim_.add(&icap_);
  // Net plant last: existing deployments keep their registration order
  // (and therefore their golden traces) bit-identical.
  if (net_link_) {
    sim_.add(net_link_.get());
    sim_.add(net_server_.get());
  }
}

}  // namespace rvcap::soc
