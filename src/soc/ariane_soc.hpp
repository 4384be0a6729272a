// Full FPGA-based RISC-V SoC assembly (Fig. 1 + Fig. 2).
//
// Constructs and wires the platform the paper evaluates on: Ariane-class
// CPU context, 64-bit AXI-4 main crossbar, DDR, on-chip boot memory,
// SPI/SD card, CLINT (5 MHz timer), PLIC, the model Kintex-7 fabric with
// its ICAP and configuration memory, the RV-CAP controller, one or
// more reconfigurable-partition slots (the case-study RP first), each
// with a stream isolator + RM slot, and — selectable per deployment —
// the AXI_HWICAP baseline and the networked delivery plant.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "accel/rm_slot.hpp"
#include "accel/fir_filter.hpp"
#include "accel/stream_cipher.hpp"
#include "axi/crossbar.hpp"
#include "axi/lite_bridge.hpp"
#include "axi/lite_bus.hpp"
#include "axi/width_converter.hpp"
#include "axi/wires.hpp"
#include "cpu/cpu.hpp"
#include "fabric/config_memory.hpp"
#include "fabric/placement.hpp"
#include "hwicap/hwicap.hpp"
#include "icap/icap.hpp"
#include "irq/clint.hpp"
#include "irq/plic.hpp"
#include "mem/ddr.hpp"
#include "mem/sram.hpp"
#include "net/bitstream_server.hpp"
#include "net/net_link.hpp"
#include "rvcap/controller.hpp"
#include "sim/simulator.hpp"
#include "soc/memory_map.hpp"
#include "soc/perf_regs.hpp"
#include "soc/uart.hpp"
#include "storage/sd_card.hpp"
#include "storage/spi.hpp"

namespace rvcap::soc {

/// Which model FPGA the SoC is implemented on (the paper's portability
/// claim: same controller and drivers on any DPR-capable Xilinx part).
enum class DeviceModel : u8 {
  kKintex7_325t,  // Genesys2, the paper's board
  kArtix7_100t,   // smaller 7-series part
};

struct SocConfig {
  DeviceModel device = DeviceModel::kKintex7_325t;
  /// Simulation kernel: activity-scheduled by default; kFlat retains
  /// the legacy tick-everything loop (dual-mode equivalence testing).
  sim::Simulator::Mode sim_mode = sim::Simulator::Mode::kScheduled;
  bool with_hwicap = false;  // instantiate the AXI_HWICAP baseline
  bool with_net = false;     // instantiate link + bitstream server
  /// Reconfigurable-partition slots (1..16). Slot 0 is the case-study
  /// RP; further slots are planned around it and geometry-checked
  /// (overlap is a hard construction error).
  u32 num_slots = 1;
  u32 hwicap_fifo_depth = 1024;  // paper resizes the vendor 64 -> 1024
  u32 sd_blocks = 131072;        // 64 MiB card
  /// When set, the SoC wires its SPI controller to this externally
  /// owned card instead of constructing one — the power-loss reboot
  /// path: the card's flash contents survive the SoC teardown, and the
  /// rebooted SoC is built over the same (possibly torn) image.
  storage::SdCard* external_sd = nullptr;
  cpu::CpuTimingModel timing{};
  rvcap_ctrl::AxiDma::Config dma{};
  mem::DdrController::Config ddr{};
};

class ArianeSoc {
 public:
  explicit ArianeSoc(const SocConfig& cfg = SocConfig{});

  // ---- top-level handles ----
  sim::Simulator& sim() { return sim_; }
  cpu::CpuContext& cpu() { return cpu_; }
  const SocConfig& config() const { return cfg_; }

  fabric::DeviceGeometry& device() { return dev_; }
  fabric::ConfigMemory& config_memory() { return cfg_mem_; }
  icap::Icap& icap() { return icap_; }
  mem::DdrController& ddr() { return ddr_; }
  mem::AxiSram& boot_mem() { return boot_; }
  storage::SdCard& sd_card() { return sd_; }
  irq::Clint& clint() { return clint_; }
  irq::Plic& plic() { return plic_; }
  Uart& uart() { return uart_; }
  PerfRegs& perf_regs() { return perf_regs_; }

  // ---- reconfigurable-partition slots ----
  u32 num_slots() const { return static_cast<u32>(slots_.size()); }
  const fabric::Partition& slot_partition(u32 slot) const {
    return slots_[slot].partition;
  }
  /// The partition's ConfigMemory tracking handle.
  usize slot_handle(u32 slot) const { return slots_[slot].handle; }
  accel::RmSlot& slot_rm(u32 slot) { return *slots_[slot].rm; }

  /// Slot 0: the case-study partition (RP0).
  const fabric::Partition& rp0() const { return slot_partition(0); }
  usize rp0_handle() const { return slot_handle(0); }
  accel::RmSlot& rm_slot() { return slot_rm(0); }
  /// Relocation-aware fabric allocator: one region per slot (region id
  /// == slot id); all slots share one compatibility class by
  /// construction, so a single RM image serves any of them.
  fabric::FabricAllocator& allocator() { return *allocator_; }

  rvcap_ctrl::RvCapController& rvcap() { return *rvcap_; }
  hwicap::HwIcap& hwicap() { return *hwicap_; }
  bool has_hwicap() const { return hwicap_ != nullptr; }

  /// Networked bitstream delivery plant (with_net deployments).
  net::NetLink& net_link() { return *net_link_; }
  net::BitstreamServer& net_server() { return *net_server_; }
  bool has_net() const { return net_link_ != nullptr; }

  /// Register an additional reconfigurable partition (reconfig-only:
  /// no stream plumbing); returns its ConfigMemory handle.
  usize add_partition(const fabric::Partition& p) {
    return cfg_mem_.register_partition(p);
  }

  /// Attach (or detach, with nullptr) a fault injector to every
  /// instrumented component: SD card, ICAP, the RV-CAP DMA, and the
  /// network plant when present.
  void attach_fault_injector(sim::FaultInjector* fi) {
    sd_.set_fault_injector(fi);
    icap_.set_fault_injector(fi);
    rvcap_->dma().set_fault_injector(fi);
    if (net_link_) net_link_->attach_fault_injector(fi);
    if (net_server_) net_server_->attach_fault_injector(fi);
  }

 private:
  SocConfig cfg_;
  sim::Simulator sim_;

  // Fabric substrate.
  fabric::DeviceGeometry dev_;
  fabric::ConfigMemory cfg_mem_;
  icap::Icap icap_;

  // Memories and peripherals.
  mem::DdrController ddr_;
  mem::AxiSram boot_;
  irq::Clint clint_;
  irq::Plic plic_;
  Uart uart_;
  PerfRegs perf_regs_;
  std::unique_ptr<storage::SdCard> owned_sd_;  // absent for external_sd
  storage::SdCard& sd_;
  storage::SpiController spi_;

  // CPU and interconnect.
  cpu::CpuContext cpu_;
  axi::AxiCrossbar main_xbar_;

  // Peripheral converter chain: 64-bit bus -> 32-bit lite devices.
  axi::WidthConverter64To32 periph_conv_;
  axi::AxiToLiteBridge periph_bridge_;
  axi::LiteBus periph_bus_;
  axi::AxiWire periph_w0_;
  axi::LiteWire periph_w1_;

  // DPR controllers (deployment options).
  std::unique_ptr<rvcap_ctrl::RvCapController> rvcap_;
  std::unique_ptr<hwicap::HwIcap> hwicap_;
  std::unique_ptr<axi::WidthConverter64To32> hwicap_conv_;
  std::unique_ptr<axi::AxiToLiteBridge> hwicap_bridge_;
  std::unique_ptr<axi::AxiWire> hwicap_w0_;
  std::unique_ptr<axi::LiteWire> hwicap_w1_;

  /// One reconfigurable-partition slot: the planned partition, its
  /// ConfigMemory handle, and the RM slot behind the slot's isolator
  /// with its output wire back to the stream switch.
  struct Slot {
    fabric::Partition partition;
    usize handle = 0;
    std::unique_ptr<accel::RmSlot> rm;
    std::unique_ptr<axi::AxisWire> out_wire;
  };
  std::vector<Slot> slots_;
  std::unique_ptr<fabric::FabricAllocator> allocator_;

  // Networked bitstream delivery plant (with_net deployments).
  std::unique_ptr<net::NetLink> net_link_;
  std::unique_ptr<net::BitstreamServer> net_server_;
};

}  // namespace rvcap::soc
