// Composition root — the one place the driver stack is wired
// (DESIGN.md "Composition root and DDR map").
//
// A Stack builds, over a caller-owned SoC, everything between the
// Listing-1 driver and the serving layers, in construction order:
//
//   RvCapDriver
//   -> HwIcapDriver fallback          (SocConfig::with_hwicap)
//   -> Scrubber                       (Parts::scrubber)
//   -> SPI/SD + FAT32 volume          (SocConfig::external_sd)
//   -> RecoveryJournal                (Parts::journal)
//   -> BitstreamDelivery (+ cache)    (SocConfig::with_net, Parts::cache)
//   -> per slot: DprManager + ReconfigService bound to slot_id
//   -> ScrubService                   (Parts::scrub)
//   -> PlacementEngine + SlotScheduler (Parts::scheduler)
//
// and tears it down in reverse. Every optional part follows from the
// SocConfig or is requested by passing that component's own Config;
// the DDR-address fields of those configs are always filled from the
// DdrLayout, whatever the caller put there. A fault injector, when
// given, is attached to the SoC and to every instrumented layer.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "driver/bitstream_source.hpp"
#include "driver/ddr_layout.hpp"
#include "driver/dpr_manager.hpp"
#include "driver/hwicap_driver.hpp"
#include "driver/placement_engine.hpp"
#include "driver/reconfig_service.hpp"
#include "driver/recovery_journal.hpp"
#include "driver/rvcap_driver.hpp"
#include "driver/scrub_service.hpp"
#include "driver/scrubber.hpp"
#include "driver/slot_scheduler.hpp"
#include "driver/spi_sd.hpp"
#include "soc/ariane_soc.hpp"
#include "storage/fat32.hpp"

namespace rvcap::driver {

class Stack {
 public:
  /// Per-component configs. `manager` and `service` apply to every
  /// slot; each optional part is built only when its config is given.
  struct Parts {
    DprManager::Config manager{};
    ReconfigService::Config service{};
    std::optional<Scrubber::Config> scrubber;
    std::optional<ScrubService::Config> scrub;
    std::optional<BitstreamCache::Config> cache;
    std::optional<RecoveryJournal::Config> journal;
    std::optional<SlotScheduler::Config> scheduler;
  };

  /// One manager/service pair per SoC slot; or, given `rp`, a single
  /// slot whose manager serves `rp` instead of RP0 (the stack registers
  /// it with the SoC's configuration memory).
  Stack(soc::ArianeSoc& soc, const Parts& parts,
        sim::FaultInjector* fi = nullptr,
        const fabric::Partition* rp = nullptr);

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  RvCapDriver& driver() { return drv_; }
  DprManager& manager(u32 slot = 0) { return *managers_[slot]; }
  ReconfigService& service(u32 slot = 0) { return *services_[slot]; }
  /// ConfigMemory handle of the partition slot `slot` serves.
  usize partition_handle(u32 slot = 0) const;

  Scrubber* scrubber() { return scrubber_.get(); }
  ScrubService* scrub() { return scrub_.get(); }
  PlacementEngine* placement() { return placement_.get(); }
  SlotScheduler* scheduler() { return scheduler_.get(); }
  RecoveryJournal* journal() { return journal_.get(); }
  BitstreamDelivery* delivery() { return delivery_.get(); }
  BitstreamCache* cache() { return cache_.get(); }
  /// external_sd stacks: SD init and FAT32 mount both succeeded.
  bool storage_ready() const { return storage_ready_; }

  /// Poke `image` into the next golden slot and register it with slot
  /// `slot`'s manager under `name`.
  Status stage(u32 slot, std::string name, u32 rm_id,
               std::span<const u8> image);
  /// Generate `rm_id`'s partial bitstream for slot `slot`'s partition,
  /// then stage it as above.
  Status stage(u32 slot, std::string name, u32 rm_id);
  /// Generate the module's home image (slot 0's partition) and register
  /// it once with the placement engine (scheduler stacks only).
  Status stage_home(std::string name, u32 rm_id);

 private:
  const fabric::Partition& partition(u32 slot) const;
  /// Claim `pitch` bytes of the golden region for an image of `bytes`.
  Status claim_golden(u64 pitch, usize bytes, Addr* addr);

  soc::ArianeSoc& soc_;
  DdrLayout layout_;
  std::optional<fabric::Partition> rp_;  // replaces RP0 when set
  usize rp_handle_ = 0;
  Addr golden_next_;

  RvCapDriver drv_;
  std::unique_ptr<HwIcapDriver> hwicap_;
  std::unique_ptr<Scrubber> scrubber_;
  std::unique_ptr<SpiSdDriver> sd_;
  std::unique_ptr<CpuBlockIo> block_io_;
  std::unique_ptr<storage::Fat32Volume> volume_;
  bool storage_ready_ = false;
  std::unique_ptr<RecoveryJournal> journal_;
  std::unique_ptr<BitstreamCache> cache_;
  std::unique_ptr<BitstreamDelivery> delivery_;
  std::vector<std::unique_ptr<DprManager>> managers_;
  std::vector<std::unique_ptr<ReconfigService>> services_;
  std::unique_ptr<ScrubService> scrub_;
  std::unique_ptr<PlacementEngine> placement_;
  std::unique_ptr<SlotScheduler> scheduler_;
};

}  // namespace rvcap::driver
