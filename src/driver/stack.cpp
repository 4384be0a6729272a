#include "driver/stack.hpp"

#include <stdexcept>

#include "bitstream/generator.hpp"

namespace rvcap::driver {

Stack::Stack(soc::ArianeSoc& soc, const Parts& parts, sim::FaultInjector* fi,
             const fabric::Partition* rp)
    : soc_(soc),
      layout_(rp != nullptr ? 1 : soc.num_slots()),
      rp_(rp != nullptr ? std::optional(*rp) : std::nullopt),
      golden_next_(DdrLayout::base(DdrLayout::kGolden)),
      drv_(soc.cpu(), soc.plic()) {
  if (rp_) rp_handle_ = soc.add_partition(*rp_);
  if (fi != nullptr) soc.attach_fault_injector(fi);
  const soc::SocConfig& sc = soc.config();

  if (sc.with_hwicap) hwicap_ = std::make_unique<HwIcapDriver>(soc.cpu());
  if (parts.scrubber) {
    scrubber_ = std::make_unique<Scrubber>(
        drv_, soc.device(),
        Scrubber::Config{layout_.readback_cmd(), layout_.readback_buffer()});
  }
  if (sc.external_sd != nullptr) {
    sd_ = std::make_unique<SpiSdDriver>(soc.cpu());
    storage_ready_ = ok(sd_->init_card());
    block_io_ = std::make_unique<CpuBlockIo>(*sd_,
                                             sc.external_sd->block_count());
    volume_ = std::make_unique<storage::Fat32Volume>(*block_io_);
    if (storage_ready_) storage_ready_ = ok(volume_->mount());
  }
  if (parts.journal) {
    if (block_io_ == nullptr) {
      throw std::invalid_argument(
          "intent journal requested without an external SD card");
    }
    journal_ = std::make_unique<RecoveryJournal>(*block_io_, *parts.journal);
    journal_->set_fault_injector(fi);
    journal_->bind_trace(soc.cpu().trace_source("recovery_journal"));
  }
  if (parts.cache) {
    BitstreamCache::Config cc = *parts.cache;
    cc.base = layout_.base(DdrLayout::kDeliveryCache);
    layout_.require_fits(DdrLayout::kDeliveryCache,
                         u64{cc.slots} * cc.slot_bytes, "BitstreamCache");
    cache_ = std::make_unique<BitstreamCache>(soc.cpu(), cc);
  }
  if (sc.with_net) {
    delivery_ = std::make_unique<BitstreamDelivery>(soc.cpu());
    delivery_->attach_cache(cache_.get());
  }

  DprManager::Config mc = parts.manager;
  layout_.require_fits(DdrLayout::kPbitStaging,
                       u64{mc.num_slots + 1} * mc.slot_bytes,
                       "DprManager staging cache + blank scratch");
  ReconfigService::Config svc = parts.service;
  for (u32 s = 0; s < layout_.num_slots(); ++s) {
    mc.staging_base = layout_.slot_base(DdrLayout::kPbitStaging, s);
    mc.slot_id = s;
    auto mgr = std::make_unique<DprManager>(
        drv_, soc.config_memory(), partition_handle(s), volume_.get(), mc);
    mgr->set_fault_injector(fi);
    mgr->attach_fallback(hwicap_.get());
    if (scrubber_) mgr->attach_scrubber(scrubber_.get(), &partition(s));
    if (delivery_) mgr->attach_source(delivery_.get());
    mgr->attach_intent_journal(journal_.get());
    svc.slot_id = s;
    services_.push_back(std::make_unique<ReconfigService>(*mgr, svc));
    services_.back()->attach_intent_journal(journal_.get());
    managers_.push_back(std::move(mgr));
  }

  if (parts.scrub) {
    ScrubService::Config c = *parts.scrub;
    c.cmd_staging = layout_.readback_cmd();
    c.rb_buffer = layout_.readback_buffer();
    scrub_ = std::make_unique<ScrubService>(drv_, soc.config_memory(),
                                            *services_[0], c);
  }
  if (parts.scheduler) {
    // Placement is the scheduler's one path for region assignment.
    layout_.require_fits(DdrLayout::kRelocArena,
                         u64{PlacementEngine::kRelocSlots} *
                             PlacementEngine::kRelocSlotBytes,
                         "PlacementEngine relocation arena");
    placement_ = std::make_unique<PlacementEngine>(
        drv_, soc.allocator(),
        PlacementEngine::Config{layout_.base(DdrLayout::kRelocArena)});

    SlotScheduler::Config c = *parts.scheduler;
    c.capture_arena = layout_.base(DdrLayout::kCaptureArena);
    c.restore_staging = layout_.base(DdrLayout::kRestoreStaging);
    layout_.require_fits(DdrLayout::kCaptureArena,
                         u64{c.capture_areas} *
                             SlotScheduler::kCaptureAreaBytes,
                         "SlotScheduler capture areas");
    scheduler_ = std::make_unique<SlotScheduler>(drv_, c);
    scheduler_->set_fault_injector(fi);
    scheduler_->attach_intent_journal(journal_.get());
    scheduler_->attach_placement(placement_.get());
    for (u32 s = 0; s < layout_.num_slots(); ++s) {
      scheduler_->add_slot({s, services_[s].get(), managers_[s].get(),
                            &soc.slot_rm(s), &soc.config_memory(),
                            partition_handle(s),
                            layout_.slot_base(DdrLayout::kCmdStaging, s)});
    }
  }
}

const fabric::Partition& Stack::partition(u32 slot) const {
  return rp_ ? *rp_ : soc_.slot_partition(slot);
}

usize Stack::partition_handle(u32 slot) const {
  return rp_ ? rp_handle_ : soc_.slot_handle(slot);
}

Status Stack::claim_golden(u64 pitch, usize bytes, Addr* addr) {
  const Addr end = DdrLayout::base(DdrLayout::kGolden) +
                   DdrLayout::bytes(DdrLayout::kGolden);
  if (bytes > pitch || golden_next_ + pitch > end) return Status::kNoSpace;
  *addr = golden_next_;
  golden_next_ += pitch;
  return Status::kOk;
}

Status Stack::stage(u32 slot, std::string name, u32 rm_id,
                    std::span<const u8> image) {
  Addr addr = 0;
  if (auto st = claim_golden(DdrLayout::kGoldenImageBytes, image.size(),
                             &addr);
      !ok(st)) {
    return st;
  }
  soc_.ddr().poke(addr, image);
  return managers_[slot]->register_staged(std::move(name), rm_id, addr,
                                          static_cast<u32>(image.size()));
}

Status Stack::stage(u32 slot, std::string name, u32 rm_id) {
  const auto pbit = bitstream::generate_partial_bitstream(
      soc_.device(), partition(slot), {rm_id, name});
  return stage(slot, std::move(name), rm_id, pbit);
}

Status Stack::stage_home(std::string name, u32 rm_id) {
  if (placement_ == nullptr) return Status::kInvalidArgument;
  const auto pbit = bitstream::generate_partial_bitstream(
      soc_.device(), partition(0), {rm_id, name});
  Addr addr = 0;
  // One relocation-arena slot of pitch per home image.
  if (auto st = claim_golden(PlacementEngine::kRelocSlotBytes, pbit.size(),
                             &addr);
      !ok(st)) {
    return st;
  }
  soc_.ddr().poke(addr, pbit);
  return placement_->register_module(std::move(name), rm_id,
                                     /*home_region=*/0, addr,
                                     static_cast<u32>(pbit.size()));
}

}  // namespace rvcap::driver
