// Relocation-aware placement engine.
//
// One synthesized RM image, any compatible region: modules register
// ONCE with a home region (the partition they were implemented
// against); when the scheduler places a task in a different region of
// the same compatibility class, the engine materializes a relocated
// variant on demand — FAR writes retargeted by bitstream::
// relocate_bitstream, the result re-validated by a full preflight parse
// against the DESTINATION partition and sealed under a fresh CRC
// before a byte of it may reach the ICAP. Variants are cached in a DDR
// arena (and, when a BitstreamCache is attached, keyed by
// (source digest, target region) so one network fetch serves every
// slot); repeat placements are verified cache hits, not re-relocations.
//
// The engine is also the accounting point for the placement layer:
// kPlace* trace events and relocation/migration/compaction counters.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "driver/bitstream_source.hpp"
#include "driver/dpr_manager.hpp"
#include "fabric/placement.hpp"

namespace rvcap::driver {

class PlacementEngine {
 public:
  /// Relocation-arena geometry: kRelocSlots slots of kRelocSlotBytes,
  /// each holding one materialized variant or remote source image.
  static constexpr u32 kRelocSlotBytes = 1 << 20;
  static constexpr u32 kRelocSlots = 16;

  struct Config {
    // ---- relocation arena (DDR). Slots are permanent once claimed (a
    // registered staged image must never be overwritten underneath its
    // manager).
    Addr reloc_arena = 0;
  };

  /// A module registered once, against its home region.
  struct ModuleSpec {
    std::string name;
    u32 rm_id = 0;
    u32 home_region = 0;
    std::string image;  // delivery image name; empty = locally staged
    Addr src_addr = 0;  // golden source image in DDR (the home variant)
    u32 src_bytes = 0;
    u32 src_crc = 0;  // source digest — base of the variant cache key
  };

  struct Stats {
    u64 requests = 0;         // materialize() calls
    u64 relocations = 0;      // variants actually FAR-rewritten
    u64 reloc_cache_hits = 0; // verified variant reuses (arena or cache)
    u64 reloc_failures = 0;   // relocate/preflight/compressed rejections
    u64 migrations = 0;       // residents moved (resume or compaction)
    u64 compactions = 0;      // compaction passes executed
    u64 span_grants = 0;
    u64 span_rejects = 0;     // wide requests refused (fragmentation)
  };

  PlacementEngine(RvCapDriver& drv, fabric::FabricAllocator& alloc,
                  const Config& cfg);

  /// Delivery chain for remote modules and the relocated-variant cache
  /// (keys = (source digest, target region)). Either may be nullptr.
  void attach_delivery(BitstreamSource* source, BitstreamCache* variants) {
    source_ = source;
    variants_ = variants;
  }

  /// Register a module whose golden image is staged in DDR.
  Status register_module(std::string name, u32 rm_id, u32 home_region,
                         Addr addr, u32 bytes);
  /// Register a module delivered by the attached BitstreamSource; the
  /// single fetch it costs is shared by every relocated variant.
  Status register_remote(std::string name, u32 rm_id, u32 home_region,
                         std::string image);

  bool has_module(std::string_view name) const;
  const ModuleSpec* module(std::string_view name) const;
  /// True when `region` can host `name` (same compatibility class).
  bool can_place(std::string_view name, u32 region) const;

  /// Produce the image of `name` targeted at `region`: the golden
  /// source for the home region, a (cached) relocated + preflighted +
  /// CRC-sealed variant for any other compatible region. `out` points
  /// into the relocation arena (or the golden staging) and stays valid
  /// for the engine's lifetime.
  Status materialize(std::string_view name, u32 region,
                     DprManager::StagedInfo* out);

  fabric::FabricAllocator& allocator() { return alloc_; }
  const Stats& stats() const { return stats_; }

  // ---- scheduler-side accounting (capture/restore and span state
  // live in SlotScheduler; the engine is the telemetry point) ----
  void note_migration(u64 task, u32 from_slot, u32 to_slot);
  void note_compaction(u32 class_id, usize migrations, u32 len);
  void note_span_grant(u32 class_id, u32 base_region, u32 len);
  void note_span_release(u32 class_id, u32 base_region, u32 len);
  void note_span_reject(u32 class_id);

 private:
  struct Variant {
    std::string module;
    u32 region = 0;
    Addr addr = 0;
    u32 bytes = 0;
    u32 crc = 0;
  };

  ModuleSpec* find(std::string_view name);
  Variant* find_variant(std::string_view name, u32 region);
  Status ensure_source(ModuleSpec& m);
  Status claim_arena_slot(Addr* addr);
  std::string variant_key(const ModuleSpec& m, u32 region) const;

  RvCapDriver& drv_;
  fabric::FabricAllocator& alloc_;
  Config cfg_;
  BitstreamSource* source_ = nullptr;
  BitstreamCache* variants_ = nullptr;
  std::vector<ModuleSpec> modules_;
  std::vector<Variant> materialized_;
  u32 next_arena_slot_ = 0;
  Stats stats_;
  obs::TraceSource trace_;
};

}  // namespace rvcap::driver
