// DDR layout — every driver-owned carve-out of the external DDR, named
// once (DESIGN.md "Composition root and DDR map").
//
// §III-B step 1 loads each partial bitstream from the SD card to "a
// defined destination address" in DDR. This table is where those
// addresses are defined: pbit staging, golden images, readback
// scratch, the delivery cache, the relocation and capture arenas,
// restore and command staging and the task data buffers. The RV-CAP
// DMA trace events carry these addresses, so the bases are part of the
// trace contract and do not move.
//
// Like fabric::Floorplan for RP regions, construction validates the
// table for a slot count: a region outside MemoryMap::kDdr, two
// overlapping regions, or a per-slot region whose num_slots strides run
// into a neighbour throws std::invalid_argument with a diagnostic that
// names both regions.
#pragma once

#include <array>
#include <span>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "common/types.hpp"

namespace rvcap::driver {

/// One named DDR carve-out.
struct DdrRegion {
  std::string_view name;
  Addr base = 0;
  u64 bytes = 0;          // extent; per-slot regions: bytes per slot
  bool per_slot = false;  // the extent repeats once per RP slot
  std::string_view user;  // who writes / DMAs it
};

class DdrLayout {
 public:
  enum Id : u8 {
    kPbitStaging,    // per slot: DprManager staging cache + blank scratch
    kReadback,       // Scrubber / ScrubService command + readback scratch
    kDeliveryCache,  // BitstreamCache
    kImageIn,        // run_accelerator source frames (Table IV)
    kImageOut,       // run_accelerator result frames
    kRelocArena,     // PlacementEngine relocated variants
    kCaptureArena,   // SlotScheduler capture areas
    kRestoreStaging, // SlotScheduler rebuilt restore bitstream
    kCmdStaging,     // per slot: SlotScheduler readback commands
    kGolden,         // Stack::stage golden images
    kTaskData,       // rig-owned task src/dst buffers
    kNumRegions,
  };

  /// Pitch of a per-slot golden image inside kGolden. Placement
  /// catalogue images use the engine's relocation-slot pitch instead:
  /// each relocated variant must fit one arena slot.
  static constexpr u64 kGoldenImageBytes = 4ULL << 20;

  /// The committed table, indexed by Id.
  static const std::array<DdrRegion, kNumRegions>& regions();

  /// Non-throwing check of `table` for `num_slots` RP slots. Returns
  /// kInvalidArgument on a region outside DDR or an overlap between
  /// two extents; `diagnostic` (when non-null) names the region(s).
  static Status validate(std::span<const DdrRegion> table, u32 num_slots,
                         std::string* diagnostic = nullptr);

  /// Validates the committed table; throws std::invalid_argument.
  explicit DdrLayout(u32 num_slots);

  u32 num_slots() const { return num_slots_; }
  static const DdrRegion& region(Id id) { return regions()[id]; }
  static Addr base(Id id) { return region(id).base; }
  static u64 bytes(Id id) { return region(id).bytes; }
  /// Base of `slot`'s share of a per-slot region.
  Addr slot_base(Id id, u32 slot) const;
  /// The readback scratch is one region shared by the one-shot
  /// Scrubber and the ScrubService (never concurrently): command
  /// sequences in the first half, readback data in the second.
  static Addr readback_cmd() { return base(kReadback); }
  static Addr readback_buffer() {
    return base(kReadback) + bytes(kReadback) / 2;
  }

  /// Throws std::invalid_argument naming `id` when a component asks
  /// for more than the region holds (per slot for per-slot regions).
  void require_fits(Id id, u64 need, std::string_view what) const;

 private:
  u32 num_slots_;
};

}  // namespace rvcap::driver
