#include "driver/ddr_layout.hpp"

#include <cstdio>
#include <stdexcept>

#include "soc/memory_map.hpp"

namespace rvcap::driver {

namespace {

constexpr u64 kMiB = 1ULL << 20;
using soc::MemoryMap;

// Indexed by DdrLayout::Id (keep the orders equal), sorted by base.
// The base of every region a harness DMAs is part of the trace
// contract: kDmaMm2sStart / kDmaS2mmStart carry it.
constexpr std::array<DdrRegion, DdrLayout::kNumRegions> kTable{{
    {"pbit-staging", MemoryMap::kPbitStagingBase, 16 * kMiB, true,
     "DprManager staging cache + blank scratch"},
    {"readback", 0x8C00'0000, 32 * kMiB, false,
     "Scrubber / ScrubService command + readback scratch"},
    {"delivery-cache", 0x8E00'0000, 16 * kMiB, false, "BitstreamCache"},
    {"image-in", MemoryMap::kImageInBase, 16 * kMiB, false,
     "run_accelerator source frames"},
    {"image-out", MemoryMap::kImageOutBase, 16 * kMiB, false,
     "run_accelerator result frames"},
    {"relocation-arena", 0x9400'0000, 64 * kMiB, false,
     "PlacementEngine relocated variants"},
    {"capture-arena", 0x9800'0000, 96 * kMiB, false,
     "SlotScheduler capture areas"},
    {"restore-staging", 0x9E00'0000, 16 * kMiB, false,
     "SlotScheduler rebuilt restore bitstream"},
    {"cmd-staging", 0x9F00'0000, 64 * 1024, true,
     "SlotScheduler readback commands"},
    {"golden", 0xA000'0000, 256 * kMiB, false, "Stack::stage golden images"},
    {"task-data", 0xB000'0000, 256 * kMiB, false, "task src/dst buffers"},
}};

u64 extent(const DdrRegion& r, u32 num_slots) {
  return r.per_slot ? r.bytes * num_slots : r.bytes;
}

std::string describe(const DdrRegion& r, u32 num_slots) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "'%.*s' [0x%llx, 0x%llx)",
                static_cast<int>(r.name.size()), r.name.data(),
                static_cast<unsigned long long>(r.base),
                static_cast<unsigned long long>(r.base + extent(r, num_slots)));
  std::string s = buf;
  if (r.per_slot) s += " (" + std::to_string(num_slots) + " slots)";
  return s;
}

}  // namespace

const std::array<DdrRegion, DdrLayout::kNumRegions>& DdrLayout::regions() {
  return kTable;
}

Status DdrLayout::validate(std::span<const DdrRegion> table, u32 num_slots,
                           std::string* diagnostic) {
  const auto fail = [&](std::string msg) {
    if (diagnostic != nullptr) *diagnostic = std::move(msg);
    return Status::kInvalidArgument;
  };
  const axi::AddrRange ddr = MemoryMap::kDdr;
  for (usize i = 0; i < table.size(); ++i) {
    const DdrRegion& a = table[i];
    const axi::AddrRange ra{a.base, extent(a, num_slots)};
    if (ra.size == 0 || ra.base < ddr.base ||
        ra.base + ra.size > ddr.base + ddr.size) {
      return fail("DDR region " + describe(a, num_slots) +
                  " lies outside DDR");
    }
    for (usize j = 0; j < i; ++j) {
      const DdrRegion& b = table[j];
      if (ra.overlaps({b.base, extent(b, num_slots)})) {
        return fail("DDR regions " + describe(b, num_slots) + " and " +
                    describe(a, num_slots) + " overlap");
      }
    }
  }
  return Status::kOk;
}

DdrLayout::DdrLayout(u32 num_slots) : num_slots_(num_slots) {
  std::string diag;
  if (!ok(validate(kTable, num_slots, &diag))) {
    throw std::invalid_argument(diag);
  }
}

Addr DdrLayout::slot_base(Id id, u32 slot) const {
  const DdrRegion& r = region(id);
  if (!r.per_slot || slot >= num_slots_) {
    throw std::out_of_range("DDR region '" + std::string(r.name) +
                            "' has no share for slot " +
                            std::to_string(slot));
  }
  return r.base + u64{slot} * r.bytes;
}

void DdrLayout::require_fits(Id id, u64 need, std::string_view what) const {
  const DdrRegion& r = region(id);
  if (need <= r.bytes) return;
  throw std::invalid_argument(
      std::string(what) + " needs " + std::to_string(need) +
      " bytes but DDR region '" + std::string(r.name) + "' holds " +
      std::to_string(r.bytes) + (r.per_slot ? " per slot" : ""));
}

}  // namespace rvcap::driver
