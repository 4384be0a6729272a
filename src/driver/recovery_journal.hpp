// Persistent write-ahead intent journal (DESIGN.md §15).
//
// Every volatile recovery aid built so far — the DprManager failure
// ring, the service request history, slot residency — dies with the
// rail. The intent journal is the one structure that survives: a small
// append-only ring of CRC-sealed, sequence-numbered records in a
// reserved region at the tail of the SD card (outside the FAT32
// volume, see Fat32FormatParams::reserved_tail_blocks), written
// *before* each state-changing operation through the same BlockIo
// binding the FAT32 layer uses — so journal writes cost simulated SPI
// time and can themselves be torn by a power loss.
//
// On-disk record, 32 bytes little-endian:
//
//   0x00  u32  magic      'RVJ1' (0x314A5652)
//   0x04  u32  seq        monotone, starts at 1; 0 marks a blank cell
//   0x08  u8   op         IntentOp
//   0x09  u8   flags      op-specific (priority, golden-reload, ...)
//   0x0A  u16  slot       RP slot id (0xFFFF = not slot-scoped)
//   0x0C  u32  rm_id      reconfigurable-module id (0 = none)
//   0x10  u64  mtime      CLINT time of the append
//   0x18  u32  arg0       op-specific payload
//   0x1C  u32  crc        CRC-32 over bytes [0x00, 0x1C)
//
// Replay classifies invalid cells by position: non-blank cells that
// fail the CRC *immediately after* the newest valid record (in ring
// order) are a torn tail — the expected signature of power loss mid
// sector write — and are truncated silently; an invalid cell anywhere
// else is a corrupt record (latent medium error), counted and skipped.
#pragma once

#include <optional>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"
#include "storage/block_io.hpp"

namespace rvcap::sim {
class FaultInjector;
}

namespace rvcap::driver {

/// What the next state-changing operation intends to do. Begin/done
/// pairs bracket multi-step operations; an unmatched begin after
/// reboot is the definition of "interrupted".
enum class IntentOp : u8 {
  kBootMark = 1,        // recovery manager started a boot epoch
  kReconfigStart,       // DprManager activate() about to touch ICAP
  kReconfigCommit,      // activation verified complete
  kReconfigAbort,       // activation gave up (flags/arg0 say why)
  kSlotCapture,         // GCAPTURE readback beginning
  kSlotCaptureDone,
  kSlotRestore,         // GRESTORE writeback beginning
  kSlotRestoreDone,
  kMigrateStart,        // placement compaction moving a resident
  kMigrateDone,
  kScrubReload,         // scrub escalation full-reload beginning
  kScrubReloadDone,
  kSvcPending,          // request admitted into the service queue
  kSvcDone,             // request left the queue (any terminal state)
  kFailureNote,         // mirrored DprManager failure-journal entry
  kQuarantine,          // recovery quarantined a crash-looping rm
  kRecoveryDone,        // recovery manager reached all-slots-verified
};

std::string_view to_string(IntentOp op);

/// One decoded journal record.
struct IntentRecord {
  u32 seq = 0;
  IntentOp op = IntentOp::kBootMark;
  u8 flags = 0;
  u16 slot = 0xFFFF;
  u32 rm_id = 0;
  u64 mtime = 0;
  u32 arg0 = 0;
};

class RecoveryJournal {
 public:
  static constexpr u32 kRecordSize = 32;
  static constexpr u32 kRecordsPerBlock = storage::kBlockSize / kRecordSize;
  static constexpr u32 kMagic = 0x314A5652;  // 'RVJ1'
  static constexpr u16 kNoSlot = 0xFFFF;

  struct Config {
    u32 base_lba = 0;
    u32 num_blocks = 64;  // 64 blocks = 1024 records
  };

  /// The conventional journal region: the last `blocks` blocks of a
  /// card (pair with Fat32FormatParams::reserved_tail_blocks = blocks).
  static Config region_for(u32 card_blocks, u32 blocks = 64) {
    return Config{card_blocks - blocks, blocks};
  }

  RecoveryJournal(storage::BlockIo& io, const Config& cfg)
      : io_(io), cfg_(cfg) {}

  /// Journal replay summary (filled by replay()).
  struct ReplayReport {
    u32 valid_records = 0;
    u32 torn_tail_cells = 0;   // truncated unreadable tail cells
    u32 corrupt_records = 0;   // unreadable cells NOT at the tail
    u32 max_seq = 0;
  };

  /// Scan the region, rebuild the in-memory record list (sorted by
  /// seq) and position the append cursor after the newest record.
  /// Call once after mount/reboot and before the first append.
  Status replay(ReplayReport* report = nullptr);

  /// Seal `rec` (seq and crc are assigned here) and write it through.
  /// The whole containing block is rewritten, so a concurrent power
  /// loss can tear the block — earlier records in it survive byte-for-
  /// byte because the prefix is identical. Fails with the underlying
  /// I/O status when the card is dead (power already lost).
  Status append(IntentRecord rec);

  /// Zero the whole region (fresh provisioning; not used on reboot).
  Status reset();

  /// Records recovered by replay() plus successful appends, seq order.
  const std::vector<IntentRecord>& records() const { return records_; }
  u32 next_seq() const { return next_seq_; }
  bool replayed() const { return replayed_; }
  const Config& config() const { return cfg_; }

  /// Newest record matching `op` (post-replay view), if any.
  const IntentRecord* last_of(IntentOp op) const;

  /// Optional bit-flip corruption of sealed records pre-write
  /// (journal.corrupt site) — models a latent medium error.
  void set_fault_injector(sim::FaultInjector* fi) { fault_ = fi; }
  /// Optional trace emission (Recovery track) for appends and replay.
  void bind_trace(obs::TraceSource trace) { trace_ = trace; }

  u64 appends() const { return appends_; }
  u64 append_failures() const { return append_failures_; }

 private:
  void encode(const IntentRecord& rec, std::span<u8> cell) const;
  static std::optional<IntentRecord> decode(std::span<const u8> cell);

  storage::BlockIo& io_;
  Config cfg_;
  std::vector<IntentRecord> records_;
  u32 next_seq_ = 1;
  u32 next_cell_ = 0;  // linear cell index of the next append
  bool replayed_ = false;
  u64 appends_ = 0;
  u64 append_failures_ = 0;
  sim::FaultInjector* fault_ = nullptr;
  obs::TraceSource trace_;
};

}  // namespace rvcap::driver
