// Cold-boot recovery manager (DESIGN.md §15).
//
// A power loss erases everything volatile: the SRAM configuration
// fabric is blank, DDR staging is gone, every driver object is
// reconstructed from scratch. The only witness is the SD card — the
// FAT32 volume with the golden partial bitstreams, and the intent
// journal in the reserved tail region, possibly ending in a torn
// sector. The RecoveryManager turns those survivors back into a
// verified SoC:
//
//   1. replay the journal (torn-tail truncation, corrupt-record
//      skipping) and stamp a new boot epoch (kBootMark);
//   2. classify every registered slot from the intent stream — an
//      unmatched begin (kReconfigStart / kSlotRestore / kScrubReload)
//      means the crash interrupted a fabric write there; a trailing
//      commit means the slot was cleanly configured; no records means
//      the slot was never touched;
//   3. re-stage each slot's target module through the normal
//      DprManager::activate() path — the golden image reloads from the
//      FAT32 volume, with the full self-healing pipeline (CRC checks,
//      retries, HWICAP fallback) applied to the recovery path too;
//   4. quarantine a module whose activation was interrupted in N
//      consecutive trailing boot epochs (a crash-looping image must
//      not brick the boot path forever);
//   5. re-submit still-pending service requests whose deadline
//      survives the outage, shed the rest, and publish the whole
//      outcome to the Report + Recovery trace track, sealed with a
//      kRecoveryDone record.
#pragma once

#include <string>
#include <vector>

#include "driver/dpr_manager.hpp"
#include "driver/reconfig_service.hpp"
#include "driver/recovery_journal.hpp"
#include "obs/trace.hpp"

namespace rvcap::cpu {
class CpuContext;
}

namespace rvcap::driver {

class RecoveryManager {
 public:
  /// client_id stamped on re-submitted (replayed) service requests.
  static constexpr u32 kClientId = 0xEC;

  /// Interrupted activations of the same rm in this many consecutive
  /// trailing boot epochs quarantine the module instead of reloading.
  static constexpr u32 kCrashLoopThreshold = 3;

  /// Post-replay classification of one slot.
  enum class SlotVerdict : u8 {
    kClean,        // trailing commit; reload restores the committed rm
    kInterrupted,  // unmatched begin; crash hit mid-fabric-write
    kUnknown,      // no journal records target this slot
  };

  struct SlotReport {
    u32 slot = 0;
    SlotVerdict verdict = SlotVerdict::kUnknown;
    u32 rm_id = 0;                 // reload target (0 = none known)
    bool quarantined = false;      // target rm crash-looped; not reloaded
    Status reload = Status::kOk;   // golden-reload outcome
    bool verified = false;         // slot ended in a known-good state
  };

  struct Report {
    RecoveryJournal::ReplayReport journal;
    u32 boot_epoch = 0;            // 1 for the first recovered boot
    std::vector<SlotReport> slots;
    u32 golden_reloads = 0;
    u32 quarantined = 0;
    u32 replayed_requests = 0;     // pending requests re-submitted
    u32 shed_requests = 0;         // pending requests past deadline
    bool all_verified = false;
    u64 ready_cycles = 0;          // recover() entry -> done, core cycles
    /// Decoded pre-crash kFailureNotes, oldest first.
    std::vector<DprManager::JournalEntry> precrash_failures;
  };

  RecoveryManager(cpu::CpuContext& cpu, RecoveryJournal& journal);

  /// Register the rebuilt driver stack serving `slot`. The manager and
  /// service must already have the slot's modules registered so rm_ids
  /// from the journal resolve to loadable names.
  void add_slot(u32 slot, DprManager* mgr, ReconfigService* svc);

  /// Run the whole cold-boot sequence. Idempotent per construction —
  /// call once per reboot. Returns kOk when every slot verified.
  Status recover(Report* out = nullptr);

  const Report& report() const { return report_; }

 private:
  struct SlotBinding {
    u32 slot = 0;
    DprManager* mgr = nullptr;
    ReconfigService* svc = nullptr;
  };

  const SlotBinding* binding(u32 slot) const;
  void classify_slots(std::vector<SlotReport>* out) const;
  bool crash_looping(u32 rm_id) const;
  void replay_pending(u64 crash_mtime, Report* rep);

  cpu::CpuContext& cpu_;
  RecoveryJournal& journal_;
  std::vector<SlotBinding> slots_;
  Report report_;
  bool recovered_ = false;
  // Record count at boot-scan time: crash-loop analysis must only see
  // the pre-crash stream, not this boot's own appends (our kBootMark
  // would otherwise open a fresh not-crashed epoch and reset the
  // consecutive-crash count).
  usize scan_len_ = 0;

  obs::TraceSource trace_;
};

}  // namespace rvcap::driver
