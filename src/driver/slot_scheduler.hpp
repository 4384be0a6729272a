// Slot scheduler — multi-RP serving with preemptive capture/restore.
//
// A client layer above per-slot {DprManager, ReconfigService} stacks:
// applications submit hardware tasks (module + data stream + priority +
// deadline); the scheduler places them across the SoC's reconfigurable
// slots, streams their data in chunks, and — when a higher-priority
// task needs a slot — preempts the resident module GCAPTURE-style: the
// partition's frames are read back to a DDR capture area, the module's
// architectural state is serialized, and both are sealed under a CRC
// digest. Resuming re-verifies the digest, rebuilds a loadable
// bitstream from the captured image against the destination slot's
// partition, reconfigures it, and reinstates the serialized state —
// the task continues bit-identically.
//
// Fail-safe swap recovery: any verification failure — torn capture
// image, frames gone stale under the scrub service, a capture taken
// while the partition carried an essential upset, a wedged restore
// transfer — rolls the task back to a full reload from its golden
// staged bitstream and restarts it from byte 0. Degraded throughput,
// never corrupted output. A wedged swap transfer is fenced by the
// progress-monitor watchdog and becomes a diagnosed kHang (the slot's
// DprManager recovery machine then retries), not silent corruption.
// Oversubscription sheds priority-safely: only a strictly
// lower-effective-priority entry is evicted, and queued tasks age
// (priority + waiting-time credit) so low-priority work cannot starve.
//
// Relocation-aware placement: every slot is one FabricAllocator region
// (region id == slot id), and the attached PlacementEngine is the one
// path for region assignment. A task runs in any free slot whose
// manager holds its module or whose region is compatible with the
// engine's catalogue entry (a relocated bitstream variant is
// materialized on demand); a preempted task may resume in a DIFFERENT
// compatible slot when its capture slot is taken; and acquire_span()
// serves wide-footprint requests, running a compaction pass
// (capture/restore migrations of residents) when fragmentation would
// otherwise starve them.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "accel/rm_slot.hpp"
#include "common/ring.hpp"
#include "driver/reconfig_service.hpp"

namespace rvcap::driver {

class PlacementEngine;

class SlotScheduler : public ProgressMonitor {
 public:
  using TaskId = u64;
  static constexpr u32 kNoSlot = ~u32{0};
  static constexpr u32 kNoArea = ~u32{0};

  /// One reconfigurable slot's full software stack. All pointers must
  /// outlive the scheduler; `manager`/`service` are the slot's own
  /// (slot-bound Config::slot_id) instances. The slot serves
  /// FabricAllocator region `slot_id`.
  struct SlotBinding {
    u32 slot_id = 0;
    ReconfigService* service = nullptr;
    DprManager* manager = nullptr;
    accel::RmSlot* rm = nullptr;
    fabric::ConfigMemory* cfg = nullptr;
    usize cfg_handle = 0;           // this slot's partition handle
    Addr cmd_staging = 0;           // readback command staging (DDR)
  };

  /// A task is abandoned (kFailed) after this many rollbacks.
  static constexpr u32 kMaxRollbacks = 3;
  /// DDR bytes per capture area: one partition's readback image.
  static constexpr u32 kCaptureAreaBytes = 1 << 20;

  struct Config {
    usize queue_capacity = 8;
    u32 default_chunk_bytes = 4096;
    /// Anti-priority-inversion aging: a waiting task gains +1 effective
    /// priority per quantum of CLINT time since its last progress.
    u64 aging_quantum_mtime = 20'000;
    // ---- capture arena (DDR) ----
    Addr capture_arena = 0;         // base of the capture areas
    u32 capture_areas = 8;
    Addr restore_staging = 0;       // rebuilt-restore-bitstream staging
  };

  /// A streaming hardware task: activate `module`, then push
  /// `total_bytes` from `src` through it to `dst` in chunks. Output is
  /// 1:1 with input for every case-study RM; `chunk_bytes` must respect
  /// the module's pipeline granularity (whole frames for the image
  /// filters — a mid-frame chunk would deadlock on the skew).
  struct HwTask {
    std::string module;
    u32 rm_id = 0;
    u32 priority = 0;        // higher wins
    u64 deadline_mtime = 0;  // absolute CLINT deadline; 0 = none
    u32 client_id = 0;
    Addr src = 0;
    Addr dst = 0;
    u32 total_bytes = 0;
    u32 chunk_bytes = 0;     // 0 = Config::default_chunk_bytes
    /// RM register writes applied on every fresh start (initial swap-in
    /// and after a rollback reload). Restores do NOT reapply them — the
    /// captured architectural state already carries the register file.
    std::vector<std::pair<u32, u32>> setup_regs;
  };

  enum class TaskState : u8 {
    kQueued,
    kRunning,         // resident in a slot, streaming chunks
    kPreempted,       // captured to DDR, waiting to resume
    kCompleted,       // terminal: all bytes streamed
    kFailed,          // terminal: unrecoverable (status says why)
    kShed,            // terminal: evicted at saturation
    kDeadlineMissed,  // terminal: expired while queued
  };

  struct TaskRecord {
    TaskId id = 0;
    HwTask task;
    TaskState state = TaskState::kQueued;
    Status status = Status::kOk;
    u32 bytes_done = 0;
    u32 chunks = 0;
    u32 preemptions = 0;
    u32 rollbacks = 0;
    u64 submit_mtime = 0;
    u64 start_mtime = 0;           // first dispatch (0 = never placed)
    u64 done_mtime = 0;
    u64 last_progress_mtime = 0;   // aging reference point
    u32 slot = kNoSlot;            // resident / captured slot
    // ---- capture record (meaningful in kPreempted) ----
    Addr capture_addr = 0;
    u32 capture_words = 0;
    u32 capture_digest = 0;
    bool capture_poisoned = false;  // essential upset outstanding
    u32 capture_area = kNoArea;
    std::vector<u8> behavior_blob;  // serialized architectural state
  };

  /// Swap-machine journal record; a fixed ring of the most recent
  /// kJournalCapacity events (every capture, restore, rollback, shed,
  /// hang lands here — the recovery audit trail).
  struct SwapEvent {
    enum class Kind : u8 {
      kCapture,
      kRestore,
      kRollbackDigest,       // capture image failed its re-CRC (torn)
      kRollbackStale,        // frames rewritten since capture (scrub)
      kRollbackPoisoned,     // captured under an essential upset
      kRollbackTransfer,     // restore/stream transfer failed or hung
      kRollbackBehavior,     // architectural-state blob rejected
      kSwapHang,             // watchdog-diagnosed wedged swap transfer
      kShed,
      kDeadlineMiss,
      kComplete,
    };
    u64 mtime = 0;
    u32 slot = 0;
    Kind kind{};
    TaskId task = 0;
    u32 rm_id = 0;
    Status status = Status::kOk;
  };
  static constexpr usize kJournalCapacity = 64;

  struct Stats {
    u64 submitted = 0;
    u64 completed = 0;
    u64 failed = 0;
    u64 sheds = 0;
    u64 deadline_misses = 0;   // expired while queued (terminal)
    u64 late_completions = 0;  // finished past a non-zero deadline
    u64 chunks = 0;
    u64 preemptions = 0;
    u64 captures = 0;
    u64 restores = 0;
    u64 rollbacks = 0;
    u64 torn_detected = 0;     // digest mismatches caught pre-restore
    u64 stale_detected = 0;    // stale-frame hazards caught pre-restore
    u64 poisoned_detected = 0; // poisoned captures refused at restore
    u64 swap_hangs = 0;        // watchdog hangs during swap transfers
  };

  SlotScheduler(RvCapDriver& drv, const Config& cfg);

  /// Register a slot's stack. Slots must be added in slot-id order
  /// starting at 0 (binding index == RP-control slot window).
  u32 add_slot(const SlotBinding& b);
  usize num_slots() const { return slots_.size(); }

  void set_fault_injector(sim::FaultInjector* fi) { fault_ = fi; }

  /// Persistent intent journal: capture/restore/migration operations
  /// append begin/done pairs so a power loss mid-swap leaves an open
  /// intent for the cold-boot recovery manager. nullptr detaches.
  void attach_intent_journal(RecoveryJournal* j) { intent_ = j; }

  /// Attach the relocation-aware placement engine over the SoC's
  /// allocator (region id == slot id). Required before submit(): any
  /// free compatible region hosts a task, a relocated variant is
  /// materialized + registered on first landing, and the allocator
  /// records which task is resident in each slot.
  void attach_placement(PlacementEngine* engine) { engine_ = engine; }

  /// Wide-footprint serving: reserve `len` pairwise-adjacent free
  /// regions of `class_id`. When fragmentation defeats the request and
  /// `allow_compaction` is set, a compaction pass migrates running
  /// residents (capture/restore) out of the cheapest window first.
  /// Reserved regions are skipped by task placement until released.
  Status acquire_span(u32 class_id, u32 len, bool allow_compaction,
                      std::vector<u32>* regions);
  Status release_span(std::span<const u32> regions);

  /// Admission. At saturation the lowest-effective-priority queued
  /// entry is shed iff the arrival strictly outranks it; otherwise the
  /// arrival itself is refused (kRejected) — priority-safe shedding.
  Status submit(const HwTask& task, TaskId* id = nullptr);

  /// One scheduling decision: age the queue, expire dead entries, pick
  /// the globally best task, make it resident (preempting if it
  /// strictly outranks the victim), and stream one chunk. Returns
  /// false when no task can make progress.
  bool step();
  /// step() until no task can make progress; returns chunks streamed.
  usize drain();

  /// Force-capture a slot's resident task (test/bench preemption
  /// injection). kNotFound when the slot has no resident.
  Status preempt_slot(u32 slot);

  /// The task resident in `slot`: its region's owner while the region
  /// is kBusy, else 0. The allocator is the one residency record.
  TaskId resident(u32 slot) const;
  const TaskRecord* task(TaskId id) const;
  const std::vector<TaskRecord>& tasks() const { return tasks_; }

  /// Journal entries, oldest first (at most kJournalCapacity retained).
  std::vector<SwapEvent> journal() const { return journal_.snapshot(); }
  u64 journal_events() const { return journal_.events(); }
  const Stats& stats() const { return stats_; }

  // ---- ProgressMonitor (installed around swap transfers) ----
  u64 poll_interval_cycles() const override {
    return StallTracker::kPollIntervalCycles;
  }
  void on_start(u64 expected_beats) override { stall_.start(expected_beats); }
  bool on_poll(const TransferProgress& p) override;

 private:
  TaskRecord* find(TaskId id);
  u64 eff_priority(const TaskRecord& t, u64 now) const;
  TaskRecord* pick_best(u64 now);
  TaskRecord* best_resident(u64 now);
  void expire_queued(u64 now);
  bool ensure_resident(TaskRecord& t, u64 now);
  /// True when `slot` is not span-reserved and may host `t`: module
  /// registered with the slot's manager, or the slot's region is
  /// compatible with the engine's catalogue entry.
  bool slot_eligible(u32 slot, const TaskRecord& t);
  /// Materialize the task's image for the slot's region and register it
  /// with the slot's manager (idempotent).
  Status prepare_slot(TaskRecord& t, u32 slot);
  bool region_reserved(u32 slot) const;
  /// Compaction step: capture the resident of `from_slot` and restore
  /// it into `to_slot` (slot id == region id). The source is vacated as
  /// long as the capture succeeds (a failed re-place parks the task for
  /// a later resume elsewhere).
  Status migrate_region(u32 from_slot, u32 to_slot);
  Status capture(TaskRecord& victim);
  /// Verified restore; falls back to rollback() on any failure. After
  /// a successful return the task is kRunning (or terminal kFailed).
  void restore(TaskRecord& t);
  void rollback(TaskRecord& t, SwapEvent::Kind reason, Status cause);
  /// Golden-bitstream activation of `t` into `slot` via the slot's
  /// service (force-rewrite, so the RM always starts from reset).
  Status swap_in(TaskRecord& t, u32 slot);
  void run_chunk(TaskRecord& t);
  void apply_setup_regs(TaskRecord& t);
  void finish(TaskRecord& t, TaskState state, Status status);
  void release_area(TaskRecord& t);
  u32 claim_area();
  void journal_event(SwapEvent::Kind kind, u32 slot, const TaskRecord& t,
                     Status status);
  void settle();
  void intent(IntentOp op, u32 slot, u32 rm_id, u32 arg0 = 0);

  RvCapDriver& drv_;
  Config cfg_;
  sim::FaultInjector* fault_ = nullptr;
  RecoveryJournal* intent_ = nullptr;
  PlacementEngine* engine_ = nullptr;
  std::vector<SlotBinding> slots_;
  std::vector<bool> area_used_;
  std::vector<TaskRecord> tasks_;     // append-only; id = index + 1
  BoundedRing<SwapEvent, kJournalCapacity> journal_;
  Stats stats_;
  StallTracker stall_;  // watchdog state for the in-flight swap transfer

  // Observability.
  obs::TraceSource trace_;
};

}  // namespace rvcap::driver
