// Transfer-progress probing shared by the reconfiguration drivers.
//
// A wedged engine and a slow engine look identical to a timeout: both
// just have not finished yet. The probe disambiguates them — each wait
// loop periodically snapshots the engine's progress counter and status
// registers and hands the snapshot to an installed ProgressMonitor.
// A monitor that sees the counter freeze across consecutive polls can
// declare a hang (the wait returns Status::kHang immediately, long
// before the size-derived timeout would) and diagnose it from the last
// snapshot; a monitor that sees progress lets the wait continue.
#pragma once

#include "common/types.hpp"
#include "common/units.hpp"

namespace rvcap::driver {

/// Register snapshot of an in-flight transfer, taken mid-wait. Field
/// meaning depends on the path: RV-CAP DMA (beats = MM2S beat counter,
/// status = MM2S SR) or AXI_HWICAP (beats = keyhole words written,
/// status = HWICAP SR).
struct TransferProgress {
  u64 mtime = 0;      // CLINT timestamp of the snapshot
  u32 beats = 0;      // engine progress counter
  u32 status = 0;     // engine status register
  u32 rp_status = 0;  // RP-control status bits (0 for HWICAP probes)
};

/// Installed into a driver to observe (and possibly abort) its waits.
/// Drivers call on_start() when a wait begins and on_poll() roughly
/// every poll_interval_cycles() of simulated time during the wait.
class ProgressMonitor {
 public:
  virtual ~ProgressMonitor() = default;

  /// Simulated core cycles between on_poll() callbacks.
  virtual u64 poll_interval_cycles() const = 0;

  /// A new wait begins for a transfer of `expected_beats` total beats
  /// (progress-counter units). Resets any stall tracking.
  virtual void on_start(u64 expected_beats) = 0;

  /// Mid-wait snapshot. Return false to abort the wait: the driver
  /// stops waiting and returns Status::kHang to its caller.
  virtual bool on_poll(const TransferProgress& p) = 0;
};

/// Frozen-counter detection shared by the watchdog monitors
/// (ReconfigService, SlotScheduler). A slow transfer still moves
/// between probes; a counter frozen across kStallPolls probes is a hang.
class StallTracker {
 public:
  static constexpr u64 kIntervalTicks = 50;  // CLINT ticks between probes
  static constexpr u32 kStallPolls = 4;      // frozen probes => hang
  static constexpr u64 kPollIntervalCycles =
      kIntervalTicks * kCyclesPerClintTick;

  void start(u64 expected_beats) {
    expected_beats_ = expected_beats;
    last_beats_ = 0;
    stalled_polls_ = 0;
  }

  /// False once the counter is frozen; progress (or a new job's
  /// counter reset) clears the stall count.
  bool poll(u32 beats) {
    if (beats != last_beats_) {
      last_beats_ = beats;
      stalled_polls_ = 0;
      return true;
    }
    return ++stalled_polls_ < kStallPolls;
  }

  u64 expected_beats() const { return expected_beats_; }
  u32 stalled_polls() const { return stalled_polls_; }

 private:
  u64 expected_beats_ = 0;
  u32 last_beats_ = 0;
  u32 stalled_polls_ = 0;
};

}  // namespace rvcap::driver
