// Configuration scrubber — safe-DPR integrity service.
//
// The Di Carlo et al. related work (§II) motivates DPR controllers for
// "safe ... real-time and mission-critical adaptive applications" that
// validate configuration data. This service provides the software side
// on top of RV-CAP's readback path:
//
//   snapshot():  after a module loads, read the partition back and
//                record a golden checksum of its frame data;
//   scrub():     read the partition back again and compare — detects
//                single-event upsets (SEUs) in configuration memory;
//   scrub_and_repair(): on a mismatch, recover by reloading the
//                module's partial bitstream (full-partition repair).
//
// All work runs on the CPU model: readbacks at DMA rate, checksum in
// software over the captured buffer, so scrub cycles have realistic
// costs the bench can report.
#pragma once

#include "driver/rvcap_driver.hpp"

namespace rvcap::driver {

class Scrubber {
 public:
  struct Config {
    Addr cmd_staging;  // scratch DDR for readback command sequences
    Addr rb_buffer;    // DDR buffer the readback lands in
  };

  struct Stats {
    u64 scrubs = 0;
    u64 detections = 0;
    u64 repairs = 0;
    u64 words_scrubbed = 0;
  };

  Scrubber(RvCapDriver& drv, const fabric::DeviceGeometry& dev,
           const Config& cfg)
      : drv_(drv), dev_(dev), cfg_(cfg) {}

  /// Record the golden checksum of a partition's current contents.
  Status snapshot(const fabric::Partition& part);

  /// Read the partition back and compare with the snapshot. Returns
  /// kOk when clean, kCrcError on a detected upset, other codes on
  /// transport errors. `clean` (optional) receives the verdict.
  Status scrub(const fabric::Partition& part, bool* clean = nullptr);

  /// scrub(); on detection, reload the module and verify the reload
  /// restored the golden contents before counting the repair. The
  /// snapshot itself is never replaced here — see scrub_and_repair().
  Status scrub_and_repair(const fabric::Partition& part,
                          const ReconfigModule& module,
                          DmaMode mode = DmaMode::kInterrupt);

  const Stats& stats() const { return stats_; }

  /// When set, readbacks leave the RP decoupled afterwards — used by
  /// the recovery flow, which scrub-verifies a freshly loaded partition
  /// BEFORE coupling it to the system.
  void set_hold_decoupled(bool hold) { hold_decoupled_ = hold; }

 private:
  Status checksum_partition(const fabric::Partition& part, u32* crc_out,
                            u32* words_out);

  RvCapDriver& drv_;
  const fabric::DeviceGeometry& dev_;
  Config cfg_;
  bool has_golden_ = false;
  bool hold_decoupled_ = false;
  u32 golden_crc_ = 0;
  Stats stats_;
};

}  // namespace rvcap::driver
