// Single-RP self-healing rig shared by the fault, kernel-equivalence,
// service and scrub tests: an RV-CAP SoC with the AXI_HWICAP fallback
// path, its driver stack with the one-shot Scrubber attached, and
// golden sobel + median images pre-staged on RP0.
#pragma once

#include <gtest/gtest.h>

#include <string_view>
#include <utility>

#include "driver/stack.hpp"
#include "sim/fault_injector.hpp"

namespace rvcap::test {

struct HealingWorld {
  explicit HealingWorld(u64 seed = 0x5EED,
                        sim::Simulator::Mode mode =
                            sim::Simulator::Mode::kScheduled,
                        driver::Stack::Parts parts = {})
      : soc([&] {
          soc::SocConfig cfg;
          cfg.sim_mode = mode;
          cfg.with_hwicap = true;  // fallback path available
          return cfg;
        }()),
        fi(seed),
        stack(soc, with_scrubber(std::move(parts)), &fi) {
    EXPECT_EQ(stack.stage(0, "sobel", accel::kRmIdSobel), Status::kOk);
    EXPECT_EQ(stack.stage(0, "median", accel::kRmIdMedian), Status::kOk);
  }

  static driver::Stack::Parts with_scrubber(driver::Stack::Parts p) {
    p.scrubber = driver::Scrubber::Config{};
    return p;
  }

  /// DDR address of a pre-staged module's golden image.
  Addr staged_addr(std::string_view name) {
    driver::DprManager::StagedInfo info;
    EXPECT_EQ(mgr.staged_image(name, &info), Status::kOk);
    return info.addr;
  }

  bool decoupled() { return soc.rvcap().rp_control().decoupled(); }

  soc::ArianeSoc soc;
  sim::FaultInjector fi;
  driver::Stack stack;
  driver::RvCapDriver& drv = stack.driver();
  driver::Scrubber& scrubber = *stack.scrubber();
  driver::DprManager& mgr = stack.manager();
};

}  // namespace rvcap::test
