// DPR manager: module registry, staging cache (LRU), activation
// shortcuts, and cost accounting.
#include <gtest/gtest.h>

#include "bitstream/generator.hpp"
#include "driver/dpr_manager.hpp"
#include "driver/spi_sd.hpp"
#include "driver/stack.hpp"
#include "soc/ariane_soc.hpp"
#include "storage/fat32.hpp"

namespace rvcap {
namespace {

using driver::DprManager;
using soc::ArianeSoc;
using soc::MemoryMap;
using soc::SocConfig;

// Pre-staged-modules fixture (no SD involvement).
struct ManagerFixture : ::testing::Test {
  ManagerFixture() {
    EXPECT_EQ(stack.stage(0, "sobel", accel::kRmIdSobel), Status::kOk);
    EXPECT_EQ(stack.stage(0, "median", accel::kRmIdMedian), Status::kOk);
    EXPECT_EQ(stack.stage(0, "gaussian", accel::kRmIdGaussian), Status::kOk);
  }

  ArianeSoc soc;
  driver::Stack stack{soc, {}};
  DprManager& mgr = stack.manager();
};

TEST_F(ManagerFixture, ActivateLoadsModule) {
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  EXPECT_EQ(mgr.active_module(), "sobel");
  EXPECT_EQ(mgr.stats().reconfigurations, 1u);
  EXPECT_GT(mgr.total_reconfig_us(), 1000.0);
}

TEST_F(ManagerFixture, RepeatActivationSkipsReconfiguration) {
  ASSERT_EQ(mgr.activate("median"), Status::kOk);
  ASSERT_EQ(mgr.activate("median"), Status::kOk);
  ASSERT_EQ(mgr.activate("median"), Status::kOk);
  EXPECT_EQ(mgr.stats().reconfigurations, 1u);
  EXPECT_EQ(mgr.stats().already_active_hits, 2u);
  EXPECT_EQ(mgr.stats().activation_requests, 3u);
}

TEST_F(ManagerFixture, SwitchingModulesReconfigures) {
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  ASSERT_EQ(mgr.activate("gaussian"), Status::kOk);
  ASSERT_EQ(mgr.activate("sobel"), Status::kOk);
  EXPECT_EQ(mgr.stats().reconfigurations, 3u);
  EXPECT_EQ(mgr.active_module(), "sobel");
}

TEST_F(ManagerFixture, UnknownModuleNotFound) {
  EXPECT_EQ(mgr.activate("does-not-exist"), Status::kNotFound);
  EXPECT_EQ(mgr.prefetch("nope"), Status::kNotFound);
}

TEST_F(ManagerFixture, DuplicateRegistrationRejected) {
  EXPECT_EQ(mgr.register_staged("sobel", 9, MemoryMap::kDdr.base, 4),
            Status::kAlreadyExists);
}

TEST_F(ManagerFixture, FileBackedRegistrationNeedsVolume) {
  EXPECT_EQ(mgr.register_module("x", 9, "X.PB"), Status::kInvalidArgument);
}

// SD-backed fixture with a tiny partition so staging stays fast.
struct SdManagerFixture : ::testing::Test {
  SdManagerFixture()
      : soc(SocConfig{}),
        drv(soc.cpu(), soc.plic()),
        small_a("RPA", {{0, 2}}),
        small_b("RPB", {{0, 4}}),
        host_io(soc.sd_card()) {
    // Manager over the small partition A.
    handle_a = soc.add_partition(small_a);
    EXPECT_EQ(storage::fat32_format(host_io), Status::kOk);
    storage::Fat32Volume host_vol(host_io);
    EXPECT_EQ(host_vol.mount(), Status::kOk);
    for (u32 id : {40u, 41u, 42u}) {
      const auto pbit = bitstream::generate_partial_bitstream(
          soc.device(), small_a, {id, "m"});
      EXPECT_EQ(host_vol.write_file("M" + std::to_string(id) + ".PB", pbit),
                Status::kOk);
      pbit_size = static_cast<u32>(pbit.size());
    }

    sd = std::make_unique<driver::SpiSdDriver>(soc.cpu());
    EXPECT_EQ(sd->init_card(), Status::kOk);
    io = std::make_unique<driver::CpuBlockIo>(*sd,
                                              soc.sd_card().block_count());
    vol = std::make_unique<storage::Fat32Volume>(*io);
    EXPECT_EQ(vol->mount(), Status::kOk);

    DprManager::Config cfg;
    cfg.num_slots = 2;  // force evictions with 3 modules
    cfg.slot_bytes = 64 * 1024;
    mgr = std::make_unique<DprManager>(drv, soc.config_memory(), handle_a,
                                       vol.get(), cfg);
    for (u32 id : {40u, 41u, 42u}) {
      EXPECT_EQ(mgr->register_module("m" + std::to_string(id), id,
                                     "M" + std::to_string(id) + ".PB"),
                Status::kOk);
    }
  }

  ArianeSoc soc;
  driver::RvCapDriver drv;
  fabric::Partition small_a, small_b;
  usize handle_a = 0;
  u32 pbit_size = 0;
  storage::MemBlockIo host_io;
  std::unique_ptr<driver::SpiSdDriver> sd;
  std::unique_ptr<driver::CpuBlockIo> io;
  std::unique_ptr<storage::Fat32Volume> vol;
  std::unique_ptr<DprManager> mgr;
};

TEST_F(SdManagerFixture, MissLoadsFromSdThenHits) {
  ASSERT_EQ(mgr->activate("m40"), Status::kOk);
  EXPECT_EQ(mgr->stats().staging_loads, 1u);
  ASSERT_EQ(mgr->activate("m41"), Status::kOk);
  EXPECT_EQ(mgr->stats().staging_loads, 2u);
  // Re-activating m40: staged copy still resident (2 slots).
  ASSERT_EQ(mgr->activate("m40"), Status::kOk);
  EXPECT_EQ(mgr->stats().staging_hits, 1u);
  EXPECT_EQ(mgr->stats().staging_loads, 2u);
}

TEST_F(SdManagerFixture, LruEvictionWithTwoSlots) {
  ASSERT_EQ(mgr->activate("m40"), Status::kOk);  // slot 0
  ASSERT_EQ(mgr->activate("m41"), Status::kOk);  // slot 1
  ASSERT_EQ(mgr->activate("m42"), Status::kOk);  // evicts m40 (LRU)
  EXPECT_EQ(mgr->stats().evictions, 1u);
  // m41 must still be resident; m40 needs a reload.
  ASSERT_EQ(mgr->activate("m41"), Status::kOk);
  EXPECT_EQ(mgr->stats().staging_hits, 1u);
  const u64 loads_before = mgr->stats().staging_loads;
  ASSERT_EQ(mgr->activate("m40"), Status::kOk);
  EXPECT_EQ(mgr->stats().staging_loads, loads_before + 1);
}

TEST_F(SdManagerFixture, PrefetchAvoidsLaterStall) {
  ASSERT_EQ(mgr->prefetch("m42"), Status::kOk);
  EXPECT_EQ(mgr->stats().staging_loads, 1u);
  EXPECT_EQ(mgr->stats().reconfigurations, 0u);
  ASSERT_EQ(mgr->activate("m42"), Status::kOk);
  EXPECT_EQ(mgr->stats().staging_hits, 1u);
  EXPECT_EQ(mgr->stats().reconfigurations, 1u);
}

TEST_F(SdManagerFixture, OversizedModuleRejected) {
  storage::Fat32Volume host_vol(host_io);
  ASSERT_EQ(host_vol.mount(), Status::kOk);
  std::vector<u8> big(128 * 1024, 1);  // > slot_bytes
  ASSERT_EQ(host_vol.write_file("BIG.PB", big), Status::kOk);
  EXPECT_EQ(mgr->register_module("big", 50, "BIG.PB"), Status::kNoSpace);
}

}  // namespace
}  // namespace rvcap
