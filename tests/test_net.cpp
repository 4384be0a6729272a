// Fault-tolerant networked bitstream delivery (DESIGN.md §12).
//
// Covers the acquisition path end to end: the shared RetrySchedule
// discipline, the lossy NetLink + BitstreamServer plant, the chunked
// NetFetcher (CRC-per-chunk, timeout/retry/backoff, resume, circuit
// breaker), the integrity-verified BitstreamCache, the
// BitstreamDelivery degradation chain (cache -> net -> SD fallback),
// and the full DprManager stack staging remote modules over a lossy
// link — including same-seed determinism across both simulation
// kernels, the property that makes network fault schedules replayable.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bitstream/generator.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "driver/bitstream_source.hpp"
#include "driver/dpr_manager.hpp"
#include "driver/spi_sd.hpp"
#include "driver/stack.hpp"
#include "net/net_fetcher.hpp"
#include "sim/fault_injector.hpp"
#include "soc/ariane_soc.hpp"
#include "storage/fat32.hpp"
#include "storage/sd_card.hpp"

namespace rvcap {
namespace {

using driver::BitstreamCache;
using driver::BitstreamDelivery;
using driver::DeliveryPath;
using driver::DprManager;
using driver::NetBitstreamSource;
using driver::SdBitstreamSource;
using net::NetFetcher;
using sim::FaultInjector;
using sim::Simulator;
using soc::ArianeSoc;
using soc::SocConfig;
namespace sites = sim::fault_sites;

// ---------------------------------------------------------------------
// RetrySchedule: the shared bounded-retry discipline
// ---------------------------------------------------------------------

TEST(RetrySchedule, BudgetsAttemptsAndFirstAttemptIsFree) {
  RetrySchedule sched(RetryPolicy{3, 1000, 0, 0});
  ASSERT_TRUE(sched.next());
  EXPECT_EQ(sched.attempt(), 1u);
  EXPECT_EQ(sched.delay(), 0u);  // no wait before the first try
  EXPECT_EQ(sched.retries(), 0u);
  ASSERT_TRUE(sched.next());
  ASSERT_TRUE(sched.next());
  EXPECT_EQ(sched.retries(), 2u);
  EXPECT_TRUE(sched.exhausted());
  EXPECT_FALSE(sched.next());
}

TEST(RetrySchedule, ZeroAttemptsNeverRuns) {
  RetrySchedule sched(RetryPolicy{0, 0, 0, 0});
  EXPECT_FALSE(sched.next());
}

TEST(RetrySchedule, ExponentialBackoffIsCapped) {
  RetrySchedule sched(RetryPolicy{5, 1000, 4000, 0});
  std::vector<u64> delays;
  while (sched.next()) delays.push_back(sched.delay());
  EXPECT_EQ(delays, (std::vector<u64>{0, 1000, 2000, 4000, 4000}));
}

TEST(RetrySchedule, ZeroBaseKeepsTightLoop) {
  RetrySchedule sched(RetryPolicy{4, 0, 0, 500});
  while (sched.next()) EXPECT_EQ(sched.delay(), 0u);
}

TEST(RetrySchedule, JitterIsSeedDeterministicAndBounded) {
  const RetryPolicy p{6, 1000, 0, 500};
  RetrySchedule a(p, 7), b(p, 7), c(p, 8);
  bool diverged = false;
  while (a.next()) {
    ASSERT_TRUE(b.next());
    ASSERT_TRUE(c.next());
    EXPECT_EQ(a.delay(), b.delay());
    if (a.delay() != c.delay()) diverged = true;
    if (a.attempt() >= 2) {
      const u64 base = u64{1000} << (a.attempt() - 2);
      EXPECT_GE(a.delay(), base);
      EXPECT_LE(a.delay(), base + base / 2);  // jitter <= 500 permille
    }
  }
  EXPECT_TRUE(diverged);  // a different seed draws different jitter
}

// ---------------------------------------------------------------------
// World: SoC with the network plant + a driver-side fetcher
// ---------------------------------------------------------------------

std::vector<u8> make_image(usize bytes, u64 seed) {
  SplitMix64 rng(seed);
  std::vector<u8> v(bytes);
  for (auto& b : v) b = static_cast<u8>(rng.next());
  return v;
}

struct NetWorld {
  explicit NetWorld(Simulator::Mode mode = Simulator::Mode::kScheduled,
                    u64 fault_seed = 0x5EED,
                    NetFetcher::Config fcfg = NetFetcher::Config{})
      : soc(make_config(mode)),
        fi(fault_seed),
        fetcher(soc.cpu(), soc.net_link(), fcfg) {
    soc.attach_fault_injector(&fi);
  }

  static SocConfig make_config(Simulator::Mode mode) {
    SocConfig cfg;
    cfg.sim_mode = mode;
    cfg.with_net = true;
    return cfg;
  }

  std::vector<u8> publish(const char* name, usize bytes, u64 seed) {
    auto img = make_image(bytes, seed);
    soc.net_server().add_image(name, img);
    return img;
  }

  std::vector<u8> read_ddr(Addr a, usize n) {
    std::vector<u8> v(n);
    soc.cpu().read_buffer(a, v);
    return v;
  }

  ArianeSoc soc;
  FaultInjector fi;
  NetFetcher fetcher;
};

constexpr Addr kDest = 0x8A00'0000;

// ---------------------------------------------------------------------
// NetFetcher over a clean and a lossy link
// ---------------------------------------------------------------------

TEST(NetFetcher, CleanFetchDeliversExactImage) {
  NetWorld w;
  const auto img = w.publish("sobel.pbit", 10'000, 1);  // 10 chunks, odd tail
  u32 bytes = 0;
  ASSERT_EQ(w.fetcher.fetch("sobel.pbit", kDest, 1 << 20, &bytes),
            Status::kOk);
  EXPECT_EQ(bytes, 10'000u);
  EXPECT_EQ(w.read_ddr(kDest, img.size()), img);
  EXPECT_EQ(w.fetcher.fetches_ok(), 1u);
  EXPECT_EQ(w.fetcher.chunk_retries(), 0u);
  EXPECT_EQ(w.soc.net_server().served(), 10u);
  EXPECT_EQ(w.soc.net_link().delivered(), 20u);  // 10 RRQs + 10 data
}

TEST(NetFetcher, UnknownImageFailsFastWithoutRetry) {
  NetWorld w;
  u32 bytes = 0;
  EXPECT_EQ(w.fetcher.fetch("no-such.pbit", kDest, 1 << 20, &bytes),
            Status::kNotFound);
  EXPECT_EQ(bytes, 0u);
  // A definitive server error must not burn the retry budget.
  EXPECT_EQ(w.fetcher.chunk_retries(), 0u);
  EXPECT_EQ(w.soc.net_server().errors(), 1u);
}

TEST(NetFetcher, OversizedImageIsRefusedBeforeDdr) {
  NetWorld w;
  w.publish("big.pbit", 10'000, 2);
  u32 bytes = 0;
  EXPECT_EQ(w.fetcher.fetch("big.pbit", kDest, 4096, &bytes),
            Status::kNoSpace);
  EXPECT_EQ(w.fetcher.fetches_ok(), 0u);
}

TEST(NetFetcher, DroppedFramesAreRetriedToCompletion) {
  NetWorld w;
  const auto img = w.publish("sobel.pbit", 10'000, 3);
  w.fi.arm(sites::kNetDrop, /*count=*/3);  // eat the first three frames
  u32 bytes = 0;
  ASSERT_EQ(w.fetcher.fetch("sobel.pbit", kDest, 1 << 20, &bytes),
            Status::kOk);
  EXPECT_EQ(w.read_ddr(kDest, img.size()), img);
  EXPECT_EQ(w.soc.net_link().dropped(), 3u);
  EXPECT_EQ(w.fetcher.chunk_timeouts(), 3u);
  EXPECT_EQ(w.fetcher.chunk_retries(), 3u);
}

TEST(NetFetcher, CorruptedChunksAreRejectedByCrcAndRefetched) {
  NetWorld w;
  const auto img = w.publish("sobel.pbit", 10'000, 4);
  w.fi.arm(sites::kNetCorrupt, /*count=*/2);
  u32 bytes = 0;
  ASSERT_EQ(w.fetcher.fetch("sobel.pbit", kDest, 1 << 20, &bytes),
            Status::kOk);
  // Corruption never reaches DDR: the refetched copies are golden.
  EXPECT_EQ(w.read_ddr(kDest, img.size()), img);
  EXPECT_EQ(w.soc.net_link().corrupted(), 2u);
  EXPECT_EQ(w.fetcher.chunk_crc_errors(), 2u);
}

TEST(NetFetcher, DuplicatesAndReordersAreAbsorbed) {
  NetWorld w;
  const auto img = w.publish("sobel.pbit", 20'000, 5);
  w.fi.arm(sites::kNetDup, 0, 0.3);
  w.fi.arm(sites::kNetReorder, 0, 0.3);
  u32 bytes = 0;
  ASSERT_EQ(w.fetcher.fetch("sobel.pbit", kDest, 1 << 20, &bytes),
            Status::kOk);
  EXPECT_EQ(w.read_ddr(kDest, img.size()), img);
  EXPECT_GT(w.soc.net_link().duplicated(), 0u);
}

TEST(NetFetcher, ServerStallLooksLikeTimeoutAndIsRetried) {
  NetWorld w;
  const auto img = w.publish("sobel.pbit", 5'000, 6);
  w.fi.arm(sites::kNetServerStall, /*count=*/1);
  u32 bytes = 0;
  ASSERT_EQ(w.fetcher.fetch("sobel.pbit", kDest, 1 << 20, &bytes),
            Status::kOk);
  EXPECT_EQ(w.read_ddr(kDest, img.size()), img);
  EXPECT_EQ(w.soc.net_server().stalled(), 1u);
  EXPECT_GE(w.fetcher.chunk_timeouts(), 1u);
}

// A fetcher tuned for fast failure tests: short timeouts, two attempts,
// a two-failure breaker with a short cooldown.
NetFetcher::Config fast_fail_config() {
  NetFetcher::Config cfg;
  cfg.response_timeout = 2'000;
  cfg.retry = RetryPolicy{2, 500, 2'000, 0};
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown = 20'000;
  return cfg;
}

TEST(NetFetcher, LinkOutageTimesOutThenBreakerFailsFast) {
  NetWorld w(Simulator::Mode::kScheduled, 0x5EED, fast_fail_config());
  const auto img = w.publish("sobel.pbit", 5'000, 7);
  w.soc.net_link().set_down(true);

  u32 bytes = 0;
  EXPECT_EQ(w.fetcher.fetch("sobel.pbit", kDest, 1 << 20, &bytes),
            Status::kTimeout);
  EXPECT_FALSE(w.fetcher.breaker_open());
  EXPECT_EQ(w.fetcher.fetch("sobel.pbit", kDest, 1 << 20, &bytes),
            Status::kTimeout);
  EXPECT_TRUE(w.fetcher.breaker_open());
  EXPECT_EQ(w.fetcher.breaker_trips(), 1u);

  // Open breaker: instant kUnavailable, not a single frame on the wire.
  const u64 accepted = w.soc.net_link().accepted();
  EXPECT_EQ(w.fetcher.fetch("sobel.pbit", kDest, 1 << 20, &bytes),
            Status::kUnavailable);
  EXPECT_EQ(w.fetcher.breaker_fast_fails(), 1u);
  EXPECT_EQ(w.soc.net_link().accepted(), accepted);

  // Cooldown elapses with the link back up: the half-open probe
  // succeeds and closes the breaker.
  w.soc.net_link().set_down(false);
  w.soc.sim().run_cycles(fast_fail_config().breaker_cooldown);
  ASSERT_EQ(w.fetcher.fetch("sobel.pbit", kDest, 1 << 20, &bytes),
            Status::kOk);
  EXPECT_FALSE(w.fetcher.breaker_open());
  EXPECT_EQ(w.read_ddr(kDest, img.size()), img);
}

TEST(NetFetcher, InterruptedTransferResumesFromHighWaterChunk) {
  NetFetcher::Config cfg;
  cfg.response_timeout = 3'000;
  cfg.retry = RetryPolicy{2, 0, 0, 0};
  NetWorld w(Simulator::Mode::kScheduled, 0x5EED, cfg);
  const auto img = w.publish("sobel.pbit", 10'000, 8);

  // Let chunks 0..4 through (10 frames: RRQ + data each), then eat
  // everything — the transfer dies at chunk 5.
  w.fi.arm(sites::kNetDrop, FaultInjector::Plan{0, 1.0, 10});
  u32 bytes = 0;
  ASSERT_EQ(w.fetcher.fetch("sobel.pbit", kDest, 1 << 20, &bytes),
            Status::kTimeout);
  EXPECT_EQ(w.fetcher.fetches_failed(), 1u);

  // Link heals; the refetch continues at chunk 5 instead of restarting.
  w.fi.disarm(sites::kNetDrop);
  const u64 served_before = w.soc.net_server().served();
  ASSERT_EQ(w.fetcher.fetch("sobel.pbit", kDest, 1 << 20, &bytes),
            Status::kOk);
  EXPECT_EQ(w.fetcher.resumed_transfers(), 1u);
  EXPECT_EQ(w.soc.net_server().served() - served_before, 5u);
  EXPECT_EQ(w.read_ddr(kDest, img.size()), img);
}

// ---------------------------------------------------------------------
// Same seed, both kernels: identical damage schedule, identical run
// ---------------------------------------------------------------------

TEST(NetKernelEquivalence, LossyFetchIsBitIdenticalAcrossKernels) {
  NetWorld flat(Simulator::Mode::kFlat);
  NetWorld sched(Simulator::Mode::kScheduled);
  const auto img_f = flat.publish("sobel.pbit", 20'000, 9);
  const auto img_s = sched.publish("sobel.pbit", 20'000, 9);
  for (NetWorld* w : {&flat, &sched}) {
    w->fi.arm(sites::kNetDrop, 0, 0.05);
    w->fi.arm(sites::kNetCorrupt, 0, 0.01);
  }
  u32 bf = 0, bs = 0;
  ASSERT_EQ(flat.fetcher.fetch("sobel.pbit", kDest, 1 << 20, &bf),
            Status::kOk);
  ASSERT_EQ(sched.fetcher.fetch("sobel.pbit", kDest, 1 << 20, &bs),
            Status::kOk);
  // Identical cycle count, identical damage schedule, identical
  // recovery work — or a component broke the activity contract.
  EXPECT_EQ(flat.soc.sim().now(), sched.soc.sim().now());
  EXPECT_EQ(flat.soc.net_link().dropped(), sched.soc.net_link().dropped());
  EXPECT_EQ(flat.soc.net_link().corrupted(),
            sched.soc.net_link().corrupted());
  EXPECT_EQ(flat.soc.net_link().delivered(),
            sched.soc.net_link().delivered());
  EXPECT_EQ(flat.fetcher.chunk_retries(), sched.fetcher.chunk_retries());
  EXPECT_EQ(flat.fetcher.chunk_timeouts(), sched.fetcher.chunk_timeouts());
  EXPECT_EQ(flat.fetcher.chunk_crc_errors(),
            sched.fetcher.chunk_crc_errors());
  EXPECT_EQ(flat.fi.total_fires(), sched.fi.total_fires());
  EXPECT_EQ(bf, bs);
  EXPECT_EQ(flat.read_ddr(kDest, img_f.size()), img_f);
  EXPECT_EQ(sched.read_ddr(kDest, img_s.size()), img_s);
}

// ---------------------------------------------------------------------
// BitstreamCache: verified hits, poison, LRU
// ---------------------------------------------------------------------

BitstreamCache::Config small_cache() {
  BitstreamCache::Config cfg;
  cfg.base = 0x8C00'0000;
  cfg.slot_bytes = 64 * 1024;
  cfg.slots = 2;
  return cfg;
}

TEST(BitstreamCache, HitVerifiesDigestAndCopiesBytes) {
  ArianeSoc soc;
  BitstreamCache cache(soc.cpu(), small_cache());
  const auto img = make_image(10'000, 10);
  soc.ddr().poke(kDest, img);
  cache.insert("a", kDest, static_cast<u32>(img.size()));

  u32 bytes = 0;
  ASSERT_TRUE(cache.lookup("a", 0x8B00'0000, 1 << 20, &bytes));
  EXPECT_EQ(bytes, 10'000u);
  std::vector<u8> out(img.size());
  soc.cpu().read_buffer(0x8B00'0000, out);
  EXPECT_EQ(out, img);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_FALSE(cache.lookup("b", 0x8B00'0000, 1 << 20, &bytes));
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BitstreamCache, PoisonedEntryIsEvictedNeverServed) {
  ArianeSoc soc;
  const auto cfg = small_cache();
  BitstreamCache cache(soc.cpu(), cfg);
  const auto img = make_image(10'000, 11);
  soc.ddr().poke(kDest, img);
  cache.insert("a", kDest, static_cast<u32>(img.size()));

  // A DDR upset lands in the cached copy.
  const u8 flipped = static_cast<u8>(img[100] ^ 0x40);
  soc.ddr().poke(cfg.base + 100, std::span<const u8>(&flipped, 1));

  u32 bytes = 0;
  EXPECT_FALSE(cache.lookup("a", 0x8B00'0000, 1 << 20, &bytes));
  EXPECT_EQ(cache.poisoned(), 1u);
  // The entry is gone, not retried: the next lookup is a plain miss.
  EXPECT_FALSE(cache.lookup("a", 0x8B00'0000, 1 << 20, &bytes));
  EXPECT_EQ(cache.poisoned(), 1u);
  // Reinserting a good copy works again.
  cache.insert("a", kDest, static_cast<u32>(img.size()));
  EXPECT_TRUE(cache.lookup("a", 0x8B00'0000, 1 << 20, &bytes));
}

TEST(BitstreamCache, LruEvictionPrefersStaleEntries) {
  ArianeSoc soc;
  BitstreamCache cache(soc.cpu(), small_cache());  // two slots
  const auto a = make_image(4'000, 12);
  const auto b = make_image(4'000, 13);
  const auto c = make_image(4'000, 14);
  soc.ddr().poke(0x8A00'0000, a);
  soc.ddr().poke(0x8A10'0000, b);
  soc.ddr().poke(0x8A20'0000, c);
  cache.insert("a", 0x8A00'0000, 4'000);
  cache.insert("b", 0x8A10'0000, 4'000);
  u32 bytes = 0;
  ASSERT_TRUE(cache.lookup("a", 0x8B00'0000, 1 << 20, &bytes));  // a is MRU
  cache.insert("c", 0x8A20'0000, 4'000);  // evicts b, the LRU entry
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.lookup("a", 0x8B00'0000, 1 << 20, &bytes));
  EXPECT_TRUE(cache.lookup("c", 0x8B00'0000, 1 << 20, &bytes));
  EXPECT_FALSE(cache.lookup("b", 0x8B00'0000, 1 << 20, &bytes));
}

// ---------------------------------------------------------------------
// BitstreamDelivery: cache -> net -> SD fallback degradation chain
// ---------------------------------------------------------------------

TEST(BitstreamDelivery, NetFetchesArePromotedToCacheHits) {
  NetWorld w;
  const auto img = w.publish("sobel.pbit", 10'000, 15);
  NetBitstreamSource net_src(w.fetcher);
  BitstreamCache cache(w.soc.cpu(), small_cache());
  BitstreamDelivery delivery(w.soc.cpu());
  delivery.set_primary(&net_src);
  delivery.attach_cache(&cache);

  u32 bytes = 0;
  ASSERT_EQ(delivery.fetch("sobel.pbit", kDest, 1 << 20, &bytes),
            Status::kOk);
  ASSERT_EQ(delivery.fetch("sobel.pbit", kDest, 1 << 20, &bytes),
            Status::kOk);
  EXPECT_EQ(delivery.net_deliveries(), 1u);
  EXPECT_EQ(delivery.cache_hits(), 1u);
  EXPECT_EQ(w.fetcher.fetches_ok(), 1u);  // second hit never hit the wire
  EXPECT_EQ(w.read_ddr(kDest, img.size()), img);

  const auto journal = delivery.journal();
  ASSERT_EQ(journal.size(), 2u);
  EXPECT_EQ(journal[0].path, DeliveryPath::kNet);
  EXPECT_EQ(journal[1].path, DeliveryPath::kCache);
}

/// SD volume (host-formatted, CPU-mounted) holding one image file.
struct SdRig {
  SdRig(ArianeSoc& soc, const char* path, std::span<const u8> img)
      : host_io(soc.sd_card()) {
    EXPECT_EQ(storage::fat32_format(host_io), Status::kOk);
    storage::Fat32Volume host_vol(host_io);
    EXPECT_EQ(host_vol.mount(), Status::kOk);
    EXPECT_EQ(host_vol.write_file(path, img), Status::kOk);
    sd = std::make_unique<driver::SpiSdDriver>(soc.cpu());
    EXPECT_EQ(sd->init_card(), Status::kOk);
    io = std::make_unique<driver::CpuBlockIo>(*sd,
                                              soc.sd_card().block_count());
    vol = std::make_unique<storage::Fat32Volume>(*io);
    EXPECT_EQ(vol->mount(), Status::kOk);
  }

  storage::MemBlockIo host_io;
  std::unique_ptr<driver::SpiSdDriver> sd;
  std::unique_ptr<driver::CpuBlockIo> io;
  std::unique_ptr<storage::Fat32Volume> vol;
};

TEST(BitstreamDelivery, LinkOutageFallsBackToSdAndJournalsIt) {
  NetWorld w(Simulator::Mode::kScheduled, 0x5EED, fast_fail_config());
  const auto img = w.publish("SOBEL.PB", 10'000, 16);
  SdRig rig(w.soc, "SOBEL.PB", img);

  NetBitstreamSource net_src(w.fetcher);
  SdBitstreamSource sd_src(w.soc.cpu(), *rig.vol);
  BitstreamDelivery delivery(w.soc.cpu());
  delivery.set_primary(&net_src);
  delivery.set_fallback(&sd_src);

  w.soc.net_link().set_down(true);
  u32 bytes = 0;
  ASSERT_EQ(delivery.fetch("SOBEL.PB", kDest, 1 << 20, &bytes),
            Status::kOk);
  EXPECT_EQ(bytes, 10'000u);
  EXPECT_EQ(w.read_ddr(kDest, img.size()), img);
  EXPECT_EQ(delivery.sd_fallbacks(), 1u);
  EXPECT_EQ(delivery.failures(), 0u);

  const auto journal = delivery.journal();
  ASSERT_EQ(journal.size(), 1u);
  EXPECT_EQ(journal[0].path, DeliveryPath::kSdFallback);
  EXPECT_EQ(journal[0].status, Status::kOk);
  EXPECT_EQ(w.fetcher.fetches_failed(), 1u);
}

TEST(BitstreamDelivery, TotalOutageWithoutFallbackFailsCleanly) {
  NetWorld w(Simulator::Mode::kScheduled, 0x5EED, fast_fail_config());
  w.publish("sobel.pbit", 10'000, 17);
  NetBitstreamSource net_src(w.fetcher);
  BitstreamDelivery delivery(w.soc.cpu());
  delivery.set_primary(&net_src);

  w.soc.net_link().set_down(true);
  u32 bytes = 0;
  EXPECT_EQ(delivery.fetch("sobel.pbit", kDest, 1 << 20, &bytes),
            Status::kTimeout);
  EXPECT_EQ(delivery.failures(), 1u);
  const auto journal = delivery.journal();
  ASSERT_EQ(journal.size(), 1u);
  EXPECT_EQ(journal[0].path, DeliveryPath::kFailed);
  EXPECT_EQ(journal[0].status, Status::kTimeout);
}

// ---------------------------------------------------------------------
// Full stack: DprManager staging remote modules over the lossy link
// ---------------------------------------------------------------------

/// SoC + DprManager whose modules live on the repository server.
struct RemoteWorld : NetWorld {
  explicit RemoteWorld(Simulator::Mode mode = Simulator::Mode::kScheduled,
                       u64 fault_seed = 0x5EED)
      : NetWorld(mode, fault_seed), net_src(fetcher), stack(soc, parts(), &fi) {
    stack.delivery()->set_primary(&net_src);
    publish_module("sobel.pbit", accel::kRmIdSobel);
    publish_module("median.pbit", accel::kRmIdMedian);
    EXPECT_EQ(mgr.register_remote("sobel", accel::kRmIdSobel, "sobel.pbit"),
              Status::kOk);
    EXPECT_EQ(
        mgr.register_remote("median", accel::kRmIdMedian, "median.pbit"),
        Status::kOk);
  }

  static driver::Stack::Parts parts() {
    driver::Stack::Parts p;
    p.cache = BitstreamCache::Config{};
    return p;
  }

  void publish_module(const char* image, u32 rm_id) {
    soc.net_server().add_image(
        image, bitstream::generate_partial_bitstream(soc.device(), soc.rp0(),
                                                     {rm_id, image}));
  }

  NetBitstreamSource net_src;
  driver::Stack stack;
  DprManager& mgr = stack.manager();
};

TEST(RemoteDpr, RemoteModulesActivateOverLossyLink) {
  RemoteWorld w;
  w.fi.arm(sites::kNetDrop, 0, 0.03);
  w.fi.arm(sites::kNetCorrupt, 0, 0.01);
  ASSERT_EQ(w.mgr.activate("sobel"), Status::kOk);
  EXPECT_EQ(w.mgr.active_module(), "sobel");
  EXPECT_TRUE(
      w.soc.config_memory().partition_state(w.soc.rp0_handle()).loaded);
  ASSERT_EQ(w.mgr.activate("median"), Status::kOk);
  ASSERT_EQ(w.mgr.activate("sobel"), Status::kOk);  // staged image reused
  EXPECT_EQ(w.mgr.stats().reconfigurations, 3u);
  EXPECT_EQ(w.mgr.stats().staging_loads, 2u);
  EXPECT_EQ(w.mgr.stats().staging_hits, 1u);
  // The link really was lossy and the fetcher really recovered.
  EXPECT_GT(w.soc.net_link().dropped() + w.soc.net_link().corrupted(), 0u);
  EXPECT_EQ(w.fetcher.fetches_ok(), 2u);
  EXPECT_EQ(w.fetcher.fetches_failed(), 0u);
}

TEST(RemoteDpr, DetachedSourceFailsRemoteStaging) {
  RemoteWorld w;
  w.mgr.attach_source(nullptr);
  EXPECT_EQ(w.mgr.activate("sobel"), Status::kInternal);
}

TEST(NetKernelEquivalence, RemoteReconfigOverLossyLinkIsIdentical) {
  RemoteWorld flat(Simulator::Mode::kFlat);
  RemoteWorld sched(Simulator::Mode::kScheduled);
  for (RemoteWorld* w : {&flat, &sched}) {
    w->fi.arm(sites::kNetDrop, 0, 0.05);
    w->fi.arm(sites::kNetCorrupt, 0, 0.01);
  }
  ASSERT_EQ(flat.mgr.activate("sobel"), Status::kOk);
  ASSERT_EQ(sched.mgr.activate("sobel"), Status::kOk);
  EXPECT_EQ(flat.soc.sim().now(), sched.soc.sim().now());
  EXPECT_EQ(flat.soc.icap().words_consumed(),
            sched.soc.icap().words_consumed());
  EXPECT_EQ(flat.soc.net_link().dropped(), sched.soc.net_link().dropped());
  EXPECT_EQ(flat.fetcher.chunk_retries(), sched.fetcher.chunk_retries());
  EXPECT_EQ(flat.fi.total_fires(), sched.fi.total_fires());
  // Both kernels must see the same golden module land.
  EXPECT_TRUE(
      flat.soc.config_memory().partition_state(flat.soc.rp0_handle()).loaded);
  EXPECT_TRUE(sched.soc.config_memory()
                  .partition_state(sched.soc.rp0_handle())
                  .loaded);
}

}  // namespace
}  // namespace rvcap
