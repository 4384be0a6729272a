// Networked delivery study: chunk-loss rate x cache sweep over the
// fault-tolerant acquisition path (DESIGN.md §12).
//
// Each cell drives queued reconfigurations through the full stack —
// ReconfigService -> DprManager -> BitstreamDelivery (verified cache ->
// NetFetcher over the lossy NetLink) — and reports the fetch success
// rate, the retry/timeout/CRC recovery work, and the p50/p99 T_fetch
// against the injected loss rate. A deliberately small staging-slot
// pool forces evictions so later activations re-acquire their image,
// which is where the cache-on/cache-off comparison shows. The headline
// cell queues 100 reconfigurations over a 5% drop + 1% corrupt link and
// must complete every one; the outage cell runs with the link hard
// down and must shed cleanly (every accepted request reaches a
// terminal state, none hangs). Emits BENCH_net.json (override with
// BENCH_NET_JSON) and exits non-zero if any accepted request ends
// non-terminal or a lossy-link fetch ultimately fails.
//
// `bench_net --trace[=path]` skips the sweep and instead captures one
// lossy delivery cell with the trace sink enabled, writing a
// Perfetto-loadable Chrome trace (default net_trace.json) whose Net
// track carries the frame/retry/breaker/cache events; CI lints it with
// `trace-lint --require=Net`.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "driver/stack.hpp"
#include "net/net_fetcher.hpp"
#include "sim/fault_injector.hpp"

using namespace rvcap;
namespace sites = sim::fault_sites;

namespace {

using driver::ReconfigService;
using State = ReconfigService::RequestState;

struct Cell {
  const char* label;
  double loss = 0.0;     // per-frame drop probability
  double corrupt = 0.0;  // per-data-frame bit-corrupt probability
  bool cache = true;     // attach the verified DDR cache
  bool link_down = false;
  u32 requests = 0;
};

// The net source with a stopwatch: every successful fetch's latency on
// the simulated clock becomes one T_fetch sample, so the percentiles
// are exact nearest-rank values rather than log2-bucket estimates.
class TimedNetSource : public driver::NetBitstreamSource {
 public:
  TimedNetSource(cpu::CpuContext& cpu, net::NetFetcher& fetcher)
      : NetBitstreamSource(fetcher), cpu_(cpu) {}

  Status fetch(std::string_view image, Addr dest, u32 capacity,
               u32* bytes_out) override {
    const Cycles t0 = cpu_.now();
    const Status st =
        NetBitstreamSource::fetch(image, dest, capacity, bytes_out);
    if (ok(st)) samples_.push_back(cpu_.now() - t0);
    return st;
  }

  const std::vector<Cycles>& samples() const { return samples_; }

 private:
  cpu::CpuContext& cpu_;
  std::vector<Cycles> samples_;
};

/// Nearest-rank quantile: the smallest sample x with at least
/// ceil(p * n) samples <= x; 0 for an empty set.
Cycles nearest_rank(std::vector<Cycles> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<usize>(
      std::ceil(p * static_cast<double>(v.size()) - 1e-9));
  return v[std::clamp<usize>(rank, 1, v.size()) - 1];
}

struct CellResult {
  u32 offered = 0;
  u64 accepted = 0;
  u64 completed = 0;
  u64 failed = 0;
  u64 shed = 0;
  u64 fetches_ok = 0;
  u64 fetches_failed = 0;
  u64 retries = 0;
  u64 timeouts = 0;
  u64 crc_errors = 0;
  u64 cache_hits = 0;
  u64 cache_poisoned = 0;
  u64 delivery_failures = 0;
  u64 breaker_trips = 0;
  double success_rate = 1.0;  // fetches_ok / attempted fetches
  double p50_fetch_kcyc = 0;  // nearest-rank successful-fetch latency
  double p99_fetch_kcyc = 0;
  bool all_terminal = true;
};

CellResult run_cell(const Cell& cell, u64 seed,
                    const char* trace_path = nullptr) {
  soc::SocConfig scfg;
  scfg.with_net = true;
  soc::ArianeSoc soc(scfg);
  sim::FaultInjector fi(seed);

  net::NetFetcher::Config fcfg;
  if (cell.link_down) {
    // The outage cell only measures the degradation machinery; short
    // timeouts keep the simulated dead air bounded.
    fcfg.response_timeout = 2'000;
    fcfg.retry = RetryPolicy{2, 500, 2'000, 0};
    fcfg.breaker_cooldown = 20'000;
  }
  net::NetFetcher fetcher(soc.cpu(), soc.net_link(), fcfg);
  TimedNetSource net_src(soc.cpu(), fetcher);

  // Two staging slots under three modules: the LRU thrash forces later
  // activations back through the delivery chain.
  driver::Stack::Parts parts;
  parts.manager.num_slots = 2;
  parts.service.queue_capacity = 4;
  if (cell.cache) parts.cache = driver::BitstreamCache::Config{};
  driver::Stack stack(bench::trace_all(soc, trace_path != nullptr), parts,
                      &fi);
  driver::BitstreamDelivery& delivery = *stack.delivery();
  delivery.set_primary(&net_src);
  driver::DprManager& mgr = stack.manager();

  const u32 rm_ids[] = {accel::kRmIdSobel, accel::kRmIdMedian,
                        accel::kRmIdGaussian};
  std::vector<std::string> mods;
  for (u32 i = 0; i < 3; ++i) {
    const std::string name = "m" + std::to_string(i);
    const std::string image = name + ".pbit";
    soc.net_server().add_image(
        image, bitstream::generate_partial_bitstream(
                   soc.device(), soc.rp0(), {rm_ids[i], name}));
    if (!ok(mgr.register_remote(name, rm_ids[i], image))) return {};
    mods.push_back(name);
  }

  if (cell.loss > 0.0) fi.arm(sites::kNetDrop, 0, cell.loss);
  if (cell.corrupt > 0.0) fi.arm(sites::kNetCorrupt, 0, cell.corrupt);
  if (cell.link_down) soc.net_link().set_down(true);

  ReconfigService& svc = stack.service();

  SplitMix64 rng(seed ^ 0x0BEEF);
  CellResult r;
  constexpr u32 kBurst = 4;
  for (u32 submitted = 0; submitted < cell.requests;) {
    for (u32 i = 0; i < kBurst && submitted < cell.requests; ++i) {
      ReconfigService::ActivationRequest req;
      req.module = mods[rng.next_below(mods.size())];
      req.priority = static_cast<u32>(rng.next_below(8));
      req.client_id = submitted;
      req.deadline_mtime = 0;  // delivery time dominates; no deadlines
      svc.submit(req);
      ++submitted;
      ++r.offered;
    }
    svc.drain();
  }

  const auto& st = svc.stats();
  r.accepted = st.accepted;
  r.completed = st.completed;
  r.failed = st.failed;
  r.shed = st.shed + st.rejected_full;
  r.fetches_ok = fetcher.fetches_ok();
  r.fetches_failed = fetcher.fetches_failed();
  r.retries = fetcher.chunk_retries();
  r.timeouts = fetcher.chunk_timeouts();
  r.crc_errors = fetcher.chunk_crc_errors();
  if (const driver::BitstreamCache* cache = stack.cache()) {
    r.cache_hits = cache->hits();
    r.cache_poisoned = cache->poisoned();
  }
  r.delivery_failures = delivery.failures();
  r.breaker_trips = fetcher.breaker_trips();
  const u64 attempted = r.fetches_ok + r.fetches_failed;
  r.success_rate =
      attempted == 0
          ? 1.0
          : static_cast<double>(r.fetches_ok) / static_cast<double>(attempted);

  r.p50_fetch_kcyc =
      static_cast<double>(nearest_rank(net_src.samples(), 0.50)) / 1000.0;
  r.p99_fetch_kcyc =
      static_cast<double>(nearest_rank(net_src.samples(), 0.99)) / 1000.0;

  // Every accepted request must have reached exactly one terminal state.
  for (const auto& rec : svc.history()) {
    if (rec.state == State::kQueued || rec.state == State::kActive) {
      r.all_terminal = false;
    }
  }
  u64 terminal_of_accepted = st.completed + st.failed + st.shed +
                             st.cancelled;
  for (const auto& rec : svc.history()) {
    if (rec.state == State::kDeadlineMissed &&
        rec.done_mtime > rec.submit_mtime) {
      ++terminal_of_accepted;
    }
  }
  if (terminal_of_accepted != st.accepted) r.all_terminal = false;

  if (trace_path != nullptr && !bench::write_trace(soc, trace_path)) {
    r.all_terminal = false;
  }
  return r;
}

// ------------------------------------------------------------------
// --trace mode: capture one lossy delivery cell as a Chrome trace
// ------------------------------------------------------------------

int run_trace_capture(const char* path) {
  if (!bench::begin_trace_capture(
          "Traced lossy networked delivery -> Chrome trace JSON")) {
    return 1;
  }
  const Cell cell{"trace-5%", 0.05, 0.01, /*cache=*/true,
                  /*link_down=*/false, 2};
  const CellResult r = run_cell(cell, 0xF7C4'CA9, path);
  if (!r.all_terminal || r.completed == 0 || r.fetches_failed != 0) {
    std::printf("  ERROR: traced delivery run did not complete cleanly\n");
    return 1;
  }
  std::printf("  %llu reconfigurations completed over the 5%% drop + 1%% "
              "corrupt link (%llu fetches, %llu chunk retries)\n",
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.fetches_ok),
              static_cast<unsigned long long>(r.retries));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* trace_path = bench::trace_arg(argc, argv, "net_trace.json");
  if (trace_path != nullptr) return run_trace_capture(trace_path);

  bench::print_header(
      "NET: chunk-loss x cache sweep over networked bitstream delivery");

  constexpr u64 kSeed = 0xF7C4'CA9;
  // BENCH_NET_QUICK trims the sweep for CI smoke runs; the recorded
  // EXPERIMENTS.md table comes from a full local run.
  const bool quick = std::getenv("BENCH_NET_QUICK") != nullptr;
  const u32 sweep = quick ? 6 : 12;
  const u32 headline = quick ? 12 : 100;

  const Cell cells[] = {
      {"clean", 0.00, 0.00, /*cache=*/false, false, sweep},
      {"loss-2%", 0.02, 0.004, /*cache=*/false, false, sweep},
      {"loss-5%", 0.05, 0.01, /*cache=*/false, false, sweep},
      {"loss-10%", 0.10, 0.02, /*cache=*/false, false, sweep},
      {"loss-5%+cache", 0.05, 0.01, /*cache=*/true, false, sweep},
      {"headline-5%", 0.05, 0.01, /*cache=*/true, false, headline},
      {"link-down", 0.00, 0.00, /*cache=*/true, /*link_down=*/true, 6},
  };

  std::printf("\n%14s %5s %5s | %4s %4s %4s | %4s %4s %4s %4s | %5s |"
              " %9s %9s\n",
              "cell", "loss", "cache", "off", "done", "fail", "f.ok",
              "f.no", "rtry", "crc", "rate", "p50(kcyc)", "p99(kcyc)");

  bool all_terminal = true;
  bool lossy_fetches_ok = true;
  std::string json = "{\n  \"cells\": [\n";
  bool first = true;
  for (const Cell& cell : cells) {
    const CellResult r = run_cell(cell, kSeed);
    if (!r.all_terminal) all_terminal = false;
    // On a lossy-but-up link every fetch must ultimately succeed; only
    // the scripted outage cell is allowed to fail deliveries.
    if (!cell.link_down && r.fetches_failed != 0) lossy_fetches_ok = false;
    std::printf("%14s %5.2f %5s | %4u %4llu %4llu | %4llu %4llu %4llu "
                "%4llu | %5.2f | %9.1f %9.1f\n",
                cell.label, cell.loss, cell.cache ? "yes" : "no", r.offered,
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.fetches_ok),
                static_cast<unsigned long long>(r.fetches_failed),
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.crc_errors),
                r.success_rate, r.p50_fetch_kcyc, r.p99_fetch_kcyc);
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "%s    {\"cell\": \"%s\", \"loss\": %.3f, \"corrupt\": %.3f, "
        "\"cache\": %s, \"link_down\": %s, \"offered\": %u, "
        "\"accepted\": %llu, \"completed\": %llu, \"failed\": %llu, "
        "\"shed\": %llu, \"fetches_ok\": %llu, \"fetches_failed\": %llu, "
        "\"chunk_retries\": %llu, \"chunk_timeouts\": %llu, "
        "\"chunk_crc_errors\": %llu, \"cache_hits\": %llu, "
        "\"delivery_failures\": %llu, \"breaker_trips\": %llu, "
        "\"fetch_success_rate\": %.3f, \"p50_fetch_kcycles\": %.1f, "
        "\"p99_fetch_kcycles\": %.1f}",
        first ? "" : ",\n", cell.label, cell.loss, cell.corrupt,
        cell.cache ? "true" : "false", cell.link_down ? "true" : "false",
        r.offered, static_cast<unsigned long long>(r.accepted),
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.failed),
        static_cast<unsigned long long>(r.shed),
        static_cast<unsigned long long>(r.fetches_ok),
        static_cast<unsigned long long>(r.fetches_failed),
        static_cast<unsigned long long>(r.retries),
        static_cast<unsigned long long>(r.timeouts),
        static_cast<unsigned long long>(r.crc_errors),
        static_cast<unsigned long long>(r.cache_hits),
        static_cast<unsigned long long>(r.delivery_failures),
        static_cast<unsigned long long>(r.breaker_trips), r.success_rate,
        r.p50_fetch_kcyc, r.p99_fetch_kcyc);
    json += buf;
    first = false;
  }
  json += "\n  ],\n  \"all_accepted_terminal\": ";
  json += all_terminal ? "true" : "false";
  json += ",\n  \"lossy_link_fetches_all_succeeded\": ";
  json += lossy_fetches_ok ? "true" : "false";
  json += "\n}";

  bench::write_ledger(json + "\n", "BENCH_NET_JSON", "BENCH_net.json");
  std::printf("\n--- JSON report ---\n%s\n", json.c_str());

  if (!all_terminal) {
    std::printf("\nERROR: an accepted request never reached a terminal "
                "state\n");
    return 1;
  }
  if (!lossy_fetches_ok) {
    std::printf("\nERROR: a fetch over a lossy-but-up link ultimately "
                "failed\n");
    return 1;
  }
  std::printf(
      "\nevery accepted reconfiguration reached a terminal state; on the\n"
      "lossy-but-up links every image was ultimately delivered intact\n"
      "(per-chunk CRC + bounded retry), and the hard outage degraded\n"
      "cleanly instead of wedging the queue.\n");
  bench::print_footnote();
  return 0;
}
