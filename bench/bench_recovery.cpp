// Power-loss recovery study: reset-anywhere crash points x journal
// damage modes over the persistent intent journal and the cold-boot
// RecoveryManager (DESIGN.md §15).
//
// Each cell provisions a FAT32 SD card (three golden module images +
// a zeroed journal tail), boots the full SoC stack over it, offers the
// canonical three-activation workload, and collapses the supply at a
// chosen fraction of the workload's span — pre-staging, mid-DMA,
// mid-commit, post-workload — optionally with torn-sector and
// journal-corruption fault sites armed. The SoC object is then
// discarded (DDR, fabric and driver state are volatile) and a second
// boot over the SAME card runs RecoveryManager::recover(). The sweep
// reports journal health (records, torn tail cells, corrupt records),
// the slot verdict, reload/replay/shed work and the reboot-to-ready
// cycle cost. Emits BENCH_recovery.json (override with
// BENCH_RECOVERY_JSON) and exits non-zero if any cell fails to
// converge to an all-slots-verified state.
//
// `bench_recovery --trace[=path]` skips the sweep and captures one
// mid-workload crash-and-recover cell with the trace sink enabled,
// writing a Perfetto-loadable Chrome trace (default
// recovery_trace.json) whose Recovery track carries the journal
// append/boot-scan/verdict/reload/ready events; CI lints it with
// `trace-lint --require=Recovery`.
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bitstream/generator.hpp"
#include "driver/recovery_manager.hpp"
#include "driver/stack.hpp"
#include "sim/fault_injector.hpp"
#include "sim/power_loss.hpp"
#include "storage/sd_card.hpp"

using namespace rvcap;
namespace sites = sim::fault_sites;

namespace {

using driver::ReconfigService;
using driver::RecoveryJournal;
using driver::RecoveryManager;

constexpr u32 kCardBlocks = 32768;  // 16 MiB card
constexpr u32 kJournalBlocks = 8;
constexpr u64 kSeed = 0xEC0'7E57;

fabric::Partition small_partition() {
  return fabric::Partition("RPA", {{0, 2}});
}

RecoveryJournal::Config journal_region() {
  return RecoveryJournal::region_for(kCardBlocks, kJournalBlocks);
}

struct Cell {
  const char* label;
  double frac;          // power-loss point as a fraction of the span
  bool torn = true;     // sd.write.torn armed
  bool corrupt = false; // journal.corrupt armed
};

struct CellResult {
  u64 trip_cycle = 0;
  u32 records = 0;
  u32 torn_cells = 0;
  u32 corrupt_records = 0;
  u32 verdict = 0;      // SlotVerdict of slot 0
  u32 reloads = 0;
  u32 quarantined = 0;
  u32 replayed = 0;
  u32 shed = 0;
  u64 ready_cycles = 0;
  bool recovered = false;
};

// Provision the surviving card: FAT32 volume + golden images + journal.
void provision(storage::SdCard& card) {
  storage::MemBlockIo io(card);
  storage::Fat32FormatParams p;
  p.reserved_tail_blocks = kJournalBlocks;
  (void)storage::fat32_format(io, p);
  storage::Fat32Volume vol(io);
  (void)vol.mount();
  const fabric::DeviceGeometry dev = fabric::DeviceGeometry::kintex7_325t();
  const fabric::Partition part = small_partition();
  for (u32 id : {40u, 41u, 42u}) {
    const auto pbit =
        bitstream::generate_partial_bitstream(dev, part, {id, "m"});
    (void)vol.write_file("M" + std::to_string(id) + ".PB", pbit);
  }
  RecoveryJournal j(io, journal_region());
  (void)j.reset();
}

// One boot of the full stack over the surviving card: SD-backed
// modules on a small partition, the intent journal on the card's tail.
struct Boot {
  Boot(storage::SdCard& card, sim::FaultInjector* fi, bool traced)
      : soc([&] {
          soc::SocConfig cfg;
          cfg.external_sd = &card;
          return cfg;
        }()),
        stack(bench::trace_all(soc, traced), parts(), fi, &rp) {
    for (u32 id : {40u, 41u, 42u}) {
      (void)stack.manager().register_module(
          "m" + std::to_string(id), id, "M" + std::to_string(id) + ".PB");
    }
  }

  static driver::Stack::Parts parts() {
    driver::Stack::Parts p;
    p.manager.slot_bytes = 64 * 1024;
    p.manager.num_slots = 2;
    p.journal = journal_region();
    return p;
  }

  void request(u32 rm_id) {
    ReconfigService::ActivationRequest req;
    req.module = "m" + std::to_string(rm_id);
    req.priority = 1;
    if (ok(stack.service().submit(req))) stack.service().drain();
  }

  const fabric::Partition rp = small_partition();
  soc::ArianeSoc soc;
  driver::Stack stack;
};

void workload(Boot& b) {
  b.request(40);
  b.request(41);
  b.request(42);
}

// The baseline workload span (no power loss), measured once.
u64 baseline_span() {
  storage::SdCard card(kCardBlocks);
  provision(card);
  Boot b(card, nullptr, false);
  if (!b.stack.storage_ready()) return 0;
  workload(b);
  return b.soc.sim().now();
}

CellResult run_cell(const Cell& cell, u64 span,
                    const char* trace_path = nullptr) {
  CellResult r;
  storage::SdCard card(kCardBlocks);
  provision(card);

  // Crash boot.
  sim::FaultInjector fi(kSeed);
  if (cell.torn) fi.arm(sites::kSdWriteTorn, 1000);
  if (cell.corrupt) fi.arm(sites::kJournalCorrupt, 2);
  {
    Boot b(card, &fi, false);
    if (!b.stack.storage_ready()) return r;
    sim::PowerLoss power;
    b.soc.sim().add(&power);
    power.on_trip([&] { card.power_fail(); });
    const Cycles trip =
        static_cast<Cycles>(static_cast<double>(span) * cell.frac);
    power.arm_at(trip);
    workload(b);
    if (!power.tripped()) {
      const Cycles now = b.soc.sim().now();
      b.soc.sim().run_cycles(trip > now ? trip - now + 1 : 1);
    }
    r.trip_cycle = power.trip_cycle();
  }  // SoC destroyed: DDR/fabric/driver state gone, only the card survives

  // Recovery boot.
  card.power_on();
  Boot b(card, nullptr, trace_path != nullptr);
  if (!b.stack.storage_ready()) return r;
  RecoveryManager rman(b.soc.cpu(), *b.stack.journal());
  rman.add_slot(0, &b.stack.manager(), &b.stack.service());
  RecoveryManager::Report rep;
  const Status st = rman.recover(&rep);
  r.records = rep.journal.valid_records;
  r.torn_cells = rep.journal.torn_tail_cells;
  r.corrupt_records = rep.journal.corrupt_records;
  r.verdict = rep.slots.empty()
                  ? 0
                  : static_cast<u32>(rep.slots[0].verdict);
  r.reloads = rep.golden_reloads;
  r.quarantined = rep.quarantined;
  r.replayed = rep.replayed_requests;
  r.shed = rep.shed_requests;
  r.ready_cycles = rep.ready_cycles;
  r.recovered = ok(st) && rep.all_verified;

  if (trace_path != nullptr && !bench::write_trace(b.soc, trace_path)) {
    r.recovered = false;
  }
  return r;
}

// ------------------------------------------------------------------
// --trace mode: capture one crash-and-recover cell as a Chrome trace
// ------------------------------------------------------------------

int run_trace_capture(const char* path) {
  if (!bench::begin_trace_capture(
          "Traced power-loss recovery -> Chrome trace JSON")) {
    return 1;
  }
  const u64 span = baseline_span();
  if (span == 0) {
    std::printf("  ERROR: baseline workload did not run\n");
    return 1;
  }
  const Cell cell{"trace", 0.55, true, false};
  const CellResult r = run_cell(cell, span, path);
  if (!r.recovered) {
    std::printf("  ERROR: traced recovery did not converge\n");
    return 1;
  }
  std::printf("  crash at cycle %llu -> %u journal records, verdict %u, "
              "%u golden reloads, ready in %llu cycles\n",
              static_cast<unsigned long long>(r.trip_cycle), r.records,
              r.verdict, r.reloads,
              static_cast<unsigned long long>(r.ready_cycles));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* trace_path = bench::trace_arg(argc, argv, "recovery_trace.json");
  if (trace_path != nullptr) return run_trace_capture(trace_path);

  bench::print_header(
      "RECOVERY: reset-anywhere crash points x journal damage over the "
      "intent journal + cold-boot recovery manager");

  const u64 span = baseline_span();
  if (span == 0) {
    std::printf("ERROR: baseline workload did not run\n");
    return 1;
  }
  std::printf("\nbaseline workload span: %llu cycles\n",
              static_cast<unsigned long long>(span));

  // BENCH_RECOVERY_QUICK trims the sweep for CI smoke runs; the
  // recorded EXPERIMENTS.md table comes from a full local run.
  const bool quick = std::getenv("BENCH_RECOVERY_QUICK") != nullptr;

  std::vector<Cell> cells = {
      {"pre-staging", 0.05},
      {"mid-stage", 0.30},
      {"mid-dma", 0.55},
      {"mid-commit", 0.80},
      {"post-workload", 1.05},
  };
  if (!quick) {
    cells.push_back({"mid-dma-corrupt", 0.55, true, true});
    cells.push_back({"mid-commit-corrupt", 0.80, true, true});
    cells.push_back({"pre-staging-notorn", 0.05, false, false});
  }

  std::printf("\n%20s %10s | %4s %4s %4s | %4s %4s %4s %4s %4s | %9s %s\n",
              "cell", "trip", "rec", "torn", "corr", "verd", "rld", "quar",
              "rply", "shed", "ready", "ok");

  bool all_recovered = true;
  std::string json = "{\n  \"workload_span_cycles\": " +
                     std::to_string(span) + ",\n  \"cells\": [\n";
  bool first = true;
  for (const Cell& cell : cells) {
    const CellResult r = run_cell(cell, span);
    if (!r.recovered) all_recovered = false;
    std::printf("%20s %10llu | %4u %4u %4u | %4u %4u %4u %4u %4u | %9llu %s\n",
                cell.label, static_cast<unsigned long long>(r.trip_cycle),
                r.records, r.torn_cells, r.corrupt_records, r.verdict,
                r.reloads, r.quarantined, r.replayed, r.shed,
                static_cast<unsigned long long>(r.ready_cycles),
                r.recovered ? "yes" : "NO");
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s    {\"cell\": \"%s\", \"trip_frac\": %.2f, "
        "\"trip_cycle\": %llu, \"journal_records\": %u, "
        "\"torn_tail_cells\": %u, \"corrupt_records\": %u, "
        "\"slot_verdict\": %u, \"golden_reloads\": %u, "
        "\"quarantined\": %u, \"replayed\": %u, \"shed\": %u, "
        "\"ready_cycles\": %llu, \"recovered\": %s}",
        first ? "" : ",\n", cell.label, cell.frac,
        static_cast<unsigned long long>(r.trip_cycle), r.records,
        r.torn_cells, r.corrupt_records, r.verdict, r.reloads, r.quarantined,
        r.replayed, r.shed, static_cast<unsigned long long>(r.ready_cycles),
        r.recovered ? "true" : "false");
    json += buf;
    first = false;
  }
  json += "\n  ],\n  \"all_recovered\": ";
  json += all_recovered ? "true" : "false";
  json += "\n}";

  bench::write_ledger(json, "BENCH_RECOVERY_JSON", "BENCH_recovery.json");

  if (!all_recovered) {
    std::printf("\nERROR: a reboot left a slot unverified — power-loss "
                "safety violated\n");
    return 1;
  }
  std::printf("\nevery reboot converged to an all-slots-verified state\n");
  return 0;
}
