#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>

#include "accel/filters.hpp"
#include "accel/fir_filter.hpp"
#include "accel/rm_slot.hpp"
#include "accel/stream_cipher.hpp"
#include "bitstream/generator.hpp"
#include "bitstream/parser.hpp"
#include "bitstream/relocate.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "driver/bitstream_source.hpp"
#include "driver/dpr_manager.hpp"
#include "driver/placement_engine.hpp"
#include "driver/reconfig_service.hpp"
#include "driver/rvcap_driver.hpp"
#include "driver/slot_scheduler.hpp"
#include "net/net_fetcher.hpp"
#include "sim/fault_injector.hpp"
#include "stats.hpp"

namespace rvcap::perfbench {
namespace {

using driver::DmaMode;
using driver::DprManager;

constexpr u32 kFilterRms[3] = {accel::kRmIdSobel, accel::kRmIdMedian,
                               accel::kRmIdGaussian};
constexpr Addr kGoldenBase = 0xA000'0000;  // + i MiB: staged RM images
/// Size of the case-study RP's partial bitstream (paper §IV-B).
constexpr u32 kCaseStudyPbitBytes = 650'892;

std::string rm_name(u32 rm_id) {
  return std::string(to_string(accel::rm_id_to_kind(rm_id)));
}

std::vector<u8> case_study_image(soc::ArianeSoc& soc, u32 rm_id,
                                 const std::string& name) {
  return bitstream::generate_partial_bitstream(soc.device(), soc.rp0(),
                                               {rm_id, name});
}

/// Seeded Fisher-Yates shuffle (std::shuffle's output is not portable).
template <typename T>
void shuffle(std::vector<T>& v, SplitMix64& rng) {
  for (usize i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

/// The configuration frames a generated image of `rm_id` writes into
/// `part`, in partition column order: the hashed payload with the RM
/// manifest in the first words of frame 0 (bitstream/generator.cpp).
std::vector<u32> expected_frames(const fabric::DeviceGeometry& dev,
                                 const fabric::Partition& part, u32 rm_id) {
  std::vector<u32> out;
  u32 frame = 0;
  for (const auto& col : part.columns()) {
    for (u32 f = 0; f < dev.frames_in_column(col.column); ++f, ++frame) {
      for (u32 w = 0; w < fabric::kFrameWords; ++w) {
        out.push_back(bitstream::payload_word(rm_id, frame, w,
                                              bitstream::FrameFill::kHashed));
      }
    }
  }
  fabric::RmManifest{rm_id, frame}.encode(std::span(out).subspan(0, 4));
  return out;
}

bool frames_match(const fabric::ConfigMemory& cm,
                  const fabric::Partition& part,
                  std::span<const u32> want) {
  usize off = 0;
  for (const auto& col : part.columns()) {
    for (u32 f = 0; f < cm.device().frames_in_column(col.column); ++f) {
      const std::vector<u32>* got = cm.frame({col.row, col.column, f});
      if (got == nullptr || off + fabric::kFrameWords > want.size() ||
          !std::equal(got->begin(), got->end(), want.begin() + off)) {
        return false;
      }
      off += fabric::kFrameWords;
    }
  }
  return off == want.size();
}

bool rp_holds(soc::ArianeSoc& soc, usize handle, u32 rm_id) {
  const auto ps = soc.config_memory().partition_state(handle);
  return ps.loaded && ps.rm_id == rm_id;
}

u64 loads(soc::ArianeSoc& soc, usize handle) {
  return soc.config_memory().partition_state(handle).loads_completed;
}

/// Records a failed check. Only ops of the timed batch count as failed
/// ops; any failure, in setup and warm-up too, makes the run incorrect.
void fail(RepResult& r, const std::string& why, bool counted = true) {
  if (counted) ++r.failed;
  if (r.first_error.empty()) r.first_error = why;
}

// ------------------------------------------------------------------
// dma_reconfig: back-to-back Listing-1 reconfigurations (paper §IV-B)
// ------------------------------------------------------------------

RepResult run_dma_reconfig(u64 seed, SpanLog* spans) {
  constexpr u32 kOps = 100;
  constexpr Addr kStaging = soc::MemoryMap::kPbitStagingBase;
  RepResult r;

  const Clock::time_point t0 = Clock::now();
  auto soc = std::make_unique<soc::ArianeSoc>();
  driver::RvCapDriver drv(soc->cpu(), soc->plic());
  std::vector<driver::ReconfigModule> mods;
  std::vector<std::vector<u32>> golden;
  for (u32 i = 0; i < 3; ++i) {
    const u32 rm = kFilterRms[i];
    const std::vector<u8> pbit = case_study_image(*soc, rm, rm_name(rm));
    const Addr addr = kStaging + u64{i} * 0x0010'0000;
    soc->ddr().poke(addr, pbit);
    mods.push_back({rm_name(rm), rm, addr, static_cast<u32>(pbit.size())});
    golden.push_back(expected_frames(soc->device(), soc->rp0(), rm));
  }
  SplitMix64 rng(seed ^ 0xD3A7'2EC0ull);
  std::vector<u32> seq(kOps + 1);
  for (u32& m : seq) m = static_cast<u32>(rng.next_below(3));

  auto reconfig = [&](u32 op, bool timed) {
    SpanLog* const trace = timed ? spans : nullptr;  // warm-up: untraced
    const driver::ReconfigModule& m = mods[seq[op]];
    const u64 loads0 = loads(*soc, soc->rp0_handle());
    const u64 c0 = soc->sim().now();
    const Clock::time_point h0 = Clock::now();
    Status st;
    {
      ScopedSpan s(trace, "driver.init_reconfig_process");
      st = drv.init_reconfig_process(m, DmaMode::kInterrupt);
    }
    if (timed) r.timed_s += seconds_since(h0);
    const u64 cycles = soc->sim().now() - c0;
    ScopedSpan s(trace, "check");
    if (!ok(st)) {
      fail(r, "init_reconfig_process failed", timed);
    } else if (!rp_holds(*soc, soc->rp0_handle(), m.rm_id) ||
               loads(*soc, soc->rp0_handle()) != loads0 + 1) {
      fail(r, "RP not loaded with the expected RM", timed);
    } else if (!frames_match(soc->config_memory(), soc->rp0(),
                             golden[seq[op]])) {
      fail(r, "RP frames differ from the staged image", timed);
    }
    return cycles;
  };

  reconfig(kOps, /*timed=*/false);  // warm-up (the seeded extra entry)
  r.setup_s = seconds_since(t0);

  const CounterSnapshot before(*soc);
  for (u32 op = 0; op < kOps; ++op) {
    if (spans != nullptr) spans->set_op(op);
    ScopedSpan s(spans, "op");
    ++r.attempted;
    r.latency_cycles.push_back(reconfig(op, /*timed=*/true));
    r.sim_span_cycles += r.latency_cycles.back();
    r.td_ticks.push_back(drv.last_timing().decision_ticks);
    r.tr_ticks.push_back(drv.last_timing().reconfig_ticks);
    r.tr_ticks_sum += drv.last_timing().reconfig_ticks;
    r.reconfig_bytes += mods[seq[op]].pbit_size;
    ++r.reconfigs;
  }
  before.delta_into(*soc, CounterSnapshot(*soc), r);
  return r;
}

// ------------------------------------------------------------------
// image_pipeline: Table IV case study, one seeded filter per frame
// ------------------------------------------------------------------

RepResult run_image_pipeline(u64 seed, SpanLog* spans) {
  constexpr u32 kFrames = 120;  // a third keep the loaded filter
  constexpr u32 kImages = 4;
  constexpr u32 kSide = 512;
  constexpr u32 kBytes = kSide * kSide;
  constexpr Addr kInStride = 0x0004'0000;
  constexpr Addr kOut = soc::MemoryMap::kImageOutBase;
  RepResult r;

  const Clock::time_point t0 = Clock::now();
  auto soc = std::make_unique<soc::ArianeSoc>();
  driver::RvCapDriver drv(soc->cpu(), soc->plic());
  DprManager mgr(drv, soc->config_memory(), soc->rp0_handle(), nullptr);
  for (u32 i = 0; i < 3; ++i) {
    const u32 rm = kFilterRms[i];
    const std::vector<u8> pbit = case_study_image(*soc, rm, rm_name(rm));
    const Addr addr = kGoldenBase + u64{i} * 0x0010'0000;
    soc->ddr().poke(addr, pbit);
    if (!ok(mgr.register_staged(rm_name(rm), rm, addr,
                                static_cast<u32>(pbit.size())))) {
      fail(r, "register_staged failed", false);
      return r;
    }
  }

  SplitMix64 rng(seed ^ 0x1A6E'F11Dull);
  // golden[image][filter]: the software reference output.
  std::vector<std::vector<std::vector<u8>>> golden(kImages);
  for (u32 k = 0; k < kImages; ++k) {
    const accel::Image img = accel::make_test_image(kSide, kSide, rng.next());
    soc->ddr().poke(soc::MemoryMap::kImageInBase + k * kInStride, img.pixels);
    for (const u32 rm : kFilterRms) {
      golden[k].push_back(
          accel::apply_golden(accel::rm_id_to_kind(rm), img).pixels);
    }
  }
  // Exactly a third of the frames keep the filter already loaded; the
  // rest switch to one of the other two. Filter and image are seeded.
  std::vector<u8> stay(kFrames, 0);
  std::fill(stay.begin(), stay.begin() + kFrames / 3, 1);
  shuffle(stay, rng);
  std::vector<u32> filter(kFrames + 1), image(kFrames + 1);
  filter[kFrames] = static_cast<u32>(rng.next_below(3));  // warm-up
  image[kFrames] = static_cast<u32>(rng.next_below(kImages));
  u32 cur = filter[kFrames];
  for (u32 i = 0; i < kFrames; ++i) {
    filter[i] = stay[i] ? cur : (cur + 1 + static_cast<u32>(rng.next_below(2))) % 3;
    image[i] = static_cast<u32>(rng.next_below(kImages));
    cur = filter[i];
  }

  auto frame = [&](u32 op, bool timed) {
    SpanLog* const trace = timed ? spans : nullptr;  // warm-up: untraced
    const u32 rm = kFilterRms[filter[op]];
    const Addr in = soc::MemoryMap::kImageInBase + image[op] * kInStride;
    const u64 reconf0 = mgr.stats().reconfigurations;
    const u64 c0 = soc->sim().now();
    const Clock::time_point h0 = Clock::now();
    Status act, run;
    {
      ScopedSpan s(trace, "driver.activate");
      act = mgr.activate(rm_name(rm));
    }
    const u64 c1 = soc->sim().now();
    {
      ScopedSpan s(trace, "accel.run_accelerator");
      run = drv.run_accelerator(in, kBytes, kOut, kBytes,
                                DmaMode::kInterrupt);
    }
    if (timed) r.timed_s += seconds_since(h0);
    const u64 c2 = soc->sim().now();
    if (timed) {
      r.latency_cycles.push_back(c2 - c0);
      r.tc_cycles[rm].push_back(c2 - c1);
      if (mgr.stats().reconfigurations > reconf0) {
        r.td_ticks.push_back(drv.last_timing().decision_ticks);
        r.tr_ticks.push_back(drv.last_timing().reconfig_ticks);
      }
    }
    ScopedSpan s(trace, "check");
    std::vector<u8> out(kBytes);
    soc->ddr().peek(kOut, out);
    if (!ok(act) || !ok(run)) {
      fail(r, "activate/run_accelerator failed", timed);
    } else if (!rp_holds(*soc, soc->rp0_handle(), rm)) {
      fail(r, "RP not loaded with the selected filter", timed);
    } else if (out != golden[image[op]][filter[op]]) {
      fail(r, "accelerator output differs from apply_golden", timed);
    }
    // Clear the output so the next frame cannot pass on a stale image.
    std::fill(out.begin(), out.end(), 0);
    soc->ddr().poke(kOut, out);
  };

  frame(kFrames, /*timed=*/false);
  r.setup_s = seconds_since(t0);

  const CounterSnapshot before(*soc);
  const DprManager::Stats ms0 = mgr.stats();
  const u64 sim0 = soc->sim().now();
  for (u32 op = 0; op < kFrames; ++op) {
    if (spans != nullptr) spans->set_op(op);
    ScopedSpan s(spans, "op");
    ++r.attempted;
    frame(op, /*timed=*/true);
  }
  r.sim_span_cycles = soc->sim().now() - sim0;
  r.reconfigs = mgr.stats().reconfigurations - ms0.reconfigurations;
  r.reconfig_bytes = r.reconfigs * kCaseStudyPbitBytes;
  r.tr_ticks_sum = mgr.stats().total_reconfig_ticks - ms0.total_reconfig_ticks;
  before.delta_into(*soc, CounterSnapshot(*soc), r);
  return r;
}

// ------------------------------------------------------------------
// slot_serve: open-loop cipher/FIR tasks over a 2-slot scheduler
// ------------------------------------------------------------------

using driver::SlotScheduler;

struct SlotWorld {
  static constexpr u32 kSlots = 2;
  static constexpr u32 kChunk = 512;
  static constexpr Addr kRelocArena = 0x9400'0000;
  static constexpr Addr kCaptureArena = 0x9800'0000;
  static constexpr Addr kRestoreStaging = 0x9E00'0000;
  static constexpr Addr kCmdStaging = 0x9F00'0000;  // + slot * 0x10000
  static constexpr Addr kDataBase = 0xB000'0000;    // + task * 0x20000

  soc::ArianeSoc soc;
  driver::RvCapDriver drv;
  std::vector<std::unique_ptr<DprManager>> mgrs;
  std::vector<std::unique_ptr<driver::ReconfigService>> svcs;
  std::unique_ptr<driver::PlacementEngine> engine;
  std::unique_ptr<SlotScheduler> sched;

  explicit SlotWorld(usize queue_capacity)
      : soc([] {
          soc::SocConfig cfg;
          cfg.num_slots = kSlots;
          return cfg;
        }()),
        drv(soc.cpu(), soc.plic()) {
    for (u32 s = 0; s < kSlots; ++s) {
      DprManager::Config mc;
      mc.staging_base = 0x8E00'0000 + u64{s} * 0x0100'0000;
      mc.slot_id = s;
      mgrs.push_back(std::make_unique<DprManager>(
          drv, soc.config_memory(), soc.slot_handle(s), nullptr, mc));
      driver::ReconfigService::Config sc;
      sc.slot_id = s;
      svcs.push_back(
          std::make_unique<driver::ReconfigService>(*mgrs[s], sc));
    }
    driver::PlacementEngine::Config ec;
    ec.reloc_arena = kRelocArena;
    engine = std::make_unique<driver::PlacementEngine>(drv, soc.allocator(),
                                                       ec);
    SlotScheduler::Config cc;
    cc.queue_capacity = queue_capacity;
    cc.capture_arena = kCaptureArena;
    cc.capture_areas = 4;
    cc.restore_staging = kRestoreStaging;
    cc.default_chunk_bytes = kChunk;
    sched = std::make_unique<SlotScheduler>(drv, cc);
    for (u32 s = 0; s < kSlots; ++s) {
      sched->add_slot({s, svcs[s].get(), mgrs[s].get(), &soc.slot_rm(s),
                       &soc.config_memory(), soc.slot_handle(s),
                       kCmdStaging + u64{s} * 0x10000});
    }
    sched->attach_placement(engine.get());
  }

  /// Register a module once, against home region 0; the other slot is
  /// served by relocation.
  Status stage(const std::string& name, u32 rm_id, Addr addr) {
    const std::vector<u8> pbit = bitstream::generate_partial_bitstream(
        soc.device(), soc.slot_partition(0), {rm_id, name});
    soc.ddr().poke(addr, pbit);
    return engine->register_module(name, rm_id, /*home_region=*/0, addr,
                                   static_cast<u32>(pbit.size()));
  }

  u64 reconfigurations() const {
    u64 n = 0;
    for (const auto& m : mgrs) n += m->stats().reconfigurations;
    return n;
  }
  u64 reconfig_ticks() const {
    u64 n = 0;
    for (const auto& m : mgrs) n += m->stats().total_reconfig_ticks;
    return n;
  }
};

struct SlotTask {
  SlotScheduler::HwTask hw;
  SlotScheduler::TaskId id = 0;
  std::vector<u8> golden;
  u64 due = 0;  // cycles after the timed run starts
};

std::vector<u8> cipher_golden(std::span<const u8> plain, u64 key,
                              u32 chunk) {
  std::vector<u8> out(plain.size());
  for (u32 off = 0; off < plain.size(); off += chunk) {
    for (u32 beat = 0; beat < chunk / 8; ++beat) {
      u64 p = 0;
      std::memcpy(&p, plain.data() + off + beat * 8, 8);
      const u64 c = p ^ accel::StreamCipher::keystream(key, beat);
      std::memcpy(out.data() + off + beat * 8, &c, 8);
    }
  }
  return out;
}

std::vector<u8> fir_golden(std::span<const u8> in, u32 chunk) {
  const auto coeffs = accel::fir_passthrough_coeffs();
  std::vector<u8> out(in.size());
  std::vector<i16> samples(chunk / 2);
  for (u32 off = 0; off < in.size(); off += chunk) {
    std::memcpy(samples.data(), in.data() + off, chunk);
    const auto filtered = accel::fir_reference(samples, coeffs);
    std::memcpy(out.data() + off, filtered.data(), chunk);
  }
  return out;
}

SlotTask make_slot_task(SlotWorld& w, u32 i, bool fir, u32 chunks,
                        u32 priority, SplitMix64& rng) {
  constexpr u32 kChunk = SlotWorld::kChunk;
  SlotTask t;
  auto& hw = t.hw;
  hw.priority = priority;
  hw.client_id = i;
  hw.src = SlotWorld::kDataBase + u64{i} * 0x20000;
  hw.dst = hw.src + 0x10000;
  hw.total_bytes = chunks * kChunk;
  std::vector<u8> in(hw.total_bytes);
  for (u8& b : in) b = rng.next_byte();
  w.soc.ddr().poke(hw.src, in);
  if (fir) {
    hw.module = "fir";
    hw.rm_id = accel::kRmIdFir;
    const auto coeffs = accel::fir_passthrough_coeffs();
    for (u32 k = 0; k + 1 < coeffs.size(); k += 2) {
      const u32 lo = static_cast<u16>(coeffs[k]);
      const u32 hi = static_cast<u16>(coeffs[k + 1]);
      hw.setup_regs.push_back({k / 2, (hi << 16) | lo});
    }
    t.golden = fir_golden(in, kChunk);
  } else {
    const u64 key = rng.next();
    hw.module = "cipher";
    hw.rm_id = accel::kRmIdCipher;
    hw.setup_regs = {{0, static_cast<u32>(key)},
                     {1, static_cast<u32>(key >> 32)}};
    t.golden = cipher_golden(in, key, kChunk);
  }
  return t;
}

bool slot_task_ok(SlotWorld& w, const SlotTask& t) {
  const auto* rec = w.sched->task(t.id);
  if (rec == nullptr ||
      rec->state != SlotScheduler::TaskState::kCompleted) {
    return false;
  }
  std::vector<u8> out(t.hw.total_bytes);
  w.soc.ddr().peek(t.hw.dst, out);
  return out == t.golden;
}

RepResult run_slot_serve(u64 seed, SpanLog* spans) {
  constexpr u32 kTasks = 100;
  // Mean inter-arrival gap: below the mean simulated service time of
  // a task on two slots, so the offered load oversubscribes them.
  constexpr double kMeanGapCycles = 800'000;
  constexpr u32 kPreemptEvery = 10;  // scheduler steps per forced preemption
  RepResult r;

  const Clock::time_point t0 = Clock::now();
  SlotWorld w(kTasks + 1);
  if (!ok(w.stage("cipher", accel::kRmIdCipher, kGoldenBase)) ||
      !ok(w.stage("fir", accel::kRmIdFir, kGoldenBase + 0x0010'0000))) {
    fail(r, "module registration failed", false);
    return r;
  }
  SplitMix64 rng(seed ^ 0x5107'5E4Eull);
  // Half cipher, half FIR; sizes 4..8 chunks and priorities 0..3 in
  // equal shares. Their order, the keys, data and arrival gaps are
  // seeded.
  std::vector<u8> fir(kTasks);
  std::vector<u32> chunks(kTasks), priority(kTasks);
  for (u32 i = 0; i < kTasks; ++i) {
    fir[i] = i % 2;
    chunks[i] = 4 + i % 5;
    priority[i] = i % 4;
  }
  shuffle(fir, rng);
  shuffle(chunks, rng);
  shuffle(priority, rng);
  std::vector<SlotTask> tasks;
  double due = 0;
  for (u32 i = 0; i < kTasks; ++i) {
    tasks.push_back(
        make_slot_task(w, i, fir[i] != 0, chunks[i], priority[i], rng));
    due += -std::log(1.0 - rng.next_double()) * kMeanGapCycles;
    tasks.back().due = static_cast<u64>(due);
  }
  // Warm-up: one task of each module through the scheduler.
  for (u32 k = 0; k < 2; ++k) {
    SlotTask warm = make_slot_task(w, kTasks + k, k == 1, 4, 0, rng);
    if (!ok(w.sched->submit(warm.hw, &warm.id))) {
      fail(r, "warm-up submit failed", false);
      return r;
    }
    w.sched->drain();
    if (!slot_task_ok(w, warm)) fail(r, "warm-up task output wrong", false);
  }
  r.setup_s = seconds_since(t0);

  const CounterSnapshot before(w.soc);
  const SlotScheduler::Stats st0 = w.sched->stats();
  const u64 reconf0 = w.reconfigurations();
  const u64 ticks0 = w.reconfig_ticks();
  const u64 start = w.soc.sim().now();
  const Clock::time_point h0 = Clock::now();
  {
    u32 next = 0;
    u32 steps = 0;
    for (;;) {
      const u64 now = w.soc.sim().now();
      while (next < kTasks && start + tasks[next].due <= now) {
        SlotTask& t = tasks[next++];
        if (spans != nullptr) spans->set_op(next - 1);
        ScopedSpan s(spans, "slots.submit");
        ++r.attempted;
        r.late_cycles.push_back(now - (start + t.due));
        if (!ok(w.sched->submit(t.hw, &t.id))) fail(r, "task refused", false);
      }
      const u64 reconf = w.reconfigurations();
      bool worked = false;
      {
        ScopedSpan s(spans, "slots.step");
        worked = w.sched->step();
      }
      if (w.reconfigurations() > reconf) {
        r.td_ticks.push_back(w.drv.last_timing().decision_ticks);
        r.tr_ticks.push_back(w.drv.last_timing().reconfig_ticks);
      }
      if (!worked) {
        if (next == kTasks) break;
        ScopedSpan s(spans, "sim.run_cycles");
        w.soc.sim().run_cycles(start + tasks[next].due - now);
        continue;
      }
      if (++steps % kPreemptEvery != 0) continue;
      // Preempt a seeded slot, or the other one when it is empty.
      u32 slot = static_cast<u32>(rng.next_below(SlotWorld::kSlots));
      if (w.sched->resident(slot) == 0) slot = (slot + 1) % SlotWorld::kSlots;
      if (w.sched->resident(slot) != 0) {
        ScopedSpan s(spans, "slots.preempt_slot");
        w.sched->preempt_slot(slot);
      }
    }
  }
  r.timed_s = seconds_since(h0);
  u64 last_done = start;
  for (const SlotTask& t : tasks) {
    if (!slot_task_ok(w, t)) {
      fail(r, "task lost or output differs from golden");
      continue;
    }
    const u64 done = w.sched->task(t.id)->done_mtime * kCyclesPerClintTick;
    last_done = std::max(last_done, done);
    r.latency_cycles.push_back(done - std::min(done, start + t.due));
  }
  r.sim_span_cycles = last_done - start;
  r.reconfigs = w.reconfigurations() - reconf0;
  r.reconfig_bytes = r.reconfigs * kCaseStudyPbitBytes;
  r.tr_ticks_sum = w.reconfig_ticks() - ticks0;
  before.delta_into(w.soc, CounterSnapshot(w.soc), r);
  const SlotScheduler::Stats& st = w.sched->stats();
  r.counters["slots.captures"] = st.captures - st0.captures;
  r.counters["slots.restores"] = st.restores - st0.restores;
  return r;
}

// ------------------------------------------------------------------
// remote_fetch: activations through the networked delivery chain
// ------------------------------------------------------------------

RepResult run_remote_fetch(u64 seed, SpanLog* spans) {
  constexpr u32 kRequests = 100;
  constexpr u32 kModules = 4;  // working set; the cache holds two
  constexpr u32 kRms[kModules] = {accel::kRmIdSobel, accel::kRmIdMedian,
                                  accel::kRmIdGaussian, accel::kRmIdCipher};
  using driver::ReconfigService;
  RepResult r;

  const Clock::time_point t0 = Clock::now();
  soc::SocConfig scfg;
  scfg.with_net = true;
  auto soc = std::make_unique<soc::ArianeSoc>(scfg);
  driver::RvCapDriver drv(soc->cpu(), soc->plic());
  sim::FaultInjector fi(seed);
  soc->attach_fault_injector(&fi);
  net::NetFetcher fetcher(soc->cpu(), soc->net_link(), {});
  driver::NetBitstreamSource net_src(fetcher);
  driver::BitstreamCache::Config ccfg;
  ccfg.base = 0x8E00'0000;
  ccfg.slots = 2;
  driver::BitstreamCache cache(soc->cpu(), ccfg);
  driver::BitstreamDelivery delivery(soc->cpu());
  delivery.set_primary(&net_src);
  delivery.attach_cache(&cache);
  delivery.set_net_stats(&fetcher);
  DprManager::Config mcfg;
  mcfg.num_slots = 1;  // every switch re-acquires through delivery
  DprManager mgr(drv, soc->config_memory(), soc->rp0_handle(), nullptr,
                 mcfg);
  mgr.attach_source(&delivery);
  std::vector<std::string> names;
  std::vector<u64> digest;
  for (u32 i = 0; i < kModules; ++i) {
    names.push_back("m" + std::to_string(i));
    std::vector<u8> pbit = case_study_image(*soc, kRms[i], names[i]);
    Fnv1a h;
    h.add_bytes(pbit.data(), pbit.size());
    digest.push_back(h.value());
    soc->net_server().add_image(names[i] + ".pbit", std::move(pbit));
    if (!ok(mgr.register_remote(names[i], kRms[i], names[i] + ".pbit"))) {
      fail(r, "register_remote failed", false);
      return r;
    }
  }
  fi.arm(sim::fault_sites::kNetDrop, 0, 0.02);
  ReconfigService::Config svc_cfg;
  svc_cfg.queue_capacity = 4;
  ReconfigService svc(mgr, svc_cfg);

  // Seeded request sequence over a model of the two-entry LRU cache
  // (the two most recently delivered images, `cur` and `prev`): exactly
  // half of the requests revisit `prev`, the rest pick one of the two
  // images the cache does not hold. No request repeats the active one.
  SplitMix64 rng(seed ^ 0xFE7C'4CA9ull);
  std::vector<u8> revisit(kRequests, 0);
  std::fill(revisit.begin(), revisit.begin() + kRequests / 2, 1);
  shuffle(revisit, rng);
  const u32 w0 = static_cast<u32>(rng.next_below(kModules));
  const u32 w1 = (w0 + 1 + static_cast<u32>(rng.next_below(kModules - 1))) %
                 kModules;
  std::vector<u32> seq = {w0, w1};  // warm-up fills the cache
  for (u32 i = 0; i < kRequests; ++i) {
    const u32 cur = seq.back(), prev = seq[seq.size() - 2];
    if (revisit[i]) {
      seq.push_back(prev);
      continue;
    }
    std::vector<u32> cold;
    for (u32 m = 0; m < kModules; ++m) {
      if (m != cur && m != prev) cold.push_back(m);
    }
    seq.push_back(cold[rng.next_below(cold.size())]);
  }

  auto request = [&](u32 op, bool timed) {
    SpanLog* const trace = timed ? spans : nullptr;  // warm-up: untraced
    const u32 m = seq[op];
    const u64 reconf0 = mgr.stats().reconfigurations;
    const u64 c0 = soc->sim().now();
    ReconfigService::RequestId id = 0;
    const Clock::time_point h0 = Clock::now();
    Status st;
    {
      ReconfigService::ActivationRequest req;
      req.module = names[m];
      req.client_id = op;
      {
        ScopedSpan s(trace, "service.submit");
        st = svc.submit(req, &id);
      }
      ScopedSpan s(trace, "service.drain");
      svc.drain();
    }
    if (timed) {
      r.timed_s += seconds_since(h0);
      r.latency_cycles.push_back(soc->sim().now() - c0);
      r.sim_span_cycles += r.latency_cycles.back();
      if (mgr.stats().reconfigurations > reconf0) {
        r.td_ticks.push_back(drv.last_timing().decision_ticks);
        r.tr_ticks.push_back(drv.last_timing().reconfig_ticks);
      }
    }
    ScopedSpan s(trace, "check");
    const ReconfigService::RequestRecord* rec = svc.record(id);
    DprManager::StagedInfo info;
    if (!ok(st) || rec == nullptr ||
        rec->state != ReconfigService::RequestState::kCompleted) {
      fail(r, "activation request did not complete", timed);
    } else if (!rp_holds(*soc, soc->rp0_handle(), kRms[m])) {
      fail(r, "RP not loaded with the requested module", timed);
    } else if (!ok(mgr.staged_image(names[m], &info))) {
      fail(r, "delivered image not staged", timed);
    } else {
      std::vector<u8> got(info.bytes);
      soc->ddr().peek(info.addr, got);
      Fnv1a h;
      h.add_bytes(got.data(), got.size());
      if (h.value() != digest[m]) {
        fail(r, "delivered image differs from the server image", timed);
      }
    }
  };

  const u32 warm = static_cast<u32>(seq.size()) - kRequests;
  for (u32 op = 0; op < warm; ++op) request(op, /*timed=*/false);
  r.setup_s = seconds_since(t0);

  const CounterSnapshot before(*soc);
  const DprManager::Stats ms0 = mgr.stats();
  for (u32 op = warm; op < seq.size(); ++op) {
    if (spans != nullptr) spans->set_op(op - warm);
    ScopedSpan s(spans, "op");
    ++r.attempted;
    request(op, /*timed=*/true);
  }
  r.reconfigs = mgr.stats().reconfigurations - ms0.reconfigurations;
  r.reconfig_bytes = r.reconfigs * kCaseStudyPbitBytes;
  r.tr_ticks_sum = mgr.stats().total_reconfig_ticks - ms0.total_reconfig_ticks;
  before.delta_into(*soc, CounterSnapshot(*soc), r);
  return r;
}

const Workload kWorkloads[] = {
    {"dma_reconfig", run_dma_reconfig, true, accel::kRmIdSobel},
    {"image_pipeline", run_image_pipeline, true, accel::kRmIdSobel},
    {"slot_serve", run_slot_serve, false, accel::kRmIdCipher},
    {"remote_fetch", run_remote_fetch, false, accel::kRmIdSobel},
};

}  // namespace

CounterSnapshot::CounterSnapshot(soc::ArianeSoc& soc)
    : cycles_(soc.sim().now()),
      ddr_beats_(soc.ddr().beats_transferred()),
      bus_reads_(soc.cpu().bus_reads()),
      bus_writes_(soc.cpu().bus_writes()),
      axis2icap_words_(soc.rvcap().axis2icap().words_emitted()) {
  const obs::CounterRegistry& c = soc.sim().obs().counters();
  for (usize i = 0; i < c.counter_count(); ++i) {
    registry_.push_back(c.counter_value(i));
  }
  for (usize i = 0; i < c.histogram_count(); ++i) {
    const obs::Histogram& h = c.histogram_at(i);
    histograms_.emplace_back(h.count(), h.sum());
  }
}

void CounterSnapshot::delta_into(soc::ArianeSoc& soc,
                                 const CounterSnapshot& later,
                                 RepResult& r) const {
  const obs::CounterRegistry& c = soc.sim().obs().counters();
  // Entries registered after this snapshot count from zero.
  for (usize i = 0; i < later.registry_.size(); ++i) {
    const u64 base = i < registry_.size() ? registry_[i] : 0;
    r.counters[std::string(c.counter_name(i))] += later.registry_[i] - base;
  }
  for (usize i = 0; i < later.histograms_.size(); ++i) {
    const auto base = i < histograms_.size() ? histograms_[i]
                                             : std::pair<u64, u64>{0, 0};
    auto& d = r.histograms[std::string(c.histogram_name(i))];
    d.first += later.histograms_[i].first - base.first;
    d.second += later.histograms_[i].second - base.second;
  }
  r.counters["sim.cycles"] = later.cycles_ - cycles_;
  r.counters["mem.ddr_beats"] = later.ddr_beats_ - ddr_beats_;
  r.counters["cpu.bus_reads"] = later.bus_reads_ - bus_reads_;
  r.counters["cpu.bus_writes"] = later.bus_writes_ - bus_writes_;
  r.counters["rvcap.axis2icap_words"] =
      later.axis2icap_words_ - axis2icap_words_;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string_view> workload_names() {
  std::vector<std::string_view> out;
  for (const Workload& w : kWorkloads) out.push_back(w.name);
  return out;
}

std::map<std::string, double> time_helpers(u32 rm_id, u32 calls) {
  soc::SocConfig cfg;
  cfg.num_slots = 2;
  soc::ArianeSoc soc(cfg);
  const std::string name = "rm" + std::to_string(rm_id);
  std::map<std::string, std::vector<double>> ms;
  auto timed = [&](const char* what, auto&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms[what].push_back(seconds_since(t0) * 1e3);
  };
  bool sound = true;
  for (u32 i = 0; i < calls; ++i) {
    std::vector<u8> pbit;
    timed("bitstream.generate", [&] {
      pbit = bitstream::generate_partial_bitstream(
          soc.device(), soc.slot_partition(0), {rm_id, name});
    });
    sound &= pbit.size() == kCaseStudyPbitBytes;
    bitstream::ParsedBitstream parsed;
    timed("bitstream.parse",
          [&] { sound &= ok(bitstream::parse_bitstream(pbit, &parsed)); });
    std::vector<u8> moved;
    timed("bitstream.relocate", [&] {
      sound &= ok(bitstream::relocate_bitstream(
          soc.device(), soc.slot_partition(0), soc.slot_partition(1), pbit,
          &moved));
    });
    u32 crc = 0;
    timed("common.crc32", [&] { crc = crc32(pbit); });
    sound &= crc != 0 && parsed.crc_ok;
  }
  std::map<std::string, double> out;
  if (!sound) return out;
  for (auto& [what, v] : ms) out[what] = median(v);
  return out;
}

}  // namespace rvcap::perfbench
