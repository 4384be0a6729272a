// Typed event tracing for the whole SoC (DESIGN.md §11).
//
// Every interesting hardware or driver action — an AXI burst retiring,
// an ICAP word consumed, a DMA descriptor completing, a service queue
// decision, a scrub repair, an IRQ claim — is one fixed-size
// TraceEvent pushed into a bounded TraceSink ring. Emission goes
// through the RVCAP_TRACE macro, which compiles to nothing under
// RVCAP_NO_TRACE and to a null-check + enabled-check otherwise, so the
// instrumented hot paths cost nothing when tracing is off.
//
// Mode invariance: events are only emitted from progressing ticks
// (tick() returning true) or from externally driven calls (MMIO
// register accesses, driver code). The kernel-equivalence contract
// guarantees those occur at identical cycles in kFlat and kScheduled,
// so the event stream — not just the end state — is bit-identical
// across kernels. tests/test_trace.cpp holds the system to that.
//
// The ring drops the oldest events when full, but a running FNV-1a
// digest and a total count are updated on every emit, so golden-trace
// comparisons survive ring wraparound.
#pragma once

#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace rvcap::obs {

/// Every typed record the SoC can emit. Event payloads ride in three
/// u64 slots (a0/a1/a2) whose meaning is per-kind; kinds whose a2 is a
/// duration in cycles are flagged by duration_in_a2() and exported as
/// Chrome complete ("X") events spanning [ts - a2, ts].
enum class EventKind : u8 {
  // ---- AXI bus (track kBus) ----
  kAxiRead,     // burst retired: a0=addr, a1=beats, a2=latency cycles
  kAxiWrite,    // burst retired: a0=addr, a1=beats, a2=latency cycles
  // ---- AXI-Stream (track kStream) ----
  kAxisBeat,    // beat moved: a0=data low 32, a1=last flag
  // ---- ICAP (track kIcap) ----
  kIcapWord,      // config word consumed: a0=word
  kIcapFrame,     // frame committed: a0=FAR
  kIcapDesync,    // DESYNC or sync loss: a0=words so far
  kIcapReadWord,  // readback word produced: a0=word
  // ---- DMA descriptor lifecycle (track kDma) ----
  kDmaMm2sStart,  // job accepted: a0=addr, a1=bytes
  kDmaMm2sDone,   // job retired: a0=bytes, a2=latency cycles
  kDmaMm2sError,  // decode/slverr abort: a0=status bits
  kDmaS2mmStart,  // a0=addr, a1=bytes
  kDmaS2mmDone,   // a0=bytes, a2=latency cycles
  // ---- ReconfigService queue (track kService) ----
  kSvcSubmit,        // a0=id, a1=priority
  kSvcAdmit,         // a0=id, a1=queue depth after admit
  kSvcReject,        // a0=id, a1=Status
  kSvcCoalesce,      // a0=id, a1=surviving id
  kSvcShed,          // a0=victim id
  kSvcCancel,        // a0=id
  kSvcDeadlineMiss,  // a0=id
  kSvcDispatch,      // a0=id, a1=wait mtime ticks
  kSvcComplete,      // a0=id, a1=active mtime ticks
  kSvcFail,          // a0=id, a1=Status
  kSvcHang,          // a0=id, a1=outstanding beats, a2=frozen polls
  // ---- Scrub engine (track kScrub) ----
  kScrubUpset,     // injected SEU: a0=frame, a1=word<<8|bit
  kScrubPass,      // full walk done: a0=pass#, a1=frames, a2=cycles
  kScrubDetect,    // syndrome hit: a0=frame, a1=class
  kScrubRewrite,   // frame repaired in place: a0=frame
  kScrubReload,    // escalated to full RM reload: a0=frame
  // ---- PLIC (track kIrq) ----
  kIrqRaise,     // source level 0->1: a0=source
  kIrqLower,     // source level 1->0: a0=source
  kIrqClaim,     // claim read returned source: a0=source
  kIrqComplete,  // completion write: a0=source
  // ---- Networked bitstream delivery (track kNet) ----
  kNetTx,           // frame accepted onto the link: a0=op, a1=chunk
  kNetRx,           // frame delivered off the link: a0=op, a1=chunk
  kNetDrop,         // frame lost in flight: a0=op, a1=chunk
  kNetDup,          // frame duplicated in flight: a0=op, a1=chunk
  kNetCorrupt,      // payload bit flipped in flight: a0=chunk, a1=bit
  kNetReorder,      // frame delayed past a later one: a0=op, a1=chunk
  kNetFetchStart,   // image fetch began: a0=image id, a1=total chunks
  kNetFetchDone,    // fetch completed: a0=image id, a1=bytes, a2=cycles
  kNetFetchFail,    // fetch gave up: a0=image id, a1=Status
  kNetRetry,        // chunk re-requested: a0=chunk, a1=attempt, a2=backoff
  kNetBreakerOpen,  // circuit breaker tripped: a0=consecutive failures
  kNetBreakerClose, // breaker closed after successful probe
  kNetCacheHit,     // verified cache hit: a0=image id
  kNetCacheMiss,    // cache miss: a0=image id
  kNetCachePoison,  // digest mismatch on hit, entry evicted: a0=image id
  kNetFallback,     // delivery degraded: a0=image id, a1=DeliveryPath
  // ---- Slot scheduler / preemptive capture-restore (track kSlot) ----
  kSlotPlace,     // task placed into a slot: a0=task id, a1=slot
  kSlotPreempt,   // running task preempted: a0=task id, a1=slot
  kSlotCapture,   // GCAPTURE readback done: a0=task id, a1=words, a2=cycles
  kSlotRestore,   // GRESTORE writeback done: a0=task id, a1=slot, a2=cycles
  kSlotResume,    // preempted task resumed: a0=task id, a1=slot
  kSlotRollback,  // restore rejected, full golden reload: a0=task, a1=reason
  kSlotShed,      // oversubscription shed: a0=task id, a1=priority
  kSlotSwapHang,  // wedged swap diagnosed: a0=task id, a1=slot
  kSlotComplete,  // task retired: a0=task id, a1=slot, a2=active cycles
  // ---- Relocation-aware placement / compaction (track kPlace) ----
  kPlaceRequest,   // image requested for a region: a0=rm id, a1=region
  kPlaceRelocate,  // variant relocated: a0=rm id, a1=home, a2=target region
  kPlaceRelocHit,  // cached relocated variant reused: a0=rm id, a1=region
  kPlaceReject,    // placement refused: a0=rm id/class, a1=Status
  kPlaceMigrate,   // resident migrated: a0=task id, a1=from, a2=to slot
  kPlaceCompact,   // compaction pass: a0=class, a1=migrations, a2=span len
  kPlaceSpan,      // span reserved: a0=class, a1=base region, a2=len
  kPlaceSpanFree,  // span released: a0=class, a1=base region, a2=len
  // ---- Crash consistency / cold-boot recovery (track kRecovery) ----
  kRecovPowerLoss,      // supply collapsed: a0=armed horizon cycles
  kRecovJournalAppend,  // intent record sealed+written: a0=seq, a1=op
  kRecovJournalTorn,    // replay truncated a torn tail: a0=seq, a1=cell
  kRecovJournalCorrupt, // replay skipped a corrupt record: a0=cell
  kRecovBootScan,       // journal replayed: a0=records, a1=open intents
  kRecovSlotVerdict,    // slot classified: a0=slot, a1=SlotVerdict
  kRecovGoldenReload,   // interrupted slot re-staged: a0=slot, a1=rm id
  kRecovQuarantine,     // crash-looping rm quarantined: a0=rm, a1=crashes
  kRecovReplay,         // pending request resubmitted: a0=rm, a1=slack
  kRecovShed,           // pending request shed (deadline dead): a0=rm
  kRecovReady,          // recovery done: a0=slots verified, a2=cycles
};

/// Perfetto track (exported as one "process" per track).
enum class Track : u8 {
  kBus, kStream, kIcap, kDma, kService, kScrub, kIrq, kNet, kSlot, kPlace,
  kRecovery
};

std::string_view event_name(EventKind k);
Track event_track(EventKind k);
std::string_view track_name(Track t);
/// True when a2 carries a duration in cycles ending at ts.
bool duration_in_a2(EventKind k);

struct TraceEvent {
  Cycles ts = 0;   // core-clock cycle of emission
  EventKind kind = EventKind::kAxiRead;
  u16 src = 0;     // interned source name (TraceSink::sources())
  u64 a0 = 0;
  u64 a1 = 0;
  u64 a2 = 0;
};

/// Bounded ring of TraceEvents plus a wrap-proof running digest.
/// Disabled by default: enabling is an explicit per-run opt-in so the
/// default build and benches pay only a predicted-false branch.
class TraceSink {
 public:
  static constexpr usize kDefaultCapacity = usize{1} << 15;

  explicit TraceSink(usize capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_capacity(usize cap) {
    capacity_ = cap;
    trim();
  }

  /// Intern a source name; stable small id for TraceEvent::src.
  u16 intern(std::string_view name) {
    for (usize i = 0; i < sources_.size(); ++i) {
      if (sources_[i] == name) return static_cast<u16>(i);
    }
    sources_.emplace_back(name);
    return static_cast<u16>(sources_.size() - 1);
  }

  void emit(EventKind kind, u16 src, Cycles ts, u64 a0 = 0, u64 a1 = 0,
            u64 a2 = 0) {
    if (!enabled_) return;
    TraceEvent e;
    e.ts = ts;
    e.kind = kind;
    e.src = src;
    e.a0 = a0;
    e.a1 = a1;
    e.a2 = a2;
    fold(e);
    ++total_;
    ring_.push_back(e);
    trim();
  }

  /// Events currently retained (oldest first). May be a suffix of the
  /// full stream once total_events() exceeds the capacity.
  const std::deque<TraceEvent>& events() const { return ring_; }
  const std::vector<std::string>& sources() const { return sources_; }
  std::string_view source_name(u16 src) const {
    return src < sources_.size() ? std::string_view(sources_[src])
                                 : std::string_view("?");
  }

  /// Lifetime emit count (unaffected by ring eviction).
  u64 total_events() const { return total_; }
  u64 dropped_events() const { return dropped_; }
  /// FNV-1a over every event ever emitted — the golden-trace anchor.
  u64 digest() const { return digest_; }

  void clear() {
    ring_.clear();
    total_ = 0;
    dropped_ = 0;
    digest_ = kFnvOffset;
  }

 private:
  static constexpr u64 kFnvOffset = 0xcbf29ce484222325ull;
  static constexpr u64 kFnvPrime = 0x100000001b3ull;

  void fold_word(u64 w) {
    for (int i = 0; i < 8; ++i) {
      digest_ ^= (w >> (i * 8)) & 0xff;
      digest_ *= kFnvPrime;
    }
  }

  void fold(const TraceEvent& e) {
    fold_word(e.ts);
    fold_word((u64{e.src} << 8) | static_cast<u64>(e.kind));
    fold_word(e.a0);
    fold_word(e.a1);
    fold_word(e.a2);
  }

  void trim() {
    while (ring_.size() > capacity_) {
      ring_.pop_front();
      ++dropped_;
    }
  }

  std::deque<TraceEvent> ring_;
  std::vector<std::string> sources_;
  usize capacity_;
  u64 total_ = 0;
  u64 dropped_ = 0;
  u64 digest_ = kFnvOffset;
  bool enabled_ = false;
};

/// Compile-time switch the tests use to GTEST_SKIP() trace assertions
/// in an RVCAP_NO_TRACE build.
constexpr bool trace_compiled_in() {
#ifndef RVCAP_NO_TRACE
  return true;
#else
  return false;
#endif
}

/// A driver-side emitter: one sink, one interned source id and the
/// clock that stamps its events. Components get the same binding from
/// Simulator::add(); driver services, which are not Components, hold
/// one of these (cpu::CpuContext::trace_source() builds it). A
/// default-constructed source emits nothing. Unlike RVCAP_TRACE, the
/// arguments are evaluated even when tracing is off, so the per-beat
/// component sites keep the macro.
class TraceSource {
 public:
  TraceSource() = default;
  TraceSource(TraceSink& sink, std::string_view name, const Cycles* now)
      : sink_(&sink), src_(sink.intern(name)), now_(now) {}

  void operator()(EventKind kind, u64 a0 = 0, u64 a1 = 0, u64 a2 = 0) const {
    if (trace_compiled_in() && sink_ != nullptr && sink_->enabled()) {
      sink_->emit(kind, src_, *now_, a0, a1, a2);
    }
  }

 private:
  TraceSink* sink_ = nullptr;
  u16 src_ = 0;
  const Cycles* now_ = nullptr;
};

}  // namespace rvcap::obs

// Emission macro: evaluates its arguments only when the sink exists
// and is enabled; vanishes entirely under RVCAP_NO_TRACE.
#ifndef RVCAP_NO_TRACE
#define RVCAP_TRACE(sinkptr, ...)                                     \
  do {                                                                \
    ::rvcap::obs::TraceSink* rvcap_trace_sink_ = (sinkptr);           \
    if (rvcap_trace_sink_ != nullptr && rvcap_trace_sink_->enabled()) \
      rvcap_trace_sink_->emit(__VA_ARGS__);                           \
  } while (0)
#else
// Disabled: a constant-false branch keeps the arguments type-checked
// and "used" (no -Wunused warnings at call sites) while guaranteeing
// they are never evaluated; the optimiser removes the block entirely.
#define RVCAP_TRACE(sinkptr, ...)                                       \
  do {                                                                  \
    if (false) {                                                        \
      ::rvcap::obs::TraceSink* rvcap_trace_sink_ = (sinkptr);           \
      if (rvcap_trace_sink_ != nullptr && rvcap_trace_sink_->enabled()) \
        rvcap_trace_sink_->emit(__VA_ARGS__);                           \
    }                                                                   \
  } while (0)
#endif
