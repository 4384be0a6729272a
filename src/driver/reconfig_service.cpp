#include "driver/reconfig_service.hpp"

#include <algorithm>
#include <vector>

#include "bitstream/preflight.hpp"
#include "common/log.hpp"

namespace rvcap::driver {

ReconfigService::ReconfigService(DprManager& mgr, const Config& cfg)
    : mgr_(mgr), cfg_(cfg),
      trace_(mgr.driver().cpu_context().trace_source("reconfig_service")) {
  obs::Observability& o = mgr_.driver().cpu_context().simulator().obs();
  obs::CounterRegistry& c = o.counters();
  c.register_fn("service.queue_depth",
                [this] { return static_cast<u64>(queue_depth()); });
  c.register_fn("service.accepted", [this] { return stats_.accepted; });
  c.register_fn("service.completed", [this] { return stats_.completed; });
  c.register_fn("service.hangs", [this] { return stats_.hangs; });
  wait_ticks_ = c.histogram("service.wait_ticks");
  active_ticks_ = c.histogram("service.active_ticks");
}

ReconfigService::RequestRecord* ReconfigService::find(RequestId id) {
  if (id == 0 || id > records_.size()) return nullptr;
  return &records_[id - 1];
}

const ReconfigService::RequestRecord* ReconfigService::record(
    RequestId id) const {
  if (id == 0 || id > records_.size()) return nullptr;
  return &records_[id - 1];
}

usize ReconfigService::queue_depth() const {
  usize n = 0;
  for (const RequestRecord& r : records_) {
    if (r.state == RequestState::kQueued) ++n;
  }
  return n;
}

bool ReconfigService::quarantined(std::string_view module) const {
  return std::find(quarantine_.begin(), quarantine_.end(), module) !=
         quarantine_.end();
}

void ReconfigService::intent(IntentOp op, const RequestRecord& r) {
  if (intent_ == nullptr) return;
  IntentRecord rec;
  rec.op = op;
  rec.flags = static_cast<u8>(std::min<u32>(r.req.priority, 0xFF));
  rec.slot = static_cast<u16>(cfg_.slot_id);
  rec.rm_id = mgr_.rm_id_of(r.req.module);
  rec.mtime = r.submit_mtime;
  // arg0: deadline slack granted at submit, in CLINT ticks (0 = no
  // deadline). Post-reboot replay re-derives an absolute deadline from
  // submit_mtime + slack against the pre-crash clock.
  rec.arg0 = r.req.deadline_mtime == 0
                 ? 0
                 : static_cast<u32>(std::min<u64>(
                       r.req.deadline_mtime - r.submit_mtime, ~u32{0}));
  (void)intent_->append(rec);
}

void ReconfigService::finish(RequestRecord& r, RequestState state,
                             Status status) {
  r.state = state;
  r.status = status;
  r.done_mtime = mgr_.driver().mtime();
  intent(IntentOp::kSvcDone, r);
}

Status ReconfigService::preflight(const ActivationRequest& req) {
  DprManager::StagedInfo info;
  if (auto st = mgr_.staged_image(req.module, &info); !ok(st)) return st;

  // Pull the staged image out of DDR and validate it offline. The copy
  // costs cached burst reads — simulated time, but zero ICAP traffic.
  std::vector<u8> bytes(info.bytes);
  mgr_.driver().cpu_context().read_buffer(info.addr, bytes);
  const auto report = bitstream::preflight_check(
      bytes, mgr_.device(), mgr_.partition(), cfg_.expected_idcode);
  if (!ok(report.status)) {
    log_warn("reconfig_service: preflight rejected ", req.module, ": ",
             report.reason);
    ++stats_.preflight_rejects;
    quarantine_.emplace_back(req.module);
    // Drop the staged copy: a quarantined image must not occupy a slot,
    // and must never be re-staged on a resubmit.
    mgr_.discard_staged(req.module);
    return Status::kRejected;
  }
  return Status::kOk;
}

Status ReconfigService::submit(const ActivationRequest& req, RequestId* id) {
  ++stats_.submitted;
  if (!mgr_.has_module(req.module)) return Status::kNotFound;

  auto make_record = [&](RequestState state, Status status) -> RequestRecord& {
    RequestRecord r;
    r.id = next_id_++;
    r.req = req;
    r.submit_mtime = mgr_.driver().mtime();
    r.state = state;
    r.status = status;
    if (state != RequestState::kQueued) r.done_mtime = r.submit_mtime;
    records_.push_back(std::move(r));
    if (id != nullptr) *id = records_.back().id;
    return records_.back();
  };

  // Quarantine fast-fail: a module that failed preflight before is
  // refused without touching the staging cache or the volume.
  if (quarantined(req.module)) {
    ++stats_.quarantine_rejects;
    RequestRecord& r = make_record(RequestState::kRejected,
                                   Status::kQuarantined);
    trace_(obs::EventKind::kSvcSubmit, r.id, req.priority);
    trace_(obs::EventKind::kSvcReject, r.id,
           static_cast<u64>(Status::kQuarantined));
    return Status::kQuarantined;
  }

  // Already-expired deadline: never admit work that cannot finish.
  if (req.deadline_mtime != 0 &&
      mgr_.driver().mtime() > req.deadline_mtime) {
    ++stats_.deadline_missed;
    RequestRecord& r =
        make_record(RequestState::kDeadlineMissed, Status::kDeadlineMissed);
    trace_(obs::EventKind::kSvcSubmit, r.id, req.priority);
    trace_(obs::EventKind::kSvcDeadlineMiss, r.id);
    return Status::kDeadlineMissed;
  }

  // Pre-flight parse of the staged image (stages it on a miss).
  if (auto st = preflight(req); !ok(st)) {
    RequestRecord& r = make_record(RequestState::kRejected, st);
    trace_(obs::EventKind::kSvcSubmit, r.id, req.priority);
    trace_(obs::EventKind::kSvcReject, r.id, static_cast<u64>(st));
    return st;
  }

  // Coalesce with a queued request for the same module: the survivor
  // inherits the higher priority and the tighter deadline.
  for (RequestRecord& q : records_) {
    if (q.state != RequestState::kQueued || q.req.module != req.module) {
      continue;
    }
    q.req.priority = std::max(q.req.priority, req.priority);
    if (req.deadline_mtime != 0 &&
        (q.req.deadline_mtime == 0 ||
         req.deadline_mtime < q.req.deadline_mtime)) {
      q.req.deadline_mtime = req.deadline_mtime;
    }
    q.req.force = q.req.force || req.force;
    ++stats_.coalesced;
    const RequestId parent = q.id;
    RequestRecord& r = make_record(RequestState::kCoalesced, Status::kOk);
    r.merged_into = parent;
    trace_(obs::EventKind::kSvcSubmit, r.id, req.priority);
    trace_(obs::EventKind::kSvcCoalesce, r.id, parent);
    return Status::kOk;
  }

  // Saturation: shed the lowest-priority queued entry if the arrival
  // outranks it, otherwise refuse the arrival itself.
  if (queue_depth() >= cfg_.queue_capacity) {
    RequestRecord* victim = nullptr;
    for (RequestRecord& q : records_) {
      if (q.state != RequestState::kQueued) continue;
      if (victim == nullptr || q.req.priority < victim->req.priority ||
          (q.req.priority == victim->req.priority && q.id > victim->id)) {
        victim = &q;
      }
    }
    if (victim == nullptr || req.priority <= victim->req.priority) {
      ++stats_.rejected_full;
      RequestRecord& r = make_record(RequestState::kRejected,
                                     Status::kRejected);
      trace_(obs::EventKind::kSvcSubmit, r.id, req.priority);
      trace_(obs::EventKind::kSvcReject, r.id,
             static_cast<u64>(Status::kRejected));
      return Status::kRejected;
    }
    ++stats_.shed;
    trace_(obs::EventKind::kSvcShed, victim->id, victim->req.priority);
    finish(*victim, RequestState::kShed, Status::kRejected);
  }

  RequestRecord& r = make_record(RequestState::kQueued, Status::kOk);
  ++stats_.accepted;
  intent(IntentOp::kSvcPending, r);
  trace_(obs::EventKind::kSvcSubmit, r.id, req.priority);
  trace_(obs::EventKind::kSvcAdmit, r.id, queue_depth());
  return Status::kOk;
}

Status ReconfigService::cancel(RequestId id) {
  RequestRecord* r = find(id);
  if (r == nullptr) return Status::kNotFound;
  if (r->state == RequestState::kActive) return Status::kDeviceBusy;
  if (r->state != RequestState::kQueued) return Status::kInvalidArgument;
  ++stats_.cancelled;
  trace_(obs::EventKind::kSvcCancel, r->id);
  finish(*r, RequestState::kCancelled, Status::kCancelled);
  return Status::kOk;
}

ReconfigService::RequestRecord* ReconfigService::best_queued() {
  RequestRecord* best = nullptr;
  for (RequestRecord& r : records_) {
    if (r.state != RequestState::kQueued) continue;
    if (best == nullptr) {
      best = &r;
      continue;
    }
    if (r.req.priority != best->req.priority) {
      if (r.req.priority > best->req.priority) best = &r;
      continue;
    }
    const u64 rd = r.req.deadline_mtime == 0 ? ~u64{0} : r.req.deadline_mtime;
    const u64 bd = best->req.deadline_mtime == 0 ? ~u64{0}
                                                 : best->req.deadline_mtime;
    if (rd != bd) {
      if (rd < bd) best = &r;
      continue;
    }
    if (r.id < best->id) best = &r;
  }
  return best;
}

bool ReconfigService::step() {
  RequestRecord* r = best_queued();
  if (r == nullptr) return false;

  const u64 now = mgr_.driver().mtime();
  if (r->req.deadline_mtime != 0 && now > r->req.deadline_mtime) {
    // Expired while queued: skip without touching the hardware.
    ++stats_.deadline_missed;
    trace_(obs::EventKind::kSvcDeadlineMiss, r->id);
    finish(*r, RequestState::kDeadlineMissed, Status::kDeadlineMissed);
    return true;
  }

  r->state = RequestState::kActive;
  r->start_mtime = now;
  active_ = r->id;
  const u64 wait = now - r->submit_mtime;
  if (wait_ticks_ != nullptr) wait_ticks_->record(wait);
  trace_(obs::EventKind::kSvcDispatch, r->id, wait);

  // The service doubles as the transfer watchdog for the dispatch.
  RvCapDriver& drv = mgr_.driver();
  ProgressMonitor* const prev = drv.progress_monitor();
  drv.set_progress_monitor(this);
  const Status s =
      mgr_.activate(r->req.module, DmaMode::kInterrupt, r->req.force);
  drv.set_progress_monitor(prev);
  active_ = 0;

  if (ok(s)) {
    ++stats_.completed;
    finish(*r, RequestState::kCompleted, Status::kOk);
  } else {
    ++stats_.failed;
    finish(*r, RequestState::kFailed, s);
  }
  const u64 active = r->done_mtime - r->start_mtime;
  if (active_ticks_ != nullptr) active_ticks_->record(active);
  if (ok(s)) {
    trace_(obs::EventKind::kSvcComplete, r->id, active);
  } else {
    trace_(obs::EventKind::kSvcFail, r->id, static_cast<u64>(s), active);
  }
  return true;
}

usize ReconfigService::drain() {
  usize n = 0;
  while (step()) ++n;
  return n;
}

bool ReconfigService::on_poll(const TransferProgress& p) {
  if (stall_.poll(p.beats)) return true;

  // Counter frozen across N probes: declare the transfer wedged and
  // abort the wait. The driver returns kHang; the DprManager's recovery
  // state machine takes it from there (cleanup, blank, retry/fallback).
  ++stats_.hangs;
  const u64 expected = stall_.expected_beats();
  HangDiagnosis d;
  d.mtime = p.mtime;
  d.request = active_;
  d.snapshot = p;
  d.expected_beats = expected;
  d.outstanding_beats = expected > p.beats ? expected - p.beats : 0;
  d.polls_without_progress = stall_.stalled_polls();
  hangs_.push_back(d);
  trace_(obs::EventKind::kSvcHang, active_, d.outstanding_beats,
         d.polls_without_progress);
  log_warn("reconfig_service: watchdog hang, beats frozen at ", p.beats,
           " of ", expected);
  return false;
}

}  // namespace rvcap::driver
