#include "net/net_fetcher.hpp"

#include <span>
#include <utility>

#include "common/bytes.hpp"
#include "obs/observability.hpp"

namespace rvcap::net {

using Op = NetFrame::Op;

NetFetcher::NetFetcher(cpu::CpuContext& cpu, NetLink& link, Config cfg)
    : cpu_(cpu), link_(link), cfg_(cfg),
      trace_(cpu.trace_source("net_fetcher")) {
  obs::Observability& o = cpu_.simulator().obs();
  obs::CounterRegistry& c = o.counters();
  c.register_fn("net.fetch.ok", [this] { return fetches_ok_; });
  c.register_fn("net.fetch.fail", [this] { return fetches_failed_; });
  c.register_fn("net.fetch.retries", [this] { return chunk_retries_; });
  c.register_fn("net.fetch.timeouts", [this] { return chunk_timeouts_; });
  c.register_fn("net.fetch.crc_errors", [this] { return chunk_crc_errors_; });
  c.register_fn("net.fetch.stale_frames", [this] { return stale_frames_; });
  c.register_fn("net.fetch.resumed", [this] { return resumed_transfers_; });
  c.register_fn("net.breaker.trips", [this] { return breaker_trips_; });
  c.register_fn("net.breaker.fast_fails",
                [this] { return breaker_fast_fails_; });
  fetch_hist_ = c.histogram("net.fetch.cycles");
  chunk_hist_ = c.histogram("net.chunk.cycles");
  backoff_hist_ = c.histogram("net.backoff.cycles");
}

bool NetFetcher::breaker_open() const {
  return open_ && cpu_.now() < open_until_;
}

u16 NetFetcher::image_id(std::string_view image) {
  auto it = image_ids_.find(image);
  if (it != image_ids_.end()) return it->second;
  const u16 id = static_cast<u16>(image_ids_.size());
  image_ids_.emplace(std::string(image), id);
  return id;
}

void NetFetcher::note_result(std::string_view image, Status s) {
  (void)image;
  const bool transport_ok = s == Status::kOk || s == Status::kNotFound ||
                            s == Status::kOutOfRange ||
                            s == Status::kNoSpace;
  if (transport_ok) {
    // The transport answered — the link and server are healthy even
    // when the answer is "no such image" or "too big".
    consecutive_failures_ = 0;
    if (open_) {
      open_ = false;
      trace_(obs::EventKind::kNetBreakerClose);
    }
    return;
  }
  ++consecutive_failures_;
  if (consecutive_failures_ >= cfg_.breaker_threshold) {
    open_ = true;
    open_until_ = cpu_.now() + cfg_.breaker_cooldown;
    ++breaker_trips_;
    trace_(obs::EventKind::kNetBreakerOpen, consecutive_failures_);
  }
}

Status NetFetcher::wait_response(std::string_view image, u32 chunk,
                                 NetFrame* out) {
  const Cycles deadline = cpu_.now() + cfg_.response_timeout;
  while (true) {
    const Cycles now = cpu_.now();
    if (now >= deadline) return Status::kTimeout;
    if (!cpu_.wait_for([this] { return link_.a_rx().can_pop(); },
                       deadline - now)) {
      return Status::kTimeout;
    }
    NetFrame f = std::move(*link_.a_rx().pop());
    cpu_.spend_instructions(10);  // header parse
    const bool match =
        f.image == image &&
        (f.op == Op::kError || (f.op == Op::kData && f.chunk == chunk));
    if (!match) {
      // Stale answer from an earlier attempt or a duplicate.
      ++stale_frames_;
      continue;
    }
    *out = std::move(f);
    return Status::kOk;
  }
}

Status NetFetcher::fetch_chunk(std::string_view image, u32 chunk, Addr dest,
                               u32 capacity, Partial* p) {
  RetrySchedule sched(cfg_.retry, kRetrySeed ^ retry_streams_++);
  const Cycles c0 = cpu_.now();
  Status last = Status::kTimeout;
  while (sched.next()) {
    if (sched.attempt() > 1) {
      ++chunk_retries_;
      trace_(obs::EventKind::kNetRetry, chunk, sched.attempt(), sched.delay());
      if (sched.delay() > 0) {
        backoff_hist_->record(sched.delay());
        cpu_.simulator().run_cycles(sched.delay());
      }
    }
    NetFrame rrq;
    rrq.op = Op::kRrq;
    rrq.image = std::string(image);
    rrq.chunk = chunk;
    if (!link_.a_tx().can_push() &&
        !cpu_.wait_for([this] { return link_.a_tx().can_push(); },
                       cfg_.response_timeout)) {
      ++chunk_timeouts_;
      last = Status::kTimeout;
      continue;
    }
    cpu_.spend_instructions(20);  // request marshalling
    link_.a_tx().push(std::move(rrq));

    NetFrame resp;
    last = wait_response(image, chunk, &resp);
    if (last == Status::kTimeout) {
      ++chunk_timeouts_;
      continue;
    }
    if (resp.op == Op::kError) {
      // Definitive server answer: retrying cannot help.
      return static_cast<Status>(resp.status);
    }
    // Software CRC over the payload before anything lands in DDR.
    cpu_.spend_instructions(resp.payload.size() / 8 + 8);
    if (crc32(std::span<const u8>(resp.payload)) != resp.crc) {
      ++chunk_crc_errors_;
      last = Status::kCrcError;
      continue;
    }
    if (resp.total_chunks == 0 || chunk >= resp.total_chunks ||
        resp.payload.empty()) {
      last = Status::kProtocolError;
      continue;
    }
    if (p->total_chunks == 0) {
      p->total_chunks = resp.total_chunks;
      p->image_bytes = resp.image_bytes;
      if (resp.image_bytes > capacity) return Status::kNoSpace;
    }
    cpu_.write_buffer(dest + u64{chunk} * kChunkBytes,
                      std::span<const u8>(resp.payload));
    p->next_chunk = chunk + 1;
    chunk_hist_->record(cpu_.now() - c0);
    return Status::kOk;
  }
  return last;
}

Status NetFetcher::fetch(std::string_view image, Addr dest, u32 capacity,
                         u32* bytes_out) {
  if (bytes_out != nullptr) *bytes_out = 0;
  const Cycles t0 = cpu_.now();
  const u16 id = image_id(image);
  if (breaker_open()) {
    ++breaker_fast_fails_;
    trace_(obs::EventKind::kNetFetchFail, id,
           static_cast<u64>(Status::kUnavailable));
    return Status::kUnavailable;
  }

  auto [it, inserted] = partial_.try_emplace(std::string(image));
  Partial& p = it->second;
  if (!inserted && p.dest == dest && p.next_chunk > 0) {
    // Continue the interrupted transfer: chunks [0, next_chunk) are
    // already verified in DDR at this address.
    ++resumed_transfers_;
  } else {
    p = Partial{};
    p.dest = dest;
  }
  trace_(obs::EventKind::kNetFetchStart, id, p.total_chunks);

  Status st = Status::kOk;
  while (true) {
    st = fetch_chunk(image, p.next_chunk, dest, capacity, &p);
    if (!ok(st)) break;
    if (p.total_chunks != 0 && p.next_chunk >= p.total_chunks) break;
  }
  note_result(image, st);
  if (ok(st)) {
    const u32 bytes = p.image_bytes;
    partial_.erase(it);
    ++fetches_ok_;
    if (bytes_out != nullptr) *bytes_out = bytes;
    fetch_hist_->record(cpu_.now() - t0);
    trace_(obs::EventKind::kNetFetchDone, id, bytes, cpu_.now() - t0);
    return Status::kOk;
  }
  // Keep resume state only for transport failures; definitive answers
  // (not found, too big) restart from scratch next time.
  if (st == Status::kNotFound || st == Status::kOutOfRange ||
      st == Status::kNoSpace || st == Status::kProtocolError) {
    partial_.erase(it);
  }
  ++fetches_failed_;
  trace_(obs::EventKind::kNetFetchFail, id, static_cast<u64>(st));
  return st;
}

}  // namespace rvcap::net
