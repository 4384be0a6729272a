#include "driver/bitstream_source.hpp"

#include <algorithm>
#include <span>

#include "common/bytes.hpp"
#include "obs/observability.hpp"

namespace rvcap::driver {

// ---------------------------------------------------------------- SD

Status SdBitstreamSource::fetch(std::string_view image, Addr dest,
                                u32 capacity, u32* bytes_out) {
  if (bytes_out != nullptr) *bytes_out = 0;
  u32 size = 0;
  if (auto st = volume_.file_size(image, &size); !ok(st)) return st;
  if (size > capacity) return Status::kNoSpace;
  std::vector<u8> chunk(4096);
  u32 done = 0;
  while (done < size) {
    const u32 n = std::min<u32>(static_cast<u32>(chunk.size()), size - done);
    if (auto st = volume_.read_file_range(image, done,
                                          std::span(chunk).first(n));
        !ok(st)) {
      return st;
    }
    cpu_.write_buffer(dest + done, std::span<const u8>(chunk).first(n));
    done += n;
  }
  if (bytes_out != nullptr) *bytes_out = size;
  return Status::kOk;
}

bool SdBitstreamSource::has_image(std::string_view image) const {
  u32 size = 0;
  return ok(volume_.file_size(image, &size));
}

// ------------------------------------------------------------- cache

BitstreamCache::BitstreamCache(cpu::CpuContext& cpu, const Config& cfg)
    : cpu_(cpu), cfg_(cfg), entries_(cfg.slots),
      trace_(cpu.trace_source("bitstream_cache")) {
  obs::Observability& o = cpu_.simulator().obs();
  obs::CounterRegistry& c = o.counters();
  c.register_fn("net.cache.hits", [this] { return hits_; });
  c.register_fn("net.cache.misses", [this] { return misses_; });
  c.register_fn("net.cache.poisoned", [this] { return poisoned_; });
  c.register_fn("net.cache.evictions", [this] { return evictions_; });
  c.register_fn("net.cache.inserts", [this] { return inserts_; });
}

BitstreamCache::Entry* BitstreamCache::find(std::string_view image) {
  for (Entry& e : entries_) {
    if (e.valid && e.image == image) return &e;
  }
  return nullptr;
}

void BitstreamCache::ddr_copy(Addr src, Addr dst, u32 bytes) {
  std::vector<u8> chunk(4096);
  u32 done = 0;
  while (done < bytes) {
    const u32 n = std::min<u32>(static_cast<u32>(chunk.size()), bytes - done);
    cpu_.read_buffer(src + done, std::span(chunk).first(n));
    cpu_.write_buffer(dst + done, std::span<const u8>(chunk).first(n));
    done += n;
  }
}

bool BitstreamCache::lookup(std::string_view image, Addr dest, u32 capacity,
                            u32* bytes_out) {
  Entry* e = find(image);
  if (e == nullptr) {
    ++misses_;
    trace_(obs::EventKind::kNetCacheMiss);
    return false;
  }
  const usize slot = static_cast<usize>(e - entries_.data());
  // Integrity rule: the digest is checked on EVERY hit; a cached image
  // is only as good as its bytes are right now.
  if (cpu_.crc32_buffer(slot_addr(slot), e->bytes) != e->crc) {
    e->valid = false;
    ++poisoned_;
    trace_(obs::EventKind::kNetCachePoison);
    ++misses_;
    return false;
  }
  if (e->bytes > capacity) {
    ++misses_;
    return false;
  }
  ddr_copy(slot_addr(slot), dest, e->bytes);
  e->last_use = ++use_clock_;
  ++hits_;
  trace_(obs::EventKind::kNetCacheHit, e->bytes);
  if (bytes_out != nullptr) *bytes_out = e->bytes;
  return true;
}

void BitstreamCache::insert(std::string_view image, Addr src, u32 bytes) {
  if (bytes == 0 || bytes > cfg_.slot_bytes || entries_.empty()) return;
  Entry* e = find(image);
  if (e == nullptr) {
    // LRU victim (invalid slots first).
    usize best = 0;
    u64 oldest = ~u64{0};
    for (usize i = 0; i < entries_.size(); ++i) {
      if (!entries_[i].valid) {
        best = i;
        oldest = 0;
        break;
      }
      if (entries_[i].last_use < oldest) {
        oldest = entries_[i].last_use;
        best = i;
      }
    }
    e = &entries_[best];
    if (e->valid) ++evictions_;
  }
  const usize slot = static_cast<usize>(e - entries_.data());
  ddr_copy(src, slot_addr(slot), bytes);
  e->image = std::string(image);
  e->bytes = bytes;
  e->crc = cpu_.crc32_buffer(slot_addr(slot), bytes);
  e->last_use = ++use_clock_;
  e->valid = true;
  ++inserts_;
}

void BitstreamCache::invalidate(std::string_view image) {
  Entry* e = find(image);
  if (e != nullptr) e->valid = false;
}

// ---------------------------------------------------------- delivery

std::string_view to_string(DeliveryPath p) {
  switch (p) {
    case DeliveryPath::kCache: return "cache";
    case DeliveryPath::kNet: return "net";
    case DeliveryPath::kSdFallback: return "sd_fallback";
    case DeliveryPath::kFailed: return "failed";
  }
  return "unknown";
}

BitstreamDelivery::BitstreamDelivery(cpu::CpuContext& cpu)
    : cpu_(cpu), trace_(cpu.trace_source("bitstream_delivery")) {
  obs::Observability& o = cpu_.simulator().obs();
  obs::CounterRegistry& c = o.counters();
  c.register_fn("net.delivery.ok", [this] { return ok_; });
  c.register_fn("net.delivery.cache_hits", [this] { return cache_hits_; });
  c.register_fn("net.delivery.net", [this] { return net_ok_; });
  c.register_fn("net.delivery.sd_fallbacks",
                [this] { return sd_fallbacks_; });
  c.register_fn("net.delivery.failures", [this] { return failures_; });
  delivery_hist_ = c.histogram("net.delivery.cycles");
}

u16 BitstreamDelivery::image_id(std::string_view image) {
  auto it = image_ids_.find(image);
  if (it != image_ids_.end()) return it->second;
  const u16 id = static_cast<u16>(image_ids_.size());
  image_ids_.emplace(std::string(image), id);
  return id;
}

void BitstreamDelivery::record(std::string_view image, DeliveryPath path,
                               Status status, Cycles cycles) {
  journal_.push({std::string(image), path, status, cycles});
  delivery_hist_->record(cycles);
}

Status BitstreamDelivery::fetch(std::string_view image, Addr dest,
                                u32 capacity, u32* bytes_out) {
  const Cycles t0 = cpu_.now();
  const u16 id = image_id(image);

  if (cache_ != nullptr &&
      cache_->lookup(image, dest, capacity, bytes_out)) {
    ++ok_;
    ++cache_hits_;
    record(image, DeliveryPath::kCache, Status::kOk, cpu_.now() - t0);
    return Status::kOk;
  }

  Status primary_st = Status::kNotFound;
  if (primary_ != nullptr) {
    primary_st = primary_->fetch(image, dest, capacity, bytes_out);
    if (ok(primary_st)) {
      ++ok_;
      ++net_ok_;
      if (cache_ != nullptr && bytes_out != nullptr) {
        cache_->insert(image, dest, *bytes_out);
      }
      record(image, DeliveryPath::kNet, Status::kOk, cpu_.now() - t0);
      return Status::kOk;
    }
  }

  // Graceful degradation: the primary could not deliver — try the
  // local copy before giving up.
  if (fallback_ != nullptr && fallback_->has_image(image)) {
    trace_(obs::EventKind::kNetFallback, id,
           static_cast<u64>(DeliveryPath::kSdFallback),
           static_cast<u64>(primary_st));
    const Status st = fallback_->fetch(image, dest, capacity, bytes_out);
    if (ok(st)) {
      ++ok_;
      ++sd_fallbacks_;
      if (cache_ != nullptr && bytes_out != nullptr) {
        cache_->insert(image, dest, *bytes_out);
      }
      record(image, DeliveryPath::kSdFallback, Status::kOk,
             cpu_.now() - t0);
      return Status::kOk;
    }
    ++failures_;
    record(image, DeliveryPath::kFailed, st, cpu_.now() - t0);
    return st;
  }

  ++failures_;
  trace_(obs::EventKind::kNetFallback, id,
         static_cast<u64>(DeliveryPath::kFailed),
         static_cast<u64>(primary_st));
  record(image, DeliveryPath::kFailed, primary_st, cpu_.now() - t0);
  return primary_st;
}

bool BitstreamDelivery::has_image(std::string_view image) const {
  if (fallback_ != nullptr && fallback_->has_image(image)) return true;
  return primary_ != nullptr && primary_->has_image(image);
}

}  // namespace rvcap::driver
