#include "driver/hwicap_driver.hpp"

#include <vector>

#include "bitstream/readback.hpp"
#include "common/bytes.hpp"
#include "hwicap/hwicap.hpp"
#include "rvcap/rp_control.hpp"

namespace rvcap::driver {

using hwicap::HwIcap;
using rvcap_ctrl::RpControl;

HwIcapDriver::HwIcapDriver(cpu::CpuContext& cpu, u32 unroll_factor,
                           Addr hwicap_base, Addr rp_base, Addr clint_base)
    : cpu_(cpu), unroll_(unroll_factor == 0 ? 1 : unroll_factor),
      base_(hwicap_base), rp_base_(rp_base), timer_(cpu, clint_base) {}

Status HwIcapDriver::init_icap() {
  cpu_.spend_call_overhead();
  cpu_.store32_uncached(base_ + HwIcap::kCr, HwIcap::kCrSwReset);
  cpu_.store32_uncached(base_ + HwIcap::kGier, 0);  // global irq off
  return Status::kOk;
}

void HwIcapDriver::decouple_accel(bool decouple) {
  const u32 cur = cpu_.load32_uncached(rp_base_ + RpControl::kControl);
  const u32 next = decouple ? (cur | RpControl::kCtlDecouple)
                            : (cur & ~RpControl::kCtlDecouple);
  cpu_.store32_uncached(rp_base_ + RpControl::kControl, next);
}

u32 HwIcapDriver::read_fifo_vacancy() {
  return cpu_.load32_uncached(base_ + HwIcap::kWfv);
}

Status HwIcapDriver::icap_done(u32 flushed_words) {
  const u32 bound = done_bound(flushed_words);
  for (u32 i = 0; i < bound; ++i) {
    if (cpu_.load32_uncached(base_ + HwIcap::kSr) & HwIcap::kSrDone) {
      return Status::kOk;
    }
  }
  return Status::kTimeout;
}

Status HwIcapDriver::reconfigure_RP(Addr data, u32 pbit_size) {
  cpu_.spend_call_overhead();
  const u32 total_words = pbit_size / 4;
  u32 done_words = 0;
  if (monitor_ != nullptr) monitor_->on_start(total_words);

  // Cached staging chunk the words are loaded through (the bitstream
  // data itself streams through the D$; the keyhole stores dominate).
  std::vector<u8> chunk(4096);
  u32 chunk_base = ~0u;  // word index of chunk start

  auto word_at = [&](u32 wi) -> u32 {
    const u32 chunk_words = static_cast<u32>(chunk.size() / 4);
    if (chunk_base == ~0u || wi < chunk_base ||
        wi >= chunk_base + chunk_words) {
      const u32 n = std::min<u32>(chunk_words, total_words - wi);
      cpu_.read_buffer(data + u64{wi} * 4,
                       std::span(chunk).first(usize{n} * 4));
      chunk_base = wi;
    }
    return load_be32(
        std::span<const u8>(chunk).subspan(usize{wi - chunk_base} * 4, 4));
  };

  while (done_words < total_words) {
    // Keyhole progress probe: words written so far stand in for the
    // DMA path's beat counter (one probe per FIFO-sized flush).
    if (monitor_ != nullptr) {
      TransferProgress p;
      p.beats = done_words;
      p.status = cpu_.load32_uncached(base_ + HwIcap::kSr);
      p.mtime = timer_.read_mtime();
      if (!monitor_->on_poll(p)) return Status::kHang;
    }
    // read_fifo_vac(): how many words fit before the next flush.
    u32 vacancy = read_fifo_vacancy();
    u32 n = std::min(vacancy, total_words - done_words);
    const u32 round_words = n;

    // Unrolled keyhole store loop: one loop-control stall per U words.
    while (n >= unroll_) {
      cpu_.spend_loop_overhead();
      for (u32 j = 0; j < unroll_; ++j) {
        cpu_.store32_uncached(base_ + HwIcap::kWf, word_at(done_words++));
      }
      n -= unroll_;
    }
    while (n > 0) {  // tail (also per-iteration overhead)
      cpu_.spend_loop_overhead();
      cpu_.store32_uncached(base_ + HwIcap::kWf, word_at(done_words++));
      --n;
    }

    // write_to_icap(): flush the FIFO into the ICAPE primitive.
    cpu_.store32_uncached(base_ + HwIcap::kCr, HwIcap::kCrWrite);
    // icap_done(): wait for the configuration step to finish.
    if (auto st = icap_done(round_words); !ok(st)) return st;
  }
  return Status::kOk;
}

Status HwIcapDriver::readback(const fabric::FrameAddr& start,
                              std::span<u32> out) {
  if (out.empty()) return Status::kInvalidArgument;
  cpu_.spend_call_overhead();

  // Request half through the keyhole; the port turns around after it.
  const auto request =
      bitstream::build_readback_request(start, static_cast<u32>(out.size()));
  for (const u32 w : request) {
    cpu_.store32_uncached(base_ + HwIcap::kWf, w);
  }
  cpu_.store32_uncached(base_ + HwIcap::kCr, HwIcap::kCrWrite);
  if (auto st = icap_done(static_cast<u32>(request.size())); !ok(st)) {
    return st;
  }

  // Capture: SZ words into the read FIFO, drained via RF.
  usize got = 0;
  while (got < out.size()) {
    const u32 chunk = std::min<u32>(static_cast<u32>(out.size() - got), 128);
    cpu_.store32_uncached(base_ + HwIcap::kSz, chunk);
    cpu_.store32_uncached(base_ + HwIcap::kCr, HwIcap::kCrRead);
    for (u32 i = 0; i < chunk; ++i) {
      cpu_.spend_loop_overhead();
      bool ready = false;
      for (u32 poll = 0; poll < kRfoPollIters; ++poll) {
        if (cpu_.load32_uncached(base_ + HwIcap::kRfo) != 0) {
          ready = true;
          break;
        }
      }
      if (!ready) return Status::kTimeout;
      out[got++] = cpu_.load32_uncached(base_ + HwIcap::kRf);
    }
    if (auto st = icap_done(chunk); !ok(st)) return st;
  }

  // Trailer: desynchronize the port again.
  const auto trailer = bitstream::build_readback_trailer();
  for (const u32 w : trailer) {
    cpu_.store32_uncached(base_ + HwIcap::kWf, w);
  }
  cpu_.store32_uncached(base_ + HwIcap::kCr, HwIcap::kCrWrite);
  return icap_done(static_cast<u32>(trailer.size()));
}

Status HwIcapDriver::init_reconfig_process(const ReconfigModule& m,
                                           bool hold_decoupled) {
  const u64 t0 = timer_.read_mtime();
  decouple_accel(true);
  init_icap();
  const Status st = reconfigure_RP(m.start_address, m.pbit_size);
  if (!hold_decoupled) decouple_accel(false);
  const u64 t1 = timer_.read_mtime();
  timing_.reconfig_ticks = t1 - t0;
  return st;
}

}  // namespace rvcap::driver
