#include "cpu/cpu.hpp"

#include <algorithm>
#include <array>

#include "common/bytes.hpp"
#include "common/log.hpp"

namespace rvcap::cpu {

axi::AxiR CpuContext::blocking_read(Addr a, u8 size) {
  while (!port_.ar.push(axi::AxiAr{a, 0, size})) sim_.step();
  ++bus_reads_;
  if (!sim_.run_until([&] { return port_.r.can_pop(); })) {
    log_error("cpu: read timeout at 0x", std::hex, a);
    return axi::AxiR{0, axi::Resp::kSlvErr, true};
  }
  const axi::AxiR r = *port_.r.pop();
  if (r.resp != axi::Resp::kOkay) ++bus_errors_;
  return r;
}

void CpuContext::blocking_write(Addr a, u64 data, u8 strb, u8 size) {
  while (!port_.aw.push(axi::AxiAw{a, 0, size})) sim_.step();
  while (!port_.w.push(axi::AxiW{data, strb, true})) sim_.step();
  ++bus_writes_;
  if (!sim_.run_until([&] { return port_.b.can_pop(); })) {
    log_error("cpu: write timeout at 0x", std::hex, a);
    return;
  }
  if (port_.b.pop()->resp != axi::Resp::kOkay) ++bus_errors_;
}

u32 CpuContext::load32_uncached(Addr a) {
  sim_.run_cycles(tm_.uncached_access_core_cycles);
  const axi::AxiR r = blocking_read(a, 2);
  return static_cast<u32>((a & 4) ? (r.data >> 32) : r.data);
}

void CpuContext::store32_uncached(Addr a, u32 v) {
  sim_.run_cycles(tm_.uncached_access_core_cycles);
  const bool high = (a & 4) != 0;
  blocking_write(a, high ? (u64{v} << 32) : u64{v},
                 high ? 0xF0 : 0x0F, 2);
}

u64 CpuContext::load64(Addr a) {
  sim_.run_cycles(tm_.cached_access_core_cycles);
  return blocking_read(a, 3).data;
}

void CpuContext::store64(Addr a, u64 v) {
  sim_.run_cycles(tm_.cached_access_core_cycles);
  blocking_write(a, v, 0xFF, 3);
}

u8 CpuContext::load8(Addr a) {
  sim_.run_cycles(tm_.cached_access_core_cycles);
  const axi::AxiR r = blocking_read(a & ~Addr{7}, 3);
  return static_cast<u8>(r.data >> (8 * (a & 7)));
}

void CpuContext::store8(Addr a, u8 v) {
  sim_.run_cycles(tm_.cached_access_core_cycles);
  blocking_write(a & ~Addr{7}, u64{v} << (8 * (a & 7)),
                 static_cast<u8>(1u << (a & 7)), 3);
}

void CpuContext::read_buffer(Addr a, std::span<u8> out) {
  usize done = 0;
  while (done < out.size()) {
    const Addr base = (a + done) & ~Addr{7};
    const u32 avail_beats = 16;
    // Burst read up to 16 beats.
    const usize want = out.size() - done + ((a + done) & 7);
    const u32 beats =
        static_cast<u32>(std::min<usize>(avail_beats, (want + 7) / 8));
    while (!port_.ar.push(axi::AxiAr{base, static_cast<u8>(beats - 1), 3})) {
      sim_.step();
    }
    ++bus_reads_;
    for (u32 b = 0; b < beats; ++b) {
      if (!sim_.run_until([&] { return port_.r.can_pop(); })) return;
      const axi::AxiR r = *port_.r.pop();
      if (r.resp != axi::Resp::kOkay) ++bus_errors_;
      for (u32 i = 0; i < 8 && done < out.size(); ++i) {
        const Addr byte_addr = base + u64{b} * 8 + i;
        if (byte_addr < a + done) continue;  // pre-alignment bytes
        out[done++] = static_cast<u8>(r.data >> (8 * i));
      }
      sim_.run_cycles(tm_.cached_access_core_cycles);
    }
  }
}

u32 CpuContext::crc32_buffer(Addr a, u32 bytes, u32 crc) {
  std::array<u8, 4096> chunk{};
  u32 done = 0;
  while (done < bytes) {
    const u32 n = std::min<u32>(static_cast<u32>(chunk.size()), bytes - done);
    const std::span<u8> part = std::span(chunk).first(n);
    read_buffer(a + done, part);
    crc = crc32(part, crc);
    spend_instructions(n / 4);
    done += n;
  }
  return crc;
}

void CpuContext::write_buffer(Addr a, std::span<const u8> data) {
  usize done = 0;
  while (done < data.size()) {
    const Addr addr = a + done;
    const Addr base = addr & ~Addr{7};
    const usize remaining = data.size() - done + (addr & 7);
    const u32 beats = static_cast<u32>(std::min<usize>(16, (remaining + 7) / 8));
    while (!port_.aw.push(axi::AxiAw{base, static_cast<u8>(beats - 1), 3})) {
      sim_.step();
    }
    ++bus_writes_;
    usize cursor = done;
    for (u32 b = 0; b < beats; ++b) {
      u64 word = 0;
      u8 strb = 0;
      for (u32 i = 0; i < 8; ++i) {
        const Addr byte_addr = base + u64{b} * 8 + i;
        if (byte_addr >= a + cursor && cursor < data.size() &&
            byte_addr == a + cursor) {
          word |= u64{data[cursor]} << (8 * i);
          strb |= static_cast<u8>(1u << i);
          ++cursor;
        }
      }
      while (!port_.w.push(axi::AxiW{word, strb, b + 1 == beats})) {
        sim_.step();
      }
      sim_.run_cycles(tm_.cached_access_core_cycles);
    }
    done = cursor;
    if (!sim_.run_until([&] { return port_.b.can_pop(); })) return;
    if (port_.b.pop()->resp != axi::Resp::kOkay) ++bus_errors_;
  }
}

u32 CpuContext::wait_for_irq(const irq::Plic& plic, Addr plic_claim_addr,
                             Cycles timeout) {
  if (!sim_.run_until([&] { return plic.eip(); }, timeout)) return 0;
  sim_.run_cycles(tm_.irq_entry_cycles);
  return load32_uncached(plic_claim_addr);
}

void CpuContext::complete_irq(Addr plic_claim_addr, u32 source) {
  store32_uncached(plic_claim_addr, source);
}

}  // namespace rvcap::cpu
