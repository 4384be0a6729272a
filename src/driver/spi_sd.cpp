#include "driver/spi_sd.hpp"

#include <array>

#include "storage/sd_card.hpp"
#include "storage/spi.hpp"

namespace rvcap::driver {

using storage::SdCard;
using storage::SpiController;

u8 SpiSdDriver::spi_xfer(u8 mosi) {
  cpu_.store32_uncached(base_ + SpiController::kDtr, mosi);
  // The transfer takes 8*divider wire cycles; one status poll usually
  // suffices after the store's own round trip.
  while (cpu_.load32_uncached(base_ + SpiController::kSr) &
         SpiController::kSrRxEmpty) {
  }
  return static_cast<u8>(cpu_.load32_uncached(base_ + SpiController::kDrr));
}

void SpiSdDriver::select(bool on) {
  cpu_.store32_uncached(base_ + SpiController::kSsr, on ? 0u : 1u);
}

u8 SpiSdDriver::command(u8 cmd, u32 arg) {
  std::array<u8, 6> f{static_cast<u8>(0x40 | cmd),
                      static_cast<u8>(arg >> 24), static_cast<u8>(arg >> 16),
                      static_cast<u8>(arg >> 8), static_cast<u8>(arg), 0};
  f[5] = static_cast<u8>((SdCard::crc7({f.data(), 5}) << 1) | 1);
  for (u8 b : f) spi_xfer(b);
  for (int i = 0; i < 10; ++i) {
    const u8 r = spi_xfer(0xFF);
    if (r != 0xFF) return r;
  }
  return 0xFF;
}

Status SpiSdDriver::init_card() {
  cpu_.spend_call_overhead();
  cpu_.store32_uncached(base_ + SpiController::kCr, 1);  // enable
  select(false);
  for (int i = 0; i < 10; ++i) spi_xfer(0xFF);  // 80 dummy clocks
  select(true);

  if (command(0, 0) != 0x01) return Status::kIoError;
  command(8, 0x1AA);
  for (int i = 0; i < 4; ++i) spi_xfer(0xFF);  // drain R7 payload

  for (int i = 0; i < 32; ++i) {
    command(55, 0);
    if (command(41, 0x40000000) == 0x00) {
      initialized_ = true;
      break;
    }
  }
  if (!initialized_) return Status::kTimeout;
  command(58, 0);  // OCR: confirm block addressing
  for (int i = 0; i < 4; ++i) spi_xfer(0xFF);
  return Status::kOk;
}

Status SpiSdDriver::read_block_once(u32 lba, std::span<u8> buf) {
  if (command(17, lba) != 0x00) return Status::kIoError;
  // Hunt for the start token.
  u8 tok = 0xFF;
  for (int i = 0; i < 64 && tok != 0xFE; ++i) tok = spi_xfer(0xFF);
  if (tok != 0xFE) return Status::kTimeout;
  for (auto& b : buf) b = spi_xfer(0xFF);
  const u16 crc = static_cast<u16>((spi_xfer(0xFF) << 8) | spi_xfer(0xFF));
  if (crc != SdCard::crc16(buf)) return Status::kCrcError;
  return Status::kOk;
}

Status SpiSdDriver::read_block(u32 lba, std::span<u8> buf) {
  if (buf.size() != storage::kBlockSize) return Status::kInvalidArgument;
  if (!initialized_) return Status::kIoError;
  cpu_.spend_call_overhead();
  // SD transfers fail transiently (marginal wiring, clocking, card
  // state): a missing start token or a bad CRC is worth re-issuing the
  // command before giving up. The shared RetrySchedule bounds the
  // attempts; kReadRetry has no backoff, so a retry follows at once.
  RetrySchedule sched(kReadRetry);
  Status st = Status::kIoError;
  while (sched.next()) {
    st = read_block_once(lba, buf);
    if (ok(st)) {
      if (sched.attempt() > 1) ++reads_recovered_;
      return st;
    }
    if (st != Status::kTimeout && st != Status::kCrcError) break;
  }
  return st;
}

Status SpiSdDriver::write_block(u32 lba, std::span<const u8> buf) {
  if (buf.size() != storage::kBlockSize) return Status::kInvalidArgument;
  if (!initialized_) return Status::kIoError;
  cpu_.spend_call_overhead();
  if (command(24, lba) != 0x00) return Status::kIoError;
  spi_xfer(0xFF);   // Nwr gap
  spi_xfer(0xFE);   // start token
  for (u8 b : buf) spi_xfer(b);
  const u16 crc = SdCard::crc16(buf);
  spi_xfer(static_cast<u8>(crc >> 8));
  spi_xfer(static_cast<u8>(crc));
  // Data response then busy.
  u8 resp = 0xFF;
  for (int i = 0; i < 8 && resp == 0xFF; ++i) resp = spi_xfer(0xFF);
  if ((resp & 0x1F) != 0x05) return Status::kIoError;
  for (int i = 0; i < 64; ++i) {
    if (spi_xfer(0xFF) == 0xFF) return Status::kOk;  // busy deasserted
  }
  return Status::kTimeout;
}

}  // namespace rvcap::driver
