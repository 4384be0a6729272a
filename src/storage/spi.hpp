// AXI SPI controller peripheral (Xilinx AXI Quad SPI-style register
// subset) connecting the SoC bus to the external SD card (§III-A).
//
// Register map (offsets from the device base):
//   0x60 SPICR  — control: bit0 enable, bit5 tx-fifo reset, bit6 rx-fifo
//                 reset
//   0x64 SPISR  — status: bit0 rx empty, bit1 rx full, bit2 tx empty,
//                 bit3 tx full, bit4 transfer busy
//   0x68 SPIDTR — transmit data (push one byte into the TX FIFO)
//   0x6C SPIDRR — receive data (pop one byte from the RX FIFO)
//   0x70 SPISSR — slave select, active-low bit0
//
// One byte takes 8 * clock_divider core cycles on the wire; divider 4
// models the 25 MHz high-speed SD SPI clock from the 100 MHz core clock.
#pragma once

#include "axi/lite_slave.hpp"
#include "sim/fifo.hpp"
#include "storage/sd_card.hpp"

namespace rvcap::storage {

class SpiController : public axi::AxiLiteSlave {
 public:
  static constexpr Addr kCr = 0x60;
  static constexpr Addr kSr = 0x64;
  static constexpr Addr kDtr = 0x68;
  static constexpr Addr kDrr = 0x6C;
  static constexpr Addr kSsr = 0x70;

  static constexpr u32 kSrRxEmpty = 1u << 0;
  static constexpr u32 kSrRxFull = 1u << 1;
  static constexpr u32 kSrTxEmpty = 1u << 2;
  static constexpr u32 kSrTxFull = 1u << 3;
  static constexpr u32 kSrBusy = 1u << 4;

  /// Divider of the SoC's SD SPI clock: 25 MHz from the 100 MHz core.
  static constexpr u32 kClockDivider = 4;

  SpiController(std::string name, SdCard& card,
                u32 clock_divider = kClockDivider);

  u32 clock_divider() const { return divider_; }
  u64 bytes_transferred() const { return bytes_; }

 protected:
  u32 read_reg(Addr addr) override;
  void write_reg(Addr addr, u32 value) override;
  bool device_tick() override;
  bool device_busy() const override;

 private:
  SdCard& card_;
  u32 divider_;
  sim::Fifo<u8> tx_{16};
  sim::Fifo<u8> rx_{16};
  u32 ssr_ = 0x1;  // deselected (active low)
  bool enabled_ = false;
  u32 shift_countdown_ = 0;
  bool shifting_ = false;
  u8 shift_byte_ = 0;
  u64 bytes_ = 0;
};

}  // namespace rvcap::storage
