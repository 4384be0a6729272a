// Bitstream repository server model — the far end of the NetLink.
//
// Fronts a named repository of RM images (full partial bitstreams held
// in host memory, the fleet's golden store). Serves the TFTP-style
// stop-and-wait protocol one request at a time: pop an kRrq from the
// link's B endpoint, spend a fixed service delay (lookup + chunking on
// the server CPU), then answer with one kData frame carrying the
// requested chunk and its CRC32, or a kError frame for unknown images
// and out-of-range chunks. The "net.server.stall" fault site models a
// overloaded server that silently swallows a request — the client sees
// a pure timeout and must retry.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "net/net_link.hpp"
#include "sim/component.hpp"
#include "sim/fault_injector.hpp"

namespace rvcap::net {

class BitstreamServer : public sim::Component {
 public:
  /// Per-request lookup/chunk cost.
  static constexpr Cycles kServiceCycles = 200;

  BitstreamServer(std::string name, NetLink& link);

  /// Publish an image under `name`. Replaces any previous content.
  void add_image(std::string_view name, std::vector<u8> bytes) {
    images_[std::string(name)] = std::move(bytes);
  }
  bool has_image(std::string_view name) const {
    return images_.find(std::string(name)) != images_.end();
  }

  void attach_fault_injector(sim::FaultInjector* fi) { fi_ = fi; }

  bool tick() override;
  bool busy() const override { return pending_; }
  void on_register(obs::Observability& o) override;

  // ---- lifetime statistics ----
  u64 requests() const { return requests_; }
  u64 served() const { return served_; }
  u64 errors() const { return errors_; }
  u64 stalled() const { return stalled_; }

 private:
  NetFrame build_response(const NetFrame& req) const;

  NetLink& link_;
  std::map<std::string, std::vector<u8>> images_;
  sim::FaultInjector* fi_ = nullptr;
  bool pending_ = false;   // response built, waiting for ready_at_
  NetFrame response_;
  Cycles ready_at_ = 0;
  u64 requests_ = 0;
  u64 served_ = 0;
  u64 errors_ = 0;
  u64 stalled_ = 0;
};

}  // namespace rvcap::net
