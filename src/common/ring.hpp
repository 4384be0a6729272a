// Fixed-capacity event ring: the most recent N entries of an unbounded
// event stream plus its lifetime count. The volatile journals
// (DprManager failures, BitstreamDelivery outcomes, SlotScheduler
// swaps) append in O(1) and copy out oldest-first.
#pragma once

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace rvcap {

template <typename T, usize N>
class BoundedRing {
 public:
  /// Append; once full, overwrites the oldest entry.
  void push(T v) { buf_[events_++ % N] = std::move(v); }

  /// Entries pushed over the ring's lifetime (retained or not).
  u64 events() const { return events_; }

  /// Retained entries, oldest first (at most N).
  std::vector<T> snapshot() const {
    std::vector<T> out;
    const u64 n = std::min<u64>(events_, N);
    out.reserve(n);
    for (u64 i = events_ - n; i < events_; ++i) out.push_back(buf_[i % N]);
    return out;
  }

 private:
  std::array<T, N> buf_{};
  u64 events_ = 0;
};

}  // namespace rvcap
