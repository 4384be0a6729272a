// Exact sample statistics and the simulation digest used by the
// benchmark. Percentiles are nearest-rank over the stored samples —
// never routed through obs::Histogram, whose log2 buckets clamp every
// quantile above the top occupied bucket's floor to the sample max.
#pragma once

#include <algorithm>
#include <cmath>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace rvcap::perfbench {

/// 1-based nearest rank of quantile p over n > 0 samples: ceil(p * n),
/// clamped to [1, n].
inline usize rank_of(usize n, double p) {
  const double r = std::ceil(p * static_cast<double>(n) - 1e-9);
  return std::clamp<usize>(r < 1.0 ? 1 : static_cast<usize>(r), 1, n);
}

/// Nearest-rank quantile: the smallest sample x such that at least
/// ceil(p * n) samples are <= x. Returns T{} for an empty set.
template <typename T>
T nearest_rank(std::vector<T> v, double p) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  return v[rank_of(v.size(), p) - 1];
}

/// Samples ranked strictly above the nearest-rank p-quantile of n.
inline usize samples_beyond(usize n, double p) {
  return n == 0 ? 0 : n - rank_of(n, p);
}

/// Median of host-time samples (mean of the middle pair when even).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const usize m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// 64-bit FNV-1a over the simulated outputs of a run.
class Fnv1a {
 public:
  void add_bytes(const void* data, usize n) {
    const auto* p = static_cast<const u8*>(data);
    for (usize i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  void add(u64 v) { add_bytes(&v, sizeof v); }
  void add(std::string_view s) {
    add(s.size());
    add_bytes(s.data(), s.size());
  }
  u64 value() const { return h_; }

 private:
  u64 h_ = 0xCBF29CE484222325ULL;
};

}  // namespace rvcap::perfbench
