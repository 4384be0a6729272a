// Self-test of the benchmark's statistics and span helpers.
//
//   cmake --build .bench_build --target perfbench_test &&
//   .bench_build/perfbench_test
#include <cstdio>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

using namespace rvcap;
using namespace rvcap::perfbench;

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
  if (!cond) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

void test_nearest_rank_known_distribution() {
  // 1..100 in shuffled order: the p-quantile is exactly 100 * p.
  std::vector<u64> v;
  for (u64 i = 0; i < 100; ++i) v.push_back((i * 37) % 100 + 1);
  expect(nearest_rank(v, 0.50) == 50, "p50 of 1..100 is 50");
  expect(nearest_rank(v, 0.90) == 90, "p90 of 1..100 is 90");
  expect(nearest_rank(v, 0.99) == 99, "p99 of 1..100 is 99");
  expect(nearest_rank(v, 1.00) == 100, "p100 is the max");
  expect(nearest_rank(v, 0.0) == 1, "p0 is the min");
  expect(samples_beyond(100, 0.90) == 10, "ten samples beyond p90 of 100");
  expect(samples_beyond(99, 0.90) == 9, "nine samples beyond p90 of 99");
  expect(nearest_rank(std::vector<u64>{}, 0.5) == 0, "empty set gives 0");
  expect(nearest_rank(std::vector<u64>{7}, 0.9) == 7, "single sample");
}

void test_percentiles_not_clamped_to_max() {
  // Samples spread inside one log2 bucket [2^19, 2^20): a bucketed
  // histogram answers every quantile with the bucket bound clamped to
  // the max (p50 == p99 == max). Nearest rank keeps them apart.
  std::vector<u64> v;
  for (u64 i = 0; i < 200; ++i) v.push_back(600'000 + i * 1'000);
  const u64 max = v.back();
  expect(nearest_rank(v, 0.50) == 600'000 + 99 * 1'000, "p50 exact");
  expect(nearest_rank(v, 0.90) == 600'000 + 179 * 1'000, "p90 exact");
  expect(nearest_rank(v, 0.50) < max, "p50 below the max");
  expect(nearest_rank(v, 0.50) < nearest_rank(v, 0.99), "p50 < p99");
}

void test_median() {
  expect(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
}

void test_fnv1a() {
  Fnv1a empty;
  expect(empty.value() == 0xCBF29CE484222325ULL, "FNV-1a offset basis");
  Fnv1a a;
  a.add_bytes("a", 1);
  expect(a.value() == 0xAF63DC4C8601EC8CULL, "FNV-1a(\"a\") reference");
  Fnv1a x, y;
  x.add(1);
  x.add(2);
  y.add(2);
  y.add(1);
  expect(x.value() != y.value(), "digest is order sensitive");
}

void test_span_self_time() {
  SpanLog log;
  log.set_op(7);
  const i32 op = log.begin("op");
  const i32 child = log.begin("child");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  log.end(child);
  log.end(op);
  const auto t = log.totals();
  expect(log.spans()[1].parent == op && log.spans()[1].op == 7,
         "child records its parent and op id");
  expect(t.at("child").self_s == t.at("child").total_s,
         "leaf self time is its duration");
  expect(t.at("op").self_s < 0.5 * t.at("child").total_s,
         "parent self time excludes the child");
  expect(t.at("op").total_s >= t.at("child").total_s,
         "parent covers the child");
}

}  // namespace

int main() {
  test_nearest_rank_known_distribution();
  test_percentiles_not_clamped_to_max();
  test_median();
  test_fnv1a();
  test_span_self_time();
  if (failures != 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
