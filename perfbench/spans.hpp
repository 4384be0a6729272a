// In-memory span recorder for the traced run. Spans are opened and
// closed by the benchmark's own code around each call into a layer's
// public function; the program under test is not instrumented. Spans
// of one op share an op id, each span records its parent, and a
// layer's self time is its duration minus the time its children cover
// (spans nest strictly: one thread, stack discipline).
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace rvcap::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class SpanLog {
 public:
  static constexpr i32 kNoParent = -1;

  struct Span {
    const char* name;
    u32 op;
    i32 parent;
    Clock::time_point t0, t1;
  };

  struct Total {
    u64 count = 0;
    double total_s = 0;
    double self_s = 0;
  };

  void set_op(u32 op) { op_ = op; }

  i32 begin(const char* name) {
    const i32 parent = open_.empty() ? kNoParent : open_.back();
    spans_.push_back(Span{name, op_, parent, Clock::now(), {}});
    open_.push_back(static_cast<i32>(spans_.size() - 1));
    return open_.back();
  }

  void end(i32 id) {
    spans_[static_cast<usize>(id)].t1 = Clock::now();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Count, total and self seconds per span name.
  std::map<std::string, Total> totals() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) child_s[static_cast<usize>(s.parent)] += dur(s);
    }
    std::map<std::string, Total> out;
    for (usize i = 0; i < spans_.size(); ++i) {
      Total& t = out[spans_[i].name];
      ++t.count;
      t.total_s += dur(spans_[i]);
      t.self_s += dur(spans_[i]) - child_s[i];
    }
    return out;
  }

  /// Write every span as one tab-separated line:
  /// id, parent, op, name, start_us, duration_us (relative to span 0).
  bool write_tsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tparent\top\tname\tstart_us\tdur_us\n");
    const Clock::time_point base =
        spans_.empty() ? Clock::time_point{} : spans_.front().t0;
    for (usize i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(
          f, "%zu\t%d\t%u\t%s\t%.3f\t%.3f\n", i, s.parent, s.op, s.name,
          std::chrono::duration<double, std::micro>(s.t0 - base).count(),
          dur(s) * 1e6);
    }
    return std::fclose(f) == 0;
  }

 private:
  static double dur(const Span& s) {
    return std::chrono::duration<double>(s.t1 - s.t0).count();
  }

  std::vector<Span> spans_;
  std::vector<i32> open_;
  u32 op_ = 0;
};

/// RAII span; a no-op when the log is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->begin(name) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  i32 id_;
};

}  // namespace rvcap::perfbench
