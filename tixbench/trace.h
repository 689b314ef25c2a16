#ifndef TIXBENCH_TRACE_H_
#define TIXBENCH_TRACE_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "load.h"

/// \file
/// In-memory span recorder and the self-time summarizer. A span's self
/// time is its duration minus the part of its interval that the union of
/// its children's intervals covers; overlapping children are not counted
/// twice, and a child's time outside its parent is not subtracted.

namespace tixbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = a root span.
  uint64_t request = 0;  ///< Spans of one request share this id.
  std::string name;
  Nanos start = 0;
  Nanos end = 0;
};

/// Thread-safe span sink. Spans stay in memory until the run ends.
class Tracer {
 public:
  /// Records a finished span and returns its id (ids start at 1).
  uint64_t Record(uint64_t parent, uint64_t request, std::string name,
                  Nanos start, Nanos end) {
    std::lock_guard<std::mutex> lock(mu_);
    Span span;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.request = request;
    span.name = std::move(name);
    span.start = start;
    span.end = end;
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }
  uint64_t NewRequest() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++requests_;
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t requests_ = 0;
};

/// Length of the union of `intervals` clipped to [lo, hi].
inline Nanos CoveredWithin(std::vector<std::pair<Nanos, Nanos>> intervals,
                           Nanos lo, Nanos hi) {
  std::sort(intervals.begin(), intervals.end());
  Nanos covered = 0;
  Nanos reach = lo;  // everything before `reach` is already counted
  for (const auto& [start, end] : intervals) {
    const Nanos a = std::max(start, reach);
    const Nanos b = std::min(end, hi);
    if (b > a) {
      covered += b - a;
      reach = b;
    }
  }
  return covered;
}

/// Self time of every span, by span id.
inline std::unordered_map<uint64_t, Nanos> SelfTimes(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<Nanos, Nanos>>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::unordered_map<uint64_t, Nanos> self;
  for (const Span& span : spans) {
    Nanos covered = 0;
    if (const auto it = children.find(span.id); it != children.end()) {
      covered = CoveredWithin(it->second, span.start, span.end);
    }
    self[span.id] = (span.end - span.start) - covered;
  }
  return self;
}

}  // namespace tixbench

#endif  // TIXBENCH_TRACE_H_
