#ifndef TIXBENCH_STATS_H_
#define TIXBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

/// \file
/// The benchmark's summary arithmetic. A percentile is reported only when
/// the sample supports it: at least ten samples must lie beyond the
/// nearest-rank position, so p99 needs >= 1000 samples and p50 >= 20.

namespace tixbench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank index of percentile `p` (0 < p < 1) among `n` samples.
inline size_t NearestRankIndex(size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

/// Nearest-rank percentile `p` of `samples`, or nullopt when fewer than
/// kMinSamplesBeyond samples lie beyond it.
inline std::optional<double> Percentile(std::vector<double> samples,
                                        double p) {
  if (samples.empty()) return std::nullopt;
  const size_t index = NearestRankIndex(samples.size(), p);
  if (samples.size() - index - 1 < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

/// Plain median (mean of the middle pair for even counts); 0 when empty.
/// Used for the handful of repeated set-up and reopen timings, where the
/// ten-beyond rule cannot apply.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2.0;
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double value : samples) sum += value;
  return sum / static_cast<double>(samples.size());
}

}  // namespace tixbench

#endif  // TIXBENCH_STATS_H_
