// Order statistics for per-op wall times.
#pragma once

#include <optional>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must leave above it before it is reported.
inline constexpr long kMinBeyondTail = 10;

/// A nearest-rank percentile: the sample at 1-based rank ⌈pct·n/100⌉ of
/// the sorted samples, and how many samples lie beyond that rank.
struct Percentile {
  double value = 0.0;
  long rank = 0;
  long beyond = 0;
};

/// Nearest-rank percentile of `samples` (need not be sorted); nullopt when
/// fewer than `min_beyond` samples would lie beyond the reported one.
/// `pct` is an integer percent in [1, 100].
std::optional<Percentile> pick_percentile(std::vector<double> samples,
                                          int pct,
                                          long min_beyond = kMinBeyondTail);

/// The smallest sample count for which pick_percentile(·, pct, min_beyond)
/// reports a value.
long min_samples_for(int pct, long min_beyond = kMinBeyondTail);

double median(std::vector<double> samples);

}  // namespace perfbench
