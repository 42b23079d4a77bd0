#include "stats.h"

#include <algorithm>

namespace perfbench {

namespace {

/// ⌈pct·n/100⌉ in integer arithmetic (a double 0.99·n can round either
/// way at the boundary).
long nearest_rank(long n, int pct) {
  return (static_cast<long>(pct) * n + 99) / 100;
}

}  // namespace

std::optional<Percentile> pick_percentile(std::vector<double> samples,
                                          int pct, long min_beyond) {
  const long n = static_cast<long>(samples.size());
  if (n == 0 || pct < 1 || pct > 100) return std::nullopt;
  const long rank = std::max(1L, nearest_rank(n, pct));
  if (n - rank < min_beyond) return std::nullopt;
  const auto nth = samples.begin() + (rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return Percentile{*nth, rank, n - rank};
}

long min_samples_for(int pct, long min_beyond) {
  long n = 1;
  while (n - std::max(1L, nearest_rank(n, pct)) < min_beyond) ++n;
  return n;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

}  // namespace perfbench
