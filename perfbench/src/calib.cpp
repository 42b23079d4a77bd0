#include "calib.h"

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

volatile std::uint64_t g_sink = 0;

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// The reference kernel: the kind of work the library's passes do — small
/// heap allocations, string keys in an ordered map, a hash map of growing
/// vectors — on a fixed xorshift64 stream.
double kernel_ms() {
  const std::int64_t t0 = thread_cpu_ns();
  std::uint64_t x = 88172645463325252ULL;
  const auto draw = [&] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::map<std::string, int> ordered;
  std::unordered_map<std::uint64_t, std::vector<int>> buckets;
  for (int i = 0; i < 600; ++i) {
    ordered["node_" + std::to_string(draw() % 100000)] += i;
    buckets[draw() % 199].push_back(i);
  }
  std::uint64_t h = 0;
  for (const auto& [key, value] : ordered)
    h = h * 31 + key.size() + static_cast<std::uint64_t>(value);
  for (const auto& [key, list] : buckets) h += list.size() * key;
  g_sink = g_sink + h;
  return static_cast<double>(thread_cpu_ns() - t0) * 1e-6;
}

}  // namespace

double probe_kernel_ms() { return std::min(kernel_ms(), kernel_ms()); }

double host_scale(double before_ms, double after_ms) {
  return 2.0 * kReferenceKernelMs / (before_ms + after_ms);
}

}  // namespace perfbench
