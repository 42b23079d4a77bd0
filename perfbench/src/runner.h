// The measurement harness: set-up, the timed op loop, metrics, and the
// result line.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: the untraced end-to-end run. true: interleaved untraced and
  /// traced blocks over the same ops, reporting the per-layer metrics.
  bool trace = false;
  /// > 0 (traced runs only): run exactly this many ops, untraced and
  /// traced, instead of running for `seconds` — the deterministic mode
  /// the tests use.
  long ops = 0;
  /// Pool threads for parallel workloads; 0 = min(hardware threads, 4).
  int threads = 0;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string dump_inputs;  ///< write the prepared inputs here
  std::string spans_out;    ///< traced run: write the spans here (JSONL)
};

/// Runs the benchmark and prints metric lines, a context line, and the
/// result JSON (last line) to `out`. Returns the process exit code.
int run_benchmark(const RunConfig& cfg, std::ostream& out);

}  // namespace perfbench
