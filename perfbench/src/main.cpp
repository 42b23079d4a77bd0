// perfbench — the end-to-end pipeline benchmark of the acfc library.
//
//   perfbench --workload analyze|ckpt-run|fault-sweep|explore --seed N
//             --seconds S --trace 0|1 [--ops N] [--threads T]
//             [--dump-inputs FILE] [--spans-out FILE] [--commit SHA]
//             [--source-digest HEX]
//
// Prints one line per metric, a context line, and as its last line the
// result JSON. perfbench/README.md describes the workloads and metrics.
#include <cstdlib>
#include <iostream>
#include <string>

#include "runner.h"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--ops N] [--threads T] [--dump-inputs FILE] "
               "[--spans-out FILE] [--commit SHA] [--source-digest HEX]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") cfg.workload = value;
      else if (arg == "--seed") cfg.seed = std::stoull(value);
      else if (arg == "--seconds") cfg.seconds = std::stod(value);
      else if (arg == "--trace") cfg.trace = std::stoi(value) != 0;
      else if (arg == "--ops") cfg.ops = std::stol(value);
      else if (arg == "--threads") cfg.threads = std::stoi(value);
      else if (arg == "--dump-inputs") cfg.dump_inputs = value;
      else if (arg == "--spans-out") cfg.spans_out = value;
      else if (arg == "--commit") cfg.commit = value;
      else if (arg == "--source-digest") cfg.source_digest = value;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  // --ops is the deterministic mode of the traced run; the end-to-end run
  // always measures whole passes over the inputs.
  if (cfg.workload.empty() || (cfg.ops > 0 && !cfg.trace)) return usage();
  try {
    return perfbench::run_benchmark(cfg, std::cout);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
