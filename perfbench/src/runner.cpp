#include "runner.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "calib.h"
#include "sim/montecarlo.h"
#include "stats.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

/// Tail percentile reported as op_p99_ms.
constexpr int kTailPct = 99;
/// Serial ops per block of the traced run (each block runs untraced, then
/// traced over the same inputs).
constexpr long kSerialBlock = 8;
/// Parallel batch: ops handed to the pool at once, per thread.
constexpr long kBatchPerThread = 16;
/// End-to-end runs measure at least this many passes over the inputs.
constexpr long kMinPasses = 3;
/// Runs stop measuring by then, whatever --seconds and kMinPasses ask.
constexpr double kHardCapSeconds = 150.0;

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// This process's resident-set high-water mark. VmHWM belongs to the
/// process image, whereas ru_maxrss survives execve and would report the
/// launcher's peak when that is higher.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The CPUs the calling thread may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// Restricts the calling thread to `cpus`.
void pin(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

struct Done {
  OpResult result;
  std::vector<Span> spans;
};

Done run_one(const Workload& w, long index, bool traced) {
  Done d;
  const std::int64_t start = now_ns();
  if (traced) {
    Tracer tracer;
    {
      ScopedSpan op(&tracer, "bench.op");
      d.result = w.run(index, &tracer);
    }
    d.spans = tracer.spans();
  } else {
    d.result = w.run(index, nullptr);
  }
  d.result.wall_ms = static_cast<double>(now_ns() - start) * 1e-6;
  return d;
}

/// Runs ops [first, first + count): on the pool for parallel workloads,
/// else inline. Results come back in op order either way.
std::vector<Done> run_ops(const Workload& w, long first, long count,
                          bool traced, int threads) {
  if (w.parallel() && threads > 1)
    return acfc::sim::parallel_map(
        count, acfc::sim::McOptions{threads},
        [&](long i) { return run_one(w, first + i, traced); });
  std::vector<Done> out;
  out.reserve(static_cast<std::size_t>(count));
  for (long i = 0; i < count; ++i)
    out.push_back(run_one(w, first + i, traced));
  return out;
}

/// What one kind of block (untraced or traced) accumulated.
struct Phase {
  long ops = 0;
  long failed = 0;
  double wall_s = 0.0;  ///< Σ block wall time
  double busy_s = 0.0;  ///< Σ op wall time
  Counts counts{};
  std::uint64_t verdicts = kFnvBasis;
  std::map<std::string, SpanTotals> spans;
  std::vector<std::pair<long, std::vector<Span>>> kept_spans;

  void add(std::vector<Done>& batch, long first, double block_wall_s) {
    wall_s += block_wall_s;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Done& d = batch[i];
      const long index = first + static_cast<long>(i);
      ++ops;
      busy_s += d.result.wall_ms * 1e-3;
      for (int c = 0; c < kNumCounts; ++c) counts[c] += d.result.counts[c];
      verdicts = fnv(verdicts, d.result.verdict);
      if (!d.result.ok) {
        if (failed < 10)
          std::cerr << "op " << index << " FAILED: " << d.result.failure
                    << '\n';
        ++failed;
      }
      if (!d.spans.empty()) {
        accumulate(d.spans, spans);
        kept_spans.emplace_back(index, std::move(d.spans));
      }
    }
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Per-layer metrics from the traced blocks (`t`) and, for the pool and
/// the tracing overhead, the untraced blocks (`u`) run over the same ops.
std::vector<Metric> per_layer_metrics(const Phase& u, const Phase& t,
                                      int threads, long attempted,
                                      long failed) {
  const double n = static_cast<double>(std::max(1L, t.ops));
  const Counts& c = t.counts;
  const auto totals = [&](const char* name) {
    const auto it = t.spans.find(name);
    return it == t.spans.end() ? SpanTotals{} : it->second;
  };
  // Self time per op: the time spent in the layer call itself, excluding
  // nested layer calls that have spans of their own.
  const auto ms = [&](const char* name) {
    return totals(name).self_ns * 1e-6 / n;
  };
  const auto per_op = [&](Count k) { return c[k] / n; };
  const double engine_ns =
      totals("sim.engine").total_ns + totals("proto.oracle").total_ns;
  const SpanTotals root = totals("bench.op");
  return {
      {"mp.parse.ms_per_op", ms("mp.parse"), "ms"},
      {"mp.print.ms_per_op", ms("mp.print"), "ms"},
      {"mp.stmts_per_op", per_op(kStmts), "count"},
      {"cfg.build.ms_per_op", ms("cfg.build"), "ms"},
      {"cfg.nodes_per_op", per_op(kCfgNodes), "count"},
      {"match.extcfg.ms_per_op", ms("match.extcfg"), "ms"},
      {"match.msg_edges_per_op", per_op(kMsgEdges), "count"},
      {"attr.sat_cache.lookups_per_op", per_op(kSatLookups), "count"},
      {"attr.sat_cache.hit_ratio", ratio(c[kSatHits], c[kSatLookups]),
       "ratio"},
      {"place.check.ms_per_op", ms("place.check"), "ms"},
      {"place.check.violations_per_op", per_op(kViolations), "count"},
      {"place.repair.ms_per_op", ms("place.repair"), "ms"},
      {"place.repair.moves_per_op", per_op(kRepairMoves), "count"},
      {"place.recheck.ms_per_op", ms("place.recheck"), "ms"},
      {"sim.engine.ms_per_op", ms("sim.engine"), "ms"},
      {"sim.events_per_op", per_op(kEvents), "count"},
      {"sim.events_per_s", ratio(c[kEvents], engine_ns * 1e-9), "1/s"},
      {"store.capture.us_per_ckpt",
       ratio(totals("store.capture").total_ns * 1e-3, c[kCheckpoints]), "us"},
      {"store.capture.ms_per_op", ms("store.capture"), "ms"},
      {"store.full_record_ratio",
       ratio(c[kFullRecords], c[kFullRecords] + c[kDeltaRecords]), "ratio"},
      {"store.digest.ms_per_op", ms("store.digest"), "ms"},
      {"store.stored_bytes_per_ckpt", ratio(c[kStoredBytes], c[kCheckpoints]),
       "B"},
      {"trace.cuts.ms_per_op", ms("trace.cuts"), "ms"},
      {"trace.cuts_per_op", per_op(kCuts), "count"},
      {"proto.oracle.ms_per_op", ms("proto.oracle"), "ms"},
      {"proto.control_msgs_per_op", per_op(kControlMsgs), "count"},
      {"proto.forced_ckpts_per_op", per_op(kForcedCkpts), "count"},
      {"sim.transport.retransmit_ratio",
       ratio(c[kRetransmits], c[kTransportSends]), "ratio"},
      {"sim.transport.give_ups_per_op", per_op(kGiveUps), "count"},
      {"sim.recovery.rollbacks_per_op", per_op(kRollbacks), "count"},
      {"sim.recovery.fallback_depth", ratio(c[kFallbackDepth], c[kRollbacks]),
       "count"},
      {"store.corrupt_skipped_per_op", per_op(kCorruptSkipped), "count"},
      {"sim.detector.false_suspicion_ratio",
       ratio(c[kFalseSuspicions], c[kSuspicions]), "ratio"},
      {"sim.mc.busy_ratio",
       ratio(u.busy_s, u.wall_s * static_cast<double>(threads)), "ratio"},
      {"explore.search.ms_per_op", ms("explore.search"), "ms"},
      {"explore.schedules_per_op", per_op(kSchedules), "count"},
      {"explore.schedules_per_s",
       ratio(c[kSchedules], totals("explore.search").total_ns * 1e-9), "1/s"},
      {"explore.memo.prune_ratio", ratio(c[kStatesPruned], c[kStatesRecorded]),
       "ratio"},
      {"explore.choices_per_schedule", ratio(c[kChoicePoints], c[kSchedules]),
       "count"},
      {"explore.shrink.ms_per_op", ms("explore.shrink"), "ms"},
      {"explore.shrunk_choices", ratio(c[kShrunkChoices], c[kShrinks]),
       "count"},
      {"explore.replay.ms_per_op", ms("explore.replay"), "ms"},
      {"bench.harness.ms_per_op", root.self_ns * 1e-6 / n, "ms"},
      {"bench.attributed_ratio",
       ratio(root.total_ns - root.self_ns, root.total_ns), "ratio"},
      {"bench.trace_overhead",
       1.0 - ratio(static_cast<double>(t.ops) / t.wall_s,
                   static_cast<double>(u.ops) / u.wall_s),
       "ratio"},
      {"bench.op_fail_ratio",
       ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "ratio"},
  };
}

/// Pool threads for `requested` (0 = min(hardware threads, 4)).
int pool_threads(int requested) {
  if (requested > 0) return requested;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, 4);
}

}  // namespace

int run_benchmark(const RunConfig& cfg, std::ostream& out) {
  std::unique_ptr<Workload> workload = make_workload(cfg.workload);
  if (!workload) {
    std::cerr << "unknown workload: " << cfg.workload << '\n';
    return 2;
  }
  const int threads = workload->parallel() ? pool_threads(cfg.threads) : 1;
  long attempted = 0;
  long failed = 0;

  // Every probe of the reference kernel in the end-to-end run (calib.h).
  std::vector<double> kernel_ms;
  // Set-up: generate the inputs, pre-analyse them, warm up. Returns its
  // wall time scaled to the reference host speed by probes on either
  // side; warm-up ops count as attempted, and their failures as failed.
  const auto setup = [&] {
    const double kernel0 = probe_kernel_ms();
    const std::int64_t start = now_ns();
    workload->setup(cfg.seed);
    const std::vector<Done> warm =
        run_ops(*workload, 0, workload->block(), false, threads);
    const double took = seconds_since(start);
    const double kernel1 = probe_kernel_ms();
    for (const Done& d : warm) {
      ++attempted;
      if (!d.result.ok) {
        std::cerr << "warm-up op FAILED: " << d.result.failure << '\n';
        ++failed;
      }
    }
    return took * host_scale(kernel0, kernel1);
  };
  std::vector<double> setup_s = {setup()};
  if (!cfg.dump_inputs.empty()) {
    std::ofstream dump(cfg.dump_inputs, std::ios::binary);
    workload->dump_inputs(dump);
  }

  const long batch =
      workload->parallel() ? kBatchPerThread * threads : kSerialBlock;
  Phase untraced;
  Phase traced;
  const long size = workload->size();
  const long blocks = (size + batch - 1) / batch;
  constexpr double kUnset = std::numeric_limits<double>::infinity();
  // Fastest repetition of each block (wall, CPU) and of each op (wall),
  // each scaled to the reference host speed by the probes around its
  // block; and each block's fastest unscaled wall time.
  std::vector<double> block_wall(static_cast<std::size_t>(blocks), kUnset);
  std::vector<double> raw_block_wall(static_cast<std::size_t>(blocks), kUnset);
  std::vector<double> block_cpu(static_cast<std::size_t>(blocks), kUnset);
  std::vector<double> op_wall(static_cast<std::size_t>(size), kUnset);
  long passes = 0;
  const std::int64_t start = now_ns();
  if (!cfg.trace && cfg.ops == 0) {
    // End-to-end: passes over the whole input pool, each after a fresh
    // set-up of the same inputs, in fixed blocks of ops. Every block and
    // every op runs once per pass; the timing metrics take each one's
    // fastest repetition, because the host's speed swings from second to
    // second with other tenants' load (README, "Run-to-run spread").
    // Each repetition is first scaled to the reference host speed by
    // probes of the reference kernel just before and just after its block
    // (calib.h): the fastest repetition escapes short slow phases, the
    // scaling cancels the ones that outlast the run. The probes run on the
    // calling thread, so for pool workloads they gauge the host, not the
    // pool threads' CPUs.
    // Serial workloads also move each block to the next CPU on every
    // pass, so that each block's repetitions cover every CPU instead of
    // whichever one the scheduler kept the run on: the CPUs of a shared
    // host speed up and slow down independently, for minutes at a time.
    const std::vector<int> cpus = allowed_cpus();
    const bool rotate = !workload->parallel() && cpus.size() > 1;
    while (seconds_since(start) < kHardCapSeconds &&
           (passes < kMinPasses || seconds_since(start) < cfg.seconds)) {
      if (passes > 0) setup_s.push_back(setup());
      double pass_wall = 0.0;
      for (long b = 0; b < blocks; ++b) {
        if (rotate)
          pin({cpus[static_cast<std::size_t>(b + passes) % cpus.size()]});
        const long first = b * batch;
        const long count = std::min(batch, size - first);
        const double kernel0 = probe_kernel_ms();
        const double cpu0 = cpu_seconds();
        const std::int64_t t0 = now_ns();
        std::vector<Done> done = run_ops(*workload, first, count, false,
                                         threads);
        const double wall = seconds_since(t0);
        const double cpu = cpu_seconds() - cpu0;
        const double kernel1 = probe_kernel_ms();
        const double scale = host_scale(kernel0, kernel1);
        kernel_ms.push_back(kernel0);
        kernel_ms.push_back(kernel1);
        const auto ub = static_cast<std::size_t>(b);
        raw_block_wall[ub] = std::min(raw_block_wall[ub], wall);
        block_wall[ub] = std::min(block_wall[ub], wall * scale);
        block_cpu[ub] = std::min(block_cpu[ub], cpu * scale);
        for (long i = 0; i < count; ++i) {
          double& best = op_wall[static_cast<std::size_t>(first + i)];
          best = std::min(
              best, done[static_cast<std::size_t>(i)].result.wall_ms * scale);
        }
        untraced.add(done, first, wall);
        pass_wall += wall;
      }
      ++passes;
      if (rotate) pin(cpus);
      std::cerr << "pass " << passes << ": "
                << static_cast<double>(size) / pass_wall << " ops/s\n";
    }
  } else {
    // Fixed op counts (--ops) and the traced run: blocks of ops, each run
    // untraced and then, in the traced run, traced over the same inputs.
    long next = 0;
    for (;;) {
      const double elapsed = seconds_since(start);
      const Phase& measured = cfg.trace ? traced : untraced;
      if (cfg.ops > 0 ? measured.ops >= cfg.ops : elapsed >= cfg.seconds)
        break;
      if (elapsed >= kHardCapSeconds) break;
      long count = batch;
      if (cfg.ops > 0) count = std::min(count, cfg.ops - measured.ops);
      std::int64_t t0 = now_ns();
      std::vector<Done> done = run_ops(*workload, next, count, false, threads);
      untraced.add(done, next, seconds_since(t0));
      if (cfg.trace) {
        t0 = now_ns();
        done = run_ops(*workload, next, count, true, threads);
        traced.add(done, next, seconds_since(t0));
      }
      next += count;
    }
  }
  attempted += untraced.ops + traced.ops;
  failed += untraced.failed + traced.failed;

  std::vector<Metric> metrics;
  std::optional<Percentile> p99;
  if (cfg.trace) {
    metrics = per_layer_metrics(untraced, traced, threads, attempted, failed);
  } else if (passes > 0) {
    p99 = pick_percentile(op_wall, kTailPct);
    if (!p99) {
      std::cerr << size << " inputs give no p" << kTailPct << " with "
                << kMinBeyondTail << " samples beyond it\n";
      return 1;
    }
    double best_wall = 0.0;
    double best_cpu = 0.0;
    double raw_wall = 0.0;
    for (long b = 0; b < blocks; ++b) {
      best_wall += block_wall[static_cast<std::size_t>(b)];
      best_cpu += block_cpu[static_cast<std::size_t>(b)];
      raw_wall += raw_block_wall[static_cast<std::size_t>(b)];
    }
    const double n = static_cast<double>(size);
    metrics = {
        {"ops_per_s", n / best_wall, "1/s"},
        {"op_p50_ms", median(op_wall), "ms"},
        {"op_p99_ms", p99->value, "ms"},
        {"cpu_ms_per_op", best_cpu * 1e3 / n, "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    // Unscaled, for reading the host: not part of the result line.
    out << "unscaled ops_per_s = " << json_number(n / raw_wall)
        << " 1/s, reference kernel median = "
        << json_number(median(kernel_ms)) << " ms (nominal "
        << kReferenceKernelMs << " ms)\n";
  }

  if (cfg.trace && !cfg.spans_out.empty()) {
    std::ofstream spans(cfg.spans_out);
    for (const auto& [op, list] : traced.kept_spans)
      write_jsonl(spans, op, list);
  }

  const Phase& measured = cfg.trace ? traced : untraced;
  const double n = static_cast<double>(std::max(1L, measured.ops));
  for (const Metric& m : metrics)
    out << m.name << " = " << json_number(m.value) << ' ' << m.unit << '\n';
  out << "ops = " << measured.ops << ", failed = " << failed << " of "
      << attempted << " attempted\n";

  // The context stamp: where, on what, and on which inputs.
  out << "{\"context\": {\"workload\": \"" << cfg.workload
      << "\", \"seed\": " << cfg.seed << ", \"commit\": \"" << cfg.commit
      << "\", \"source_digest\": \"" << cfg.source_digest
      << "\", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"compiler\": \"" << PERFBENCH_COMPILER
      << "\", \"threads\": " << threads << ", \"trace\": "
      << (cfg.trace ? "true" : "false") << ", \"seconds\": " << cfg.seconds
      << ", \"ops\": " << measured.ops << ", \"passes\": " << passes
      << ", \"reference_kernel_ms\": {\"nominal\": " << kReferenceKernelMs
      << ", \"median\": " << json_number(median(kernel_ms))
      << ", \"probes\": " << kernel_ms.size() << "}"
      << ", \"tail_samples_beyond_p99\": " << (p99 ? p99->beyond : 0)
      << ", \"inputs\": " << workload->input_summary()
      << ", \"per_op\": {\"checkpoints\": "
      << json_number(measured.counts[kCheckpoints] / n)
      << ", \"schedules\": " << json_number(measured.counts[kSchedules] / n)
      << ", \"events\": " << json_number(measured.counts[kEvents] / n)
      << "}, \"verdict_digest\": \"" << std::hex << measured.verdicts
      << std::dec << "\"}}\n";

  out << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
        << json_number(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  out << "}}" << std::endl;
  return 0;
}

}  // namespace perfbench
