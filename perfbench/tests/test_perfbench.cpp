// The benchmark's own tests: the tail-percentile picker, the host-speed
// probe, span self times, and determinism of the generated inputs and of the counts the ops report
// (across two invocations, and for fault-sweep across pool sizes).
//
// Build and run: python3 perfbench/run.py --test
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "calib.h"
#include "spans.h"
#include "stats.h"

namespace {

using perfbench::pick_percentile;

// ---------------------------------------------------------------------------
// Percentile picker

TEST(PercentilePicker, KeepsTenSamplesBeyondTheReportedTail) {
  for (long n = 1; n <= 3000; ++n) {
    std::vector<double> samples;
    for (long i = n; i >= 1; --i) samples.push_back(static_cast<double>(i));
    const auto p99 = pick_percentile(samples, 99);
    if (!p99) continue;
    ASSERT_GE(p99->beyond, perfbench::kMinBeyondTail) << "n=" << n;
    // Samples are 1..n, so the value is its own rank, and exactly
    // `beyond` samples are larger.
    EXPECT_EQ(p99->value, static_cast<double>(p99->rank)) << "n=" << n;
    EXPECT_EQ(p99->beyond, n - p99->rank) << "n=" << n;
  }
}

TEST(PercentilePicker, RefusesUntilEnoughSamples) {
  const long need = perfbench::min_samples_for(99);
  EXPECT_EQ(need, 1000);
  EXPECT_FALSE(pick_percentile(std::vector<double>(need - 1, 1.0), 99));
  const auto at = pick_percentile(std::vector<double>(need, 1.0), 99);
  ASSERT_TRUE(at);
  EXPECT_EQ(at->rank, 990);
  EXPECT_EQ(at->beyond, 10);
}

TEST(PercentilePicker, MedianOfEvenAndOddCounts) {
  EXPECT_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

// ---------------------------------------------------------------------------
// Host-speed probe

TEST(HostProbe, ScaleMapsTheKernelTimeToTheNominalOne) {
  using perfbench::host_scale;
  using perfbench::kReferenceKernelMs;
  // A host at reference speed leaves times as they are; one at half speed
  // (the kernel takes twice as long) has them halved.
  EXPECT_DOUBLE_EQ(host_scale(kReferenceKernelMs, kReferenceKernelMs), 1.0);
  EXPECT_DOUBLE_EQ(host_scale(2 * kReferenceKernelMs, 2 * kReferenceKernelMs),
                   0.5);
  // Probes on either side of a timed stretch count alike.
  EXPECT_DOUBLE_EQ(host_scale(0.4, 0.6), host_scale(0.6, 0.4));
  EXPECT_DOUBLE_EQ(host_scale(0.4, 0.6), kReferenceKernelMs / 0.5);
}

TEST(HostProbe, KernelTakesMeasurableTime) {
  const double ms = perfbench::probe_kernel_ms();
  EXPECT_GT(ms, 0.0);
  EXPECT_LT(ms, 1000.0);
}

// ---------------------------------------------------------------------------
// Span self times

TEST(Spans, SelfTimeIsDurationMinusDirectChildren) {
  // root [0, 100) ⊃ a [10, 40) ⊃ b [15, 25); root ⊃ c [50, 90)
  std::vector<perfbench::Span> spans = {
      {"root", 0, 100, -1}, {"a", 10, 40, 0}, {"b", 15, 25, 1},
      {"c", 50, 90, 0}};
  std::map<std::string, perfbench::SpanTotals> totals;
  perfbench::accumulate(spans, totals);
  EXPECT_EQ(totals["root"].self_ns, 100 - 30 - 40);
  EXPECT_EQ(totals["a"].self_ns, 30 - 10);
  EXPECT_EQ(totals["b"].self_ns, 10);
  EXPECT_EQ(totals["c"].self_ns, 40);
  // The self times of one op add up to the root span's duration.
  double sum = 0.0;
  for (const auto& [name, t] : totals) sum += t.self_ns;
  EXPECT_EQ(sum, 100);
}

TEST(Spans, TracerNestsByOpenOrder) {
  perfbench::Tracer tracer;
  {
    perfbench::ScopedSpan outer(&tracer, "outer");
    perfbench::ScopedSpan inner(&tracer, "inner");
  }
  perfbench::ScopedSpan ignored(nullptr, "untraced");
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_LE(tracer.spans()[0].start_ns, tracer.spans()[1].start_ns);
  EXPECT_GE(tracer.spans()[0].end_ns, tracer.spans()[1].end_ns);
}

// ---------------------------------------------------------------------------
// Determinism across invocations of the benchmark binary

const std::string kExe = PERFBENCH_EXE;

std::string scratch_path(const std::string& name) {
  return kExe.substr(0, kExe.find_last_of('/') + 1) + "test-" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Runs a fixed number of traced ops and returns stdout.
std::string run_bench(const std::string& workload, int seed, long ops,
                      int threads, const std::string& dump) {
  const std::string cmd = kExe + " --workload " + workload + " --seed " +
                          std::to_string(seed) + " --seconds 1 --trace 1" +
                          " --ops " + std::to_string(ops) +
                          " --threads " + std::to_string(threads) +
                          " --dump-inputs " + dump + " 2>&1";
  std::string out;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  EXPECT_EQ(pclose(pipe), 0) << cmd << "\n" << out;
  return out;
}

/// The value of `"name": {"value": X` in the result line, as text.
std::string metric(const std::string& out, const std::string& name) {
  const std::regex re("\"" + std::regex_replace(name, std::regex("\\."),
                                                "\\.") +
                      "\": \\{\"value\": ([^,]+),");
  std::smatch m;
  return std::regex_search(out, m, re) ? m[1].str() : "missing";
}

std::string verdicts(const std::string& out) {
  std::smatch m;
  return std::regex_search(out, m, std::regex("\"verdict_digest\": \"(\\w+)\""))
             ? m[1].str()
             : "missing";
}

/// Counts that depend only on the inputs, never on timing.
const std::map<std::string, std::vector<std::string>> kDeterministic = {
    {"analyze",
     {"mp.stmts_per_op", "cfg.nodes_per_op", "match.msg_edges_per_op",
      "attr.sat_cache.lookups_per_op", "place.check.violations_per_op",
      "place.repair.moves_per_op"}},
    {"ckpt-run",
     {"sim.events_per_op", "store.stored_bytes_per_ckpt",
      "store.full_record_ratio", "trace.cuts_per_op"}},
    {"fault-sweep",
     {"sim.events_per_op", "proto.control_msgs_per_op",
      "proto.forced_ckpts_per_op", "sim.transport.retransmit_ratio",
      "sim.recovery.rollbacks_per_op", "store.corrupt_skipped_per_op"}},
    {"explore",
     {"explore.schedules_per_op", "explore.choices_per_schedule",
      "explore.memo.prune_ratio", "explore.shrunk_choices"}},
};

class Determinism : public ::testing::TestWithParam<std::string> {};

TEST_P(Determinism, OneSeedGivesIdenticalInputsAndCounts) {
  const std::string w = GetParam();
  const std::string a_dump = scratch_path(w + "-a.txt");
  const std::string b_dump = scratch_path(w + "-b.txt");
  const std::string a = run_bench(w, 7, 40, 0, a_dump);
  const std::string b = run_bench(w, 7, 40, 0, b_dump);
  const std::string inputs = read_file(a_dump);
  ASSERT_FALSE(inputs.empty());
  EXPECT_EQ(inputs, read_file(b_dump));
  // fault-sweep ops fail on known library defects (README, "Defects
  // found"); which ones fail is still a function of the seed.
  if (w != "fault-sweep") EXPECT_EQ(metric(a, "bench.op_fail_ratio"), "0") << a;
  EXPECT_EQ(metric(a, "bench.op_fail_ratio"), metric(b, "bench.op_fail_ratio"));
  EXPECT_EQ(verdicts(a), verdicts(b));
  for (const std::string& name : kDeterministic.at(w)) {
    EXPECT_NE(metric(a, name), "missing") << name;
    EXPECT_NE(metric(a, name), "0") << name << " is vacuous";
    EXPECT_EQ(metric(a, name), metric(b, name)) << name;
  }
  // Another seed gives other inputs.
  const std::string c_dump = scratch_path(w + "-c.txt");
  run_bench(w, 8, 8, 0, c_dump);
  EXPECT_NE(inputs, read_file(c_dump));
}

INSTANTIATE_TEST_SUITE_P(Workloads, Determinism,
                         ::testing::Values("analyze", "ckpt-run",
                                           "fault-sweep", "explore"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(PoolDeterminism, FaultSweepCountsMatchOnOneThreadAndOnThePool) {
  const std::string serial =
      run_bench("fault-sweep", 5, 150, 1, scratch_path("fs-1.txt"));
  const std::string pooled =
      run_bench("fault-sweep", 5, 150, 4, scratch_path("fs-4.txt"));
  EXPECT_EQ(verdicts(serial), verdicts(pooled));
  EXPECT_EQ(metric(serial, "bench.op_fail_ratio"),
            metric(pooled, "bench.op_fail_ratio"));
  for (const std::string& name : kDeterministic.at("fault-sweep"))
    EXPECT_EQ(metric(serial, name), metric(pooled, name)) << name;
}

}  // namespace
