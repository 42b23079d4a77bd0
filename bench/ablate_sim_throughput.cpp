// Ablation A4 — simulator throughput (google-benchmark): events/second
// of the discrete-event engine across world sizes and workloads, the cost
// of checkpoint snapshots (per-run and per-checkpoint), trace analyses,
// and the parallel Monte-Carlo harness on a fig8-style sweep.
//
// tools/bench_to_json.py --suite sim condenses this binary into
// BENCH_sim.json: events/s counters for the single-run hot path and the
// wall-clock speedup of BM_Fig8Sweep/T over BM_Fig8SweepSerial.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <optional>

#include "obs/metrics.h"
#include "sim/montecarlo.h"
#include "sim/snapshot_codec.h"
#include "store/delta.h"
#include "store/store.h"
#include "trace/analysis.h"
#include "util/checksum.h"
#include "workloads/workloads.h"

namespace {

using namespace acfc;

mp::Program ring_program(int iters) {
  benchws::RingParams params;
  params.iterations = iters;
  params.compute_cost = 1.0;
  params.checkpoint = true;
  return benchws::ring_exchange(params);
}

void BM_SimulateRing(benchmark::State& state) {
  const mp::Program program = ring_program(20);
  const int nprocs = static_cast<int>(state.range(0));
  long events = 0;
  for (auto _ : state) {
    sim::SimOptions opts;
    opts.nprocs = nprocs;
    opts.keep_snapshots = false;
    sim::Engine engine(program, opts);
    const auto result = engine.run();
    events += result.stats.events_processed;
    benchmark::DoNotOptimize(result.trace.end_time);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateRing)->Arg(2)->Arg(8)->Arg(32)->Arg(64);

// Snapshot-enabled vs snapshot-free runs of the same program: the gap per
// checkpoint is the VmSnapshot capture cost the engine optimizations
// target. Both arms report events/s and ckpts/s so the per-event and
// per-checkpoint costs are visible in BENCH_sim.json.
void BM_SnapshotOverhead(benchmark::State& state) {
  const mp::Program program = ring_program(20);
  const bool keep = state.range(0) != 0;
  long events = 0;
  long checkpoints = 0;
  for (auto _ : state) {
    sim::SimOptions opts;
    opts.nprocs = 16;
    opts.keep_snapshots = keep;
    sim::Engine engine(program, opts);
    const auto result = engine.run();
    events += result.stats.events_processed;
    checkpoints += result.stats.statement_checkpoints;
    benchmark::DoNotOptimize(result.trace.end_time);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["ckpts/s"] = benchmark::Counter(
      static_cast<double>(checkpoints), benchmark::Counter::kIsRate);
  state.SetLabel(keep ? "snapshots on" : "snapshots off");
}
BENCHMARK(BM_SnapshotOverhead)->Arg(0)->Arg(1);

// Isolated per-checkpoint capture cost: a checkpoint-dense program (one
// checkpoint per simulated event pair). Arms:
//   /0  snapshots off (pure engine baseline)
//   /1  snapshots on (in-memory VmSnapshot retention)
//   /2  payload capture, full records (serialize + store every image)
//   /3  payload capture, incremental ACFD delta records
// The bytes/ckpt counter on /2 vs /3 is the delta codec's footprint win.
void BM_CheckpointCapture(benchmark::State& state) {
  benchws::RingParams params;
  params.iterations = 64;
  params.compute_cost = 1.0;
  params.checkpoint = true;
  const mp::Program program = benchws::ring_exchange(params);
  const int arm = static_cast<int>(state.range(0));
  long checkpoints = 0;
  long stored_bytes = 0;
  for (auto _ : state) {
    sim::SimOptions opts;
    opts.nprocs = 8;
    opts.keep_snapshots = arm == 1;
    store::StableStore stable(
        store::StorageModel{},
        arm == 3 ? store::CheckpointMode::kIncremental
                 : store::CheckpointMode::kFull,
        opts.nprocs);
    if (arm >= 2) opts.checkpoint_capture_fn = sim::store_capture_fn(stable);
    sim::Engine engine(program, opts);
    const auto result = engine.run();
    checkpoints += result.stats.statement_checkpoints;
    stored_bytes += stable.bytes_stored();
    benchmark::DoNotOptimize(result.trace.end_time);
  }
  state.counters["ckpts/s"] = benchmark::Counter(
      static_cast<double>(checkpoints), benchmark::Counter::kIsRate);
  if (arm >= 2 && checkpoints > 0)
    state.counters["bytes/ckpt"] = benchmark::Counter(
        static_cast<double>(stored_bytes) /
        static_cast<double>(checkpoints));
  static const char* kLabels[] = {"snapshots off", "snapshots on",
                                  "capture full", "capture delta"};
  state.SetLabel(kLabels[arm]);
}
BENCHMARK(BM_CheckpointCapture)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// Where a checkpoint take's capture cost goes, per world size. Arms × n:
//   /0/n  capture off          (the ceiling: engine with no persistence)
//   /1/n  synchronous capture  (store_capture_fn: serialize, delta-encode,
//         checksum and publish on the engine thread)
//   /3/n  copy only            (the take copied into one recycled
//         snapshot and discarded: the floor any capture path pays)
// Arm numbers name BENCH_sim.json rows, so 2 stays unused. events/s and
// ckpts/s are kIsRate counters over the main thread's cpu_time.
void BM_AsyncCapture(benchmark::State& state) {
  benchws::RingParams params;
  params.iterations = 64;
  params.compute_cost = 1.0;
  params.checkpoint = true;
  const mp::Program program = benchws::ring_exchange(params);
  const int arm = static_cast<int>(state.range(0));
  const int nprocs = static_cast<int>(state.range(1));
  long events = 0;
  long checkpoints = 0;
  for (auto _ : state) {
    sim::SimOptions opts;
    opts.nprocs = nprocs;
    opts.keep_snapshots = false;
    store::StableStore stable(store::StorageModel{},
                              store::CheckpointMode::kIncremental, nprocs);
    if (arm == 1) {
      opts.checkpoint_capture_fn = sim::store_capture_fn(stable);
    } else if (arm == 3) {
      auto scratch = std::make_shared<sim::VmSnapshot>();
      opts.checkpoint_capture_fn =
          [scratch](int, const sim::VmSnapshot& snap) { *scratch = snap; };
    }
    sim::Engine engine(program, opts);
    const auto result = engine.run();
    events += result.stats.events_processed;
    checkpoints += result.stats.statement_checkpoints;
    benchmark::DoNotOptimize(result.trace.end_time);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["ckpts/s"] = benchmark::Counter(
      static_cast<double>(checkpoints), benchmark::Counter::kIsRate);
  state.SetLabel(arm == 0   ? "capture off"
                 : arm == 1 ? "capture sync"
                            : "copy only");
}
BENCHMARK(BM_AsyncCapture)
    ->Args({0, 8})
    ->Args({1, 8})
    ->Args({3, 8})
    ->Args({0, 32})
    ->Args({1, 32})
    ->Args({3, 32});

// Where a synchronous capture's time goes, stage by stage: the takes of
// one BM_AsyncCapture ring run at n = range(0) are recorded once, outside
// the timing, then every iteration replays all of them through each stage
// in its own pass:
//   serialize  serialize_snapshot_into a reused scratch buffer
//   encode     encode_{full,delta}_record_into a reused scratch: a delta
//              against the process's previous take with the store's
//              shrink limit, else a full record (seal included)
//   seal       the seal alone: one streaming XXH64 pass over each record
//              that yields its trailer and its whole-record checksum
//   commit     StableStore::write_payload of every payload into a fresh
//              incremental store (encode and seal again, the record copy,
//              the delta-base update and the manifest publish)
// Counters are ns per take; seal is part of encode and encode of commit.
void BM_CaptureStages(benchmark::State& state) {
  benchws::RingParams params;
  params.iterations = 64;
  params.compute_cost = 1.0;
  params.checkpoint = true;
  const mp::Program program = benchws::ring_exchange(params);
  const int nprocs = static_cast<int>(state.range(0));
  std::vector<std::pair<int, sim::VmSnapshot>> takes;
  {
    sim::SimOptions opts;
    opts.nprocs = nprocs;
    opts.keep_snapshots = false;
    opts.checkpoint_capture_fn = [&takes](int proc,
                                          const sim::VmSnapshot& snap) {
      takes.emplace_back(proc, snap);
    };
    sim::Engine engine(program, opts);
    engine.run();
  }
  std::vector<std::string> payloads;
  for (const auto& take : takes)
    payloads.push_back(sim::serialize_snapshot(take.second));
  std::vector<std::string> records(takes.size());
  std::vector<const std::string*> previous(static_cast<std::size_t>(nprocs));

  using Clock = std::chrono::steady_clock;
  auto ns_since = [](Clock::time_point start) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  };
  double serialize_ns = 0, encode_ns = 0, seal_ns = 0, commit_ns = 0;
  std::string scratch;
  for (auto _ : state) {
    auto start = Clock::now();
    for (const auto& take : takes) {
      sim::serialize_snapshot_into(take.second, scratch);
      benchmark::DoNotOptimize(scratch.data());
    }
    serialize_ns += ns_since(start);

    std::fill(previous.begin(), previous.end(), nullptr);
    start = Clock::now();
    for (std::size_t i = 0; i < takes.size(); ++i) {
      const std::string& payload = payloads[i];
      const std::string*& prev =
          previous[static_cast<std::size_t>(takes[i].first)];
      std::optional<std::uint64_t> sum;
      if (prev != nullptr)
        sum = store::encode_delta_record_into(
            records[i], *prev, payload,
            payload.size() + store::kRecordFramingBytes);
      if (!sum) sum = store::encode_full_record_into(records[i], payload);
      benchmark::DoNotOptimize(*sum);
      prev = &payload;
    }
    encode_ns += ns_since(start);

    start = Clock::now();
    for (const std::string& record : records) {
      util::Checksum64 hash;
      hash.update(record.data(), record.size() - 8);
      benchmark::DoNotOptimize(hash.finish());
      hash.update(record.data() + record.size() - 8, 8);
      benchmark::DoNotOptimize(hash.finish());
    }
    seal_ns += ns_since(start);

    store::StableStore stable(store::StorageModel{},
                              store::CheckpointMode::kIncremental, nprocs);
    start = Clock::now();
    for (std::size_t i = 0; i < takes.size(); ++i)
      stable.write_payload(takes[i].first, payloads[i],
                           static_cast<double>(i));
    commit_ns += ns_since(start);
    benchmark::DoNotOptimize(stable.bytes_stored());
  }
  const double per_take =
      static_cast<double>(state.iterations()) *
      static_cast<double>(std::max<std::size_t>(takes.size(), 1));
  state.counters["serialize_ns"] = serialize_ns / per_take;
  state.counters["encode_ns"] = encode_ns / per_take;
  state.counters["seal_ns"] = seal_ns / per_take;
  state.counters["commit_ns"] = commit_ns / per_take;
  state.counters["takes"] = static_cast<double>(takes.size());
}
BENCHMARK(BM_CaptureStages)->Arg(8)->Arg(32);

// Observability overhead on the BM_SimulateRing hot path. Arms:
//   /0  obs detached (SimOptions::obs == nullptr — the shipping default;
//       this arm must stay within noise of BM_SimulateRing itself, the
//       acceptance bar is < 1%)
//   /1  obs attached (a private Registry per run, full end-of-run flush)
// The engine keeps its hot loop on plain SimStats fields and converts
// them to metrics once at the end of run(), so even the attached arm
// pays O(metrics), not O(events).
void BM_ObsOverhead(benchmark::State& state) {
  const mp::Program program = ring_program(20);
  const bool attached = state.range(0) != 0;
  long events = 0;
  for (auto _ : state) {
    sim::SimOptions opts;
    opts.nprocs = 32;
    opts.keep_snapshots = false;
    obs::Registry registry;
    if (attached) opts.obs = &registry;
    sim::Engine engine(program, opts);
    const auto result = engine.run();
    events += result.stats.events_processed;
    if (attached) {
      const auto snap = registry.snapshot();
      benchmark::DoNotOptimize(snap.metrics.size());
    }
    benchmark::DoNotOptimize(result.trace.end_time);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.SetLabel(attached ? "obs attached" : "obs off");
}
BENCHMARK(BM_ObsOverhead)->Arg(0)->Arg(1);

// Fig8-style Monte-Carlo sweep: world sizes × seed replications of the
// checkpointed ring, exactly what the overhead-curve experiments rerun.
// BM_Fig8SweepSerial is the 1-thread reference; BM_Fig8Sweep/T fans the
// same batch over T pool workers. Identical per-run results by the
// harness's determinism contract; the ratio of wall times is the
// parallel speedup reported in BENCH_sim.json.
std::vector<sim::SimOptions> fig8_sweep_configs() {
  std::vector<sim::SimOptions> configs;
  long index = 0;
  for (const int n : {4, 8, 16, 32}) {
    for (int rep = 0; rep < 6; ++rep) {
      sim::SimOptions opts;
      opts.nprocs = n;
      opts.keep_snapshots = true;
      opts.compute_jitter = 0.2;
      opts.seed = sim::run_seed(/*base_seed=*/1, index++);
      configs.push_back(std::move(opts));
    }
  }
  return configs;
}

void run_fig8_sweep(benchmark::State& state, int threads) {
  const mp::Program program = ring_program(10);
  const auto configs = fig8_sweep_configs();
  long events = 0;
  for (auto _ : state) {
    const auto results =
        sim::run_batch(program, configs, sim::McOptions{threads});
    const auto agg = sim::aggregate(results);
    events += agg.events;
    benchmark::DoNotOptimize(agg.digest);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["runs"] = static_cast<double>(configs.size());
  state.counters["threads"] = static_cast<double>(threads);
}

void BM_Fig8SweepSerial(benchmark::State& state) {
  run_fig8_sweep(state, 1);
}
BENCHMARK(BM_Fig8SweepSerial)->UseRealTime();

void BM_Fig8Sweep(benchmark::State& state) {
  run_fig8_sweep(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_Fig8Sweep)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_StraightCutScan(benchmark::State& state) {
  const mp::Program program = ring_program(static_cast<int>(state.range(0)));
  const auto result = sim::simulate(program, 8);
  for (auto _ : state) {
    int bad = 0;
    for (const auto& cut : trace::all_straight_cuts(result.trace))
      bad += trace::analyze_cut(result.trace, cut).consistent ? 0 : 1;
    benchmark::DoNotOptimize(bad);
  }
  state.counters["checkpoints"] =
      static_cast<double>(result.trace.checkpoints.size());
}
BENCHMARK(BM_StraightCutScan)->Arg(10)->Arg(40);

void BM_MaxRecoveryLine(benchmark::State& state) {
  const mp::Program program = ring_program(40);
  const auto result = sim::simulate(program, 8);
  for (auto _ : state) {
    const auto line = trace::max_recovery_line(
        result.trace, result.trace.end_time * 0.7);
    benchmark::DoNotOptimize(line.consistent);
  }
}
BENCHMARK(BM_MaxRecoveryLine);

}  // namespace

BENCHMARK_MAIN();
