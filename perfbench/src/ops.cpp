// The four workloads: set-up (input generation and pre-analysis) and one
// op each, with the op's output checks. Every call into a library layer
// sits under a ScopedSpan named after the per-layer metric it feeds.
#include <algorithm>
#include <exception>
#include <map>
#include <sstream>

#include "attr/attr.h"
#include "cfg/cfg.h"
#include "explore/explore.h"
#include "explore/shrink.h"
#include "inputs.h"
#include "match/match.h"
#include "mp/parser.h"
#include "mp/printer.h"
#include "obs/metrics.h"
#include "place/place.h"
#include "proto/protocols.h"
#include "sim/recovery.h"
#include "sim/snapshot_codec.h"
#include "store/store.h"
#include "trace/analysis.h"
#include "util/error.h"
#include "workload.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {

using namespace acfc;

long counter(const obs::MetricsSnapshot& snap, std::string_view name) {
  const obs::MetricSnap* m = snap.find(name);
  return m == nullptr ? 0 : static_cast<long>(m->count);
}

OpResult fail(OpResult r, std::string why) {
  r.ok = false;
  r.failure = std::move(why);
  return r;
}

/// Runs `body`, turning a library exception into a failed op.
template <typename Body>
OpResult guarded(Body&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    return fail(OpResult{}, std::string("exception: ") + e.what());
  }
}

std::string json_counts(const std::map<std::string, int>& histogram) {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [key, count] : histogram) {
    out << (first ? "" : ", ") << '"' << key << "\": " << count;
    first = false;
  }
  out << '}';
  return out.str();
}

/// A canonical workload with a checkpoint statement every iteration,
/// placed by Phase III.
mp::Program placed_workload(const std::string& name, int iterations) {
  mp::WorkloadParams params;
  params.iterations = iterations;
  params.checkpoints = true;
  mp::Program program = mp::workload_by_name(name, params);
  if (!place::repair_placement(program).success)
    throw util::ProgramError("placement repair failed for " + name);
  return program;
}

// ---------------------------------------------------------------------------
// analyze: the offline pipeline of one cold `acfc place`, then a re-check
// ---------------------------------------------------------------------------

class Analyze final : public Workload {
 public:
  void setup(std::uint64_t seed) override { inputs_ = analyze_inputs(seed); }
  long size() const override { return static_cast<long>(inputs_.size()); }
  long block() const override { return kAnalyzeStrata; }

  OpResult run(long index, Tracer* tr) const override {
    const AnalyzeInput& in = inputs_[static_cast<std::size_t>(index % size())];
    return guarded([&] {
      OpResult r;
      attr::global_sat_cache().clear();
      mp::Program program = [&] {
        ScopedSpan span(tr, "mp.parse");
        return mp::parse(in.text);
      }();
      r.counts[kStmts] = program.stmt_count();
      {
        ScopedSpan span(tr, "cfg.build");
        const cfg::Cfg graph = cfg::build_cfg(program);
        r.counts[kCfgNodes] = graph.node_count();
        if (auto problem = graph.check_balance())
          return fail(std::move(r), "unbalanced: " + *problem);
      }
      {
        // The extended CFG borrows `program`; it must be gone before
        // repair mutates the program.
        const match::ExtendedCfg ext = [&] {
          ScopedSpan span(tr, "match.extcfg");
          return match::build_extended_cfg(program);
        }();
        r.counts[kMsgEdges] = static_cast<double>(ext.message_edges().size());
        ScopedSpan span(tr, "place.check");
        r.counts[kViolations] = static_cast<double>(
            place::check_condition1(ext).violations.size());
      }
      const place::RepairReport report = [&] {
        ScopedSpan span(tr, "place.repair");
        return place::repair_placement(program);
      }();
      r.counts[kRepairMoves] = report.moves + report.merges + report.hoists;
      const std::string repaired = [&] {
        ScopedSpan span(tr, "mp.print");
        return mp::print(program);
      }();
      // The known answer: the repaired program, read back from its text,
      // satisfies Condition 1 (no hard violation).
      const mp::Program reparsed = [&] {
        ScopedSpan span(tr, "mp.parse");
        return mp::parse(repaired);
      }();
      const match::ExtendedCfg ext = [&] {
        ScopedSpan span(tr, "match.extcfg");
        return match::build_extended_cfg(reparsed);
      }();
      const place::CheckResult recheck = [&] {
        ScopedSpan span(tr, "place.recheck");
        return place::check_condition1(ext);
      }();
      const attr::SatCache::Stats sat = attr::global_sat_cache().stats();
      r.counts[kSatLookups] = static_cast<double>(sat.hits + sat.misses);
      r.counts[kSatHits] = static_cast<double>(sat.hits);
      r.verdict = fnv(kFnvBasis, repaired);
      if (!report.success) return fail(std::move(r), "repair failed");
      if (!recheck.ok(place::RepairPolicy::kAlignedInstances))
        return fail(std::move(r), "repaired program violates Condition 1");
      return r;
    });
  }

  void dump_inputs(std::ostream& out) const override { dump(out, inputs_); }

  std::string input_summary() const override {
    std::map<std::string, int> segments;
    int misaligned = 0;
    for (const auto& in : inputs_) {
      ++segments[std::to_string(in.gen.segments)];
      misaligned += in.gen.misalign_checkpoints ? 1 : 0;
    }
    std::ostringstream out;
    out << "{\"programs\": " << inputs_.size()
        << ", \"misaligned\": " << misaligned
        << ", \"segments\": " << json_counts(segments) << '}';
    return out.str();
  }

 private:
  std::vector<AnalyzeInput> inputs_;
};

// ---------------------------------------------------------------------------
// ckpt-run: a failure-free app-driven run with synchronous ACFD capture
// ---------------------------------------------------------------------------

class CkptRun final : public Workload {
 public:
  /// Iterations per run, one checkpoint each: short enough that a pass of
  /// 1000 ops takes about a second and a half on a 2 GHz core.
  static constexpr int kIterations = 4;

  void setup(std::uint64_t seed) override {
    inputs_ = ckpt_run_inputs(seed);
    programs_.clear();
    for (const auto& in : inputs_)
      if (!programs_.count(in.workload))
        programs_.emplace(in.workload,
                          placed_workload(in.workload, kIterations));
  }
  long size() const override { return static_cast<long>(inputs_.size()); }
  long block() const override { return kCkptRunStrata; }

  OpResult run(long index, Tracer* tr) const override {
    const CkptRunInput& in =
        inputs_[static_cast<std::size_t>(index % size())];
    return guarded([&] {
      OpResult r;
      obs::Registry registry;  // outlives the store that points into it
      store::StableStore store(store::StorageModel{},
                               store::CheckpointMode::kIncremental,
                               in.nprocs);
      if (tr != nullptr) store.set_obs(&registry);
      sim::SimOptions opts;
      opts.nprocs = in.nprocs;
      opts.seed = in.sim_seed;
      auto capture = sim::store_capture_fn(store);
      if (tr != nullptr) {
        opts.checkpoint_capture_fn = [tr, &capture](
                                         int proc, const sim::VmSnapshot& s) {
          ScopedSpan span(tr, "store.capture");
          capture(proc, s);
        };
      } else {
        opts.checkpoint_capture_fn = std::move(capture);
      }
      const sim::SimResult result = [&] {
        ScopedSpan span(tr, "sim.engine");
        sim::Engine engine(programs_.at(in.workload), opts);
        return engine.run();
      }();
      r.counts[kEvents] = static_cast<double>(result.stats.events_processed);
      r.counts[kCheckpoints] =
          static_cast<double>(result.stats.statement_checkpoints +
                              result.stats.forced_checkpoints);
      r.counts[kStoredBytes] = static_cast<double>(store.bytes_stored());
      if (tr != nullptr) {
        const obs::MetricsSnapshot snap = registry.snapshot();
        r.counts[kFullRecords] = counter(snap, "store.records_full");
        r.counts[kDeltaRecords] = counter(snap, "store.records_delta");
      }
      long inconsistent = 0;
      {
        ScopedSpan span(tr, "trace.cuts");
        const std::vector<trace::Cut> cuts =
            trace::all_straight_cuts(result.trace);
        r.counts[kCuts] = static_cast<double>(cuts.size());
        for (const trace::Cut& cut : cuts)
          if (!trace::analyze_cut(result.trace, cut).consistent)
            ++inconsistent;
      }
      const std::uint64_t digest = [&] {
        ScopedSpan span(tr, "store.digest");
        return store.digest();
      }();
      long writes = 0;
      for (int p = 0; p < in.nprocs; ++p) writes += store.write_count(p);
      r.verdict = fnv(fnv(kFnvBasis, digest), result.stats.events_processed);
      if (!result.trace.completed) return fail(std::move(r), "incomplete run");
      if (r.counts[kCuts] < 1) return fail(std::move(r), "no straight cut");
      if (inconsistent > 0)
        return fail(std::move(r), std::to_string(inconsistent) +
                                      " inconsistent straight cuts");
      if (writes != static_cast<long>(r.counts[kCheckpoints]))
        return fail(std::move(r), "store writes != checkpoints taken");
      return r;
    });
  }

  void dump_inputs(std::ostream& out) const override { dump(out, inputs_); }

  std::string input_summary() const override {
    std::map<std::string, int> workloads;
    std::vector<int> n;
    for (const auto& in : inputs_) {
      ++workloads[in.workload];
      n.push_back(in.nprocs);
    }
    std::sort(n.begin(), n.end());
    std::ostringstream out;
    out << "{\"inputs\": " << inputs_.size()
        << ", \"iterations\": " << kIterations << ", \"n\": {\"min\": "
        << n.front() << ", \"median\": " << n[n.size() / 2]
        << ", \"max\": " << n.back()
        << "}, \"workloads\": " << json_counts(workloads) << '}';
    return out.str();
  }

 private:
  std::vector<CkptRunInput> inputs_;
  std::map<std::string, mp::Program> programs_;
};

// ---------------------------------------------------------------------------
// fault-sweep: the recovery oracle for five protocols under the full fault
// model, on the Monte-Carlo pool
// ---------------------------------------------------------------------------

class FaultSweep final : public Workload {
 public:
  static constexpr int kIterations = 4;
  static constexpr long kEventCapFactor = 50;
  static constexpr long kMinEventCap = 50'000;

  void setup(std::uint64_t seed) override {
    inputs_ = fault_inputs(seed);
    programs_.clear();
    cases_.clear();
    // Pre-analysis: place the app-driven programs, then probe each
    // (program, protocol, n) failure-free once for the fault horizon.
    std::map<std::string, sim::SimResult> probes;
    for (const FaultInput& in : inputs_) {
      const bool app = in.protocol == proto::Protocol::kAppDriven;
      const std::string key = in.workload + (app ? "/placed" : "/bare");
      if (!programs_.count(key)) {
        mp::WorkloadParams bare;
        bare.iterations = kIterations;
        bare.checkpoints = false;
        programs_.emplace(key, app ? placed_workload(in.workload, kIterations)
                                   : mp::workload_by_name(in.workload, bare));
      }
      Case c;
      c.program = &programs_.at(key);
      c.protocol = in.protocol;
      c.opts.nprocs = in.nprocs;
      c.opts.seed = in.sim_seed;
      c.opts.recovery_overhead = 0.5;
      const std::string probe_key = key + "/" + std::to_string(in.nprocs);
      if (!probes.count(probe_key))
        probes.emplace(probe_key, sim::simulate(*c.program, in.nprocs, 1));
      const sim::SimResult& probe = probes.at(probe_key);
      const double makespan = probe.trace.end_time;
      // Runaway guard: a run that needs far more events than the
      // failure-free probe is stuck; it fails its op in bounded time and
      // memory instead of running to the engine's default cap.
      c.opts.max_events = std::max(
          kMinEventCap, kEventCapFactor * probe.stats.events_processed);
      // Timer protocols checkpoint about four times per run.
      c.popts.interval = makespan / 4.0;
      c.opts.delay = in.delay;
      c.opts.storage_faults = sim::random_storage_fault_plan(
          in.storage_seed, in.nprocs, /*max_ordinal=*/4);
      c.plan = sim::random_fault_plan(in.fault_seed, in.nprocs,
                                      makespan * 0.9, /*max_faults=*/2,
                                      /*max_partitions=*/1, /*max_stalls=*/1);
      cases_.push_back(std::move(c));
    }
  }
  long size() const override { return static_cast<long>(cases_.size()); }
  long block() const override { return kFaultStrata; }
  bool parallel() const override { return true; }

  OpResult run(long index, Tracer* tr) const override {
    const Case& c = cases_[static_cast<std::size_t>(index % size())];
    return guarded([&] {
      OpResult r;
      // Per-run resources: this op's own options copy and registry.
      sim::SimOptions opts = c.opts;
      obs::Registry registry;
      if (tr != nullptr) opts.obs = &registry;
      const sim::OracleReport report = [&] {
        ScopedSpan span(tr, "proto.oracle");
        return proto::check_protocol_recovery(*c.program, c.protocol, opts,
                                              c.plan, c.popts);
      }();
      const sim::RecoveryMetrics& m = report.metrics;
      r.counts[kTransportSends] = static_cast<double>(m.transport_sends);
      r.counts[kRetransmits] = static_cast<double>(m.transport_retransmits);
      r.counts[kGiveUps] = static_cast<double>(m.transport_give_ups);
      r.counts[kRollbacks] = static_cast<double>(m.failures);
      r.counts[kFallbackDepth] =
          m.mean_fallback_depth * static_cast<double>(m.failures);
      r.counts[kCorruptSkipped] = static_cast<double>(m.corrupt_records_skipped);
      r.counts[kSuspicions] = static_cast<double>(m.suspicions);
      r.counts[kFalseSuspicions] = static_cast<double>(m.false_suspicions);
      if (tr != nullptr) {
        const obs::MetricsSnapshot snap = registry.snapshot();
        r.counts[kEvents] = counter(snap, "engine.events_processed");
        r.counts[kControlMsgs] = counter(snap, "engine.control_messages");
        r.counts[kForcedCkpts] = counter(snap, "engine.checkpoints_forced");
      }
      r.verdict = fnv(fnv(fnv(kFnvBasis, report.ok ? 1 : 0),
                          static_cast<std::uint64_t>(report.restarts)),
                      static_cast<std::uint64_t>(m.transport_retransmits));
      if (!report.ok) return fail(std::move(r), "oracle: " + report.failure);
      return r;
    });
  }

  void dump_inputs(std::ostream& out) const override {
    dump(out, inputs_);
    out.precision(17);
    for (const Case& c : cases_) {
      out << "plan interval=" << c.popts.interval;
      for (const auto& f : c.plan.faults)
        out << " crash(" << f.proc << ',' << static_cast<int>(f.trigger)
            << ',' << f.time << ',' << f.count << ')';
      for (const auto& p : c.plan.partitions) {
        out << " partition(";
        for (const int g : p.group) out << g << ' ';
        out << p.start << ',' << p.heal << ',' << p.symmetric << ')';
      }
      for (const auto& s : c.plan.stalls)
        out << " stall(" << s.proc << ',' << s.start << ',' << s.duration
            << ')';
      for (const auto& f : c.opts.storage_faults.faults)
        out << " storage(" << f.proc << ',' << static_cast<int>(f.kind) << ','
            << f.ckpt_ordinal << ')';
      out << '\n';
    }
  }

  std::string input_summary() const override {
    std::map<std::string, int> protocols;
    std::map<std::string, int> n;
    for (const auto& in : inputs_) {
      ++protocols[proto::protocol_name(in.protocol)];
      ++n[std::to_string(in.nprocs)];
    }
    std::ostringstream out;
    out << "{\"inputs\": " << inputs_.size()
        << ", \"iterations\": " << kIterations
        << ", \"protocols\": " << json_counts(protocols)
        << ", \"n\": " << json_counts(n) << '}';
    return out.str();
  }

 private:
  struct Case {
    const mp::Program* program = nullptr;
    proto::Protocol protocol = proto::Protocol::kAppDriven;
    sim::SimOptions opts;
    sim::FaultPlan plan;
    proto::ProtocolOptions popts;
  };
  std::vector<FaultInput> inputs_;
  std::map<std::string, mp::Program> programs_;
  std::vector<Case> cases_;
};

// ---------------------------------------------------------------------------
// explore: bounded schedule-space search; negative controls are caught,
// shrunk, and replayed
// ---------------------------------------------------------------------------

class Explore final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    inputs_ = explore_inputs(seed);
    cases_.clear();
    for (const ExploreInput& in : inputs_) cases_.push_back(make_case(in));
  }
  long size() const override { return static_cast<long>(cases_.size()); }
  long block() const override { return kExploreStrata; }

  OpResult run(long index, Tracer* tr) const override {
    const Case& c = cases_[static_cast<std::size_t>(index % size())];
    return guarded([&] {
      OpResult r;
      const explore::ExploreResult found = [&] {
        ScopedSpan span(tr, "explore.search");
        return explore::explore(c.scenario, c.opts);
      }();
      r.counts[kSchedules] = static_cast<double>(found.schedules_run);
      r.counts[kChoicePoints] = static_cast<double>(found.choice_points);
      r.counts[kStatesRecorded] = static_cast<double>(found.states_recorded);
      r.counts[kStatesPruned] = static_cast<double>(found.states_pruned);
      r.verdict = fnv(fnv(kFnvBasis, static_cast<std::uint64_t>(
                                         found.schedules_run)),
                      static_cast<std::uint64_t>(found.violations_found));
      if (c.expect.empty()) {
        if (found.violations_found != 0)
          return fail(std::move(r),
                      "genuine driver violated " +
                          found.violations.front().property + ": " +
                          found.violations.front().detail);
        return r;
      }
      if (found.violations.empty() ||
          found.violations.front().property != c.expect)
        return fail(std::move(r), "negative control not caught");
      const explore::ShrinkResult shrunk = [&] {
        ScopedSpan span(tr, "explore.shrink");
        return explore::shrink(c.scenario, c.opts, found.violations.front());
      }();
      r.counts[kShrinks] = 1;
      r.counts[kShrunkChoices] = static_cast<double>(shrunk.final_choices);
      const explore::ReplayReport replay = [&] {
        ScopedSpan span(tr, "explore.replay");
        return explore::replay_plan(c.scenario, c.opts, shrunk.minimal.plan);
      }();
      r.verdict = fnv(r.verdict, shrunk.minimal.digest);
      if (shrunk.minimal.property != c.expect)
        return fail(std::move(r), "shrinking changed the violation");
      if (!replay.violation || replay.violation->property != c.expect ||
          replay.digest != shrunk.minimal.digest)
        return fail(std::move(r), "shrunk plan does not replay");
      return r;
    });
  }

  void dump_inputs(std::ostream& out) const override { dump(out, inputs_); }

  std::string input_summary() const override {
    std::map<std::string, int> drivers;
    for (const auto& in : inputs_) ++drivers[in.driver];
    std::ostringstream out;
    out << "{\"inputs\": " << inputs_.size()
        << ", \"drivers\": " << json_counts(drivers) << '}';
    return out.str();
  }

 private:
  struct Case {
    explore::Scenario scenario;
    explore::ExploreOptions opts;
    std::string expect;  ///< property a negative control must violate
  };

  /// Genuine drivers search crash, partition and stall points. Each
  /// negative control keeps the scenario its bug is tuned to.
  static Case make_case(const ExploreInput& in) {
    Case c;
    c.scenario.workload = in.workload;
    c.scenario.nprocs = in.nprocs;
    c.scenario.driver = in.driver;
    if (in.driver == "cic-broken") {
      c.scenario.params.iterations = 3;
      c.scenario.proto.interval = 22.0;
      c.scenario.proto.cic_stagger = 0.5;
      c.opts.max_choice_points = 8;
      c.opts.max_schedules = 4000;
      c.opts.check_cic_index = true;
      c.opts.perturb.delay_steps = 3;
      c.opts.perturb.delay_quantum = 2.0;
      c.expect = "cic-index";
      return c;
    }
    if (in.driver == "supervised-fragile") {
      c.scenario.params.iterations = 3;
      c.scenario.proto.interval = 20.0;
      c.opts.max_choice_points = 6;
      c.opts.max_schedules = 3000;
      c.opts.perturb.tie_cap = 1;
      c.opts.perturb.stall_points = true;
      c.opts.perturb.stall_window = 10.0;
      c.expect = "completion";
      return c;
    }
    c.scenario.params.iterations = 2;
    c.scenario.proto.interval = 20.0;
    c.opts.max_choice_points = 6;
    c.opts.max_schedules = 4000;
    c.opts.perturb.tie_cap = 1;
    c.opts.perturb.failure_points = true;
    c.opts.perturb.partition_points = true;
    c.opts.perturb.partition_window = 2.0;
    c.opts.perturb.stall_points = true;
    c.opts.perturb.stall_window = 2.0;
    return c;
  }

  std::vector<ExploreInput> inputs_;
  std::vector<Case> cases_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "analyze") return std::make_unique<Analyze>();
  if (name == "ckpt-run") return std::make_unique<CkptRun>();
  if (name == "fault-sweep") return std::make_unique<FaultSweep>();
  if (name == "explore") return std::make_unique<Explore>();
  return nullptr;
}

}  // namespace perfbench
