#include "inputs.h"

#include <numeric>
#include <set>
#include <stdexcept>

#include "mp/printer.h"
#include "sim/montecarlo.h"
#include "util/rng.h"

namespace perfbench {

namespace {

// Per-workload salts keep the four streams unrelated under one seed.
constexpr std::uint64_t kAnalyzeSalt = 0xa11a;
constexpr std::uint64_t kCkptSalt = 0xc4c4;
constexpr std::uint64_t kFaultSalt = 0xfa17;
constexpr std::uint64_t kExploreSalt = 0xe8e8;

/// Seeded permutations of 0..strata-1, one after another, until the
/// order holds at least `pool` entries. `expected` is the stream's
/// published stratum count (inputs.h), which must match its lists.
std::vector<int> stratified_order(std::uint64_t seed, int strata,
                                  int expected, int pool = kPoolSize) {
  if (strata != expected)
    throw std::logic_error("stratum count out of step with inputs.h");
  std::vector<int> order;
  for (int b = 0; static_cast<int>(order.size()) < pool; ++b) {
    std::vector<int> block(static_cast<std::size_t>(strata));
    std::iota(block.begin(), block.end(), 0);
    acfc::util::Rng rng(acfc::sim::run_seed(seed, b));
    for (int i = strata - 1; i > 0; --i)
      std::swap(block[static_cast<std::size_t>(i)],
                block[static_cast<std::size_t>(rng.uniform_int(0, i))]);
    order.insert(order.end(), block.begin(), block.end());
  }
  return order;
}

int draw(acfc::util::Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.uniform_int(lo, hi));
}

double draw(acfc::util::Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.uniform01();
}

}  // namespace

std::vector<AnalyzeInput> analyze_inputs(std::uint64_t seed) {
  // 128 strata: segment count 3..17 (odd) × aligned / misaligned
  // checkpoints × loop depth 1 / 2 × collectives × irregular gathers. Half
  // the stream needs Phase III repair.
  const std::uint64_t base = seed ^ kAnalyzeSalt;
  const std::vector<int> order =
      stratified_order(base, 128, kAnalyzeStrata, kAnalyzePoolSize);
  std::vector<AnalyzeInput> out;
  std::set<std::string> seen;
  acfc::util::Rng rng(acfc::sim::run_seed(base, -1));
  for (const int stratum : order) {
    AnalyzeInput in;
    in.gen.segments = 3 + 2 * (stratum % 8);
    in.gen.misalign_checkpoints = (stratum / 8) % 2 == 1;
    in.gen.max_loop_depth = 1 + (stratum / 16) % 2;
    in.gen.allow_collectives = (stratum / 32) % 2 == 1;
    in.gen.allow_irregular = (stratum / 64) % 2 == 1;
    in.gen.max_trip = draw(rng, 2, 4);
    in.gen.loop_probability = draw(rng, 0.2, 0.5);
    in.gen.checkpoint_probability = draw(rng, 0.3, 0.6);
    // Distinct programs only: redraw the generator seed on a repeat.
    do {
      in.gen.seed = rng.next_u64();
      in.text = acfc::mp::print(acfc::mp::generate_program(in.gen));
    } while (!seen.insert(in.text).second);
    out.push_back(std::move(in));
  }
  return out;
}

std::vector<CkptRunInput> ckpt_run_inputs(std::uint64_t seed) {
  // Strata: the seven canonical workloads × eight bands of n in [16, 64].
  static const std::vector<std::string> kWorkloads = {
      "jacobi_aligned", "jacobi_misaligned", "ring",
      "master_worker",  "pipeline",          "butterfly",
      "stencil_two_phase"};
  constexpr int kBands = 8;
  const int strata = static_cast<int>(kWorkloads.size()) * kBands;
  const std::uint64_t base = seed ^ kCkptSalt;
  const std::vector<int> order =
      stratified_order(base, strata, kCkptRunStrata);
  acfc::util::Rng rng(acfc::sim::run_seed(base, -1));
  std::vector<CkptRunInput> out;
  for (const int stratum : order) {
    const int band = stratum % kBands;
    const int lo = 16 + 6 * band;
    const int hi = band == kBands - 1 ? 64 : lo + 5;
    CkptRunInput in;
    in.workload = kWorkloads[static_cast<std::size_t>(stratum / kBands)];
    in.nprocs = draw(rng, lo, hi);
    in.sim_seed = rng.next_u64();
    out.push_back(std::move(in));
  }
  return out;
}

std::vector<FaultInput> fault_inputs(std::uint64_t seed) {
  // Strata: workload × protocol × three bands of n in [8, 16].
  // master_worker is left out: its any-source receives let a recovered run
  // match messages in another order than the failure-free reference, and
  // the oracle's digest check requires the same execution (README,
  // "Defects found").
  static const std::vector<std::string> kWorkloads = {
      "jacobi_aligned", "jacobi_misaligned", "ring",
      "pipeline",       "butterfly",         "stencil_two_phase"};
  using acfc::proto::Protocol;
  static const std::vector<Protocol> kProtocols = {
      Protocol::kAppDriven, Protocol::kSyncAndStop, Protocol::kChandyLamport,
      Protocol::kKooToueg, Protocol::kCic};
  std::vector<std::pair<std::string, Protocol>> pairs;
  for (const std::string& w : kWorkloads)
    for (const Protocol p : kProtocols) pairs.emplace_back(w, p);
  constexpr int kBands = 3;
  const int strata = static_cast<int>(pairs.size()) * kBands;
  const std::uint64_t base = seed ^ kFaultSalt;
  const std::vector<int> order = stratified_order(base, strata, kFaultStrata);
  acfc::util::Rng rng(acfc::sim::run_seed(base, -1));
  std::vector<FaultInput> out;
  for (const int stratum : order) {
    const int band = stratum % kBands;
    FaultInput in;
    in.workload = pairs[static_cast<std::size_t>(stratum / kBands)].first;
    in.protocol = pairs[static_cast<std::size_t>(stratum / kBands)].second;
    in.nprocs = draw(rng, 8 + 3 * band, 10 + 3 * band);
    in.sim_seed = rng.next_u64();
    in.fault_seed = rng.next_u64();
    in.storage_seed = rng.next_u64();
    in.delay.drop = draw(rng, 0.02, 0.06);
    in.delay.dup = draw(rng, 0.01, 0.03);
    in.delay.reorder = draw(rng, 0.05, 0.15);
    out.push_back(std::move(in));
  }
  return out;
}

std::vector<ExploreInput> explore_inputs(std::uint64_t seed) {
  // Strata: three workloads × {3, 4} processes × six genuine drivers, plus
  // the two negative controls (each tuned to one scenario, so they take
  // no drawn parameters).
  static const std::vector<std::string> kWorkloads = {"ring", "pipeline",
                                                      "jacobi_aligned"};
  static const std::vector<std::string> kDrivers = {
      "app-driven", "sync-and-stop", "chandy-lamport",
      "koo-toueg",  "cic",           "supervised"};
  const int genuine = static_cast<int>(kWorkloads.size() * kDrivers.size()) * 2;
  const std::vector<int> order =
      stratified_order(seed ^ kExploreSalt, genuine + 2, kExploreStrata);
  std::vector<ExploreInput> out;
  for (const int stratum : order) {
    ExploreInput in;
    if (stratum >= genuine) {
      in.workload = "ring";
      in.nprocs = 3;
      in.driver = stratum == genuine ? "cic-broken" : "supervised-fragile";
      in.negative_control = true;
    } else {
      in.workload = kWorkloads[static_cast<std::size_t>(
          stratum / (2 * static_cast<int>(kDrivers.size())))];
      in.driver = kDrivers[static_cast<std::size_t>(
          (stratum / 2) % static_cast<int>(kDrivers.size()))];
      in.nprocs = 3 + stratum % 2;
    }
    out.push_back(std::move(in));
  }
  return out;
}

void dump(std::ostream& out, const std::vector<AnalyzeInput>& inputs) {
  for (const auto& in : inputs)
    out << "program seed=" << in.gen.seed << " segments=" << in.gen.segments
        << " misalign=" << in.gen.misalign_checkpoints
        << " loop_depth=" << in.gen.max_loop_depth
        << " collectives=" << in.gen.allow_collectives
        << " irregular=" << in.gen.allow_irregular << '\n'
        << in.text << '\n';
}

void dump(std::ostream& out, const std::vector<CkptRunInput>& inputs) {
  for (const auto& in : inputs)
    out << in.workload << " n=" << in.nprocs << " seed=" << in.sim_seed
        << '\n';
}

void dump(std::ostream& out, const std::vector<FaultInput>& inputs) {
  out.precision(17);
  for (const auto& in : inputs)
    out << in.workload << ' ' << acfc::proto::protocol_name(in.protocol)
        << " n=" << in.nprocs << " seed=" << in.sim_seed
        << " faults=" << in.fault_seed << " storage=" << in.storage_seed
        << " drop=" << in.delay.drop << " dup=" << in.delay.dup
        << " reorder=" << in.delay.reorder << '\n';
}

void dump(std::ostream& out, const std::vector<ExploreInput>& inputs) {
  for (const auto& in : inputs)
    out << in.workload << " n=" << in.nprocs << " driver=" << in.driver
        << (in.negative_control ? " negative-control" : "") << '\n';
}

}  // namespace perfbench
