// The seeded input streams of the four workloads.
//
// Everything here is a pure function of the seed: the same seed gives the
// same inputs, byte for byte (dump() is what the determinism test
// compares). Draws are stratified — each block of the stream holds one
// input from every stratum of the knob that drives cost (segment count,
// process count, workload), in a seeded order with seeded values inside
// the stratum — so two seeds give different inputs from the same mix.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "mp/generate.h"
#include "proto/protocols.h"
#include "sim/engine.h"

namespace perfbench {

/// Inputs per stream, at least: one pass over a stream is the unit the
/// end-to-end run measures, and it must hold enough ops for a p99 with
/// ten samples beyond it.
inline constexpr int kPoolSize = 1000;
/// analyze draws its programs at random inside each stratum, and their
/// cost is heavy-tailed (p99 about twelve times p50), so its p99 needs
/// more inputs than kPoolSize to read the same from seed to seed.
inline constexpr int kAnalyzePoolSize = 4000;

/// Strata per stream. Every block of this many consecutive inputs holds
/// each stratum once, so every block has the same mix whatever the seed
/// (set-up warms up on the first one).
inline constexpr int kAnalyzeStrata = 128;
inline constexpr int kCkptRunStrata = 56;
inline constexpr int kFaultStrata = 90;
inline constexpr int kExploreStrata = 38;

/// analyze: generated programs, already printed to DSL text.
struct AnalyzeInput {
  acfc::mp::GenerateOptions gen;
  std::string text;
};
std::vector<AnalyzeInput> analyze_inputs(std::uint64_t seed);

/// ckpt-run: a canonical workload at one process count.
struct CkptRunInput {
  std::string workload;
  int nprocs = 0;
  std::uint64_t sim_seed = 0;
};
std::vector<CkptRunInput> ckpt_run_inputs(std::uint64_t seed);

/// fault-sweep: one protocol run under the full fault model — crashes, a
/// partition, a stall, storage corruption and a lossy wire. The fault plans
/// need the failure-free makespan, so set-up derives them from these seeds
/// after probing (see ops.cpp).
struct FaultInput {
  std::string workload;
  int nprocs = 0;
  acfc::proto::Protocol protocol = acfc::proto::Protocol::kAppDriven;
  std::uint64_t sim_seed = 0;
  std::uint64_t fault_seed = 0;
  std::uint64_t storage_seed = 0;
  acfc::sim::DelayModel delay;
};
std::vector<FaultInput> fault_inputs(std::uint64_t seed);

/// explore: one bounded search. Negative controls carry a seeded bug the
/// search must find.
struct ExploreInput {
  std::string workload;
  int nprocs = 0;
  std::string driver;
  bool negative_control = false;
};
std::vector<ExploreInput> explore_inputs(std::uint64_t seed);

/// Canonical text of each stream, one input per line.
void dump(std::ostream& out, const std::vector<AnalyzeInput>& inputs);
void dump(std::ostream& out, const std::vector<CkptRunInput>& inputs);
void dump(std::ostream& out, const std::vector<FaultInput>& inputs);
void dump(std::ostream& out, const std::vector<ExploreInput>& inputs);

}  // namespace perfbench
