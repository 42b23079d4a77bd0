// A benchmark workload: seeded inputs, a set-up phase that prepares them,
// and ops that drive them through the library's public API and check the
// outputs.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "spans.h"

namespace perfbench {

/// Work counted by the ops, summed over ops. Counters the benchmark can
/// only read from an obs::Registry (marked "traced") stay 0 in untraced
/// runs, which attach none.
enum Count : int {
  kStmts,           ///< statements of the parsed program
  kCfgNodes,
  kMsgEdges,        ///< message edges of the extended CFG
  kSatLookups,      ///< global sat-cache hits + misses
  kSatHits,
  kViolations,      ///< Condition-1 violations before repair
  kRepairMoves,     ///< moves + merges + hoists
  kEvents,          ///< engine events (fault-sweep: traced)
  kCheckpoints,     ///< checkpoints the store captured
  kStoredBytes,     ///< StableStore::bytes_stored after the run
  kFullRecords,     ///< store records written as full images (traced)
  kDeltaRecords,    ///< store records written as deltas (traced)
  kCuts,            ///< straight cuts checked
  kControlMsgs,     ///< protocol control messages (traced)
  kForcedCkpts,     ///< protocol-forced checkpoints (traced)
  kTransportSends,
  kRetransmits,
  kGiveUps,
  kRollbacks,
  kFallbackDepth,   ///< Σ over rollbacks of the deepest per-process fallback
  kCorruptSkipped,
  kSuspicions,
  kFalseSuspicions,
  kSchedules,
  kChoicePoints,
  kStatesRecorded,
  kStatesPruned,
  kShrinks,
  kShrunkChoices,   ///< Σ non-default choices left after shrinking
  kNumCounts,
};

using Counts = std::array<double, kNumCounts>;

/// 64-bit FNV-1a, for the verdict digests of ops and runs.
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

inline std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

inline std::uint64_t fnv(std::uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct OpResult {
  bool ok = true;
  std::string failure;   ///< first failed output check, when !ok
  std::uint64_t verdict = 0;  ///< deterministic digest of the op's outputs
  Counts counts{};
  double wall_ms = 0.0;  ///< filled in by the runner
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Set-up: generates the inputs from the seed and prepares them
  /// (pre-analysis). Called once per set-up repetition.
  virtual void setup(std::uint64_t seed) = 0;
  /// Number of prepared inputs; op i runs input i mod size.
  virtual long size() const = 0;
  /// Inputs per stratum block (inputs.h); set-up warms up on the first
  /// block, whose mix is the same for every seed.
  virtual long block() const = 0;
  /// Runs op `index` and checks its outputs. Safe to call concurrently for
  /// distinct indices on workloads that report parallel(). With a tracer,
  /// records a span per layer call and attaches obs registries.
  virtual OpResult run(long index, Tracer* tracer) const = 0;
  /// Ops of this workload run as batches on the Monte-Carlo pool.
  virtual bool parallel() const { return false; }
  /// Canonical text of the prepared inputs.
  virtual void dump_inputs(std::ostream& out) const = 0;
  /// JSON object describing the inputs (for the context stamp).
  virtual std::string input_summary() const = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
