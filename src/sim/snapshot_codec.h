// Deterministic byte encoding of VmSnapshot — the bridge between the
// engine's checkpoint hook and the storage layer's payload records.
//
// serialize_snapshot flattens a process's complete VM state into a
// canonical byte string: identical states encode to identical bytes (the
// property the ACFD delta codec and every stored checksum depend on), and
// nearly-identical states — consecutive checkpoints of one process —
// encode to nearly-identical bytes, which is what makes delta records
// small. Pointers into the immutable program AST are encoded by statement
// uid, never by address, so encodings are stable across runs and
// processes.
//
// store_capture_fn packages the serializer as the engine's capture hook
// (SimOptions::checkpoint_capture_fn): it serializes every take inline
// and writes it into a StableStore via write_payload. The serializer
// writes into a per-closure scratch buffer and the store encodes into its
// own, so once both have warmed up a take makes one allocation: the
// stored record, an exact-size copy of the encoded bytes (besides the
// amortized growth of the store's record list). The store must
// outlive the returned function and belong to a single Engine run.
#pragma once

#include <functional>
#include <string>

#include "sim/vm.h"
#include "store/store.h"

namespace acfc::sim {

/// Canonical encoding ("ACFS" magic, format 1; fixed-width fields — see
/// docs/analysis.md). Layout: digest, rng state, vector clock,
/// collectives_done, per-channel send/recv counters, irregular and
/// checkpoint-instance counters, control stack (loop uid / index /
/// loop_value / loop_hi per frame).
std::string serialize_snapshot(const VmSnapshot& snapshot);

/// In-place variant: replaces `out` with the canonical encoding, sized
/// exactly up front and written field by field through a cursor. Callers
/// that persist many snapshots reuse one scratch buffer and pay no
/// allocation per take once it has warmed up.
void serialize_snapshot_into(const VmSnapshot& snapshot, std::string& out);

/// A SimOptions::checkpoint_capture_fn that serializes every captured
/// snapshot into `store`. Write times are a per-store sequence number (the
/// store only needs a monotone order, as with store::checkpoint_cost_fn).
std::function<void(int, const VmSnapshot&)> store_capture_fn(
    store::StableStore& store);

}  // namespace acfc::sim
