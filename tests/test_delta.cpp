// ACFD delta-record codec and payload-backed StableStore coverage:
// known-answer encodings, strict-decode rejection, a differential oracle
// against the reference codecs in reference_codec.h, chain-suffix
// invalidation under corruption, the storage-fault table, GC anchor
// preservation, and the snapshot-serializer capture wiring into the
// engine (including per-run stores under the parallel Monte-Carlo pool).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "reference_codec.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/montecarlo.h"
#include "sim/snapshot_codec.h"
#include "store/delta.h"
#include "store/store.h"
#include "util/checksum.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace acfc;
using store::CheckpointMode;
using store::decode_record;
using store::encode_delta_record;
using store::encode_full_record;
using store::RecordKind;
using store::StableStore;
using store::StorageFault;
using store::StorageModel;

// ---------------------------------------------------------------------------
// Codec: known answers and round trips
// ---------------------------------------------------------------------------

const std::string kKatBase = "AAAABBBBCCCCDDDDEEEEFFFF";
const std::string kKatNext = "AAAABBBBxxxxDDDDEEEEFFFF";

TEST(DeltaCodec, FullRecordKnownAnswer) {
  const std::string expect(
      "\x41\x43\x46\x44\x01\x00\x00\x00\x00\x18\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x41\x41\x41\x41\x42\x42\x42"
      "\x42\x43\x43\x43\x43\x44\x44\x44\x44\x45\x45\x45\x45\x46\x46\x46"
      "\x46\xd2\x78\x58\x21\x09\xd2\xe3\xf9",
      57);
  EXPECT_EQ(encode_full_record(kKatBase), expect);
  EXPECT_EQ(store::record_kind(expect), RecordKind::kFull);
  EXPECT_EQ(decode_record(expect, {}), kKatBase);
}

TEST(DeltaCodec, DeltaRecordKnownAnswer) {
  // One changed 8-byte block in the middle: copy(0,8), literal
  // "xxxxDDDD", copy(16,8). (The literal run rounds up to the block.)
  const std::string expect(
      "\x41\x43\x46\x44\x01\x00\x00\x00\x01\x18\x00\x00\x00\x00\x00\x00"
      "\x00\xae\xe8\x54\xeb\xb9\x68\x56\x98\x00\x00\x00\x00\x00\x08\x00"
      "\x00\x00\x01\x08\x00\x00\x00\x78\x78\x78\x78\x44\x44\x44\x44\x00"
      "\x10\x00\x00\x00\x08\x00\x00\x00\x20\xc7\x69\xb8\x21\x3e\xda\x36",
      64);
  EXPECT_EQ(encode_delta_record(kKatBase, kKatNext), expect);
  EXPECT_EQ(store::record_kind(expect), RecordKind::kDelta);
  EXPECT_EQ(decode_record(expect, kKatBase), kKatNext);
}

TEST(DeltaCodec, RoundTripsArbitraryPairs) {
  util::Rng rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 400));
    std::string base(len, '\0');
    for (char& c : base) c = static_cast<char>(rng.uniform_int(0, 255));
    // Mutate a few spots (and sometimes the length) to make the payload.
    std::string payload = base;
    payload.resize(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(len) + 32)));
    for (std::size_t i = base.size(); i < payload.size(); ++i)
      payload[i] = static_cast<char>(rng.uniform_int(0, 255));
    for (int hit = 0; hit < 4 && !payload.empty(); ++hit)
      payload[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(payload.size()) - 1))] ^= 0x40;

    EXPECT_EQ(decode_record(encode_full_record(payload), {}), payload);
    EXPECT_EQ(decode_record(encode_delta_record(base, payload), base),
              payload);
  }
}

TEST(DeltaCodec, IdenticalPayloadDeltaIsTiny) {
  std::string payload(512, 'z');
  const std::string delta = encode_delta_record(payload, payload);
  // Header + one copy op + checksum — far below the payload size.
  EXPECT_LT(delta.size(), 64u);
  EXPECT_EQ(decode_record(delta, payload), payload);
}

TEST(DeltaCodec, DecodeRejectsEveryCorruptByte) {
  const std::string record = encode_delta_record(kKatBase, kKatNext);
  for (std::size_t i = 0; i < record.size(); ++i) {
    std::string bent = record;
    bent[i] ^= 0x01;
    EXPECT_EQ(decode_record(bent, kKatBase), std::nullopt) << "byte " << i;
  }
}

TEST(DeltaCodec, DecodeRejectsStructuralDamage) {
  const std::string full = encode_full_record(kKatBase);
  const std::string delta = encode_delta_record(kKatBase, kKatNext);
  // Truncations at every length.
  for (std::size_t keep = 0; keep < full.size(); ++keep)
    EXPECT_EQ(decode_record(full.substr(0, keep), {}), std::nullopt);
  // Trailing garbage.
  EXPECT_EQ(decode_record(full + "x", {}), std::nullopt);
  // A delta decoded against the wrong base fails the base binding.
  EXPECT_EQ(decode_record(delta, kKatNext), std::nullopt);
  EXPECT_EQ(decode_record(delta, {}), std::nullopt);
  // Arbitrary bytes are rejected, not crashed on.
  EXPECT_EQ(decode_record("not a record at all, certainly", {}),
            std::nullopt);
  EXPECT_EQ(store::record_kind("ACFDxxxx"), std::nullopt);
  // A well-sealed record whose payload_len claims 2^62 bytes: decode must
  // not trust the header field for an allocation.
  const std::pair<std::string, std::string> kSealed[] = {{full, ""},
                                                         {delta, kKatBase}};
  for (const auto& [record, base] : kSealed) {
    std::string huge = record;
    const std::uint64_t claim = 1ULL << 62;
    std::memcpy(huge.data() + 9, &claim, 8);
    reference::reseal(huge);
    std::optional<std::string> decoded;
    EXPECT_NO_THROW(decoded = decode_record(huge, base));
    EXPECT_EQ(decoded, std::nullopt);
  }
}

// ---------------------------------------------------------------------------
// Payload-backed StableStore
// ---------------------------------------------------------------------------

StorageModel tight_model(int full_every) {
  StorageModel model;
  model.full_every = full_every;
  return model;
}

constexpr std::size_t kPayloadBytes = 512;

/// Synthetic per-ordinal payloads that mostly share bytes with their
/// predecessor, like real consecutive snapshots: one moving 16-byte
/// dirty region (a clock component) plus one fixed counter byte.
std::string payload_at(long ordinal) {
  std::string p(kPayloadBytes, 'p');
  const auto at = static_cast<std::size_t>((ordinal % 8) * 24);
  for (std::size_t i = 0; i < 16; ++i)
    p[at + i] = static_cast<char>('a' + (ordinal + static_cast<long>(i)) % 26);
  p[kPayloadBytes - 1] = static_cast<char>('0' + ordinal % 10);
  return p;
}

TEST(PayloadStore, IncrementalChainRoundTrips) {
  StableStore store(tight_model(4), CheckpointMode::kIncremental, 1);
  for (long ordinal = 1; ordinal <= 10; ++ordinal) {
    const auto cost = store.write_payload(0, payload_at(ordinal),
                                          static_cast<double>(ordinal));
    // Cadence: full on the 1st take and every 4th after, deltas between.
    const bool expect_full = (ordinal - 1) % 4 == 0;
    EXPECT_EQ(cost.full_image, expect_full) << "ordinal " << ordinal;
    if (!expect_full) {
      EXPECT_LT(cost.bytes, static_cast<long>(kPayloadBytes + 33))
          << "delta did not shrink";
    }
  }
  for (long ordinal = 1; ordinal <= 10; ++ordinal)
    EXPECT_EQ(store.restore_payload(0, ordinal), payload_at(ordinal))
        << "ordinal " << ordinal;
  EXPECT_EQ(store.restore_latest_payload(0), payload_at(10));
}

TEST(PayloadStore, DeltaBytesUndercutFullMode) {
  StableStore full_store(tight_model(8), CheckpointMode::kFull, 1);
  StableStore delta_store(tight_model(8), CheckpointMode::kIncremental, 1);
  for (long ordinal = 1; ordinal <= 16; ++ordinal) {
    full_store.write_payload(0, payload_at(ordinal),
                             static_cast<double>(ordinal));
    delta_store.write_payload(0, payload_at(ordinal),
                              static_cast<double>(ordinal));
  }
  EXPECT_LT(delta_store.bytes_stored(), full_store.bytes_stored() / 2);
}

TEST(PayloadStore, CorruptDeltaInvalidatesExactlyItsChainSuffix) {
  // full@1, deltas 2..8, full@9, deltas 10..12; bit-flip the delta at 5.
  store::StorageFaultPlan faults;
  faults.faults.push_back(store::StorageFaultPlan::bit_flip(0, 5));
  StableStore store(tight_model(8), CheckpointMode::kIncremental, 1,
                    faults);
  for (long ordinal = 1; ordinal <= 12; ++ordinal)
    store.write_payload(0, payload_at(ordinal),
                        static_cast<double>(ordinal));

  // Ordinals 1..4 precede the corruption: chains intact.
  for (long ordinal = 1; ordinal <= 4; ++ordinal) {
    EXPECT_TRUE(store.chain_verifies(0, ordinal)) << ordinal;
    EXPECT_EQ(store.restore_payload(0, ordinal), payload_at(ordinal));
  }
  // 5..8 sit on the rotten link: exactly this suffix is unrestorable.
  for (long ordinal = 5; ordinal <= 8; ++ordinal) {
    EXPECT_FALSE(store.chain_verifies(0, ordinal)) << ordinal;
    EXPECT_EQ(store.restore_payload(0, ordinal), std::nullopt) << ordinal;
  }
  // The next full image restarts the chain: 9..12 are fine again.
  for (long ordinal = 9; ordinal <= 12; ++ordinal) {
    EXPECT_TRUE(store.chain_verifies(0, ordinal)) << ordinal;
    EXPECT_EQ(store.restore_payload(0, ordinal), payload_at(ordinal));
  }
  EXPECT_EQ(store.scan_restore(0).ordinal, 12);
  EXPECT_EQ(store.latest_valid_index(0), 12);
}

TEST(PayloadStore, ScanFallsBackPastCorruptSuffix) {
  // No later full anchor: corruption at 5 pushes restore back to 4.
  store::StorageFaultPlan faults;
  faults.faults.push_back(store::StorageFaultPlan::bit_flip(0, 5));
  StableStore store(tight_model(64), CheckpointMode::kIncremental, 1,
                    faults);
  for (long ordinal = 1; ordinal <= 8; ++ordinal)
    store.write_payload(0, payload_at(ordinal),
                        static_cast<double>(ordinal));
  const auto scan = store.scan_restore(0);
  EXPECT_EQ(scan.ordinal, 4);
  EXPECT_EQ(scan.corrupt_skipped, 4);  // 5, 6, 7, 8
  EXPECT_EQ(store.restore_latest_payload(0), payload_at(4));
}

TEST(PayloadStore, TornPayloadWriteIsRejectedWholesale) {
  store::StorageFaultPlan faults;
  faults.faults.push_back(store::StorageFaultPlan::torn_write(0, 2));
  StableStore store(tight_model(1), CheckpointMode::kFull, 1, faults);
  store.write_payload(0, payload_at(1), 1.0);
  store.write_payload(0, payload_at(2), 2.0);
  EXPECT_FALSE(store.verify_record(0, 2));
  EXPECT_EQ(store.restore_payload(0, 2), std::nullopt);
  EXPECT_EQ(store.restore_latest_payload(0), payload_at(1));
}

TEST(PayloadStore, StoredChecksumMovesExactlyWithTheStoredBytes) {
  // Every fault kind on a full record (ordinal 1) and on a delta (2):
  // stored_checksum is re-hashed only after a fault that mutates bytes,
  // so it must differ from checksum exactly then, always describe the
  // bytes on disk, and never let verify_record pass a record that
  // restore_payload cannot decode (or the reverse). The last row applies
  // the same bit flip twice: the bytes come back intact and so does the
  // record.
  using Kind = StorageFault::Kind;
  struct Row {
    std::vector<Kind> faults;
    bool mutates;
  };
  const Row kRows[] = {
      {{}, false},
      {{Kind::kTornWrite}, true},
      {{Kind::kBitFlip}, true},
      {{Kind::kLostManifestEntry}, false},
      {{Kind::kStaleManifest}, false},
      {{Kind::kBitFlip, Kind::kBitFlip}, false},
  };
  for (const Row& row : kRows) {
    for (const long target : {1L, 2L}) {
      store::StorageFaultPlan plan;
      for (const Kind kind : row.faults)
        plan.faults.push_back(StorageFault{0, kind, target});
      StableStore store(tight_model(8), CheckpointMode::kIncremental, 1,
                        plan);
      for (long ordinal = 1; ordinal <= target; ++ordinal)
        store.write_payload(0, payload_at(ordinal),
                            static_cast<double>(ordinal));
      const auto records = store.records_of(0);
      ASSERT_EQ(records.size(), static_cast<std::size_t>(target));
      const StableStore::Record& r = records.back();
      SCOPED_TRACE(std::string(row.faults.empty()
                                   ? "no fault"
                                   : store::storage_fault_name(
                                         row.faults.front())) +
                   " x" + std::to_string(row.faults.size()) + " on " +
                   (r.full_image ? "full" : "delta"));
      EXPECT_EQ(r.full_image, target == 1);
      EXPECT_EQ(r.stored_checksum != r.checksum, row.mutates);
      EXPECT_EQ(r.stored_checksum, util::checksum64(r.encoded));
      const bool restorable = store.restore_payload(0, target).has_value();
      EXPECT_EQ(store.verify_record(0, target), restorable);
      EXPECT_EQ(restorable, row.faults.empty() || row.faults.size() == 2);
    }
  }
}

TEST(PayloadStore, GcKeepsFullRecordAnchors) {
  StableStore store(tight_model(4), CheckpointMode::kIncremental, 1);
  for (long ordinal = 1; ordinal <= 11; ++ordinal)
    store.write_payload(0, payload_at(ordinal),
                        static_cast<double>(ordinal));
  // Newest restore point is 11 (delta); its chain starts at the full
  // record 9. GC down to one restore point must keep 9 and 10 alive.
  store.collect_garbage(1);
  const auto records = store.records_of(0);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().ordinal, 9);
  EXPECT_TRUE(records.front().full_image);
  EXPECT_EQ(store.restore_payload(0, 11), payload_at(11));
  EXPECT_EQ(store.restore_payload(0, 3), std::nullopt);  // collected
}

// ---------------------------------------------------------------------------
// Differential oracle: the production encoders against reference_codec.h
// ---------------------------------------------------------------------------

/// Every snapshot a run of `program` captures, per process in take order.
std::vector<std::vector<sim::VmSnapshot>> capture_takes(
    const mp::Program& program, int nprocs) {
  std::vector<std::vector<sim::VmSnapshot>> takes(
      static_cast<std::size_t>(nprocs));
  sim::SimOptions opts;
  opts.nprocs = nprocs;
  opts.checkpoint_capture_fn = [&takes](int proc,
                                        const sim::VmSnapshot& state) {
    takes[static_cast<std::size_t>(proc)].push_back(state);
  };
  sim::Engine engine(program, opts);
  EXPECT_TRUE(engine.run().trace.completed);
  return takes;
}

/// Checks both encoders on one (base, payload) pair against the reference
/// bytes and checksums, with no limit and with the store's limit; returns
/// whether the store would keep the delta.
bool expect_encoders_match(std::string_view base, std::string_view payload) {
  const std::string ref_full = reference::encode_full_record(payload);
  const std::string ref_delta = reference::encode_delta_record(base, payload);
  std::string out = "stale scratch contents";
  EXPECT_EQ(store::encode_full_record_into(out, payload),
            util::checksum64(ref_full));
  EXPECT_EQ(out, ref_full);
  const auto unlimited = store::encode_delta_record_into(out, base, payload);
  EXPECT_EQ(unlimited, util::checksum64(ref_delta));
  EXPECT_EQ(out, ref_delta);
  // The early stop must reproduce the store's full-vs-delta decision.
  const bool keep_delta = ref_delta.size() < ref_full.size();
  const auto limited = store::encode_delta_record_into(
      out, base, payload, payload.size() + store::kRecordFramingBytes);
  EXPECT_EQ(limited.has_value(), keep_delta);
  if (limited) {
    EXPECT_EQ(*limited, util::checksum64(ref_delta));
    EXPECT_EQ(out, ref_delta);
  }
  return keep_delta;
}

TEST(CodecOracle, RealSnapshotsEncodeLikeTheReference) {
  // Every canonical workload at world sizes 2..64: serializer bytes, both
  // encoders on consecutive takes, and the records a StableStore keeps
  // must all equal what the reference codecs produce.
  std::string scratch = "stale contents from a previous take";
  long deltas_kept = 0, records_checked = 0;
  for (const std::string& name : mp::workload_names()) {
    for (const int n : {2, 5, 16, 64}) {
      SCOPED_TRACE(name + " n=" + std::to_string(n));
      const mp::Program program = mp::workload_by_name(name);
      const auto takes = capture_takes(program, n);
      StableStore store(tight_model(4), CheckpointMode::kIncremental, n);
      for (int proc = 0; proc < n; ++proc) {
        std::string prev;
        bool prev_full_due = true;
        int since_full = 0;
        std::vector<std::string> expect;
        for (const sim::VmSnapshot& snap :
             takes[static_cast<std::size_t>(proc)]) {
          const std::string ref = reference::serialize_snapshot(snap);
          sim::serialize_snapshot_into(snap, scratch);
          ASSERT_EQ(scratch, ref);
          store.write_payload(proc, scratch, 0.0);
          // The store's cadence (full_every 4) and shrink fallback,
          // replayed over reference-encoded records.
          const bool full = prev_full_due || since_full + 1 >= 4;
          const bool keep_delta = !full && expect_encoders_match(prev, ref);
          if (keep_delta) {
            ++deltas_kept;
            ++since_full;
            expect.push_back(reference::encode_delta_record(prev, ref));
          } else {
            since_full = 0;
            expect.push_back(reference::encode_full_record(ref));
          }
          prev = ref;
          prev_full_due = false;
        }
        const auto records = store.records_of(proc);
        ASSERT_EQ(records.size(), expect.size());
        for (std::size_t i = 0; i < records.size(); ++i) {
          EXPECT_EQ(records[i].encoded, expect[i]) << "record " << i;
          EXPECT_EQ(records[i].checksum, util::checksum64(expect[i]));
          EXPECT_EQ(records[i].stored_checksum, records[i].checksum);
          ++records_checked;
        }
      }
    }
  }
  EXPECT_GT(deltas_kept, 100);
  EXPECT_GT(records_checked, 1000);
}

TEST(CodecOracle, RandomPairsEncodeLikeTheReference) {
  // Payload lengths on and off the 8-byte grid; bases empty, shorter,
  // longer, equal in length, identical, or differing in every byte.
  util::Rng rng(20261019);
  auto random_bytes = [&rng](std::size_t len) {
    std::string bytes(len, '\0');
    for (char& c : bytes) c = static_cast<char>(rng.uniform_int(0, 255));
    return bytes;
  };
  int kept = 0, fell_back = 0, off_grid = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 300));
    const std::string payload = random_bytes(len);
    if (len % store::kDeltaBlockBytes != 0) ++off_grid;
    std::string owned;
    std::string_view base;
    switch (trial % 6) {
      case 0:  // empty base
        break;
      case 1:  // identical
        base = payload;
        break;
      case 2:  // every byte differs
        owned = payload;
        for (char& c : owned) c = static_cast<char>(c ^ 0x5a);
        base = owned;
        break;
      case 3:  // shorter base: a prefix view of the payload itself, so the
               // bytes just past the base's end agree with the payload and
               // a block straddling that end must still not match
        base = std::string_view(payload).substr(
            0, static_cast<std::size_t>(rng.uniform_int(
                   0, static_cast<std::int64_t>(len))));
        break;
      case 4:  // longer base sharing a prefix
        owned = payload + random_bytes(static_cast<std::size_t>(
                              rng.uniform_int(1, 40)));
        base = owned;
        break;
      default:  // equal length, a few scattered edits
        owned = payload;
        for (int hit = 0; hit < 3 && !owned.empty(); ++hit)
          owned[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(len) - 1))] ^= 0x21;
        base = owned;
        break;
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    (expect_encoders_match(base, payload) ? kept : fell_back) += 1;
    // Any other limit: nullopt exactly when the record would reach it.
    const std::size_t ref_size =
        reference::encode_delta_record(base, payload).size();
    const auto limit = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ref_size) + 8));
    std::string out;
    EXPECT_EQ(store::encode_delta_record_into(out, base, payload, limit)
                  .has_value(),
              ref_size < limit)
        << "limit " << limit << " record " << ref_size;
  }
  EXPECT_GT(kept, 100);
  EXPECT_GT(fell_back, 100);
  EXPECT_GT(off_grid, 300);
}

// ---------------------------------------------------------------------------
// Snapshot serialization and engine capture wiring
// ---------------------------------------------------------------------------

mp::Program capture_program(int iterations = 6) {
  benchws::RingParams params;
  params.iterations = iterations;
  params.compute_cost = 1.0;
  params.checkpoint = true;
  return benchws::ring_exchange(params);
}

TEST(SnapshotCapture, SerializationIsDeterministic) {
  const mp::Program program = capture_program();
  std::vector<std::string> first, second;
  for (auto* sink : {&first, &second}) {
    sim::SimOptions opts;
    opts.nprocs = 4;
    opts.checkpoint_capture_fn = [sink](int, const sim::VmSnapshot& state) {
      sink->push_back(sim::serialize_snapshot(state));
    };
    sim::Engine engine(program, opts);
    engine.run();
  }
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(SnapshotCapture, ScratchSerializerMatchesFreshAllocations) {
  // The reusable-scratch path store_capture_fn uses must encode
  // byte-for-byte what a fresh serialize_snapshot returns.
  const mp::Program program = capture_program();
  std::vector<sim::VmSnapshot> snapshots;
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.checkpoint_capture_fn = [&snapshots](int,
                                            const sim::VmSnapshot& state) {
    snapshots.push_back(state);
  };
  sim::Engine engine(program, opts);
  engine.run();
  ASSERT_FALSE(snapshots.empty());
  std::string scratch = "stale contents from a previous take";
  for (const sim::VmSnapshot& snap : snapshots) {
    sim::serialize_snapshot_into(snap, scratch);
    EXPECT_EQ(scratch, sim::serialize_snapshot(snap));
  }
}

TEST(SnapshotCapture, StoreCaptureFnRoundTripsThroughTheStore) {
  const mp::Program program = capture_program();
  // Shadow run records the serialized payloads the capture hook produces.
  std::vector<std::vector<std::string>> expected(4);
  {
    sim::SimOptions opts;
    opts.nprocs = 4;
    opts.checkpoint_capture_fn = [&expected](int proc,
                                             const sim::VmSnapshot& state) {
      expected[static_cast<std::size_t>(proc)].push_back(
          sim::serialize_snapshot(state));
    };
    sim::Engine engine(program, opts);
    engine.run();
  }
  // Store-backed run: every record must decode back to those payloads.
  StableStore store(tight_model(4), CheckpointMode::kIncremental, 4);
  {
    sim::SimOptions opts;
    opts.nprocs = 4;
    opts.checkpoint_capture_fn = sim::store_capture_fn(store);
    sim::Engine engine(program, opts);
    engine.run();
  }
  for (int proc = 0; proc < 4; ++proc) {
    const auto& payloads = expected[static_cast<std::size_t>(proc)];
    ASSERT_FALSE(payloads.empty());
    ASSERT_EQ(store.write_count(proc),
              static_cast<long>(payloads.size()));
    for (long ordinal = 1;
         ordinal <= static_cast<long>(payloads.size()); ++ordinal)
      EXPECT_EQ(store.restore_payload(proc, ordinal),
                payloads[static_cast<std::size_t>(ordinal - 1)])
          << "proc " << proc << " ordinal " << ordinal;
    EXPECT_GT(store.bytes_stored(proc), 0);
  }
  EXPECT_EQ(store.digest(), 0xe442388d82eda2f9ULL);
}

/// Runs `program` on `store` with store_capture_fn as the capture hook.
void run_into_store(const mp::Program& program, StableStore& store,
                    int nprocs) {
  sim::SimOptions opts;
  opts.nprocs = nprocs;
  opts.checkpoint_capture_fn = sim::store_capture_fn(store);
  sim::Engine engine(program, opts);
  ASSERT_TRUE(engine.run().trace.completed);
}

TEST(SnapshotCapture, StoreDigestsArePinnedAcrossWorldSizes) {
  // Golden store bytes of the capture path: ordinals, write times, delta
  // bases and the full/delta cadence all feed the digest.
  const mp::Program program = capture_program(10);
  const std::pair<int, std::uint64_t> kGolden[] = {
      {2, 0x835463ee1cf67975ULL},
      {4, 0x3f6197e647423519ULL},
      {8, 0xd46abd0096341d00ULL},
  };
  for (const auto& [n, digest] : kGolden) {
    SCOPED_TRACE("n=" + std::to_string(n));
    StableStore store(tight_model(4), CheckpointMode::kIncremental, n);
    run_into_store(program, store, n);
    EXPECT_EQ(store.write_count(0), 10);
    EXPECT_EQ(store.digest(), digest);
  }
}

TEST(SnapshotCapture, StorageFaultsLandOnCaptureWriteOrdinals) {
  // Faults target write ordinals, which the capture path numbers in take
  // order: exactly the named records rot, and the stale manifest at
  // (2, 3) heals when take 4 republishes.
  const mp::Program program = capture_program(10);
  store::StorageFaultPlan plan;
  plan.faults.push_back(store::StorageFaultPlan::torn_write(0, 2));
  plan.faults.push_back(store::StorageFaultPlan::bit_flip(1, 1));
  plan.faults.push_back(store::StorageFaultPlan::stale_manifest(2, 3));
  plan.faults.push_back(store::StorageFaultPlan::lost_manifest_entry(3, 2));
  StableStore store(tight_model(4), CheckpointMode::kIncremental, 4, plan);
  run_into_store(program, store, 4);
  EXPECT_FALSE(store.verify_record(0, 2));
  EXPECT_FALSE(store.verify_record(1, 1));
  EXPECT_FALSE(store.verify_record(3, 2));
  EXPECT_TRUE(store.verify_record(2, 3));
  for (int p = 0; p < 4; ++p) EXPECT_EQ(store.latest_valid_index(p), 10);
  EXPECT_EQ(store.digest(), 0x9593563091da6d27ULL);
}

TEST(SnapshotCapture, PerRunStoresAreBitIdenticalAcrossPoolSizes) {
  // One store + engine per run, built inside the parallel_map body (the
  // per-run-resources rule of sim::run_batch): the parallel batch must
  // reproduce the serial batch bit for bit — store digests and execution
  // digests alike, crash-and-retake runs included.
  const mp::Program program = capture_program();
  struct RunDigests {
    std::uint64_t store = 0;
    std::vector<std::uint64_t> exec;
    bool completed = false;
  };
  auto one_run = [&program](long index) {
    sim::SimOptions opts;
    opts.nprocs = 3 + static_cast<int>(index % 6);
    opts.seed = sim::run_seed(7, index);
    opts.compute_jitter = static_cast<double>(index % 3) * 0.2;
    opts.checkpoint_overhead = 0.25;
    opts.recovery_overhead = 1.0;
    if (index % 3 == 0)
      opts.fault_plan.faults.push_back(sim::FaultPlan::after_checkpoint(
          static_cast<int>(index) % opts.nprocs, 1));
    StableStore store(tight_model(4), CheckpointMode::kIncremental,
                      opts.nprocs);
    opts.checkpoint_capture_fn = sim::store_capture_fn(store);
    sim::Engine engine(program, opts);
    const auto result = engine.run();
    return RunDigests{store.digest(), result.trace.final_digest,
                      result.trace.completed};
  };
  const long kRuns = 24;
  const auto serial = sim::parallel_map(kRuns, sim::McOptions{1}, one_run);
  const auto parallel = sim::parallel_map(kRuns, sim::McOptions{4}, one_run);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    EXPECT_TRUE(serial[i].completed);
    EXPECT_EQ(serial[i].store, parallel[i].store);
    EXPECT_EQ(serial[i].exec, parallel[i].exec);
  }
}

}  // namespace
