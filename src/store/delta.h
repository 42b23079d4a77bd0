// ACFD — the on-disk checkpoint-payload record format (delta codec).
//
// The paper's incremental-checkpointing discussion (and the retention
// analysis in "Online Checkpointing with Improved Worst-Case Guarantees",
// PAPERS.md) assumes successive process images share most of their bytes.
// This codec materializes that assumption: a record is either a *full*
// image (the payload verbatim) or a *delta* against the previous payload —
// a block-granular diff that copies unchanged runs from the base and
// stores only changed bytes as literals.
//
// Wire format (fixed-width little-endian fields, documented in
// docs/analysis.md; the trailing checksum is XXH64 like every other
// stored artifact):
//
//   magic        "ACFD"                       4 bytes
//   format       u32  (currently 1)
//   kind         u8   (0 = full, 1 = delta)
//   payload_len  u64  decoded payload size
//   base_check   u64  XXH64 of the base payload (deltas; 0 for full)
//   body         full:  payload bytes
//                delta: op stream — op u8 (0 = copy, 1 = literal);
//                       copy:    offset u32, length u32 (from the base)
//                       literal: length u32, then that many bytes
//   checksum     u64  XXH64 of everything before it
//
// decode_record is strict: bad magic, unknown format, truncation,
// trailing garbage, out-of-bounds copy ops, payload-length mismatch, a
// wrong base, or a checksum mismatch all return nullopt — never throw,
// never read out of bounds. Restores verify every link of a delta chain
// this way, so corruption invalidates exactly the chain suffix that
// depends on the rotten record.
//
// Encoding writes into a caller-owned buffer and touches each byte once
// per stage: the diff compares full blocks as u64 loads and stores ops
// through a cursor, and one streaming XXH64 pass yields both the trailer
// and the whole-record checksum the store keeps.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace acfc::store {

enum class RecordKind : std::uint8_t { kFull = 0, kDelta = 1 };

/// Block granularity of the diff: the encoder compares base and payload in
/// runs of this many bytes, so a single changed byte costs one block of
/// literal plus op overhead. 8 matches the payload encodings' fixed-width
/// field size (ACFS counters and clock components are u64), so a changed
/// counter dirties exactly one block.
inline constexpr std::size_t kDeltaBlockBytes = 8;

/// Bytes a record adds around a verbatim payload: header plus trailer. A
/// full record of `payload` is exactly payload.size() + this long.
inline constexpr std::size_t kRecordFramingBytes = 25 + 8;

/// Encodes `payload` as a self-contained full record into `out`
/// (replacing its contents; a reused buffer makes this allocation-free)
/// and returns the XXH64 of the whole record, trailer included — the
/// value StableStore::Record::checksum holds.
std::uint64_t encode_full_record_into(std::string& out,
                                      std::string_view payload);

/// Encodes `payload` as a delta against `base` (the previous payload)
/// into `out` and returns the record's XXH64, as encode_full_record_into
/// does. Falls back to literal runs wherever the two disagree, so any
/// (base, payload) pair encodes correctly. Stops early and returns
/// nullopt, leaving `out` unspecified, as soon as the record is known to
/// be at least `limit` bytes long: StableStore::write_payload passes a
/// full record's size and stores the full image instead.
std::optional<std::uint64_t> encode_delta_record_into(
    std::string& out, std::string_view base, std::string_view payload,
    std::size_t limit = static_cast<std::size_t>(-1));

/// String-returning conveniences over the encoders above.
inline std::string encode_full_record(std::string_view payload) {
  std::string out;
  encode_full_record_into(out, payload);
  return out;
}
inline std::string encode_delta_record(std::string_view base,
                                       std::string_view payload) {
  std::string out;
  encode_delta_record_into(out, base, payload);
  return out;
}

/// The kind of an encoded record, without validating the body. nullopt on
/// anything too short or with a bad magic/format/kind byte.
std::optional<RecordKind> record_kind(std::string_view record);

/// Strict decode. `base` is the decoded previous payload for delta
/// records, and ignored for full records. Returns the decoded payload or
/// nullopt on any corruption (see the format comment for the full list).
std::optional<std::string> decode_record(std::string_view record,
                                         std::string_view base);

}  // namespace acfc::store
