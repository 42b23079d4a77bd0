// Reference implementations of the checkpoint-capture codecs, kept only
// for differential testing: an append-per-field ACFS snapshot serializer
// and a memcmp-per-block ACFD encoder with a separate checksum pass. They
// define the record bytes that the production codecs (exact-size cursor
// writes, u64 block compares, a one-pass seal) must reproduce exactly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "sim/vm.h"
#include "store/delta.h"
#include "util/checksum.h"

namespace acfc::reference {

inline void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out.append(b, 4);
}

inline void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}

inline void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

inline void put_counters(std::string& out, const sim::CounterMap& counters) {
  put_u32(out, static_cast<std::uint32_t>(counters.entries.size()));
  for (const auto& [key, value] : counters.entries) {
    put_u32(out, static_cast<std::uint32_t>(key));
    put_i64(out, value);
  }
}

/// The canonical "ACFS" encoding, one append per field.
inline std::string serialize_snapshot(const sim::VmSnapshot& snapshot) {
  std::string out("ACFS", 4);
  put_u32(out, 1);
  put_u64(out, snapshot.digest);
  std::uint64_t rng_state[4];
  snapshot.rng.save_state(rng_state);
  for (const std::uint64_t word : rng_state) put_u64(out, word);
  put_u32(out, static_cast<std::uint32_t>(snapshot.vc.size()));
  for (int i = 0; i < snapshot.vc.size(); ++i) put_u64(out, snapshot.vc[i]);
  put_i64(out, snapshot.collectives_done);
  put_u32(out, static_cast<std::uint32_t>(snapshot.sends_per_channel.size()));
  for (const long sends : snapshot.sends_per_channel) put_i64(out, sends);
  put_u32(out, static_cast<std::uint32_t>(snapshot.recvs_per_channel.size()));
  for (const long recvs : snapshot.recvs_per_channel) put_i64(out, recvs);
  put_counters(out, snapshot.irregular_counts);
  put_counters(out, snapshot.ckpt_instances);
  put_u32(out, static_cast<std::uint32_t>(snapshot.stack.size()));
  for (const sim::Frame& frame : snapshot.stack) {
    put_u32(out, static_cast<std::uint32_t>(
                     frame.loop != nullptr ? frame.loop->uid() : -1));
    put_u64(out, static_cast<std::uint64_t>(frame.index));
    put_i64(out, frame.loop_value);
    put_i64(out, frame.loop_hi);
  }
  return out;
}

inline std::string record_header(store::RecordKind kind,
                                 std::size_t payload_len,
                                 std::uint64_t base_check) {
  std::string out("ACFD", 4);
  put_u32(out, 1);
  out.push_back(static_cast<char>(kind));
  put_u64(out, static_cast<std::uint64_t>(payload_len));
  put_u64(out, base_check);
  return out;
}

/// Appends the trailer: XXH64 of everything before it.
inline void seal(std::string& record) {
  put_u64(record, util::checksum64(record));
}

/// Recomputes the trailer of a (possibly mutated) record of at least 8
/// bytes, so that decode gets past the checksum gate to the body parser.
inline void reseal(std::string& record) {
  const std::size_t tail = record.size() - 8;
  const std::uint64_t sum =
      util::checksum64(std::string_view(record).substr(0, tail));
  std::memcpy(record.data() + tail, &sum, 8);
}

inline std::string encode_full_record(std::string_view payload) {
  std::string out = record_header(store::RecordKind::kFull, payload.size(), 0);
  out.append(payload);
  seal(out);
  return out;
}

/// Block-granular diff at matching offsets with one memcmp per block;
/// adjacent same-kind blocks coalesce into one copy or literal op.
inline std::string encode_delta_record(std::string_view base,
                                       std::string_view payload) {
  std::string out = record_header(store::RecordKind::kDelta, payload.size(),
                                  util::checksum64(base));
  const std::size_t kBlock = store::kDeltaBlockBytes;
  auto matches = [&](std::size_t at, std::size_t block) {
    return at + block <= base.size() &&
           std::memcmp(base.data() + at, payload.data() + at, block) == 0;
  };
  std::size_t at = 0;
  while (at < payload.size()) {
    const std::size_t block = std::min(kBlock, payload.size() - at);
    const bool match = matches(at, block);
    std::size_t end = at + block;
    while (end < payload.size()) {
      const std::size_t next = std::min(kBlock, payload.size() - end);
      if (matches(end, next) != match) break;
      end += next;
    }
    if (match) {
      out.push_back(0);
      put_u32(out, static_cast<std::uint32_t>(at));
      put_u32(out, static_cast<std::uint32_t>(end - at));
    } else {
      out.push_back(1);
      put_u32(out, static_cast<std::uint32_t>(end - at));
      out.append(payload.substr(at, end - at));
    }
    at = end;
  }
  seal(out);
  return out;
}

}  // namespace acfc::reference
