#include "store/delta.h"

#include <algorithm>
#include <cstring>

#include "util/checksum.h"

namespace acfc::store {

namespace {

constexpr char kMagic[4] = {'A', 'C', 'F', 'D'};
constexpr std::uint32_t kFormat = 1;
constexpr std::uint8_t kOpCopy = 0;
constexpr std::uint8_t kOpLiteral = 1;
/// magic + format + kind + payload_len + base_check.
constexpr std::size_t kHeaderBytes = 4 + 4 + 1 + 8 + 8;
constexpr std::size_t kTrailerBytes = 8;
static_assert(kHeaderBytes + kTrailerBytes == kRecordFramingBytes);
/// op byte + offset + length; a literal op is op byte + length + bytes.
constexpr std::size_t kCopyOpBytes = 1 + 4 + 4;
constexpr std::size_t kLiteralOpBytes = 1 + 4;

char* put_u32(char* at, std::uint32_t v) {
  std::memcpy(at, &v, 4);
  return at + 4;
}

char* put_u64(char* at, std::uint64_t v) {
  std::memcpy(at, &v, 8);
  return at + 8;
}

std::uint64_t load_u64(const char* at) {
  std::uint64_t v;
  std::memcpy(&v, at, 8);
  return v;
}

bool get_u32(std::string_view bytes, std::size_t& at, std::uint32_t& v) {
  if (bytes.size() - at < 4) return false;
  std::memcpy(&v, bytes.data() + at, 4);
  at += 4;
  return true;
}

bool get_u64(std::string_view bytes, std::size_t& at, std::uint64_t& v) {
  if (bytes.size() - at < 8) return false;
  std::memcpy(&v, bytes.data() + at, 8);
  at += 8;
  return true;
}

char* put_header(char* at, RecordKind kind, std::size_t payload_len,
                 std::uint64_t base_check) {
  std::memcpy(at, kMagic, 4);
  at = put_u32(at + 4, kFormat);
  *at++ = static_cast<char>(kind);
  at = put_u64(at, static_cast<std::uint64_t>(payload_len));
  return put_u64(at, base_check);
}

/// Writes the trailer (XXH64 of the `body_bytes` before it) and returns
/// the XXH64 of the whole sealed record, in one pass over the bytes:
/// finish() is const, so the stream that produced the trailer continues
/// through it.
std::uint64_t seal(char* record, std::size_t body_bytes) {
  util::Checksum64 hash;
  hash.update(record, body_bytes);
  const std::uint64_t trailer = hash.finish();
  put_u64(record + body_bytes, trailer);
  hash.update(record + body_bytes, kTrailerBytes);
  return hash.finish();
}

}  // namespace

std::uint64_t encode_full_record_into(std::string& out,
                                      std::string_view payload) {
  out.resize(kHeaderBytes + payload.size() + kTrailerBytes);
  char* at = put_header(out.data(), RecordKind::kFull, payload.size(), 0);
  if (!payload.empty()) std::memcpy(at, payload.data(), payload.size());
  return seal(out.data(), kHeaderBytes + payload.size());
}

std::optional<std::uint64_t> encode_delta_record_into(
    std::string& out, std::string_view base, std::string_view payload,
    std::size_t limit) {
  if (limit <= kRecordFramingBytes) return std::nullopt;  // nothing fits
  const char* const b = base.data();
  const char* const p = payload.data();
  const std::size_t n = payload.size();
  // Block-granular diff at matching offsets: a block matches when it lies
  // inside the base and its bytes agree.
  auto block_matches = [&](std::size_t at) {
    const std::size_t block = std::min(kDeltaBlockBytes, n - at);
    if (block > base.size() || at > base.size() - block) return false;
    if (block == kDeltaBlockBytes) return load_u64(b + at) == load_u64(p + at);
    return std::memcmp(b + at, p + at, block) == 0;
  };

  // At most one op per block, each with at most 9 bytes of overhead, plus
  // every payload byte as a literal; and the record stays under `limit`.
  const std::size_t blocks = (n + kDeltaBlockBytes - 1) / kDeltaBlockBytes;
  out.resize(std::min(limit, kRecordFramingBytes + blocks * kCopyOpBytes + n));
  char* const begin = out.data();
  char* w = put_header(begin, RecordKind::kDelta, n, util::checksum64(base));

  // Positions where base and payload agree become copy ops, everything
  // else literal runs. Adjacent same-kind blocks coalesce, so op overhead
  // is one per changed region. A run extends through full blocks inside
  // the base with one u64 compare each; block_matches takes over where
  // the base or the payload ends.
  const std::size_t fast_end = std::min(n, base.size());
  std::size_t at = 0;
  while (at < n) {
    const bool match = block_matches(at);
    std::size_t end = std::min(at + kDeltaBlockBytes, n);
    while (end + kDeltaBlockBytes <= fast_end &&
           (load_u64(b + end) == load_u64(p + end)) == match)
      end += kDeltaBlockBytes;
    while (end < n && block_matches(end) == match)
      end = std::min(end + kDeltaBlockBytes, n);
    const std::size_t len = end - at;
    const std::size_t op_bytes = match ? kCopyOpBytes : kLiteralOpBytes + len;
    // Records only grow as ops are added: once this op and the trailer
    // would reach the limit, the finished record would too.
    if (static_cast<std::size_t>(w - begin) + op_bytes + kTrailerBytes >=
        limit)
      return std::nullopt;
    if (match) {
      *w++ = static_cast<char>(kOpCopy);
      w = put_u32(w, static_cast<std::uint32_t>(at));
      w = put_u32(w, static_cast<std::uint32_t>(len));
    } else {
      *w++ = static_cast<char>(kOpLiteral);
      w = put_u32(w, static_cast<std::uint32_t>(len));
      std::memcpy(w, p + at, len);
      w += len;
    }
    at = end;
  }
  const auto body_bytes = static_cast<std::size_t>(w - begin);
  out.resize(body_bytes + kTrailerBytes);
  return seal(out.data(), body_bytes);
}

std::optional<RecordKind> record_kind(std::string_view record) {
  if (record.size() < kHeaderBytes) return std::nullopt;
  if (std::memcmp(record.data(), kMagic, 4) != 0) return std::nullopt;
  std::uint32_t format = 0;
  std::memcpy(&format, record.data() + 4, 4);
  if (format != kFormat) return std::nullopt;
  const auto kind = static_cast<std::uint8_t>(record[8]);
  if (kind != static_cast<std::uint8_t>(RecordKind::kFull) &&
      kind != static_cast<std::uint8_t>(RecordKind::kDelta))
    return std::nullopt;
  return static_cast<RecordKind>(kind);
}

std::optional<std::string> decode_record(std::string_view record,
                                         std::string_view base) {
  const auto kind = record_kind(record);
  if (!kind) return std::nullopt;
  if (record.size() < kHeaderBytes + 8) return std::nullopt;

  // Trailing checksum first: everything else assumes intact bytes.
  const std::size_t tail = record.size() - 8;
  std::uint64_t stored = 0;
  std::memcpy(&stored, record.data() + tail, 8);
  if (util::checksum64(record.substr(0, tail)) != stored)
    return std::nullopt;

  std::size_t at = 9;
  std::uint64_t payload_len = 0, base_check = 0;
  if (!get_u64(record, at, payload_len) ||
      !get_u64(record, at, base_check))
    return std::nullopt;
  const std::string_view body = record.substr(at, tail - at);

  if (*kind == RecordKind::kFull) {
    if (base_check != 0) return std::nullopt;
    if (body.size() != payload_len) return std::nullopt;
    return std::string(body);
  }

  // Delta: bind to the exact base payload before applying ops.
  if (util::checksum64(base) != base_check) return std::nullopt;
  // payload_len is an untrusted header field: cap the reservation by the
  // input sizes. It is only a hint; the length checks below bound the
  // decode itself.
  std::string payload;
  payload.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      payload_len, base.size() + body.size())));
  std::size_t op_at = 0;
  while (op_at < body.size()) {
    const auto op = static_cast<std::uint8_t>(body[op_at++]);
    std::uint32_t a = 0, b = 0;
    if (op == kOpCopy) {
      if (!get_u32(body, op_at, a) || !get_u32(body, op_at, b))
        return std::nullopt;
      if (a > base.size() || b > base.size() - a) return std::nullopt;
      payload.append(base.substr(a, b));
    } else if (op == kOpLiteral) {
      if (!get_u32(body, op_at, a)) return std::nullopt;
      if (a > body.size() - op_at) return std::nullopt;
      payload.append(body.substr(op_at, a));
      op_at += a;
    } else {
      return std::nullopt;
    }
    if (payload.size() > payload_len) return std::nullopt;
  }
  if (payload.size() != payload_len) return std::nullopt;
  return payload;
}

}  // namespace acfc::store
