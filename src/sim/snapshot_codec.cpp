#include "sim/snapshot_codec.h"

#include <cstring>
#include <memory>

#include "util/error.h"

namespace acfc::sim {

namespace {

constexpr char kMagic[4] = {'A', 'C', 'F', 'S'};
constexpr std::uint32_t kFormat = 1;

/// Fixed-width little-endian writes through a cursor into a buffer sized
/// up front by encoded_size; the caller checks the cursor lands exactly
/// on the end.
struct Writer {
  char* at;

  void u32(std::uint32_t v) {
    std::memcpy(at, &v, 4);
    at += 4;
  }
  void u64(std::uint64_t v) {
    std::memcpy(at, &v, 8);
    at += 8;
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void counters(const CounterMap& map) {
    u32(static_cast<std::uint32_t>(map.entries.size()));
    for (const auto& [key, value] : map.entries) {
      u32(static_cast<std::uint32_t>(key));
      i64(value);
    }
  }
};

/// Exact byte length of the canonical encoding of `snapshot`.
std::size_t encoded_size(const VmSnapshot& snapshot) {
  // magic, format, digest, rng state, collectives_done, and six u32
  // element counts (clock, sends, recvs, two counter maps, stack).
  std::size_t size = 4 + 4 + 8 + 32 + 8 + 6 * 4;
  size += static_cast<std::size_t>(snapshot.vc.size()) * 8;
  size += snapshot.sends_per_channel.size() * 8;
  size += snapshot.recvs_per_channel.size() * 8;
  size += snapshot.irregular_counts.entries.size() * 12;
  size += snapshot.ckpt_instances.entries.size() * 12;
  size += snapshot.stack.size() * 28;
  return size;
}

}  // namespace

std::string serialize_snapshot(const VmSnapshot& snapshot) {
  std::string out;
  serialize_snapshot_into(snapshot, out);
  return out;
}

void serialize_snapshot_into(const VmSnapshot& snapshot, std::string& out) {
  // One resize to the exact length (a no-op on a warm scratch buffer whose
  // previous take had the same shape), then every field is stored through
  // a cursor: no per-field append, no capacity checks.
  const std::size_t size = encoded_size(snapshot);
  out.resize(size);
  Writer w{out.data()};
  std::memcpy(w.at, kMagic, 4);
  w.at += 4;
  w.u32(kFormat);
  w.u64(snapshot.digest);
  std::uint64_t rng_state[4];
  snapshot.rng.save_state(rng_state);
  for (const std::uint64_t word : rng_state) w.u64(word);
  w.u32(static_cast<std::uint32_t>(snapshot.vc.size()));
  for (int i = 0; i < snapshot.vc.size(); ++i) w.u64(snapshot.vc[i]);
  w.i64(snapshot.collectives_done);
  w.u32(static_cast<std::uint32_t>(snapshot.sends_per_channel.size()));
  for (const long sends : snapshot.sends_per_channel) w.i64(sends);
  w.u32(static_cast<std::uint32_t>(snapshot.recvs_per_channel.size()));
  for (const long recvs : snapshot.recvs_per_channel) w.i64(recvs);
  w.counters(snapshot.irregular_counts);
  w.counters(snapshot.ckpt_instances);
  // Control stack: frames by loop-statement uid (or -1 for plain blocks)
  // plus position — address-free, so the encoding is replay-stable.
  w.u32(static_cast<std::uint32_t>(snapshot.stack.size()));
  for (const Frame& frame : snapshot.stack) {
    w.u32(static_cast<std::uint32_t>(
        frame.loop != nullptr ? frame.loop->uid() : -1));
    w.u64(static_cast<std::uint64_t>(frame.index));
    w.i64(frame.loop_value);
    w.i64(frame.loop_hi);
  }
  ACFC_CHECK_MSG(w.at == out.data() + size,
                 "snapshot encoding disagrees with its computed size");
}

std::function<void(int, const VmSnapshot&)> store_capture_fn(
    store::StableStore& store) {
  // Sequence counter and serialization scratch shared by the returned
  // closure; one Engine run calls the hook from a single thread (its
  // event loop), so neither needs synchronization. The scratch buffer
  // makes steady-state serialization allocation-free.
  struct CaptureState {
    long counter = 0;
    std::string scratch;
  };
  auto state_holder = std::make_shared<CaptureState>();
  return [&store, state_holder](int proc, const VmSnapshot& state) {
    serialize_snapshot_into(state, state_holder->scratch);
    store.write_payload(proc, state_holder->scratch,
                        static_cast<double>(state_holder->counter++));
  };
}

}  // namespace acfc::sim
