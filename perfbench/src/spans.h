// Spans for the traced run: one record per call the benchmark makes into a
// library layer's public function, kept in memory and written out once the
// run ends.
//
// A Tracer belongs to one op and to the thread running it, so recording
// takes no lock. Spans nest strictly (they are opened and closed by
// ScopedSpan), which makes a span's self time its duration minus the
// durations of its direct children.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();

struct Span {
  const char* name = "";  ///< static string: the layer call's metric name
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span of the same op, or -1
};

class Tracer {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int open(const char* name);
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Records one span over its own lifetime; does nothing when `tracer` is
/// null, which is how the untraced runs pay for tracing: one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Per-name sums over spans.
struct SpanTotals {
  long calls = 0;
  double total_ns = 0.0;  ///< Σ duration
  double self_ns = 0.0;   ///< Σ (duration − time covered by child spans)
};

/// Adds the spans of one op to `totals`, keyed by span name.
void accumulate(const std::vector<Span>& spans,
                std::map<std::string, SpanTotals>& totals);

/// One JSON object per line: name, start/end (ns), parent name, op id,
/// and self time.
void write_jsonl(std::ostream& out, long op_id, const std::vector<Span>& spans);

}  // namespace perfbench
