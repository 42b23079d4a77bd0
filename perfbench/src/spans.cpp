#include "spans.h"

#include <chrono>

namespace perfbench {

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

int Tracer::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = now_ns();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

namespace {

/// self[i] = duration of span i minus the durations of its direct children.
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  for (const Span& s : spans)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns);
  return self;
}

}  // namespace

void accumulate(const std::vector<Span>& spans,
                std::map<std::string, SpanTotals>& totals) {
  const std::vector<double> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.calls;
    t.total_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    t.self_ns += self[i];
  }
}

void write_jsonl(std::ostream& out, long op_id,
                 const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":"
        << (s.parent < 0
                ? std::string("null")
                : "\"" +
                      std::string(spans[static_cast<std::size_t>(s.parent)]
                                      .name) +
                      "\"")
        << ",\"op\":" << op_id << ",\"self_ns\":"
        << static_cast<long long>(self[i]) << "}\n";
  }
}

}  // namespace perfbench
