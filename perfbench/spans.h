// Spans the benchmark records around the library's public calls in a
// traced run. Each span carries name, start, end, parent and request id;
// spans stay in memory and are written at exit as chrome://tracing JSON.
// A layer's self time is its span minus its direct children. With
// tracing off, Span is a no-op that reads no clock.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>

namespace perfbench::spans {

void SetEnabled(bool on);
bool Enabled();

// Monotonic seconds since the first call (shared clock for all spans).
double Now();

class Span {
 public:
  // `name` must outlive the process's trace export (a literal).
  explicit Span(const char* name, int64_t request_id = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_ = -1;
};

struct LayerTime {
  double total_s = 0.0;  // sum of span durations
  double self_s = 0.0;   // minus direct children
  int64_t count = 0;
};

// Per-name totals and self times over every span recorded so far.
std::map<std::string, LayerTime> Summarize();
// Drops every recorded span.
void Clear();
// Writes {"traceEvents":[...]} with one complete event per span.
bool WriteChromeTrace(const std::string& path);

}  // namespace perfbench::spans

#endif  // PERFBENCH_SPANS_H_
