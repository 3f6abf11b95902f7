#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

namespace perfbench::spans {
namespace {

struct Record {
  const char* name;
  double start_s;
  double end_s;
  int64_t parent;
  int64_t request_id;
  uint64_t thread;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<Record>& Records() {
  static std::vector<Record> records;
  return records;
}
thread_local int64_t t_current = -1;

uint64_t ThreadTag() {
  static std::atomic<uint64_t> next{1};
  thread_local uint64_t tag = next.fetch_add(1);
  return tag;
}

}  // namespace

void SetEnabled(bool on) { g_enabled.store(on); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

double Now() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Span::Span(const char* name, int64_t request_id) {
  if (!Enabled()) return;
  const double start = Now();
  std::lock_guard<std::mutex> lock(g_mu);
  index_ = static_cast<int64_t>(Records().size());
  Records().push_back(
      {name, start, start, t_current, request_id, ThreadTag()});
  t_current = index_;
}

Span::~Span() {
  if (index_ < 0) return;
  const double end = Now();
  std::lock_guard<std::mutex> lock(g_mu);
  Record& r = Records()[static_cast<size_t>(index_)];
  r.end_s = end;
  t_current = r.parent;
}

std::map<std::string, LayerTime> Summarize() {
  std::lock_guard<std::mutex> lock(g_mu);
  const std::vector<Record>& records = Records();
  std::vector<double> child_s(records.size(), 0.0);
  for (const Record& r : records) {
    if (r.parent >= 0) {
      child_s[static_cast<size_t>(r.parent)] += r.end_s - r.start_s;
    }
  }
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < records.size(); ++i) {
    LayerTime& t = out[records[i].name];
    const double d = records[i].end_s - records[i].start_s;
    t.total_s += d;
    t.self_s += d - child_s[i];
    ++t.count;
  }
  return out;
}

void Clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  Records().clear();
}

bool WriteChromeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  std::fputs("{\"traceEvents\":[", f);
  const std::vector<Record>& records = Records();
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"request\":%lld}}",
                 i == 0 ? "" : ",", r.name,
                 static_cast<unsigned long long>(r.thread), r.start_s * 1e6,
                 (r.end_s - r.start_s) * 1e6, i,
                 static_cast<long long>(r.parent),
                 static_cast<long long>(r.request_id));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench::spans
