#include "serve_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "util/telemetry.h"
#include "world.h"

namespace perfbench {

namespace telemetry = dgnn::telemetry;

Outcome Classify(const serve::Response& r) {
  if (r.ok) return r.degraded ? Outcome::kDegraded : Outcome::kOk;
  if (r.error == "overloaded") return Outcome::kShed;
  if (r.error.find("deadline") != std::string::npos) return Outcome::kExpired;
  return Outcome::kFailed;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
         ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
}

Phase RunPhase(const std::vector<Op>& schedule, const Caller& call,
               std::chrono::steady_clock::time_point t0) {
  Phase p;
  const int callers =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const double cpu0 = CpuSeconds();
  p.samples = RunOpenLoop(schedule, callers, call, t0);
  p.cpu_s = CpuSeconds() - cpu0;
  return p;
}

LatencySummary Summarize(const Phase& phase, const std::vector<Op>& schedule,
                         double seconds, const Tally& tally) {
  LatencySummary s;
  std::vector<double> lat;
  std::vector<std::vector<double>> windows(kLatencyWindows);
  lat.reserve(phase.samples.size());
  double sum = 0.0, late_sum = 0.0;
  for (size_t i = 0; i < phase.samples.size(); ++i) {
    const Sample& x = phase.samples[i];
    const int w = std::min(
        kLatencyWindows - 1,
        static_cast<int>(schedule[i].at_s * kLatencyWindows / seconds));
    windows[static_cast<size_t>(w)].push_back(x.latency_s * 1e3);
    lat.push_back(x.latency_s * 1e3);
    sum += x.latency_s * 1e3;
    late_sum += x.late_s * 1e3;
    s.late_max_ms = std::max(s.late_max_ms, x.late_s * 1e3);
  }
  std::sort(lat.begin(), lat.end());
  const double n = std::max<double>(1.0, static_cast<double>(lat.size()));
  s.p50_ms = NearestRank(lat, 0.50);
  for (std::vector<double>& w : windows) {
    if (w.empty()) continue;
    std::sort(w.begin(), w.end());
    s.window_p50_ms.push_back(NearestRank(w, 0.50));
    s.window_p99_ms.push_back(NearestRank(w, 0.99));
  }
  s.p99_ms = Median(s.window_p99_ms);
  s.mean_ms = sum / n;
  s.late_mean_ms = late_sum / n;
  const int64_t answered = std::max<int64_t>(1, tally.ok + tally.degraded);
  s.cpu_ms_per_op = phase.cpu_s * 1e3 / static_cast<double>(answered);
  return s;
}

std::string LatencySummary::WindowsText() const {
  std::string out = "per-window p50/p99 ms:";
  char buf[64];
  for (size_t i = 0; i < window_p50_ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), " %.3f/%.3f", window_p50_ms[i],
                  window_p99_ms[i]);
    out += buf;
  }
  return out;
}

Tally TallyPhase(const Phase& phase, Result* result) {
  Tally t;
  for (const Sample& s : phase.samples) t.Add(s.outcome);
  result->Check(t.Balanced(),
                "sent = ok + degraded + shed + expired + failed");
  result->Check(t.sent > 0, "the schedule sent requests");
  return t;
}

EngineTotals Totals(const std::vector<const serve::ServingEngine*>& engines) {
  EngineTotals t;
  for (const serve::ServingEngine* e : engines) {
    const serve::EngineStats s = e->stats();
    t.requests += s.requests;
    t.batches += s.batches;
    t.cache_hits += s.cache_hits;
    t.cache_misses += s.cache_misses;
  }
  return t;
}

std::vector<std::pair<std::string, double>> AddEngineLayers(
    const EngineTotals& before, const EngineTotals& after, Result* result) {
  std::vector<std::pair<std::string, double>> means;
  for (const char* stage : {"queue", "recal", "compute", "rank", "reply"}) {
    const telemetry::Histogram* h = telemetry::GetHistogram(
        std::string("serve.stage.") + stage + "_seconds");
    const double n = static_cast<double>(std::max<int64_t>(1, h->count()));
    const std::string name = std::string("serve.") + stage;
    means.emplace_back(name, h->sum_seconds() * 1e3 / n);
    result->Add(name + "_ms_mean", means.back().second, "ms");
    result->Add(name + "_ms_p99", h->ApproxQuantileSeconds(0.99) * 1e3, "ms");
  }
  const double requests =
      static_cast<double>(std::max<int64_t>(1, after.requests - before.requests));
  const int64_t batches = after.batches - before.batches;
  const int64_t hits = after.cache_hits - before.cache_hits;
  const int64_t lookups = hits + after.cache_misses - before.cache_misses;
  result->Add("serve.batch_size", batches > 0 ? requests / batches : 0.0,
              "count");
  result->Add("serve.cache_hit_ratio",
              lookups > 0 ? static_cast<double>(hits) / lookups : 0.0, "ratio");
  result->Add("util.pool_regions_per_req",
              telemetry::GetCounter("threadpool.regions")->value() / requests,
              "count");
  return means;
}

std::vector<Op> WarmupSchedule(uint64_t seed, double rate_qps,
                               int32_t num_users, int32_t num_items) {
  return MakeSchedule(ServeSchedule(seed ^ 0x77A2B9D4E1F30C65ULL, rate_qps,
                                    1.0, num_users, num_items));
}

}  // namespace perfbench
