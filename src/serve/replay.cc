#include "serve/replay.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

namespace dgnn::serve {
namespace {

using Clock = std::chrono::steady_clock;

// Nearest-rank quantile over an ascending-sorted sample, in ms.
double QuantileMs(const std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted_ms.size())));
  const size_t idx = rank == 0 ? 0 : rank - 1;
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

struct WorkerTally {
  std::vector<double> latencies_ms;
  std::vector<int64_t> trace_ids;
  int64_t ok = 0;
  int64_t degraded = 0;
  int64_t shed = 0;
  int64_t expired = 0;
  int64_t failed = 0;
  int64_t late_dispatches = 0;
  double max_lateness_ms = 0.0;
  Clock::time_point last_completion;
};

}  // namespace

int64_t PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;
}

ReplayResult ReplayTrace(ServingEngine& engine,
                         const std::vector<TraceRecord>& records,
                         const ReplayConfig& config) {
  return ReplayTrace(
      [&engine](const Request& req) { return engine.Handle(req); }, records,
      config);
}

ReplayResult ReplayTrace(const ReplayHandler& handler,
                         const std::vector<TraceRecord>& records,
                         const ReplayConfig& config) {
  ReplayResult result;
  result.requests = static_cast<int64_t>(records.size());
  if (records.empty()) return result;

  const int workers = std::max(1, config.workers);
  std::vector<WorkerTally> tallies(static_cast<size_t>(workers));

  // Small fixed lead so worker 0's first record is not already late
  // while the remaining threads are still being spawned.
  const Clock::time_point epoch = Clock::now() + std::chrono::milliseconds(5);
  constexpr double kLateThresholdMs = 1.0;

  // Every worker takes the next record from one cursor, so a slow answer
  // holds up only the worker that waits for it.
  std::atomic<size_t> cursor{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      WorkerTally& tally = tallies[static_cast<size_t>(w)];
      tally.last_completion = epoch;
      for (size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
           i < records.size();
           i = cursor.fetch_add(1, std::memory_order_relaxed)) {
        const TraceRecord& rec = records[i];
        const Clock::time_point scheduled =
            epoch + std::chrono::nanoseconds(rec.arrival_ns);
        std::this_thread::sleep_until(scheduled);
        const Clock::time_point dispatched = Clock::now();
        const double lateness_ms =
            std::chrono::duration<double, std::milli>(dispatched - scheduled)
                .count();
        if (lateness_ms > kLateThresholdMs) {
          ++tally.late_dispatches;
          tally.max_lateness_ms =
              std::max(tally.max_lateness_ms, lateness_ms);
        }

        const Response resp = handler(rec.ToRequest());
        const Clock::time_point completed = Clock::now();
        tally.last_completion = completed;
        tally.trace_ids.push_back(resp.trace_id);
        // Latency from the SCHEDULED arrival: queueing delay in the
        // harness counts against the engine, as it would for a real
        // client that issued the request on time.
        tally.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(completed - scheduled)
                .count());
        if (resp.ok) {
          ++tally.ok;
          if (resp.degraded) ++tally.degraded;
        } else if (resp.error == "overloaded") {
          ++tally.shed;
        } else if (resp.error == "deadline exceeded") {
          ++tally.expired;
        } else {
          ++tally.failed;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<double> all_ms;
  all_ms.reserve(records.size());
  std::vector<int64_t> all_ids;
  all_ids.reserve(records.size());
  Clock::time_point last_completion = epoch;
  for (const WorkerTally& tally : tallies) {
    all_ms.insert(all_ms.end(), tally.latencies_ms.begin(),
                  tally.latencies_ms.end());
    all_ids.insert(all_ids.end(), tally.trace_ids.begin(),
                   tally.trace_ids.end());
    result.ok += tally.ok;
    result.degraded += tally.degraded;
    result.shed += tally.shed;
    result.expired += tally.expired;
    result.failed += tally.failed;
    result.late_dispatches += tally.late_dispatches;
    result.max_lateness_ms =
        std::max(result.max_lateness_ms, tally.max_lateness_ms);
    last_completion = std::max(last_completion, tally.last_completion);
  }
  std::sort(all_ms.begin(), all_ms.end());
  std::sort(all_ids.begin(), all_ids.end());
  result.distinct_trace_ids = static_cast<int64_t>(
      std::unique(all_ids.begin(), all_ids.end()) - all_ids.begin());

  const Clock::time_point first_scheduled =
      epoch + std::chrono::nanoseconds(records.front().arrival_ns);
  result.seconds =
      std::chrono::duration<double>(last_completion - first_scheduled)
          .count();
  const double span_s =
      static_cast<double>(records.back().arrival_ns -
                          records.front().arrival_ns) /
      1e9;
  result.offered_qps =
      span_s > 0 ? static_cast<double>(records.size()) / span_s : 0.0;
  result.achieved_qps =
      result.seconds > 0
          ? static_cast<double>(result.ok) / result.seconds
          : 0.0;
  result.p50_ms = QuantileMs(all_ms, 0.50);
  result.p95_ms = QuantileMs(all_ms, 0.95);
  result.p99_ms = QuantileMs(all_ms, 0.99);
  result.max_ms = all_ms.empty() ? 0.0 : all_ms.back();
  double sum = 0.0;
  for (double v : all_ms) sum += v;
  result.mean_ms =
      all_ms.empty() ? 0.0 : sum / static_cast<double>(all_ms.size());
  result.peak_rss_bytes = PeakRssBytes();
  return result;
}

}  // namespace dgnn::serve
