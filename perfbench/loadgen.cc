#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace perfbench {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SplitMix64::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

int64_t SplitMix64::Below(int64_t n) {
  return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
}

double SecondsSince(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

std::vector<Op> MakeSchedule(const ScheduleConfig& c) {
  constexpr double kTopKShare = 0.7, kScoreShare = 0.1, kSimilarShare = 0.1;
  constexpr double kHotShare = 0.8;
  std::vector<Op> out;
  if (c.rate_qps <= 0.0 || c.seconds <= 0.0 || c.num_users <= 0) return out;
  out.reserve(static_cast<size_t>(c.rate_qps * c.seconds * 1.1) + 16);
  SplitMix64 rng(c.seed);
  const int32_t hot = std::max<int32_t>(1, c.num_users / 8);
  double t = 0.0;
  while (true) {
    // Exponential gap; 1 - U is in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.Uniform()) / c.rate_qps;
    if (t >= c.seconds) break;
    Op op;
    op.at_s = t;
    const double mix = rng.Uniform();
    if (mix < kTopKShare) {
      op.kind = OpKind::kTopK;
    } else if (mix < kTopKShare + kScoreShare) {
      op.kind = OpKind::kScore;
    } else if (mix < kTopKShare + kScoreShare + kSimilarShare) {
      op.kind = OpKind::kSimilar;
    } else {
      op.kind = OpKind::kUnknown;
    }
    if (op.kind == OpKind::kUnknown) {
      op.user = c.num_users + static_cast<int32_t>(rng.Below(1000));
    } else if (rng.Uniform() < kHotShare) {
      // Hot users are every eighth id, so the hot set spans the id range.
      op.user = static_cast<int32_t>(
          std::min<int64_t>(rng.Below(hot) * 8, c.num_users - 1));
    } else {
      op.user = static_cast<int32_t>(rng.Below(c.num_users));
    }
    if (op.kind == OpKind::kScore && c.num_items > 0) {
      op.item = static_cast<int32_t>(rng.Below(c.num_items));
    }
    out.push_back(op);
  }
  return out;
}

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  int64_t rank = static_cast<int64_t>(std::ceil(q * n));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(sorted.size()));
  return sorted[static_cast<size_t>(rank - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double MedianOfBlockMeans(const std::vector<double>& values, size_t block) {
  std::vector<double> means;
  for (size_t i = 0; block > 0 && i + block <= values.size(); i += block) {
    double sum = 0.0;
    for (size_t j = i; j < i + block; ++j) sum += values[j];
    means.push_back(sum / static_cast<double>(block));
  }
  return Median(std::move(means));
}

void Tally::Add(Outcome outcome) {
  ++sent;
  switch (outcome) {
    case Outcome::kOk: ++ok; break;
    case Outcome::kDegraded: ++degraded; break;
    case Outcome::kShed: ++shed; break;
    case Outcome::kExpired: ++expired; break;
    case Outcome::kFailed: ++failed; break;
  }
}

bool Tally::Balanced() const {
  return sent == ok + degraded + shed + expired + failed;
}

std::string Tally::Json() const {
  return "{\"sent\":" + std::to_string(sent) +
         ",\"ok\":" + std::to_string(ok) +
         ",\"degraded\":" + std::to_string(degraded) +
         ",\"shed\":" + std::to_string(shed) +
         ",\"expired\":" + std::to_string(expired) +
         ",\"failed\":" + std::to_string(failed) + "}";
}

std::vector<Sample> RunOpenLoop(const std::vector<Op>& schedule, int callers,
                                const Caller& call,
                                std::chrono::steady_clock::time_point t0) {
  using Clock = std::chrono::steady_clock;
  std::vector<Sample> samples(schedule.size());
  std::atomic<size_t> cursor{0};
  auto since_t0 = [t0](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };
  auto worker = [&] {
#ifdef __linux__
    // Wake at the due time, not up to the default 50 us timer slack late.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
    while (true) {
      const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= schedule.size()) return;
      const Op& op = schedule[i];
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(op.at_s));
      std::this_thread::sleep_until(due);
      const Clock::time_point start = Clock::now();
      const Outcome outcome = call(op, i);
      const Clock::time_point end = Clock::now();
      Sample& s = samples[i];
      s.start_s = since_t0(start);
      s.end_s = since_t0(end);
      s.late_s = std::max(0.0, s.start_s - op.at_s);
      s.latency_s = s.end_s - op.at_s;
      s.outcome = outcome;
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < std::max(1, callers); ++i) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return samples;
}

}  // namespace perfbench
