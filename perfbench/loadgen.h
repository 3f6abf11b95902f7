// The benchmark's own open-loop load generator: a seeded Poisson
// schedule with a fixed request mix, a caller pool that claims the next
// due request from a shared cursor, nearest-rank quantiles and the
// outcome accounting identity. Nothing here depends on the library, so a
// change to src/ (its RNG, its replay driver) cannot move the schedule.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

// Seconds elapsed since `t` on the steady clock.
double SecondsSince(std::chrono::steady_clock::time_point t);

// SplitMix64: tiny, seedable, and identical on every platform.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform over [0, 1) with 53 random bits.
  double Uniform();
  // Uniform over [0, n); n > 0.
  int64_t Below(int64_t n);

 private:
  uint64_t state_;
};

enum class OpKind : uint8_t { kTopK, kScore, kSimilar, kUnknown };

struct Op {
  double at_s = 0.0;  // scheduled arrival, seconds after the phase start
  OpKind kind = OpKind::kTopK;
  int32_t user = 0;
  int32_t item = 0;  // kScore only
};

struct ScheduleConfig {
  uint64_t seed = 1;
  double rate_qps = 100.0;
  double seconds = 10.0;
  int32_t num_users = 0;  // known users are [0, num_users)
  int32_t num_items = 0;
};

// Poisson arrivals (exponential gaps) over [0, seconds), each with an op
// drawn from the mix: 70% topk, 10% score, 10% similar_users and 10%
// topk for unknown users; 80% of known-user requests go to the hot
// eighth of users. Deterministic in the config: the same config gives
// a bit-identical schedule.
std::vector<Op> MakeSchedule(const ScheduleConfig& config);

// Nearest-rank quantile of `sorted` (ascending): the value at 1-based
// rank ceil(q * n), clamped to [1, n]. 0 for an empty sample.
double NearestRank(const std::vector<double>& sorted, double q);
double Median(std::vector<double> values);
// Median over the means of consecutive blocks of `block` values; a
// partial last block is dropped. Timing several back-to-back set-ups
// per sample keeps each sample well clear of scheduler noise, and the
// median still drops an outlying block.
double MedianOfBlockMeans(const std::vector<double>& values, size_t block);

enum class Outcome : uint8_t { kOk, kDegraded, kShed, kExpired, kFailed };

struct Tally {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t degraded = 0;
  int64_t shed = 0;
  int64_t expired = 0;
  int64_t failed = 0;
  void Add(Outcome outcome);
  // sent == ok + degraded + shed + expired + failed.
  bool Balanced() const;
  std::string Json() const;
};

// Per-request record filled by RunOpenLoop.
struct Sample {
  double late_s = 0.0;     // scheduled arrival -> call start
  double latency_s = 0.0;  // scheduled arrival -> response
  double start_s = 0.0;    // call start, seconds after the phase start
  double end_s = 0.0;      // response, seconds after the phase start
  Outcome outcome = Outcome::kFailed;
};

// Executes one op and classifies its response; `index` is the op's
// position in the schedule.
using Caller = std::function<Outcome(const Op& op, size_t index)>;

// Runs `schedule` open-loop with `callers` threads, op times measured
// from `t0` (pass now() unless another thread shares the phase clock). Each thread claims
// the next unclaimed op from a shared cursor, sleeps until the op is due
// and calls `call`; a stalled caller therefore delays only the op it
// holds, while later ops go to whichever caller frees up first. Latency
// runs from the scheduled arrival, so waiting for a free caller counts.
std::vector<Sample> RunOpenLoop(
    const std::vector<Op>& schedule, int callers, const Caller& call,
    std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now());

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
