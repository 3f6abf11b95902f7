// Self-test of the load generator: schedule determinism, nearest-rank
// quantiles on known samples, and the outcome accounting identity.
// run.py runs it before every benchmark run; a failure stops the run.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "loadgen.h"

namespace {

int g_failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

perfbench::ScheduleConfig Config(uint64_t seed) {
  perfbench::ScheduleConfig c;
  c.seed = seed;
  c.rate_qps = 500.0;
  c.seconds = 4.0;
  c.num_users = 1000;
  c.num_items = 5000;
  return c;
}

bool SameBits(const std::vector<perfbench::Op>& a,
              const std::vector<perfbench::Op>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].at_s, &b[i].at_s, sizeof(double)) != 0 ||
        a[i].kind != b[i].kind || a[i].user != b[i].user ||
        a[i].item != b[i].item) {
      return false;
    }
  }
  return true;
}

void TestScheduleDeterminism() {
  const auto a = perfbench::MakeSchedule(Config(7));
  const auto b = perfbench::MakeSchedule(Config(7));
  const auto c = perfbench::MakeSchedule(Config(8));
  Expect(!a.empty(), "schedule is non-empty");
  Expect(SameBits(a, b), "same seed gives a bit-identical schedule");
  Expect(!SameBits(a, c), "another seed gives another schedule");
  // Rate and mix land near their targets (2000 expected arrivals).
  Expect(a.size() > 1800 && a.size() < 2200, "arrival count near rate");
  int topk = 0, unknown = 0, hot = 0, known = 0;
  bool ordered = true, in_range = true;
  for (size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].at_s < a[i - 1].at_s) ordered = false;
    if (a[i].at_s < 0.0 || a[i].at_s >= 4.0) in_range = false;
    if (a[i].kind == perfbench::OpKind::kTopK) ++topk;
    if (a[i].kind == perfbench::OpKind::kUnknown) {
      ++unknown;
      if (a[i].user < 1000) in_range = false;
    } else {
      ++known;
      if (a[i].user < 0 || a[i].user >= 1000) in_range = false;
      if (a[i].user % 8 == 0 && a[i].user < 1000) ++hot;
    }
    if (a[i].item < 0 || a[i].item >= 5000) in_range = false;
  }
  Expect(ordered, "arrivals are ascending");
  Expect(in_range, "ids and times are in range");
  const double n = static_cast<double>(a.size());
  Expect(std::fabs(topk / n - 0.7) < 0.05, "topk share near 70%");
  Expect(std::fabs(unknown / n - 0.1) < 0.03, "unknown share near 10%");
  // 80% hot plus the hot ids the uniform 20% hits by chance.
  Expect(std::fabs(hot / static_cast<double>(known) - 0.825) < 0.05,
         "hot share near 80%");
}

void TestNearestRank() {
  const std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  Expect(perfbench::NearestRank(ten, 0.5) == 5, "p50 of 1..10 is 5");
  Expect(perfbench::NearestRank(ten, 0.9) == 9, "p90 of 1..10 is 9");
  Expect(perfbench::NearestRank(ten, 0.99) == 10, "p99 of 1..10 is 10");
  Expect(perfbench::NearestRank(ten, 0.0) == 1, "p0 clamps to the min");
  Expect(perfbench::NearestRank(ten, 1.0) == 10, "p100 is the max");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(perfbench::NearestRank(hundred, 0.99) == 99, "p99 of 1..100 is 99");
  Expect(perfbench::NearestRank(hundred, 0.995) == 100,
         "p99.5 of 1..100 is 100");
  Expect(perfbench::NearestRank({}, 0.5) == 0, "empty sample gives 0");
  Expect(perfbench::NearestRank({3.5}, 0.99) == 3.5, "single sample");
  Expect(perfbench::Median({4, 1, 3, 2}) == 2.5, "even-length median");
  Expect(perfbench::Median({5, 1, 3}) == 3, "odd-length median");
  Expect(perfbench::MedianOfBlockMeans({1, 2, 3, 4, 5, 6, 100, 100, 100},
                                       3) == 5,
         "median of block means drops an outlying block");
  Expect(perfbench::MedianOfBlockMeans({1, 1, 2, 2, 9}, 2) == 1.5,
         "a partial last block is dropped");
  Expect(perfbench::MedianOfBlockMeans({1, 2}, 3) == 0,
         "no whole block gives 0");
}

void TestAccounting() {
  using perfbench::Outcome;
  // Every outcome a caller can report, run through the real open loop.
  const auto schedule = perfbench::MakeSchedule(Config(3));
  const std::vector<Outcome> cycle = {Outcome::kOk, Outcome::kDegraded,
                                      Outcome::kShed, Outcome::kExpired,
                                      Outcome::kFailed, Outcome::kOk};
  std::vector<perfbench::Op> head(schedule.begin(), schedule.begin() + 60);
  for (perfbench::Op& op : head) op.at_s *= 0.01;  // finish fast
  const auto samples = perfbench::RunOpenLoop(
      head, 4, [&](const perfbench::Op&, size_t i) {
        return cycle[i % cycle.size()];
      });
  perfbench::Tally tally;
  bool latencies_ok = true;
  for (const perfbench::Sample& s : samples) {
    tally.Add(s.outcome);
    if (s.latency_s < s.late_s || s.end_s < s.start_s) latencies_ok = false;
  }
  Expect(tally.sent == 60, "every scheduled op was sent once");
  Expect(tally.Balanced(), "sent = ok + degraded + shed + expired + failed");
  Expect(tally.ok == 20 && tally.failed == 10 && tally.shed == 10,
         "outcomes are tallied by kind");
  Expect(latencies_ok, "latency covers lateness and service");
  perfbench::Tally broken = tally;
  broken.sent += 1;
  Expect(!broken.Balanced(), "a lost request breaks the identity");
}

}  // namespace

int main() {
  TestScheduleDeterminism();
  TestNearestRank();
  TestAccounting();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench_loadgen_test: %d failure(s)\n",
                 g_failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_loadgen_test: ok\n");
  return 0;
}
