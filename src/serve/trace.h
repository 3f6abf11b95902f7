// Replayable request traces for open-loop serving benchmarks.
//
// A trace pins down WHAT is asked and WHEN it should arrive: each record
// carries a scheduled arrival time (nanoseconds from trace start) plus
// the full request content. Replaying the same trace against any engine
// configuration, with any number of dispatch workers, issues the exact
// same request stream on the exact same schedule — the precondition for
// comparing latency numbers across PRs (the published BENCH_serve.json
// trajectory) and for coordinated-omission-safe measurement (latency is
// taken from the *scheduled* arrival, never from when a busy client got
// around to sending; see serve/replay.h).
//
// Arrival schedules (GenerateTrace):
//   * poisson — exponential interarrival gaps at a fixed target rate;
//     the memoryless baseline every open-loop bench should start from.
//   * burst   — square wave: alternating high/low rate phases with the
//     base rate normalized so the time-average equals target_qps. Shows
//     how the engine degrades when load arrives in slams rather than
//     evenly.
//   * diurnal — sinusoidal instantaneous rate (thinned Poisson), the
//     smooth day/night shape; pairs with the synthetic generator's
//     diurnal event timestamps.
//
// File format (little-endian), magic "DGNNTRC1":
//
//   magic (8 bytes)
//   uint64 seed            (schedule seed, for provenance)
//   uint64 record_count
//   per record (21 bytes, packed):
//     int64  arrival_ns    (monotone nondecreasing from 0)
//     uint8  type          (0 TopK, 1 Score, 2 SimilarUsers)
//     int32  user
//     int32  item
//     int32  k
//   uint64 FNV-1a checksum of every byte above
//
// ReadTrace validates the ENTIRE file before returning — magic, exact
// length, checksum, record types, nonnegative ids, monotone arrivals —
// so a truncated, bit-flipped or trailing-garbage file yields an error,
// never a half-parsed trace. WriteTrace goes through the atomic
// temp+fsync+rename path shared with snapshots and checkpoints.

#ifndef DGNN_SERVE_TRACE_H_
#define DGNN_SERVE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/engine.h"
#include "util/status.h"

namespace dgnn::serve {

struct TraceRecord {
  int64_t arrival_ns = 0;  // scheduled arrival, ns from trace start
  uint8_t type = 0;        // Request::Type as uint8
  int32_t user = 0;
  int32_t item = 0;
  int32_t k = 0;

  Request ToRequest() const;
  bool operator==(const TraceRecord& o) const {
    return arrival_ns == o.arrival_ns && type == o.type && user == o.user &&
           item == o.item && k == o.k;
  }
};

struct Trace {
  uint64_t seed = 0;
  std::vector<TraceRecord> records;
};

enum class ArrivalProcess { kPoisson, kBurst, kDiurnal };

// Parses "poisson" / "burst" / "diurnal".
util::StatusOr<ArrivalProcess> ParseArrivalProcess(const std::string& name);
const char* ArrivalProcessName(ArrivalProcess p);

struct ScheduleConfig {
  ArrivalProcess arrival = ArrivalProcess::kPoisson;
  // Time-average request rate; every schedule is normalized to it.
  double target_qps = 1000.0;
  int64_t num_requests = 1000;
  // Burst schedule: period of one high+low cycle and the high:low rate
  // ratio. Half the period runs at 2*target/(1+1/ratio)... normalized so
  // the average stays target_qps.
  double burst_period_s = 1.0;
  double burst_ratio = 4.0;
  // Diurnal schedule: sinusoid period. Rate swings between
  // (1 ± diurnal_amplitude) * target_qps.
  double diurnal_period_s = 4.0;
  double diurnal_amplitude = 0.8;
  uint64_t seed = 1;
  // Emit known-user TopK requests only (no Score / SimilarUsers /
  // degraded slices) — isolates the retrieval path so brute-force vs IVF
  // p99 comparisons aren't masked by the full-catalog SimilarUsers scan.
  bool topk_only = false;
};

// Deterministically builds a trace: arrival times from the configured
// process, a fixed request mix (7/10 TopK, 1/10 Score, 1/10
// SimilarUsers, 1/10 unknown-user degraded traffic) with
// `hot_fraction` of known-user traffic on the first num_users/8 users.
// Same config -> bit-identical trace, on any machine.
Trace GenerateTrace(const ScheduleConfig& schedule, int32_t num_users,
                    int32_t num_items, int k, double hot_fraction);

// Atomic write (temp + fsync + rename) with trailing checksum.
util::Status WriteTrace(const Trace& trace, const std::string& path);

// Fully-validating read; see the header comment for what is rejected.
util::StatusOr<Trace> ReadTrace(const std::string& path);

// In-memory serialization (the exact on-disk bytes); exposed so tests
// can assert bit-identical round trips and craft corrupted files.
std::string SerializeTrace(const Trace& trace);

}  // namespace dgnn::serve

#endif  // DGNN_SERVE_TRACE_H_
