#include "serve/trace.h"

#include <cmath>
#include <cstring>

#include "serve/snapshot.h"  // internal::Fnv1a64
#include "util/fs.h"
#include "util/rng.h"
#include "util/strings.h"

namespace dgnn::serve {
namespace {

using util::Status;
using util::StatusOr;

constexpr char kMagic[8] = {'D', 'G', 'N', 'N', 'T', 'R', 'C', '1'};
constexpr size_t kHeaderBytes = 8 + 8 + 8;  // magic + seed + count
constexpr size_t kRecordBytes = 8 + 1 + 4 + 4 + 4;
constexpr size_t kChecksumBytes = 8;

template <typename T>
void AppendLE(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

template <typename T>
T ReadLE(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

// Instantaneous rate of the schedule at time t (seconds), and the
// schedule's maximum rate — the thinning envelope.
double RateAt(const ScheduleConfig& s, double t) {
  switch (s.arrival) {
    case ArrivalProcess::kPoisson:
      return s.target_qps;
    case ArrivalProcess::kBurst: {
      // Square wave with time-average target_qps: the high phase runs at
      // 2*ratio/(1+ratio) times target, the low phase at 2/(1+ratio).
      const double phase = std::fmod(t, s.burst_period_s);
      const double high = s.target_qps * 2.0 * s.burst_ratio /
                          (1.0 + s.burst_ratio);
      const double low = s.target_qps * 2.0 / (1.0 + s.burst_ratio);
      return phase < 0.5 * s.burst_period_s ? high : low;
    }
    case ArrivalProcess::kDiurnal:
      return s.target_qps *
             (1.0 + s.diurnal_amplitude *
                        std::sin(2.0 * M_PI * t / s.diurnal_period_s));
  }
  return s.target_qps;
}

double MaxRate(const ScheduleConfig& s) {
  switch (s.arrival) {
    case ArrivalProcess::kPoisson:
      return s.target_qps;
    case ArrivalProcess::kBurst:
      return s.target_qps * 2.0 * s.burst_ratio / (1.0 + s.burst_ratio);
    case ArrivalProcess::kDiurnal:
      return s.target_qps * (1.0 + s.diurnal_amplitude);
  }
  return s.target_qps;
}

}  // namespace

Request TraceRecord::ToRequest() const {
  Request req;
  switch (type) {
    case 0:
      req.type = Request::Type::kTopK;
      break;
    case 1:
      req.type = Request::Type::kScore;
      break;
    default:
      req.type = Request::Type::kSimilarUsers;
      break;
  }
  req.user = user;
  req.item = item;
  req.k = k;
  return req;
}

StatusOr<ArrivalProcess> ParseArrivalProcess(const std::string& name) {
  if (name == "poisson") return ArrivalProcess::kPoisson;
  if (name == "burst") return ArrivalProcess::kBurst;
  if (name == "diurnal") return ArrivalProcess::kDiurnal;
  return Status::InvalidArgument(
      "unknown arrival process '" + name +
      "' (expected poisson, burst or diurnal)");
}

const char* ArrivalProcessName(ArrivalProcess p) {
  switch (p) {
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kBurst:
      return "burst";
    case ArrivalProcess::kDiurnal:
      return "diurnal";
  }
  return "?";
}

Trace GenerateTrace(const ScheduleConfig& schedule, int32_t num_users,
                    int32_t num_items, int k, double hot_fraction) {
  Trace trace;
  trace.seed = schedule.seed;
  trace.records.reserve(static_cast<size_t>(schedule.num_requests));
  util::Rng rng(schedule.seed);

  // Non-homogeneous Poisson via thinning (Lewis & Shedler): draw
  // candidate gaps at the envelope rate, accept each candidate with
  // probability rate(t) / envelope. Exact for every schedule here, and
  // one code path instead of three.
  const double envelope = MaxRate(schedule);
  const int32_t hot_users = std::max<int32_t>(1, num_users / 8);
  double t = 0.0;
  int64_t emitted = 0;
  while (emitted < schedule.num_requests) {
    double u = rng.UniformDouble();
    if (u < 1e-12) u = 1e-12;
    t += -std::log(u) / envelope;
    if (rng.UniformDouble() * envelope > RateAt(schedule, t)) continue;

    TraceRecord rec;
    rec.arrival_ns = static_cast<int64_t>(t * 1e9);
    // Mix: 7/10 TopK, 1/10 Score, 1/10 SimilarUsers, 1/10 unknown-user
    // (degraded popularity path).
    // topk_only pins the mix to the known-user TopK slice (the retrieval
    // path under measurement); it changes only which branch is taken, so
    // arrival times and user draws stay on the same RNG stream shape.
    const int mix = schedule.topk_only ? 0 : static_cast<int>(emitted % 10);
    if (mix < 7) {
      rec.type = 0;
      rec.k = k;
    } else if (mix == 7) {
      rec.type = 1;
      rec.item = static_cast<int32_t>(rng.UniformInt(num_items));
    } else if (mix == 8) {
      rec.type = 2;
      rec.k = 5;
    } else {
      rec.type = 0;
      rec.k = k;
      rec.user = num_users + static_cast<int32_t>(rng.UniformInt(100));
    }
    if (mix != 9) {
      const bool hot =
          rng.UniformInt(1000) < static_cast<int64_t>(hot_fraction * 1000);
      rec.user = hot ? static_cast<int32_t>(rng.UniformInt(hot_users))
                     : static_cast<int32_t>(rng.UniformInt(num_users));
    }
    trace.records.push_back(rec);
    ++emitted;
  }
  return trace;
}

std::string SerializeTrace(const Trace& trace) {
  std::string out;
  out.reserve(kHeaderBytes + kRecordBytes * trace.records.size() +
              kChecksumBytes);
  out.append(kMagic, sizeof(kMagic));
  AppendLE<uint64_t>(&out, trace.seed);
  AppendLE<uint64_t>(&out, trace.records.size());
  for (const TraceRecord& r : trace.records) {
    AppendLE<int64_t>(&out, r.arrival_ns);
    out.push_back(static_cast<char>(r.type));
    AppendLE<int32_t>(&out, r.user);
    AppendLE<int32_t>(&out, r.item);
    AppendLE<int32_t>(&out, r.k);
  }
  AppendLE<uint64_t>(&out, internal::Fnv1a64(out.data(), out.size()));
  return out;
}

Status WriteTrace(const Trace& trace, const std::string& path) {
  return fs::AtomicWriteFile(path, SerializeTrace(trace));
}

StatusOr<Trace> ReadTrace(const std::string& path) {
  auto content = fs::ReadFileToString(path);
  if (!content.ok()) return content.status();
  const std::string& bytes = content.value();

  if (bytes.size() < kHeaderBytes + kChecksumBytes ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + ": not a DGNNTRC1 trace");
  }
  const uint64_t checksum = internal::Fnv1a64(
      bytes.data(), bytes.size() - kChecksumBytes);
  if (ReadLE<uint64_t>(bytes.data() + bytes.size() - kChecksumBytes) !=
      checksum) {
    return Status::InvalidArgument(path + ": trace checksum mismatch");
  }
  const uint64_t count = ReadLE<uint64_t>(bytes.data() + 16);
  const uint64_t want =
      kHeaderBytes + kRecordBytes * count + kChecksumBytes;
  if (bytes.size() != want) {
    return Status::InvalidArgument(util::StrFormat(
        "%s: trace length %llu does not match record count %llu",
        path.c_str(), (unsigned long long)bytes.size(),
        (unsigned long long)count));
  }

  Trace trace;
  trace.seed = ReadLE<uint64_t>(bytes.data() + 8);
  trace.records.reserve(count);
  int64_t prev_arrival = 0;
  const char* p = bytes.data() + kHeaderBytes;
  for (uint64_t i = 0; i < count; ++i, p += kRecordBytes) {
    TraceRecord r;
    r.arrival_ns = ReadLE<int64_t>(p);
    r.type = static_cast<uint8_t>(p[8]);
    r.user = ReadLE<int32_t>(p + 9);
    r.item = ReadLE<int32_t>(p + 13);
    r.k = ReadLE<int32_t>(p + 17);
    if (r.type > 2) {
      return Status::InvalidArgument(util::StrFormat(
          "%s: record %llu has invalid type %d", path.c_str(),
          (unsigned long long)i, (int)r.type));
    }
    if (r.arrival_ns < prev_arrival) {
      return Status::InvalidArgument(util::StrFormat(
          "%s: record %llu arrival goes backwards", path.c_str(),
          (unsigned long long)i));
    }
    if (r.user < 0 || r.item < 0 || r.k < 0) {
      return Status::InvalidArgument(util::StrFormat(
          "%s: record %llu has a negative field", path.c_str(),
          (unsigned long long)i));
    }
    prev_arrival = r.arrival_ns;
    trace.records.push_back(r);
  }
  return trace;
}

}  // namespace dgnn::serve
