// Inputs for every workload. Preparation runs in its own process (driver
// `prepare`), so neither its time nor its memory shows up in the
// measured process's setup_s or rss_mb.
//
// The worlds (datasets, snapshots, shard slices) are fixed: --seed drives
// the traffic schedule, the model's initialisation and the BPR sampler,
// not the catalog. Run-to-run spread then measures the program and the
// host rather than world-to-world variation, and a world is built once
// per build and reused from its cache directory.

#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/synthetic.h"
#include "loadgen.h"
#include "names.h"
#include "serve/engine.h"
#include "serve/snapshot.h"

namespace perfbench {

// Seed of every world; see the file comment.
inline constexpr uint64_t kWorldSeed = 20230401;

// Sizes and rates of the three workloads (README.md says why).
inline constexpr int kTrainUsers = 5000;
inline constexpr int kTrainItems = 10000;
inline constexpr int kServeUsers = 100000;
inline constexpr int kServeItems = 200000;
inline constexpr int kEmbeddingDim = 16;
inline constexpr double kIvfRateQps = 200.0;
inline constexpr double kRoutedRateQps = 100.0;
inline constexpr int kIvfNprobe = 32;
inline constexpr int kRecallUsers = 256;
inline constexpr int kTopK = 10;
inline constexpr int kNumShards = 3;
inline constexpr uint64_t kHashSeed = 0x5eed;
// Every kCheckStride-th routed op is compared against a single-process
// engine over the matching unsharded snapshot.
inline constexpr size_t kCheckStride = 16;

data::SyntheticConfig TrainWorld();
data::SyntheticConfig ServeWorld();

// Schedule of the timed phase (and, with another seed, of the warm-up).
ScheduleConfig ServeSchedule(uint64_t seed, double rate_qps, double seconds,
                             int32_t num_users, int32_t num_items);

// Dense fp32 snapshot whose embeddings carry the world's community
// structure: each user/item row is its community centroid plus noise
// (`generation` picks the noise, so two generations rank differently
// over one catalog).
serve::Snapshot CommunitySnapshot(const data::Dataset& ds, int generation);

// The engine request that serves `op`.
serve::Request ToRequest(const Op& op);

// One reference answer: the op's index in the schedule and what a
// single-process engine answered for it.
struct Reference {
  size_t index = 0;
  bool degraded = false;
  std::vector<int32_t> ids;
  std::vector<uint32_t> score_bits;  // per id, or one for a score op
};

// Reference answers for every kCheckStride-th op of `schedule`.
std::vector<Reference> AnswerSample(serve::ServingEngine& engine,
                                    const std::vector<Op>& schedule);
bool WriteReferences(const std::string& path,
                     const std::vector<Reference>& refs);
bool ReadReferences(const std::string& path, std::vector<Reference>* refs);

// Compares one response with its reference, bit for bit.
bool MatchesReference(const serve::Response& r, const Reference& ref,
                      OpKind kind);

// Builds the world of `workload` in `world` unless it is already there
// (a READY marker is written last), then the run's seed-dependent inputs
// under `dir`. Returns false on error.
bool Prepare(const std::string& workload, uint64_t seed, double seconds,
             const std::string& world, const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
