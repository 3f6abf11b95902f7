#include "world.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "data/io.h"
#include "index/ivf.h"
#include "quant/quant.h"
#include "serve/ranking.h"
#include "shard/partition.h"

namespace perfbench {
namespace {

uint32_t Bits(float f) {
  uint32_t b;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

double Gaussian(SplitMix64& rng) {
  const double u1 = 1.0 - rng.Uniform();
  const double u2 = rng.Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

// Unit-norm community centroids shared by every generation of a world.
std::vector<float> Centroids(int communities, uint64_t seed) {
  SplitMix64 rng(seed ^ 0xC3A5C85C97CB3127ULL);
  std::vector<float> c(static_cast<size_t>(communities) * kEmbeddingDim);
  for (int k = 0; k < communities; ++k) {
    double norm = 0.0;
    float* row = c.data() + static_cast<size_t>(k) * kEmbeddingDim;
    for (int j = 0; j < kEmbeddingDim; ++j) {
      row[j] = static_cast<float>(Gaussian(rng));
      norm += static_cast<double>(row[j]) * row[j];
    }
    const float inv = static_cast<float>(1.0 / std::sqrt(norm));
    for (int j = 0; j < kEmbeddingDim; ++j) row[j] *= inv;
  }
  return c;
}

void FillRows(ag::Tensor* out, const std::vector<int32_t>& community,
              const std::vector<float>& centroids, double noise,
              const std::vector<float>& scale, SplitMix64& rng) {
  const double sigma = noise / std::sqrt(static_cast<double>(kEmbeddingDim));
  for (size_t r = 0; r < community.size(); ++r) {
    const float* c =
        centroids.data() + static_cast<size_t>(community[r]) * kEmbeddingDim;
    float* row = out->row(static_cast<int64_t>(r));
    for (int j = 0; j < kEmbeddingDim; ++j) {
      row[j] = scale[r] * static_cast<float>(c[j] + sigma * Gaussian(rng));
    }
  }
}

bool Report(const util::Status& s) {
  if (!s.ok()) std::fprintf(stderr, "prepare: %s\n", s.ToString().c_str());
  return s.ok();
}

bool TrainWorldFiles(const std::string& world) {
  return Report(data::SaveDataset(data::GenerateSynthetic(TrainWorld()),
                                  world + "/dataset"));
}

bool IvfWorldFiles(const std::string& world) {
  const data::Dataset ds = data::GenerateSynthetic(ServeWorld());
  serve::Snapshot snap = CommunitySnapshot(ds, /*generation=*/0);
  // Recall ground truth: exact fp32 top-k over the snapshot BEFORE the
  // index is built and the embeddings are quantized.
  std::vector<Reference> truth;
  for (int i = 0; i < kRecallUsers; ++i) {
    Reference ref;
    ref.index = static_cast<size_t>(
        static_cast<int64_t>(i) * ds.num_users / kRecallUsers);
    const int32_t u = static_cast<int32_t>(ref.index);
    for (const serve::ScoredItem& s : serve::TopKUnseenItems(
             snap.users.row(u), snap.items,
             snap.seen[static_cast<size_t>(u)], kTopK)) {
      ref.ids.push_back(s.item);
      ref.score_bits.push_back(Bits(s.score));
    }
    truth.push_back(std::move(ref));
  }
  dgnn::index::IvfConfig ivf;
  ivf.seed = kWorldSeed;
  util::Status s = serve::BuildSnapshotIndex(&snap, ivf);
  if (s.ok()) s = serve::QuantizeSnapshot(&snap, quant::Codec::kInt8);
  if (s.ok()) s = serve::WriteSnapshot(snap, world + "/snapshot.bin");
  return Report(s) && WriteReferences(world + "/recall.txt", truth);
}

bool RoutedWorldFiles(const std::string& world) {
  const data::Dataset ds = data::GenerateSynthetic(ServeWorld());
  for (int gen = 0; gen < 2; ++gen) {
    const serve::Snapshot full = CommunitySnapshot(ds, gen);
    const std::string base = world + "/gen" + std::to_string(gen);
    if (!Report(shard::WriteShardSnapshots(full, base, kNumShards,
                                           kHashSeed)) ||
        !Report(serve::WriteSnapshot(full, base + ".full"))) {
      return false;
    }
  }
  return true;
}

// The single-process answers the routed run must reproduce, for the
// run's own schedule.
bool RoutedReferences(uint64_t seed, double seconds, const std::string& world,
                      const std::string& dir) {
  for (int gen = 0; gen < 2; ++gen) {
    const std::string name = "/gen" + std::to_string(gen);
    auto full = serve::ReadSnapshot(world + name + ".full");
    if (!Report(full.status())) return false;
    auto snap = std::make_shared<serve::Snapshot>(std::move(full.value()));
    const std::vector<Op> schedule = MakeSchedule(ServeSchedule(
        seed, kRoutedRateQps, seconds, static_cast<int32_t>(snap->meta.num_users),
        static_cast<int32_t>(snap->meta.num_items)));
    serve::ServingEngine engine;
    engine.Swap(std::move(snap));
    if (!WriteReferences(dir + name + ".ref.txt",
                         AnswerSample(engine, schedule))) {
      return false;
    }
  }
  return true;
}

}  // namespace

data::SyntheticConfig TrainWorld() {
  // Yelp's shape (sparsest interactions and ties) at ~5.5x the preset.
  data::SyntheticConfig c = data::SyntheticConfig::YelpSmall();
  c.name = "yelp-mid";
  c.num_users = kTrainUsers;
  c.num_items = kTrainItems;
  c.seed = kWorldSeed;
  return c;
}

data::SyntheticConfig ServeWorld() {
  // Ciao's shape (densest interactions and ties) at a tenth of ciao-large.
  data::SyntheticConfig c = data::SyntheticConfig::CiaoLarge();
  c.name = "ciao-serve";
  c.num_users = kServeUsers;
  c.num_items = kServeItems;
  c.eval_fraction = 0.0;
  c.time_horizon = 0;
  c.seed = kWorldSeed;
  return c;
}

ScheduleConfig ServeSchedule(uint64_t seed, double rate_qps, double seconds,
                             int32_t num_users, int32_t num_items) {
  ScheduleConfig c;
  c.seed = seed;
  c.rate_qps = rate_qps;
  c.seconds = seconds;
  c.num_users = num_users;
  c.num_items = num_items;
  return c;
}

serve::Snapshot CommunitySnapshot(const data::Dataset& ds, int generation) {
  serve::Snapshot s;
  s.seen = ds.TrainItemsByUser();
  for (auto& list : s.seen) {
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  s.social = ds.SocialNeighbors();
  s.item_counts.assign(static_cast<size_t>(ds.num_items), 0);
  for (const auto& list : s.seen) {
    for (int32_t item : list) s.item_counts[static_cast<size_t>(item)] += 1;
  }
  int communities = 1;
  for (int32_t c : ds.user_community) communities = std::max(communities, c + 1);
  for (int32_t c : ds.item_community) communities = std::max(communities, c + 1);
  const std::vector<float> centroids = Centroids(communities, kWorldSeed);
  SplitMix64 rng(kWorldSeed * 0x9E3779B97F4A7C15ULL + 1 +
                 static_cast<uint64_t>(generation));
  s.users = ag::Tensor(ds.num_users, kEmbeddingDim);
  s.items = ag::Tensor(ds.num_items, kEmbeddingDim);
  FillRows(&s.users, ds.user_community, centroids, 0.6,
           std::vector<float>(static_cast<size_t>(ds.num_users), 1.0f), rng);
  // Popular items score higher with everyone in their community.
  std::vector<float> item_scale(static_cast<size_t>(ds.num_items));
  for (size_t i = 0; i < item_scale.size(); ++i) {
    item_scale[i] = static_cast<float>(
        0.5 + 0.1 * std::log1p(static_cast<double>(s.item_counts[i])));
  }
  FillRows(&s.items, ds.item_community, centroids, 0.5, item_scale, rng);
  s.meta.model_name = "community";
  s.meta.dataset_name = ds.name;
  s.meta.tag = "perfbench-gen" + std::to_string(generation);
  s.meta.num_users = ds.num_users;
  s.meta.num_items = ds.num_items;
  s.meta.embedding_dim = kEmbeddingDim;
  return s;
}

serve::Request ToRequest(const Op& op) {
  serve::Request r;
  r.user = op.user;
  r.k = kTopK;
  switch (op.kind) {
    case OpKind::kTopK:
    case OpKind::kUnknown: r.type = serve::Request::Type::kTopK; break;
    case OpKind::kScore:
      r.type = serve::Request::Type::kScore;
      r.item = op.item;
      break;
    case OpKind::kSimilar:
      r.type = serve::Request::Type::kSimilarUsers;
      break;
  }
  return r;
}

std::vector<Reference> AnswerSample(serve::ServingEngine& engine,
                                    const std::vector<Op>& schedule) {
  std::vector<Reference> out;
  for (size_t i = 0; i < schedule.size(); i += kCheckStride) {
    const serve::Response r = engine.Handle(ToRequest(schedule[i]));
    Reference ref;
    ref.index = i;
    ref.degraded = r.degraded;
    if (schedule[i].kind == OpKind::kScore) {
      ref.score_bits.push_back(Bits(r.score));
    } else {
      for (const serve::ScoredItem& s : r.items) {
        ref.ids.push_back(s.item);
        ref.score_bits.push_back(Bits(s.score));
      }
    }
    out.push_back(std::move(ref));
  }
  return out;
}

bool WriteReferences(const std::string& path,
                     const std::vector<Reference>& refs) {
  std::ostringstream out;
  for (const Reference& r : refs) {
    out << r.index << ' ' << (r.degraded ? 1 : 0) << ' ' << r.ids.size()
        << ' ' << r.score_bits.size();
    for (int32_t id : r.ids) out << ' ' << id;
    for (uint32_t b : r.score_bits) out << ' ' << b;
    out << '\n';
  }
  std::ofstream f(path);
  f << out.str();
  return static_cast<bool>(f);
}

bool ReadReferences(const std::string& path, std::vector<Reference>* refs) {
  std::ifstream f(path);
  if (!f) return false;
  refs->clear();
  Reference r;
  int degraded = 0;
  size_t n_ids = 0, n_bits = 0;
  while (f >> r.index >> degraded >> n_ids >> n_bits) {
    r.degraded = degraded != 0;
    r.ids.resize(n_ids);
    r.score_bits.resize(n_bits);
    for (int32_t& id : r.ids) f >> id;
    for (uint32_t& b : r.score_bits) f >> b;
    refs->push_back(r);
  }
  return f.eof();
}

bool MatchesReference(const serve::Response& r, const Reference& ref,
                      OpKind kind) {
  if (!r.ok || r.degraded != ref.degraded) return false;
  if (kind == OpKind::kScore) {
    return ref.score_bits.size() == 1 && Bits(r.score) == ref.score_bits[0];
  }
  if (r.items.size() != ref.ids.size()) return false;
  for (size_t i = 0; i < r.items.size(); ++i) {
    if (r.items[i].item != ref.ids[i] ||
        Bits(r.items[i].score) != ref.score_bits[i]) {
      return false;
    }
  }
  return true;
}

bool Prepare(const std::string& workload, uint64_t seed, double seconds,
             const std::string& world, const std::string& dir) {
  namespace stdfs = std::filesystem;
  std::error_code ec;
  if (!stdfs::exists(world + "/READY")) {
    // Built aside and renamed into place, so a half-built world is never
    // mistaken for a cached one.
    const std::string tmp = world + ".tmp";
    stdfs::remove_all(tmp, ec);
    stdfs::create_directories(tmp, ec);
    bool ok = !ec;
    if (ok && workload == "train_mid") ok = TrainWorldFiles(tmp);
    if (ok && workload == "serve_ivf") ok = IvfWorldFiles(tmp);
    if (ok && workload == "serve_routed") ok = RoutedWorldFiles(tmp);
    if (ok) ok = static_cast<bool>(std::ofstream(tmp + "/READY") << "ok\n");
    stdfs::remove_all(world, ec);
    if (ok) stdfs::rename(tmp, world, ec);
    if (!ok || ec) {
      std::fprintf(stderr, "prepare: cannot build the %s world in %s\n",
                   workload.c_str(), world.c_str());
      return false;
    }
  }
  stdfs::create_directories(dir, ec);
  if (ec) return false;
  if (workload == "serve_routed") {
    return RoutedReferences(seed, seconds, world, dir);
  }
  return true;
}

}  // namespace perfbench
