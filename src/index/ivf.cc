#include "index/ivf.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "kernels/kernels.h"
#include "serve/ranking.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dgnn::index {
namespace {

using util::AppendPod;
using util::Cursor;
using util::Status;
using util::StatusOr;

// Fixed assignment grain (matches the serving catalog scans): each row's
// assignment is computed independently into its own slot, so results are
// bit-identical for any thread count.
constexpr int64_t kRowGrain = 256;

// argmin over centroids of |x_hat - c_hat|^2, expanded to
// half|c_hat|^2 - dot(x_hat, c_hat) (the |x_hat|^2 term is constant per
// point). Ties break toward the lower centroid id.
int32_t AssignOne(const float* x_aug, const float* centroids_aug,
                  const float* half_norms, int32_t nlist, int64_t adim) {
  int32_t best = 0;
  float best_cost = 0.0f;
  for (int32_t l = 0; l < nlist; ++l) {
    const float cost =
        half_norms[l] - kernels::Dot(x_aug, centroids_aug + l * adim, adim);
    if (l == 0 || cost < best_cost) {
      best = l;
      best_cost = cost;
    }
  }
  return best;
}

}  // namespace

int64_t IvfIndex::ResidentBytes() const {
  return static_cast<int64_t>(centroids.size()) * sizeof(float) +
         static_cast<int64_t>(half_sq_norms.size()) * sizeof(float) +
         static_cast<int64_t>(list_offsets.size()) * sizeof(int64_t) +
         static_cast<int64_t>(list_items.size()) * sizeof(int32_t);
}

void IvfIndex::RankLists(const float* u, int nprobe,
                         std::vector<int32_t>* lists) const {
  const int probe =
      std::max(1, std::min(nprobe, static_cast<int>(nlist)));
  std::vector<float> dots(static_cast<size_t>(nlist));
  kernels::ScoreRows(u, centroids.data(), dim, nullptr, 0, nlist,
                     dots.data());
  std::vector<serve::ScoredItem> scored(static_cast<size_t>(nlist));
  for (int32_t l = 0; l < nlist; ++l) {
    scored[static_cast<size_t>(l)] = {
        l,
        dots[static_cast<size_t>(l)] - half_sq_norms[static_cast<size_t>(l)]};
  }
  // The serving order: a non-finite u can make a list score NaN, which
  // ranks after every number.
  serve::SelectTopK(scored, probe);
  lists->clear();
  lists->reserve(static_cast<size_t>(probe));
  for (const serve::ScoredItem& s : scored) lists->push_back(s.item);
}

void IvfIndex::Probe(const float* u, int nprobe,
                     std::vector<int32_t>* candidates) const {
  std::vector<int32_t> lists;
  RankLists(u, nprobe, &lists);
  int64_t total = 0;
  for (int32_t l : lists) {
    total += list_offsets[static_cast<size_t>(l) + 1] -
             list_offsets[static_cast<size_t>(l)];
  }
  candidates->clear();
  candidates->reserve(static_cast<size_t>(total));
  for (int32_t l : lists) {
    candidates->insert(
        candidates->end(),
        list_items.begin() + list_offsets[static_cast<size_t>(l)],
        list_items.begin() + list_offsets[static_cast<size_t>(l) + 1]);
  }
}

IvfIndex BuildIvfIndex(const float* data, int64_t rows, int64_t cols,
                       const IvfConfig& config) {
  DGNN_CHECK_GT(rows, 0);
  DGNN_CHECK_GT(cols, 0);
  int64_t nlist = config.nlist > 0
                      ? config.nlist
                      : static_cast<int64_t>(
                            std::lround(std::sqrt(static_cast<double>(rows))));
  nlist = std::max<int64_t>(1, std::min<int64_t>({nlist, rows, 65536}));
  const int64_t adim = cols + 1;

  // MIPS reduction: per-row squared norms, the shared radius M^2, and the
  // augmented coordinate sqrt(M^2 - |x|^2) that equalizes all norms.
  std::vector<float> sq_norms(static_cast<size_t>(rows));
  util::ParallelFor(0, rows, kRowGrain, [&](int64_t b, int64_t e) {
    for (int64_t r = b; r < e; ++r) {
      const float* row = data + r * cols;
      sq_norms[static_cast<size_t>(r)] = kernels::Dot(row, row, cols);
    }
  });
  float max_sq = 0.0f;
  for (float s : sq_norms) max_sq = std::max(max_sq, s);
  auto aug_coord = [&](int64_t r) {
    const float rem = max_sq - sq_norms[static_cast<size_t>(r)];
    return rem > 0.0f ? std::sqrt(rem) : 0.0f;
  };

  // Training sample (augmented, contiguous).
  util::Rng rng(config.seed);
  std::vector<int64_t> sample_ids;
  if (config.train_sample > 0 && config.train_sample < rows) {
    sample_ids = rng.SampleWithoutReplacement(rows, config.train_sample);
  } else {
    sample_ids.resize(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) sample_ids[static_cast<size_t>(r)] = r;
  }
  const int64_t sn = static_cast<int64_t>(sample_ids.size());
  nlist = std::min(nlist, sn);
  std::vector<float> sample(static_cast<size_t>(sn * adim));
  for (int64_t i = 0; i < sn; ++i) {
    const int64_t r = sample_ids[static_cast<size_t>(i)];
    std::memcpy(sample.data() + i * adim, data + r * cols,
                static_cast<size_t>(cols) * sizeof(float));
    sample[static_cast<size_t>(i * adim + cols)] = aug_coord(r);
  }

  // Init: the first nlist sampled points (the sample order is already a
  // seeded uniform draw).
  std::vector<float> cent(static_cast<size_t>(nlist * adim));
  for (int64_t l = 0; l < nlist; ++l) {
    std::memcpy(cent.data() + l * adim, sample.data() + l * adim,
                static_cast<size_t>(adim) * sizeof(float));
  }

  std::vector<float> half_norms(static_cast<size_t>(nlist));
  auto refresh_half_norms = [&] {
    for (int64_t l = 0; l < nlist; ++l) {
      const float* c = cent.data() + l * adim;
      half_norms[static_cast<size_t>(l)] =
          0.5f * kernels::Dot(c, c, adim);
    }
  };

  // Lloyd on the sample: parallel assignment into disjoint slots, then a
  // serial mean update (deterministic accumulation order).
  std::vector<int32_t> assign(static_cast<size_t>(sn));
  std::vector<double> sums;
  std::vector<int64_t> counts;
  for (int32_t iter = 0; iter < std::max(1, config.iterations); ++iter) {
    refresh_half_norms();
    util::ParallelFor(0, sn, kRowGrain, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) {
        assign[static_cast<size_t>(i)] =
            AssignOne(sample.data() + i * adim, cent.data(),
                      half_norms.data(), static_cast<int32_t>(nlist), adim);
      }
    });
    sums.assign(static_cast<size_t>(nlist * adim), 0.0);
    counts.assign(static_cast<size_t>(nlist), 0);
    for (int64_t i = 0; i < sn; ++i) {
      const int32_t l = assign[static_cast<size_t>(i)];
      double* dst = sums.data() + static_cast<int64_t>(l) * adim;
      const float* src = sample.data() + i * adim;
      for (int64_t c = 0; c < adim; ++c) dst[c] += src[c];
      ++counts[static_cast<size_t>(l)];
    }
    for (int64_t l = 0; l < nlist; ++l) {
      if (counts[static_cast<size_t>(l)] == 0) continue;  // keep old
      const double inv = 1.0 / static_cast<double>(counts[static_cast<size_t>(l)]);
      float* dst = cent.data() + l * adim;
      const double* src = sums.data() + l * adim;
      for (int64_t c = 0; c < adim; ++c) {
        dst[c] = static_cast<float>(src[c] * inv);
      }
    }
  }

  // Final full assignment over every row (augmenting on the fly).
  refresh_half_norms();
  std::vector<int32_t> row_list(static_cast<size_t>(rows));
  util::ParallelFor(0, rows, kRowGrain, [&](int64_t b, int64_t e) {
    std::vector<float> x_aug(static_cast<size_t>(adim));
    for (int64_t r = b; r < e; ++r) {
      std::memcpy(x_aug.data(), data + r * cols,
                  static_cast<size_t>(cols) * sizeof(float));
      x_aug[static_cast<size_t>(cols)] = aug_coord(r);
      row_list[static_cast<size_t>(r)] =
          AssignOne(x_aug.data(), cent.data(), half_norms.data(),
                    static_cast<int32_t>(nlist), adim);
    }
  });

  IvfIndex out;
  out.nlist = static_cast<int32_t>(nlist);
  out.dim = cols;
  out.centroids.resize(static_cast<size_t>(nlist * cols));
  for (int64_t l = 0; l < nlist; ++l) {
    std::memcpy(out.centroids.data() + l * cols, cent.data() + l * adim,
                static_cast<size_t>(cols) * sizeof(float));
  }
  out.half_sq_norms = half_norms;
  out.list_offsets.assign(static_cast<size_t>(nlist) + 1, 0);
  for (int64_t r = 0; r < rows; ++r) {
    ++out.list_offsets[static_cast<size_t>(row_list[static_cast<size_t>(r)]) + 1];
  }
  for (int64_t l = 0; l < nlist; ++l) {
    out.list_offsets[static_cast<size_t>(l) + 1] +=
        out.list_offsets[static_cast<size_t>(l)];
  }
  out.list_items.resize(static_cast<size_t>(rows));
  std::vector<int64_t> fill(out.list_offsets.begin(),
                            out.list_offsets.end() - 1);
  // Row-order fill keeps each list's items ascending — binary-search
  // friendly and a cheap structural invariant for validation.
  for (int64_t r = 0; r < rows; ++r) {
    const int32_t l = row_list[static_cast<size_t>(r)];
    out.list_items[static_cast<size_t>(fill[static_cast<size_t>(l)]++)] =
        static_cast<int32_t>(r);
  }
  return out;
}

void IvfIndex::Serialize(std::string* out) const {
  AppendPod<int32_t>(*out, nlist);
  AppendPod<int64_t>(*out, dim);
  AppendPod<int64_t>(*out, static_cast<int64_t>(list_items.size()));
  out->append(reinterpret_cast<const char*>(centroids.data()),
              centroids.size() * sizeof(float));
  out->append(reinterpret_cast<const char*>(half_sq_norms.data()),
              half_sq_norms.size() * sizeof(float));
  out->append(reinterpret_cast<const char*>(list_offsets.data()),
              list_offsets.size() * sizeof(int64_t));
  out->append(reinterpret_cast<const char*>(list_items.data()),
              list_items.size() * sizeof(int32_t));
}

StatusOr<IvfIndex> ParseIvfIndex(const char* data, size_t size) {
  Cursor c{data, size};
  IvfIndex out;
  int64_t items_total = 0;
  if (!c.ReadPod(&out.nlist) || !c.ReadPod(&out.dim) ||
      !c.ReadPod(&items_total)) {
    return Status::InvalidArgument("truncated ivf index header");
  }
  if (out.nlist <= 0 || out.nlist > 65536 || out.dim <= 0 ||
      out.dim > (1LL << 20) || items_total < 0 ||
      items_total > (1LL << 32)) {
    return Status::InvalidArgument("implausible ivf index header");
  }
  const int64_t nlist = out.nlist;
  out.centroids.resize(static_cast<size_t>(nlist * out.dim));
  out.half_sq_norms.resize(static_cast<size_t>(nlist));
  out.list_offsets.resize(static_cast<size_t>(nlist) + 1);
  out.list_items.resize(static_cast<size_t>(items_total));
  if (!c.Read(out.centroids.data(), out.centroids.size() * sizeof(float)) ||
      !c.Read(out.half_sq_norms.data(),
              out.half_sq_norms.size() * sizeof(float)) ||
      !c.Read(out.list_offsets.data(),
              out.list_offsets.size() * sizeof(int64_t)) ||
      !c.Read(out.list_items.data(),
              out.list_items.size() * sizeof(int32_t))) {
    return Status::InvalidArgument("truncated ivf index payload");
  }
  if (c.pos != c.size) {
    return Status::InvalidArgument("ivf index has trailing bytes");
  }
  for (float v : out.centroids) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("ivf centroid is not finite");
    }
  }
  for (float v : out.half_sq_norms) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("ivf centroid norm is not finite");
    }
  }
  if (out.list_offsets.front() != 0 ||
      out.list_offsets.back() != items_total) {
    return Status::InvalidArgument("ivf list offsets do not span items");
  }
  for (size_t l = 1; l < out.list_offsets.size(); ++l) {
    if (out.list_offsets[l] < out.list_offsets[l - 1]) {
      return Status::InvalidArgument("ivf list offsets not ascending");
    }
  }
  return out;
}

Status ValidateIvfIndex(const IvfIndex& index, int64_t rows, int64_t dim) {
  if (index.dim != dim) {
    return Status::InvalidArgument(
        "ivf index dim disagrees with embeddings");
  }
  if (static_cast<int64_t>(index.list_items.size()) != rows) {
    return Status::InvalidArgument(
        "ivf index does not cover the item catalog");
  }
  std::vector<bool> covered(static_cast<size_t>(rows), false);
  for (int32_t item : index.list_items) {
    if (item < 0 || static_cast<int64_t>(item) >= rows) {
      return Status::InvalidArgument("ivf list references item " +
                                     std::to_string(item) +
                                     " beyond catalog");
    }
    if (covered[static_cast<size_t>(item)]) {
      return Status::InvalidArgument("ivf lists repeat item " +
                                     std::to_string(item));
    }
    covered[static_cast<size_t>(item)] = true;
  }
  return Status::Ok();
}

}  // namespace dgnn::index
