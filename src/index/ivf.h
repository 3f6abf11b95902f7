// IVF-style coarse retrieval index over item embeddings — the sublinear
// candidate-generation half of serving's top-k path. Built once at
// export time (dgnn_cli --mode=export --index), shipped inside the
// snapshot as a checksummed section, and probed per request by the
// ServingEngine: rank the k-means cluster lists against the user vector,
// scan only the top `nprobe` lists, exact-rerank the shortlist.
//
// Inner-product search is not nearest-neighbor search, so clustering runs
// in the MIPS-reduced space (Bachrach et al.'s "XBOX" trick): every item
// x is augmented to x_hat = [x, sqrt(M^2 - |x|^2)] with M the max row
// norm, which makes every |x_hat| = M and turns argmax dot(u, x) into
// argmin L2(u_hat, x_hat) for u_hat = [u, 0]. k-means runs on x_hat;
// at query time lists are ranked by dot(u, c[0:d]) - |c_hat|^2 / 2,
// which is the (negated, affine-shifted) augmented L2 distance.
//
// Determinism: seeded sample + seeded init, serial centroid updates, and
// assignment scans that only write disjoint slots — the same index bytes
// for any thread count.

#ifndef DGNN_INDEX_IVF_H_
#define DGNN_INDEX_IVF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace dgnn::index {

struct IvfConfig {
  // Number of coarse clusters; <= 0 picks round(sqrt(rows)) clamped to
  // [1, 65536] (and never more than rows).
  int32_t nlist = 0;
  // Rows sampled (without replacement) for Lloyd iterations; the full
  // matrix is assigned once at the end. <= 0 uses every row.
  int64_t train_sample = 131072;
  // Lloyd iterations over the sample.
  int32_t iterations = 8;
  uint64_t seed = 42;
};

struct IvfIndex {
  int32_t nlist = 0;
  int64_t dim = 0;  // embedding dim (centroids store the first `dim`
                    // coords; the augmented coordinate only survives
                    // inside half_sq_norms)
  std::vector<float> centroids;      // nlist x dim, row-major
  std::vector<float> half_sq_norms;  // nlist: |c_hat|^2 / 2
  std::vector<int64_t> list_offsets; // nlist + 1, ascending
  std::vector<int32_t> list_items;   // concatenated lists; every row of
                                     // the indexed matrix exactly once
  bool empty() const { return nlist == 0; }
  int64_t ResidentBytes() const;

  // The `nprobe` list ids ranked best-first by dot(u, c) - |c_hat|^2/2
  // under serve::ScoreGreater (ties broken by lower list id, a NaN score
  // last). nprobe is clamped to [1, nlist].
  void RankLists(const float* u, int nprobe,
                 std::vector<int32_t>* lists) const;
  // The candidate shortlist a query scans: the members of RankLists'
  // `nprobe` lists, list by list in rank order.
  void Probe(const float* u, int nprobe,
             std::vector<int32_t>* candidates) const;

  // Appends the serialized index to `out` (the snapshot section payload).
  void Serialize(std::string* out) const;
};

// Builds the index over a row-major rows x cols matrix.
IvfIndex BuildIvfIndex(const float* data, int64_t rows, int64_t cols,
                       const IvfConfig& config);

// Parses a serialized index, validating structure (shapes, offsets
// ascending and spanning list_items, finite centroids). Item-id range /
// exactly-once coverage needs the indexed row count — see Validate.
util::StatusOr<IvfIndex> ParseIvfIndex(const char* data, size_t size);

// Cross-checks the index against the matrix it claims to cover: dim
// match, every id in [0, rows), every row in exactly one list.
util::Status ValidateIvfIndex(const IvfIndex& index, int64_t rows,
                              int64_t dim);

}  // namespace dgnn::index

#endif  // DGNN_INDEX_IVF_H_
