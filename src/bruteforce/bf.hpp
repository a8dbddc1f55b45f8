// BF(Q, X) — the brute-force primitive (paper §3).
//
// "Given a set of queries Q and a database X ... finding the NNs for all q
//  can be achieved by a series of linear scans."
//
// The paper's two parallel decompositions are one loop here: batch mode
// (parallel across queries, the matrix-matrix-multiply-shaped case) and
// stream mode (parallel across database chunks, with a final reduce over
// per-chunk heaps) are the two axes of the (query group, row chunk) items
// bf_knn hands to the team. A query group is a 16-query tile_gemm tile for
// the squared-L2 family and a single query otherwise; a batch of fewer
// groups than threads splits the rows into chunks, so one query still fills
// the team.
//
// Subset search BF(q, X[L]) — the building block of both RBC search
// algorithms — runs on a contiguous packed row range (bf_scan_rows and the
// kernelized scans of kernel_scan.hpp), which is what the RBC indexes keep
// their permuted copies of the database in.
#pragma once

#include <cstdint>
#include <vector>

#include "bruteforce/topk.hpp"
#include "common/counters.hpp"
#include "common/matrix.hpp"
#include "distance/metrics.hpp"
#include "distance/quantized.hpp"

namespace rbc {

/// k-NN results for a batch of queries: row i holds query i's neighbors in
/// ascending (distance, id) order, padded with (inf, kInvalidIndex) when the
/// database has fewer than k points.
struct KnnResult {
  Matrix<dist_t> dists;  // nq x k
  Matrix<index_t> ids;   // nq x k

  KnnResult() = default;
  KnnResult(index_t nq, index_t k) : dists(nq, k), ids(nq, k) {}
};

/// Scans database rows [x_begin, x_end) for query q, offering every point to
/// `out`. Ids pushed are the raw row indices (callers remap if X is a packed
/// permutation). Serial; adds to the distance-eval counter.
template <DenseMetric M>
void bf_scan_rows(const float* q, const Matrix<float>& X, index_t x_begin,
                  index_t x_end, M metric, TopK& out) {
  const index_t d = X.cols();
  for (index_t j = x_begin; j < x_end; ++j)
    out.push(metric(q, X.row(j), d), j);
  counters::add_dist_evals(x_end - x_begin);
}

/// Precomputed squared row norms of a database — the rank-1 corrections of
/// the paper's §3 GEMM formulation, consumed by bf_knn's tiles.
/// Callers that search one immutable database repeatedly (the bruteforce
/// backend, serving workloads) build this once at index time instead of
/// paying an O(n d) pass per batch.
struct RowNormsCache {
  std::vector<float> sq;  // ||X_p||^2 per row
  float max = 0.0f;       // max over sq (conservative lane-skip threshold)
};

/// Builds a RowNormsCache for X through the dispatched kernels.
RowNormsCache make_row_norms_cache(const Matrix<float>& X);

/// BF(Q, X) for a batch of any size, one query or many: parallel across
/// (query group, row chunk) items (file comment). The default metric is
/// Euclidean, as in all of the paper's experiments. `norms`, when non-null,
/// must be make_row_norms_cache(X) — it spares the tiles and the
/// InnerProduct slack their per-call norms pass.
template <DenseMetric M = Euclidean>
KnnResult bf_knn(const Matrix<float>& Q, const Matrix<float>& X, index_t k,
                 M metric = {}, const RowNormsCache* norms = nullptr);

/// BF(Q, X) through a compressed row store (quantize() of X, see
/// distance/quantized.hpp): the hot scan reads fp16/int8 codes, candidates
/// surviving the error-inflated bound are re-measured against the float
/// rows of X — results identical to bf_knn. L2 family only
/// (quantized_metric<M>); one query per group on bf_knn's loop.
template <DenseMetric M = Euclidean>
KnnResult bf_knn_quantized(const Matrix<float>& Q, const Matrix<float>& X,
                           const quant::QuantizedStore& store, index_t k,
                           M metric = {});

/// Convenience: 1-NN of a single query, serial. Returns (distance, id).
template <DenseMetric M = Euclidean>
std::pair<dist_t, index_t> bf_1nn(const float* q, const Matrix<float>& X,
                                  M metric = {}) {
  TopK top(1);
  bf_scan_rows(q, X, 0, X.rows(), metric, top);
  dist_t d;
  index_t id;
  top.extract_sorted(&d, &id);
  return {d, id};
}

}  // namespace rbc

#include "bruteforce/bf_impl.hpp"
