// Shared helpers for the test suite: reference implementations and data
// builders. Reference code here is deliberately naive (straight loops over
// std::sort) so it cannot share bugs with the optimized library paths.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "bruteforce/bf.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "distance/metrics.hpp"

namespace rbc::testutil {

/// Uniform random matrix in [lo, hi]^d.
inline Matrix<float> random_matrix(index_t rows, index_t cols,
                                   std::uint64_t seed, float lo = -1.0f,
                                   float hi = 1.0f) {
  Matrix<float> m(rows, cols);
  Rng rng(seed);
  for (index_t i = 0; i < rows; ++i)
    for (index_t j = 0; j < cols; ++j)
      m.at(i, j) = rng.uniform_float(lo, hi);
  return m;
}

/// Clustered random matrix (several tight Gaussian blobs): produces the
/// non-uniform neighborhood structure that actually exercises pruning.
inline Matrix<float> clustered_matrix(index_t rows, index_t cols,
                                      index_t clusters, std::uint64_t seed) {
  Matrix<float> centers = random_matrix(clusters, cols, seed, -5.0f, 5.0f);
  Matrix<float> m(rows, cols);
  Rng rng(seed + 1);
  for (index_t i = 0; i < rows; ++i) {
    const index_t c = rng.uniform_index(clusters);
    for (index_t j = 0; j < cols; ++j)
      m.at(i, j) = centers.at(c, j) + rng.normal_float(0.0f, 0.3f);
  }
  return m;
}

/// Copies `extra` duplicated rows onto the end of m (row i duplicates row
/// i % original_rows), producing guaranteed distance ties.
inline Matrix<float> with_duplicates(const Matrix<float>& m, index_t extra) {
  Matrix<float> out(m.rows() + extra, m.cols());
  for (index_t i = 0; i < m.rows(); ++i) out.copy_row_from(m, i, i);
  for (index_t e = 0; e < extra; ++e)
    out.copy_row_from(m, e % m.rows(), m.rows() + e);
  return out;
}

/// Splits m into (first n1 rows, remaining rows) — used to hold out
/// in-distribution queries, the evaluation protocol of the paper.
inline std::pair<Matrix<float>, Matrix<float>> split_rows(
    const Matrix<float>& m, index_t n1) {
  Matrix<float> a(n1, m.cols());
  Matrix<float> b(m.rows() - n1, m.cols());
  for (index_t i = 0; i < n1; ++i) a.copy_row_from(m, i, i);
  for (index_t i = n1; i < m.rows(); ++i) b.copy_row_from(m, i, i - n1);
  return {std::move(a), std::move(b)};
}

/// Naive exact k-NN reference under the library's (distance, id) order.
template <class M = Euclidean>
KnnResult naive_knn(const Matrix<float>& Q, const Matrix<float>& X, index_t k,
                    M metric = {}) {
  KnnResult result(Q.rows(), k);
  for (index_t qi = 0; qi < Q.rows(); ++qi) {
    std::vector<std::pair<dist_t, index_t>> all;
    all.reserve(X.rows());
    for (index_t j = 0; j < X.rows(); ++j)
      all.emplace_back(metric(Q.row(qi), X.row(j), Q.cols()), j);
    std::sort(all.begin(), all.end());
    for (index_t j = 0; j < k; ++j) {
      if (j < all.size()) {
        result.dists.at(qi, j) = all[j].first;
        result.ids.at(qi, j) = all[j].second;
      } else {
        result.dists.at(qi, j) = kInfDist;
        result.ids.at(qi, j) = kInvalidIndex;
      }
    }
  }
  return result;
}

/// One configuration of the lattice tie sweep, drawn from `seed`: n rows
/// (30 to 430) on the lattice offset + step {0..m}^d (d 2 to 8, m 1 to 4)
/// at a step that is no dyadic fraction (0.1, 1/3, 1.1, 1.7), so every
/// distance rounds and many tie, between rows and between representatives;
/// 16 queries on the half-step lattice; an explicit num_reps in [1, n/3];
/// k in {1, 2, 3, 5, 10}. The bounds of exact search's prunes (sums of
/// rounded distances) meet row distances to the last ulp here.
struct TieCase {
  Matrix<float> X, Q;
  index_t num_reps = 1;
  index_t k = 1;
  std::string name;  // the drawn shape, for failure messages
};

inline TieCase lattice_tie_case(std::uint64_t seed) {
  constexpr float kSteps[] = {0.1f, 1.0f / 3.0f, 1.1f, 1.7f};
  constexpr index_t kKs[] = {1, 2, 3, 5, 10};
  Rng rng(seed);
  const index_t d = 2 + rng.uniform_index(7);
  const index_t m = 1 + rng.uniform_index(4);
  const float step = kSteps[rng.uniform_index(4)];
  const float offset =
      0.1f * static_cast<float>(rng.uniform_index(21)) - 1.0f;
  const index_t n = 30 + rng.uniform_index(401);
  TieCase c;
  c.num_reps = 1 + rng.uniform_index(n / 3);
  c.k = kKs[rng.uniform_index(5)];
  c.X = Matrix<float>(n, d);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < d; ++j)
      c.X.at(i, j) =
          offset + step * static_cast<float>(rng.uniform_index(m + 1));
  c.Q = Matrix<float>(16, d);
  for (index_t i = 0; i < c.Q.rows(); ++i)
    for (index_t j = 0; j < d; ++j)
      c.Q.at(i, j) =
          offset +
          0.5f * step * static_cast<float>(rng.uniform_index(2 * m + 1));
  c.name = "tie seed " + std::to_string(seed) + " (d " + std::to_string(d) +
           ", m " + std::to_string(m) + ", step " + std::to_string(step) +
           ", offset " + std::to_string(offset) + ", n " + std::to_string(n) +
           ", nr " + std::to_string(c.num_reps) + ", k " +
           std::to_string(c.k) + ")";
  return c;
}

/// Naive range search reference: sorted ids of points within radius.
inline std::vector<index_t> naive_range(const float* q,
                                        const Matrix<float>& X, dist_t radius) {
  const Euclidean metric{};
  std::vector<index_t> hits;
  for (index_t j = 0; j < X.rows(); ++j)
    if (metric(q, X.row(j), X.cols()) <= radius) hits.push_back(j);
  return hits;
}

/// True when row ra of `a` and row rb of `b` hold the same ids and the
/// same distance bits in every slot.
inline bool rows_identical(const KnnResult& a, index_t ra, const KnnResult& b,
                           index_t rb) {
  if (a.ids.cols() != b.ids.cols()) return false;
  for (index_t j = 0; j < a.ids.cols(); ++j)
    if (a.ids.at(ra, j) != b.ids.at(rb, j) ||
        std::bit_cast<std::uint32_t>(a.dists.at(ra, j)) !=
            std::bit_cast<std::uint32_t>(b.dists.at(rb, j)))
      return false;
  return true;
}

/// Asserts (via gtest-compatible bool) that two KnnResults are identical.
inline bool knn_equal(const KnnResult& a, const KnnResult& b) {
  if (a.ids.rows() != b.ids.rows() || a.ids.cols() != b.ids.cols())
    return false;
  for (index_t i = 0; i < a.ids.rows(); ++i)
    for (index_t j = 0; j < a.ids.cols(); ++j) {
      if (a.ids.at(i, j) != b.ids.at(i, j)) return false;
      const float da = a.dists.at(i, j), db = b.dists.at(i, j);
      if (!(da == db || (std::isinf(da) && std::isinf(db)))) return false;
    }
  return true;
}

}  // namespace rbc::testutil
