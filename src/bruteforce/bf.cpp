// Explicit instantiations of the brute-force primitive for the shipped
// metrics, so common configurations compile once instead of in every TU —
// plus the non-template norms-cache builder.
#include "bruteforce/bf.hpp"

#include <algorithm>

#include "parallel/runtime.hpp"

namespace rbc {

RowNormsCache make_row_norms_cache(const Matrix<float>& X) {
  // The dispatched row-block kernel with a zero query turns ||q - x||^2
  // into ||x||^2. One block of rows per thread of the team, at least
  // kMinRows, so a small database still splits evenly across the team;
  // each block also takes its own largest norm. Blocks start on multiples
  // of the kernel's row block, so each row's value does not depend on the
  // team size.
  constexpr index_t kMinRows = 1024;
  const auto nt = static_cast<index_t>(max_threads());
  index_t grain = std::max(kMinRows, (X.rows() + nt - 1) / nt);
  grain += (dispatch::kRowBlock - grain % dispatch::kRowBlock) %
           dispatch::kRowBlock;
  RowNormsCache cache;
  cache.sq.resize(X.rows());
  std::vector<float> block_max((X.rows() + grain - 1) / grain, 0.0f);
  const std::vector<float> zero(X.cols(), 0.0f);
  parallel_for_blocked(0, X.rows(), grain, [&](index_t lo, index_t hi) {
    float* sq = cache.sq.data() + lo;
    dispatch::ops().rows(zero.data(), X.cols(), X.data(), X.stride(), lo, hi,
                         sq);
    block_max[lo / grain] = *std::max_element(sq, sq + (hi - lo));
  });
  for (const float v : block_max) cache.max = std::max(cache.max, v);
  return cache;
}

template KnnResult bf_knn<Euclidean>(const Matrix<float>&,
                                     const Matrix<float>&, index_t, Euclidean,
                                     const RowNormsCache*);
template KnnResult bf_knn<SqEuclidean>(const Matrix<float>&,
                                       const Matrix<float>&, index_t,
                                       SqEuclidean, const RowNormsCache*);
template KnnResult bf_knn<L1>(const Matrix<float>&, const Matrix<float>&,
                              index_t, L1, const RowNormsCache*);
template KnnResult bf_knn<LInf>(const Matrix<float>&, const Matrix<float>&,
                                index_t, LInf, const RowNormsCache*);

}  // namespace rbc
