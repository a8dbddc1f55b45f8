// Explicit instantiations of the brute-force primitive for the shipped
// metrics, so common configurations compile once instead of in every TU —
// plus the non-template norms-cache builder.
#include "bruteforce/bf.hpp"

namespace rbc {

RowNormsCache make_row_norms_cache(const Matrix<float>& X) {
  // The dispatched row-block kernel with a zero query turns ||q - x||^2
  // into ||x||^2. Parallel over row blocks.
  RowNormsCache cache;
  cache.sq.resize(X.rows());
  const std::vector<float> zero(X.cols(), 0.0f);
  parallel_for_blocked(0, X.rows(), 4096, [&](index_t lo, index_t hi) {
    dispatch::ops().rows(zero.data(), X.cols(), X.data(), X.stride(), lo, hi,
                         cache.sq.data() + lo);
  });
  for (const float v : cache.sq) cache.max = std::max(cache.max, v);
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
