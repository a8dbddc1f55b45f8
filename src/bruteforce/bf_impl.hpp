// Template implementations for bf.hpp. Include bf.hpp, not this file.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "bruteforce/kernel_scan.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/runtime.hpp"

namespace rbc {

namespace detail {

/// Fewest queries a group scans as one tile; smaller groups scan each query
/// with the row-block kernel. A tile computes all 16 lanes whatever its
/// count, and costs 1.7 to 2.5 single-query row passes when the rows
/// stream from memory (200k rows of width 21 to 54), but 5 to 7 when a
/// team reads its chunks from L2 (20k rows, 4 threads). Half a tile pays
/// in both.
inline constexpr index_t kMinTileQueries = dispatch::kTile / 2;

/// The one brute-force loop (paper §3). The queries form groups of `group`
/// rows and the database rows form chunks; every (group, chunk) pair is one
/// item on the team. scan(q_lo, q_hi, x_lo, x_hi, tops) offers rows
/// [x_lo, x_hi) to tops[0, q_hi - q_lo), the chunk's heaps of queries
/// [q_lo, q_hi). The rows split into ceil(team / groups) chunks, so a batch
/// of fewer groups than threads still fills the team (the paper's stream
/// mode); one chunk inside an active OpenMP region, where the loop runs
/// serially. The chunks' heaps merge per query under (distance, id), so the
/// result is the single scan's. The items cost alike (a tile costs the same
/// for any number of queries), so they are scheduled statically: a dynamic
/// grab costs more than a small item's scan when the team wakes. Counts
/// nq * n distance evaluations.
template <class Scan>
KnnResult bf_items(const Matrix<float>& Q, index_t n, index_t k,
                   index_t group, Scan&& scan) {
  const index_t nq = Q.rows();
  if (nq == 0) return KnnResult(0, k);
  const index_t groups = (nq + group - 1) / group;
  const index_t team = in_parallel() ? 1 : max_threads();
  const index_t chunks = (team + groups - 1) / groups;
  KnnResult result(nq, k);
  std::vector<TopK> heaps(static_cast<std::size_t>(chunks) * nq, TopK(k));

  parallel_for(0, groups * chunks, [&](index_t item) {
    const index_t g = item / chunks, c = item % chunks;
    const index_t q_lo = g * group, q_hi = std::min(nq, q_lo + group);
    const auto row_at = [&](index_t i) {
      return static_cast<index_t>(static_cast<std::uint64_t>(n) * i / chunks);
    };
    TopK* tops = heaps.data() + c * nq + q_lo;
    scan(q_lo, q_hi, row_at(c), row_at(c + 1), tops);
    if (chunks > 1) return;
    // One chunk: the answers are final. Extract them on the team and free
    // each heap, so a large batch holds its heaps only while scanning.
    for (index_t qi = q_lo; qi < q_hi; ++qi) {
      tops[qi - q_lo].extract_sorted(result.dists.row(qi), result.ids.row(qi));
      tops[qi - q_lo] = TopK(0);
    }
  });
  counters::add_dist_evals(static_cast<std::uint64_t>(nq) * n);

  if (chunks == 1) return result;
  for (index_t qi = 0; qi < nq; ++qi) {
    for (index_t c = 1; c < chunks; ++c)
      heaps[qi].merge_from(heaps[c * nq + qi]);
    heaps[qi].extract_sorted(result.dists.row(qi), result.ids.row(qi));
  }
  return result;
}

/// BF(Q[q_lo, q_hi), X[x_lo, x_hi)) as one §3 GEMM-form tile: the
/// dispatched tile_gemm kernel over the rows, `norms` the cached row
/// corrections. Lanes past q_hi duplicate the first query and are never
/// read. Each lane is filtered against its own heap and survivors are
/// re-measured with `metric`, so the heaps equal the per-query loop's
/// (prefilter + scalar re-measure; kernel_scan.hpp).
template <DenseMetric M>
void tile_scan(const Matrix<float>& Q, index_t q_lo, index_t q_hi,
               const Matrix<float>& X, index_t x_lo, index_t x_hi, M metric,
               const RowNormsCache& norms, TopK* tops) {
  const index_t count = q_hi - q_lo, d = X.cols();
  const float* qrows[dispatch::kTile];
  for (index_t t = 0; t < dispatch::kTile; ++t)
    qrows[t] = Q.row(q_lo + (t < count ? t : 0));
  std::vector<float> qt(static_cast<std::size_t>(d) * dispatch::kTile);
  dispatch::pack_tile(qrows, count, d, qt.data());
  float q_sq[dispatch::kTile];
  for (index_t t = 0; t < dispatch::kTile; ++t)
    q_sq[t] = kernels::dot(qrows[t], qrows[t], d);

  constexpr index_t kChunk = 256;  // 16 KB of distances per block
  float buf[kChunk * dispatch::kTile];
  float lane_min[dispatch::kTile];
  const dispatch::KernelOps& ops = dispatch::ops();
  const float mrel = 1.0f + dispatch::tile_margin(d);
  const float mabs = dispatch::gemm_margin_scale(d);
  for (index_t c = x_lo; c < x_hi; c += kChunk) {
    const index_t ce = std::min<index_t>(x_hi, c + kChunk);
    ops.tile_gemm(qt.data(), q_sq, d, X.data(), X.stride(), norms.sq.data(), c,
                  ce, buf, lane_min);
    // Lane-major filter with the per-lane kernel minimum: a warmed-up
    // lane usually has no candidate in the block and skips it without
    // reading the distance buffer at all.
    for (index_t t = 0; t < count; ++t) {
      const float skip_bound = sq_threshold<M>(tops[t].worst());
      if (lane_min[t] > skip_bound * mrel + mabs * (q_sq[t] + norms.max))
        continue;
      for (index_t p = c; p < ce; ++p) {
        const float v =
            buf[static_cast<std::size_t>(p - c) * dispatch::kTile + t];
        const float bound = sq_threshold<M>(tops[t].worst());
        if (v > bound * mrel + mabs * (q_sq[t] + norms.sq[p])) continue;
        tops[t].push(metric(qrows[t], X.row(p), d), p);
      }
    }
  }
}

}  // namespace detail

template <DenseMetric M>
KnnResult bf_knn(const Matrix<float>& Q, const Matrix<float>& X, index_t k,
                 M metric, const RowNormsCache* norms) {
  const index_t d = X.cols();
  if constexpr (gemm_metric<M>) {
    // 16-query tiles through tile_gemm; a group of fewer than
    // kMinTileQueries queries runs the row-block kernel per query. Without
    // cached norms a batch of less than one tile scans rows too: the norms
    // pass costs a row pass, which a partial tile does not earn back.
    RowNormsCache local;
    if (norms == nullptr && Q.rows() >= dispatch::kTile) {
      local = make_row_norms_cache(X);
      norms = &local;
    }
    return detail::bf_items(
        Q, X.rows(), k, dispatch::kTile,
        [&](index_t q_lo, index_t q_hi, index_t x_lo, index_t x_hi,
            TopK* tops) {
          if (norms != nullptr && q_hi - q_lo >= detail::kMinTileQueries) {
            detail::tile_scan(Q, q_lo, q_hi, X, x_lo, x_hi, metric, *norms,
                              tops);
            return;
          }
          for (index_t qi = q_lo; qi < q_hi; ++qi)
            kernel_scan_rows(Q.row(qi), X, x_lo, x_hi, metric,
                             tops[qi - q_lo]);
        });
  } else if constexpr (kernel_metric<M>) {
    // L1 / InnerProduct: one query per group through the metric's row-block
    // kernel. The negated-dot prefilter needs an absolute re-measure slack
    // (its rounding error scales with ||q||*||x||, not with the possibly
    // cancelling result); the squared row norms supply max||x||.
    float x_norm_max = 0.0f;
    if constexpr (std::is_same_v<M, InnerProduct>)
      x_norm_max = std::sqrt(norms != nullptr ? norms->max
                                              : make_row_norms_cache(X).max);
    return detail::bf_items(
        Q, X.rows(), k, 1,
        [&](index_t qi, index_t, index_t x_lo, index_t x_hi, TopK* top) {
          float slack = 0.0f;
          if constexpr (std::is_same_v<M, InnerProduct>)
            slack = dispatch::tile_margin(d) *
                    std::sqrt(kernels::dot(Q.row(qi), Q.row(qi), d)) *
                    x_norm_max;
          kernel_scan_rows(Q.row(qi), X, x_lo, x_hi, metric, *top, {}, slack);
        });
  } else {
    return detail::bf_items(
        Q, X.rows(), k, 1,
        [&](index_t qi, index_t, index_t x_lo, index_t x_hi, TopK* top) {
          for (index_t j = x_lo; j < x_hi; ++j)
            top->push(metric(Q.row(qi), X.row(j), d), j);
        });
  }
}

template <DenseMetric M>
KnnResult bf_knn_quantized(const Matrix<float>& Q, const Matrix<float>& X,
                           const quant::QuantizedStore& store, index_t k,
                           M metric) {
  static_assert(quantized_metric<M>);
  return detail::bf_items(
      Q, X.rows(), k, 1,
      [&](index_t qi, index_t, index_t x_lo, index_t x_hi, TopK* top) {
        quantized_scan_rows(Q.row(qi), X, store, x_lo, x_hi, metric, *top);
      });
}

}  // namespace rbc
