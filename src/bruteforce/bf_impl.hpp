// Template implementations for bf.hpp. Include bf.hpp, not this file.
#pragma once

#include <algorithm>
#include <vector>

#include "bruteforce/kernel_scan.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/runtime.hpp"

namespace rbc {

namespace detail {

/// Squared row norms through the dispatched row-block kernel (a zero query
/// turns ||q - x||^2 into ||x||^2) — the cached corrections of the §3 GEMM
/// formulation. Parallel over row blocks.
inline std::vector<float> kernel_row_sq_norms(const Matrix<float>& X) {
  std::vector<float> norms(X.rows());
  if (X.rows() == 0) return norms;
  const std::vector<float> zero(X.cols(), 0.0f);
  parallel_for_blocked(0, X.rows(), 4096, [&](index_t lo, index_t hi) {
    dispatch::ops().rows(zero.data(), X.cols(), X.data(), X.stride(), lo, hi,
                         norms.data() + lo);
  });
  return norms;
}

/// Batch-mode BF(Q, X) in the paper's §3 GEMM form: 16-query tiles through
/// the dispatched tile_gemm kernel with the row norms computed once for
/// the whole batch (or passed in precomputed — see RowNormsCache). Queries
/// beyond the last full tile run the row-block kernel path as individual
/// work items instead of wasting 15/16 of a tile. Results are identical to
/// the per-query loop (prefilter + scalar re-measure; kernel_scan.hpp).
template <DenseMetric M>
void bf_knn_tiled(const Matrix<float>& Q, const Matrix<float>& X, index_t k,
                  M metric, const RowNormsCache* norms, KnnResult& result) {
  const index_t nq = Q.rows(), n = X.rows(), d = X.cols();
  RowNormsCache local;
  if (norms == nullptr) {
    local = make_row_norms_cache(X);
    norms = &local;
  }
  const std::vector<float>& x_sq = norms->sq;
  const float x_sq_max = norms->max;
  const index_t full_tiles = nq / dispatch::kTile;
  // One work item per full tile plus one per tail query: tails stay as
  // finely parallel as the per-query path. One heap per thread, reused
  // across tail items (no allocation per query).
  const index_t items = full_tiles + nq % dispatch::kTile;
  std::vector<TopK> heaps(static_cast<std::size_t>(max_threads()), TopK(k));

  parallel_for_dynamic(0, items, [&](index_t item) {
    if (item >= full_tiles) {  // tail query: single-query row-block scan
      const index_t qi =
          full_tiles * dispatch::kTile + (item - full_tiles);
      TopK& top = heaps[static_cast<std::size_t>(thread_id())];
      top.reset();
      kernel_scan_rows(Q.row(qi), X, 0, n, metric, top);
      counters::add_dist_evals(n);
      top.extract_sorted(result.dists.row(qi), result.ids.row(qi));
      return;
    }

    const index_t t_lo = item * dispatch::kTile;
    const float* qrows[dispatch::kTile];
    for (index_t t = 0; t < dispatch::kTile; ++t) qrows[t] = Q.row(t_lo + t);
    std::vector<float> qt(static_cast<std::size_t>(d) * dispatch::kTile);
    dispatch::pack_tile(qrows, dispatch::kTile, d, qt.data());
    float q_sq[dispatch::kTile];
    for (index_t t = 0; t < dispatch::kTile; ++t)
      q_sq[t] = kernels::dot(qrows[t], qrows[t], d);

    std::vector<TopK> tops(dispatch::kTile, TopK(k));
    constexpr index_t kChunk = 256;  // 16 KB of distances per chunk
    float buf[kChunk * dispatch::kTile];
    float lane_min[dispatch::kTile];
    const dispatch::KernelOps& ops = dispatch::ops();
    const float mrel = 1.0f + dispatch::tile_margin(d);
    const float mabs = dispatch::gemm_margin_scale(d);
    for (index_t c = 0; c < n; c += kChunk) {
      const index_t ce = std::min<index_t>(n, c + kChunk);
      ops.tile_gemm(qt.data(), q_sq, d, X.data(), X.stride(), x_sq.data(), c,
                    ce, buf, lane_min);
      // Lane-major filter with the per-lane kernel minimum: a warmed-up
      // lane usually has no candidate in the chunk and skips it without
      // reading the distance buffer at all.
      for (index_t t = 0; t < dispatch::kTile; ++t) {
        const float skip_bound = sq_threshold<M>(tops[t].worst());
        if (lane_min[t] > skip_bound * mrel + mabs * (q_sq[t] + x_sq_max))
          continue;
        for (index_t p = c; p < ce; ++p) {
          const float v =
              buf[static_cast<std::size_t>(p - c) * dispatch::kTile + t];
          const float bound = sq_threshold<M>(tops[t].worst());
          if (v > bound * mrel + mabs * (q_sq[t] + x_sq[p])) continue;
          tops[t].push(metric(qrows[t], X.row(p), d), p);
        }
      }
    }
    counters::add_dist_evals(static_cast<std::uint64_t>(dispatch::kTile) * n);
    for (index_t t = 0; t < dispatch::kTile; ++t)
      tops[t].extract_sorted(result.dists.row(t_lo + t),
                             result.ids.row(t_lo + t));
  });
}

}  // namespace detail

template <DenseMetric M>
KnnResult bf_knn(const Matrix<float>& Q, const Matrix<float>& X, index_t k,
                 M metric, const RowNormsCache* norms) {
  KnnResult result(Q.rows(), k);
  const int nt = max_threads();

  if (Q.rows() == 0) return result;

  // Few queries relative to cores: stream mode per query.
  if (Q.rows() < static_cast<index_t>(2 * nt)) {
    for (index_t qi = 0; qi < Q.rows(); ++qi) {
      TopK top(k);
      bf_knn_stream(Q.row(qi), X, metric, top);
      top.extract_sorted(result.dists.row(qi), result.ids.row(qi));
    }
    return result;
  }

  if constexpr (gemm_metric<M>) {
    // Batch mode, §3 GEMM form, when the tiles alone can occupy the
    // thread pool: dispatched 16-query tiles with cached row norms — same
    // results, the matrix-multiply-shaped inner loop. Otherwise keep
    // per-query granularity (still kernelized) so no core idles.
    if (Q.rows() / dispatch::kTile >= static_cast<index_t>(nt)) {
      detail::bf_knn_tiled(Q, X, k, metric, norms, result);
      return result;
    }
    std::vector<TopK> heaps(static_cast<std::size_t>(nt), TopK(k));
    parallel_for_dynamic(0, Q.rows(), [&](index_t qi) {
      TopK& top = heaps[static_cast<std::size_t>(thread_id())];
      top.reset();
      kernel_scan_rows(Q.row(qi), X, 0, X.rows(), metric, top);
      counters::add_dist_evals(X.rows());
      top.extract_sorted(result.dists.row(qi), result.ids.row(qi));
    });
    return result;
  } else if constexpr (kernel_metric<M>) {
    // L1 / InnerProduct: per-query scans through the metric's dispatched
    // row-block kernel. The negated-dot prefilter needs an absolute
    // re-measure slack (its rounding error scales with ||q||*||x||, not
    // with the possibly-cancelling result); the squared row norms already
    // cached for the GEMM path supply max||x|| for free.
    RowNormsCache local;
    float x_norm_max = 0.0f;
    if constexpr (std::is_same_v<M, InnerProduct>) {
      if (norms == nullptr) {
        local = make_row_norms_cache(X);
        norms = &local;
      }
      x_norm_max = std::sqrt(norms->max);
    }
    const index_t d = X.cols();
    std::vector<TopK> heaps(static_cast<std::size_t>(nt), TopK(k));
    parallel_for_dynamic(0, Q.rows(), [&](index_t qi) {
      TopK& top = heaps[static_cast<std::size_t>(thread_id())];
      top.reset();
      float slack = 0.0f;
      if constexpr (std::is_same_v<M, InnerProduct>)
        slack = dispatch::tile_margin(d) *
                std::sqrt(kernels::dot(Q.row(qi), Q.row(qi), d)) * x_norm_max;
      kernel_scan_rows(Q.row(qi), X, 0, X.rows(), metric, top, {}, slack);
      counters::add_dist_evals(X.rows());
      top.extract_sorted(result.dists.row(qi), result.ids.row(qi));
    });
    return result;
  } else {
    // Batch mode: one heap per thread, queries distributed dynamically.
    std::vector<TopK> heaps(static_cast<std::size_t>(nt), TopK(k));
    parallel_for_dynamic(0, Q.rows(), [&](index_t qi) {
      TopK& top = heaps[static_cast<std::size_t>(thread_id())];
      top.reset();
      bf_scan_rows(Q.row(qi), X, 0, X.rows(), metric, top);
      top.extract_sorted(result.dists.row(qi), result.ids.row(qi));
    });
    return result;
  }
}

template <DenseMetric M>
KnnResult bf_knn_quantized(const Matrix<float>& Q, const Matrix<float>& X,
                           const quant::QuantizedStore& store, index_t k,
                           M metric) {
  static_assert(quantized_metric<M>);
  KnnResult result(Q.rows(), k);
  if (Q.rows() == 0) return result;
  const int nt = max_threads();
  std::vector<TopK> heaps(static_cast<std::size_t>(nt), TopK(k));
  parallel_for_dynamic(0, Q.rows(), [&](index_t qi) {
    TopK& top = heaps[static_cast<std::size_t>(thread_id())];
    top.reset();
    quantized_scan_rows(Q.row(qi), X, store, 0, X.rows(), metric, top);
    counters::add_dist_evals(X.rows());
    top.extract_sorted(result.dists.row(qi), result.ids.row(qi));
  });
  return result;
}

template <DenseMetric M>
void bf_knn_stream(const float* q, const Matrix<float>& X, M metric,
                   TopK& out) {
  const int nt = max_threads();
  const index_t n = X.rows();
  if (n == 0) return;

  // Chunk the database so each thread gets a contiguous slice (predictable
  // access, Per.19); merge per-thread heaps afterwards (the paper's
  // parallel-reduce comparison step). Euclidean/SqEuclidean chunks run the
  // dispatched row-block kernel — eight independent accumulator chains
  // instead of the latency-bound single-query scan.
  std::vector<TopK> partials(static_cast<std::size_t>(nt), TopK(out.k()));
#pragma omp parallel
  {
    TopK& mine = partials[static_cast<std::size_t>(thread_id())];
#pragma omp for schedule(static)
    for (std::int64_t chunk = 0; chunk < nt; ++chunk) {
      const index_t lo = static_cast<index_t>(
          static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(chunk) /
          static_cast<std::uint64_t>(nt));
      const index_t hi = static_cast<index_t>(
          static_cast<std::uint64_t>(n) *
          static_cast<std::uint64_t>(chunk + 1) /
          static_cast<std::uint64_t>(nt));
      // InnerProduct stays on the functor loop here: the kernel prefilter
      // would need a max-row-norm slack this one-shot path has no cache
      // for.
      if constexpr (kernel_metric<M> && !std::is_same_v<M, InnerProduct>) {
        kernel_scan_rows(q, X, lo, hi, metric, mine);
        counters::add_dist_evals(hi - lo);
      } else {
        bf_scan_rows(q, X, lo, hi, metric, mine);
      }
    }
  }
  for (const TopK& partial : partials) out.merge_from(partial);
}

}  // namespace rbc
