// Kernelized linear scans: the bridge between the runtime-dispatched SIMD
// kernel layer (distance/dispatch.hpp) and the TopK selection step.
//
// Every dense scan in the library has the same skeleton — compute distances
// from one query to a contiguous run of database rows (a whole matrix, a
// delta shard, a packed ownership list), offer each to a bounded heap.
// These helpers run that skeleton through the dispatched kernels as a
// *prefilter*: the kernel fills a chunk of approximate values, candidates
// inside the margin-inflated heap bound are re-measured with the caller's
// scalar metric before being pushed, and everything else is discarded
// without a heap probe. Because the heap only ever orders re-measured
// (bit-exact) values, results are IDENTICAL to the plain bf_scan_rows loop
// under every ISA — the property the per-ISA parity tests pin
// (ForcedIsaParity in tests/test_rbc_exact.cpp, the conformance metric
// matrix).
//
// Which kernel a metric routes through, and how its heap bound maps into
// kernel space, is described by ScanTraits<M>:
//
//   Euclidean     squared-L2 `rows`; bound maps by squaring, inflated by
//                 the relative association-order margin.
//   SqEuclidean   same kernel, identity bound map.
//   L1            `rows_l1`; identity map, relative margin (sums of
//                 non-negative terms — error is relative).
//   InnerProduct  `rows_ip` (negated dot); identity map plus a
//                 caller-supplied ABSOLUTE slack: dot products cancel, so
//                 the rounding error scales with ||q||*||x||, not with the
//                 result. Callers pass tile_margin(d) * ||q|| * max||x||
//                 (see bf_impl.hpp); with slack 0 the prefilter would be
//                 allowed to drop true neighbors.
//
// kernel_metric<M> says whether a ScanTraits specialization exists;
// gemm_metric<M> marks the (squared-L2) subset bf_knn's tile_gemm tiles
// additionally accept. Unlike bf_scan_rows, these helpers do NOT touch the
// global distance-eval counters: callers account one eval per row scanned.
#pragma once

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "bruteforce/topk.hpp"
#include "common/matrix.hpp"
#include "distance/dispatch.hpp"
#include "distance/metrics.hpp"
#include "distance/quantized.hpp"

namespace rbc {

/// How a metric's scans run through the dispatched kernel layer; the
/// specializations below are the kernel-eligible metrics.
template <class M>
struct ScanTraits;

template <>
struct ScanTraits<Euclidean> {
  /// Relative margin covers the kernel/scalar rounding difference.
  static constexpr bool relative_margin = true;
  /// Heap bound (metric space) -> kernel-output space.
  static float map(float bound) noexcept { return bound * bound; }
  static float rows(const dispatch::KernelOps& ops, const float* q, index_t d,
                    const float* x, std::size_t stride, index_t lo,
                    index_t hi, float* out) {
    return ops.rows(q, d, x, stride, lo, hi, out);
  }
};

template <>
struct ScanTraits<SqEuclidean> {
  static constexpr bool relative_margin = true;
  static float map(float bound) noexcept { return bound; }
  static float rows(const dispatch::KernelOps& ops, const float* q, index_t d,
                    const float* x, std::size_t stride, index_t lo,
                    index_t hi, float* out) {
    return ops.rows(q, d, x, stride, lo, hi, out);
  }
};

template <>
struct ScanTraits<L1> {
  static constexpr bool relative_margin = true;
  static float map(float bound) noexcept { return bound; }
  static float rows(const dispatch::KernelOps& ops, const float* q, index_t d,
                    const float* x, std::size_t stride, index_t lo,
                    index_t hi, float* out) {
    return ops.rows_l1(q, d, x, stride, lo, hi, out);
  }
};

template <>
struct ScanTraits<InnerProduct> {
  /// Cancellation: error is absolute (caller-supplied slack), never a
  /// multiple of the possibly-negative bound.
  static constexpr bool relative_margin = false;
  static float map(float bound) noexcept { return bound; }
  static float rows(const dispatch::KernelOps& ops, const float* q, index_t d,
                    const float* x, std::size_t stride, index_t lo,
                    index_t hi, float* out) {
    return ops.rows_ip(q, d, x, stride, lo, hi, out);
  }
};

namespace detail {
template <class M, class = void>
inline constexpr bool has_scan_traits = false;
template <class M>
inline constexpr bool
    has_scan_traits<M, std::void_t<decltype(ScanTraits<M>::map(0.0f))>> =
        true;
}  // namespace detail

/// True for metrics the dispatched kernel layer can prefilter for.
template <class M>
inline constexpr bool kernel_metric = detail::has_scan_traits<M>;

/// The squared-L2 subset additionally eligible for bf_knn's tile_gemm tiles
/// (the GEMM formulation has no analogue for other metrics).
template <class M>
inline constexpr bool gemm_metric =
    std::is_same_v<M, Euclidean> || std::is_same_v<M, SqEuclidean>;

/// Maps a heap bound (metric space) into squared-L2 space for the tile_gemm
/// filter passes — the same map ScanTraits defines, restricted to the gemm
/// subset so the tiles and the row scans can never disagree on it.
template <class M>
inline float sq_threshold(float bound) noexcept {
  static_assert(gemm_metric<M>);
  return ScanTraits<M>::map(bound);
}

/// Margin-inflated acceptance bound in kernel-output space: keep (and
/// re-measure) a kernel value v iff v <= scan_bound<M>(heap bound, d,
/// slack). `abs_slack` is required non-zero only for InnerProduct (see the
/// file comment).
template <class M>
inline float scan_bound(float bound, index_t d,
                        float abs_slack = 0.0f) noexcept {
  static_assert(kernel_metric<M>);
  const float mapped = ScanTraits<M>::map(bound);
  if constexpr (ScanTraits<M>::relative_margin)
    return mapped * (1.0f + dispatch::tile_margin(d)) + abs_slack;
  else
    return mapped + abs_slack;
}

namespace detail {
struct IdentityId {
  index_t operator()(index_t row) const noexcept { return row; }
};
}  // namespace detail

/// BF(q, X[lo..hi)) through the metric's dispatched row-block kernel.
/// Pushes (metric(q, x_p), id_of(p)) for every candidate surviving the
/// prefilter; identical final heap to the plain loop. Caller accounts
/// hi - lo evals.
template <DenseMetric M, class IdOf = detail::IdentityId>
void kernel_scan_rows(const float* q, const Matrix<float>& X, index_t lo,
                      index_t hi, M metric, TopK& out, IdOf id_of = {},
                      float abs_slack = 0.0f) {
  static_assert(kernel_metric<M>);
  constexpr index_t kChunk = 512;  // 2 KB of distances on the stack
  float buf[kChunk];
  const dispatch::KernelOps& ops = dispatch::ops();
  const index_t d = X.cols();
  for (index_t c = lo; c < hi; c += kChunk) {
    const index_t ce = std::min<index_t>(hi, c + kChunk);
    const float chunk_min =
        ScanTraits<M>::rows(ops, q, d, X.data(), X.stride(), c, ce, buf);
    // Whole chunk misses the (entry) bound: skip without reading buf. The
    // bound only tightens, so nothing skippable ever survives.
    if (chunk_min > scan_bound<M>(out.worst(), d, abs_slack)) continue;
    for (index_t p = c; p < ce; ++p) {
      if (buf[p - c] > scan_bound<M>(out.worst(), d, abs_slack)) continue;
      out.push(metric(q, X.row(p), d), id_of(p));
    }
  }
}

/// Range form of kernel_scan_rows: calls emit(p) for every row p in
/// [lo, hi) with metric(q, x_p) <= radius, in row order. Rows inside the
/// margin-inflated radius are re-measured with the scalar metric, so the
/// emitted set equals the plain loop's. Caller accounts hi - lo evals.
template <DenseMetric M, class Emit>
void kernel_range_rows(const float* q, const Matrix<float>& X, index_t lo,
                       index_t hi, M metric, float radius, Emit emit) {
  static_assert(kernel_metric<M> && ScanTraits<M>::relative_margin);
  constexpr index_t kChunk = 512;
  float buf[kChunk];
  const dispatch::KernelOps& ops = dispatch::ops();
  const index_t d = X.cols();
  const float bound = scan_bound<M>(radius, d);
  for (index_t c = lo; c < hi; c += kChunk) {
    const index_t ce = std::min<index_t>(hi, c + kChunk);
    if (ScanTraits<M>::rows(ops, q, d, X.data(), X.stride(), c, ce, buf) >
        bound)
      continue;
    for (index_t p = c; p < ce; ++p)
      if (buf[p - c] <= bound && metric(q, X.row(p), d) <= radius) emit(p);
  }
}

// ------------------------------------------------------ quantized scans ---
//
// The compressed scan tier (distance/quantized.hpp): the kernel reads fp16
// or int8 row codes (2x / 4x less memory traffic than float rows) and the
// prefilter bound absorbs the quantization error, so the exact scans stay
// bit-identical to the float path. For a heap bound B in L2-distance space,
// the triangle inequality gives d(q, x̂_r) <= d(q, x_r) + ||x_r - x̂_r||
// <= B + err_r for every row the float scan would keep, so accepting
//
//   v_r <= (B + err_r + kQuantFpEps * (||q|| + amp_r))^2
//          * (1 + tile_margin(d))
//
// — where v_r is the kernel's squared distance to the *decoded* row, err_r
// the stored per-row quantization radius, and the kQuantFpEps term the
// absolute accumulation slack of the fused int8 form (amp_r = 0 for fp16;
// see QuantizedStore::amp) — can never drop a true neighbor. Survivors are
// re-measured against the original float rows with the caller's scalar
// metric, exactly like the float prefilter above. Only the L2 family
// (Euclidean / SqEuclidean; cosine runs on normalized rows) is eligible:
// the triangle-inequality argument lives in L2 space.

/// Metrics the compressed tier can serve exactly.
template <class M>
inline constexpr bool quantized_metric =
    std::is_same_v<M, Euclidean> || std::is_same_v<M, SqEuclidean>;

/// Absolute accumulation-slack scale of the quantized kernels (in distance
/// space, multiplied by ||q|| + amp_r). ~8 ulps — generous against the
/// fused int8 form's cancellation; fp16 rows have amp_r = 0.
inline constexpr float kQuantFpEps = 1e-6f;

namespace detail {

/// Heap bound (metric space) -> L2-distance space for the triangle
/// inequality. Identity for Euclidean; sqrt for SqEuclidean. +inf maps to
/// +inf, so an unfilled heap accepts everything.
template <class M>
inline float quant_l2_bound(float worst) noexcept {
  static_assert(quantized_metric<M>);
  if constexpr (std::is_same_v<M, Euclidean>)
    return worst;
  else
    return std::sqrt(worst);
}

/// Margin-inflated acceptance bound in kernel (squared-L2) space.
inline float quant_accept(float l2_bound, float err, float amp, float q_norm,
                          index_t d) noexcept {
  const float b = l2_bound + err + kQuantFpEps * (q_norm + amp);
  return b * b * (1.0f + dispatch::tile_margin(d));
}

inline float quant_q_norm(const float* q, index_t d) noexcept {
  double acc = 0.0;
  for (index_t i = 0; i < d; ++i)
    acc += static_cast<double>(q[i]) * static_cast<double>(q[i]);
  return static_cast<float>(std::sqrt(acc));
}

/// Dispatched kernel call over a row range of the compressed store.
inline float quant_rows(const dispatch::KernelOps& ops, const float* q,
                        index_t d, const quant::QuantizedStore& store,
                        index_t lo, index_t hi, float* out) {
  if (store.mode == quant::Storage::kFp16)
    return ops.rows_fp16(q, d, store.fp16.data(),
                         static_cast<std::size_t>(store.cols), lo, hi, out);
  return ops.rows_int8(q, d, store.int8.data(),
                       static_cast<std::size_t>(store.cols),
                       store.scale.data(), store.offset.data(), lo, hi, out);
}

}  // namespace detail

/// BF(q, X[lo..hi)) through the compressed store: the kernel scans codes,
/// the error-inflated bound filters, survivors are re-measured against the
/// float rows of X. Final heap identical to kernel_scan_rows / the plain
/// loop. `store` must cover the same row indices as X (store.cols ==
/// X.cols()). Caller accounts hi - lo evals.
template <DenseMetric M, class IdOf = detail::IdentityId>
void quantized_scan_rows(const float* q, const Matrix<float>& X,
                         const quant::QuantizedStore& store, index_t lo,
                         index_t hi, M metric, TopK& out, IdOf id_of = {}) {
  static_assert(quantized_metric<M>);
  constexpr index_t kChunk = 512;
  float buf[kChunk];
  const dispatch::KernelOps& ops = dispatch::ops();
  const index_t d = X.cols();
  const float q_norm = detail::quant_q_norm(q, d);
  for (index_t c = lo; c < hi; c += kChunk) {
    const index_t ce = std::min<index_t>(hi, c + kChunk);
    const float chunk_min = detail::quant_rows(ops, q, d, store, c, ce, buf);
    const float chunk_bound = detail::quant_l2_bound<M>(out.worst());
    if (chunk_min > detail::quant_accept(chunk_bound, store.err_max,
                                         store.amp_max, q_norm, d))
      continue;
    for (index_t p = c; p < ce; ++p) {
      const float b = detail::quant_l2_bound<M>(out.worst());
      const float amp = store.amp.empty() ? 0.0f : store.amp[p];
      if (buf[p - c] > detail::quant_accept(b, store.err[p], amp, q_norm, d))
        continue;
      out.push(metric(q, X.row(p), d), id_of(p));
    }
  }
}

/// Approximate variant (the one-shot tier): pushes the quantized distance
/// itself — mapped back to metric space — with NO float re-measure, so the
/// float rows never have to be touched (or even resident). Results carry
/// quantization error; callers report recall instead of claiming exactness.
template <DenseMetric M, class IdOf = detail::IdentityId>
void quantized_scan_rows_approx(const float* q, index_t d,
                                const quant::QuantizedStore& store,
                                index_t lo, index_t hi, TopK& out,
                                IdOf id_of = {}) {
  static_assert(quantized_metric<M>);
  constexpr index_t kChunk = 512;
  float buf[kChunk];
  const dispatch::KernelOps& ops = dispatch::ops();
  for (index_t c = lo; c < hi; c += kChunk) {
    const index_t ce = std::min<index_t>(hi, c + kChunk);
    const float chunk_min = detail::quant_rows(ops, q, d, store, c, ce, buf);
    // Kernel space is squared-L2; the heap holds metric-space values.
    const float worst_sq = ScanTraits<M>::map(out.worst());
    if (chunk_min > worst_sq) continue;
    for (index_t p = c; p < ce; ++p) {
      const float v = buf[p - c];
      if (v > ScanTraits<M>::map(out.worst())) continue;
      if constexpr (std::is_same_v<M, Euclidean>)
        out.push(std::sqrt(v), id_of(p));
      else
        out.push(v, id_of(p));
    }
  }
}

}  // namespace rbc
