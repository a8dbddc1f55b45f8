// AVX2+FMA kernel table. Compiled with -mavx2 -mfma when the compiler
// supports them (see RBC_SIMD handling in CMakeLists.txt); the dispatcher
// only selects this table when CPUID reports both features at runtime, so
// shipping the code in a portable binary is safe.
//
// Register budget per shape:
//   tile       two 8-lane accumulators (tile lanes 0-7 / 8-15) per row —
//              enough independent FMA chains to hide latency while the
//              broadcast row element is reused 16 ways;
//   rows       eight accumulators, one per database row, vectorized along
//              the feature axis — the single-query shape with the chains a
//              lone scan lacks;
//   l2_lanes   four 8-lane accumulators: two 16-row blocks, each split into
//              two halves, vectorized along the rows (bit-exact shape).
#include "distance/isa_tables.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "distance/quantized.hpp"

namespace rbc::dispatch::detail {

namespace {

inline float hsum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum = _mm_add_ps(lo, hi);
  sum = _mm_hadd_ps(sum, sum);
  sum = _mm_hadd_ps(sum, sum);
  return _mm_cvtss_f32(sum);
}

void tile_avx2(const float* qt, index_t d, const float* x, std::size_t stride,
               index_t lo, index_t hi, float* out, float* lane_min) {
  __m256 min0 = _mm256_set1_ps(kInfDist);
  __m256 min1 = _mm256_set1_ps(kInfDist);
  for (index_t p = lo; p < hi; ++p) {
    const float* row = x + static_cast<std::size_t>(p) * stride;
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    for (index_t i = 0; i < d; ++i) {
      const __m256 xi = _mm256_set1_ps(row[i]);
      const float* q = qt + static_cast<std::size_t>(i) * kTile;
      const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(q), xi);
      const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(q + 8), xi);
      acc0 = _mm256_fmadd_ps(d0, d0, acc0);
      acc1 = _mm256_fmadd_ps(d1, d1, acc1);
    }
    min0 = _mm256_min_ps(min0, acc0);
    min1 = _mm256_min_ps(min1, acc1);
    float* o = out + static_cast<std::size_t>(p - lo) * kTile;
    _mm256_storeu_ps(o, acc0);
    _mm256_storeu_ps(o + 8, acc1);
  }
  _mm256_storeu_ps(lane_min, min0);
  _mm256_storeu_ps(lane_min + 8, min1);
}

void tile_gemm_avx2(const float* qt, const float* q_sq, index_t d,
                    const float* x, std::size_t stride, const float* x_sq,
                    index_t lo, index_t hi, float* out, float* lane_min) {
  const __m256 qs0 = _mm256_loadu_ps(q_sq);
  const __m256 qs1 = _mm256_loadu_ps(q_sq + 8);
  const __m256 zero = _mm256_setzero_ps();
  const __m256 minus2 = _mm256_set1_ps(-2.0f);
  __m256 min0 = _mm256_set1_ps(kInfDist);
  __m256 min1 = _mm256_set1_ps(kInfDist);
  for (index_t p = lo; p < hi; ++p) {
    const float* row = x + static_cast<std::size_t>(p) * stride;
    __m256 dot0 = _mm256_setzero_ps();
    __m256 dot1 = _mm256_setzero_ps();
    for (index_t i = 0; i < d; ++i) {
      const __m256 xi = _mm256_set1_ps(row[i]);
      const float* q = qt + static_cast<std::size_t>(i) * kTile;
      dot0 = _mm256_fmadd_ps(_mm256_loadu_ps(q), xi, dot0);
      dot1 = _mm256_fmadd_ps(_mm256_loadu_ps(q + 8), xi, dot1);
    }
    const __m256 base = _mm256_set1_ps(x_sq[p]);
    __m256 v0 = _mm256_fmadd_ps(minus2, dot0, _mm256_add_ps(qs0, base));
    __m256 v1 = _mm256_fmadd_ps(minus2, dot1, _mm256_add_ps(qs1, base));
    v0 = _mm256_max_ps(v0, zero);
    v1 = _mm256_max_ps(v1, zero);
    min0 = _mm256_min_ps(min0, v0);
    min1 = _mm256_min_ps(min1, v1);
    float* o = out + static_cast<std::size_t>(p - lo) * kTile;
    _mm256_storeu_ps(o, v0);
    _mm256_storeu_ps(o + 8, v1);
  }
  _mm256_storeu_ps(lane_min, min0);
  _mm256_storeu_ps(lane_min + 8, min1);
}

/// One query against one row, two accumulator chains (remainder rows).
inline float sq_l2_one(const float* q, const float* row, index_t d) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  index_t i = 0;
  for (; i + 16 <= d; i += 16) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(q + i), _mm256_loadu_ps(row + i));
    const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(q + i + 8),
                                    _mm256_loadu_ps(row + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= d; i += 8) {
    const __m256 diff =
        _mm256_sub_ps(_mm256_loadu_ps(q + i), _mm256_loadu_ps(row + i));
    acc0 = _mm256_fmadd_ps(diff, diff, acc0);
  }
  float acc = hsum(_mm256_add_ps(acc0, acc1));
  for (; i < d; ++i) {
    const float diff = q[i] - row[i];
    acc += diff * diff;
  }
  return acc;
}

float rows_avx2(const float* q, index_t d, const float* x,
                std::size_t stride, index_t lo, index_t hi, float* out) {
  float best = kInfDist;
  // Lane mask for the feature tail (d % 8 lanes active): maskload keeps the
  // whole block in vector code instead of a per-row scalar epilogue.
  alignas(32) std::int32_t mask_bits[8] = {};
  for (index_t l = 0; l < d % 8; ++l) mask_bits[l] = -1;
  const __m256i tail =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(mask_bits));

  index_t p = lo;
  for (; p + kRowBlock <= hi; p += kRowBlock) {
    const float* r[kRowBlock];
    for (index_t b = 0; b < kRowBlock; ++b)
      r[b] = x + static_cast<std::size_t>(p + b) * stride;
    __m256 acc[kRowBlock] = {
        _mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps(),
        _mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps(),
        _mm256_setzero_ps(), _mm256_setzero_ps()};
    index_t i = 0;
    for (; i + 8 <= d; i += 8) {
      const __m256 qv = _mm256_loadu_ps(q + i);
      for (index_t b = 0; b < kRowBlock; ++b) {
        const __m256 diff = _mm256_sub_ps(qv, _mm256_loadu_ps(r[b] + i));
        acc[b] = _mm256_fmadd_ps(diff, diff, acc[b]);
      }
    }
    if (i < d) {
      const __m256 qv = _mm256_maskload_ps(q + i, tail);
      for (index_t b = 0; b < kRowBlock; ++b) {
        const __m256 diff =
            _mm256_sub_ps(qv, _mm256_maskload_ps(r[b] + i, tail));
        acc[b] = _mm256_fmadd_ps(diff, diff, acc[b]);
      }
    }
    float* o = out + (p - lo);
    for (index_t b = 0; b < kRowBlock; ++b) {
      o[b] = hsum(acc[b]);
      if (o[b] < best) best = o[b];
    }
  }
  for (; p < hi; ++p) {
    const float v =
        sq_l2_one(q, x + static_cast<std::size_t>(p) * stride, d);
    out[p - lo] = v;
    if (v < best) best = v;
  }
  return best;
}

inline __m256 abs_ps(__m256 v) {
  const __m256 mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  return _mm256_and_ps(v, mask);
}

/// One query against one row, Manhattan, two accumulator chains.
inline float l1_one(const float* q, const float* row, index_t d) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  index_t i = 0;
  for (; i + 16 <= d; i += 16) {
    acc0 = _mm256_add_ps(acc0, abs_ps(_mm256_sub_ps(_mm256_loadu_ps(q + i),
                                                    _mm256_loadu_ps(row + i))));
    acc1 = _mm256_add_ps(
        acc1, abs_ps(_mm256_sub_ps(_mm256_loadu_ps(q + i + 8),
                                   _mm256_loadu_ps(row + i + 8))));
  }
  for (; i + 8 <= d; i += 8)
    acc0 = _mm256_add_ps(acc0, abs_ps(_mm256_sub_ps(_mm256_loadu_ps(q + i),
                                                    _mm256_loadu_ps(row + i))));
  float acc = hsum(_mm256_add_ps(acc0, acc1));
  for (; i < d; ++i) {
    const float diff = q[i] - row[i];
    acc += diff < 0.0f ? -diff : diff;
  }
  return acc;
}

/// One query against one row, negated dot, two accumulator chains.
inline float neg_dot_one(const float* q, const float* row, index_t d) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  index_t i = 0;
  for (; i + 16 <= d; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(q + i), _mm256_loadu_ps(row + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(q + i + 8),
                           _mm256_loadu_ps(row + i + 8), acc1);
  }
  for (; i + 8 <= d; i += 8)
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(q + i), _mm256_loadu_ps(row + i),
                           acc0);
  float acc = hsum(_mm256_add_ps(acc0, acc1));
  for (; i < d; ++i) acc += q[i] * row[i];
  return -acc;
}

/// Shared 8-row blocked skeleton of the metric row shapes: tail-mask setup,
/// row-pointer block, per-row accumulators, and min-tracking epilogue are
/// identical for L1 and negated-dot; Op supplies the per-lane accumulate,
/// the horizontal finish, and the single-row remainder kernel.
struct L1LaneOp {
  static __m256 accum(__m256 acc, __m256 qv, __m256 xv) {
    return _mm256_add_ps(acc, abs_ps(_mm256_sub_ps(qv, xv)));
  }
  static float finish(__m256 acc) { return hsum(acc); }
  static float one(const float* q, const float* row, index_t d) {
    return l1_one(q, row, d);
  }
};

struct IpLaneOp {
  static __m256 accum(__m256 acc, __m256 qv, __m256 xv) {
    return _mm256_fmadd_ps(qv, xv, acc);
  }
  static float finish(__m256 acc) { return -hsum(acc); }
  static float one(const float* q, const float* row, index_t d) {
    return neg_dot_one(q, row, d);
  }
};

template <class Op>
float rows_metric_avx2(const float* q, index_t d, const float* x,
                       std::size_t stride, index_t lo, index_t hi,
                       float* out) {
  float best = kInfDist;
  alignas(32) std::int32_t mask_bits[8] = {};
  for (index_t l = 0; l < d % 8; ++l) mask_bits[l] = -1;
  const __m256i tail =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(mask_bits));

  index_t p = lo;
  for (; p + kRowBlock <= hi; p += kRowBlock) {
    const float* r[kRowBlock];
    for (index_t b = 0; b < kRowBlock; ++b)
      r[b] = x + static_cast<std::size_t>(p + b) * stride;
    __m256 acc[kRowBlock] = {
        _mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps(),
        _mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps(),
        _mm256_setzero_ps(), _mm256_setzero_ps()};
    index_t i = 0;
    for (; i + 8 <= d; i += 8) {
      const __m256 qv = _mm256_loadu_ps(q + i);
      for (index_t b = 0; b < kRowBlock; ++b)
        acc[b] = Op::accum(acc[b], qv, _mm256_loadu_ps(r[b] + i));
    }
    if (i < d) {
      const __m256 qv = _mm256_maskload_ps(q + i, tail);
      for (index_t b = 0; b < kRowBlock; ++b)
        acc[b] = Op::accum(acc[b], qv, _mm256_maskload_ps(r[b] + i, tail));
    }
    float* o = out + (p - lo);
    for (index_t b = 0; b < kRowBlock; ++b) {
      o[b] = Op::finish(acc[b]);
      if (o[b] < best) best = o[b];
    }
  }
  for (; p < hi; ++p) {
    const float v = Op::one(q, x + static_cast<std::size_t>(p) * stride, d);
    out[p - lo] = v;
    if (v < best) best = v;
  }
  return best;
}

// ------------------------------------------------ quantized (fp16 / int8) --

/// Eight binary16 codes -> eight floats: VCVTPH2PS when the TU was built
/// with F16C (the dispatcher then also requires it from CPUID), the exact
/// software codec otherwise.
inline __m256 load8_fp16(const std::uint16_t* p) {
#if defined(__F16C__)
  return _mm256_cvtph_ps(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
#else
  alignas(32) float tmp[8];
  for (int l = 0; l < 8; ++l) tmp[l] = quant::fp16_decode(p[l]);
  return _mm256_load_ps(tmp);
#endif
}

/// Eight int8 codes -> eight floats (sign-extend, convert — both exact).
inline __m256 load8_int8(const std::int8_t* p) {
  const __m128i b = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b));
}

// Tail handling (d % 8 != 0). Per-element software decodes dominated whole
// scans at the paper's dims (21 and 74 both carry tails), so for d >= 8 the
// tail is one more full-width step over the row's LAST 8 elements — always
// in-bounds — with the lanes the main loop already counted masked off. Only
// d < 8, where no full window exists, falls back to zero-padded copies.

alignas(32) constexpr std::uint32_t kLaneMask[24] = {
    0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFu,
    0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFu,
    0,           0,           0,           0,
    0,           0,           0,           0,
    0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFu,
    0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFu};

/// All-ones in lanes [0, n), zeros above (n in [1, 7]).
inline __m256 first_lanes(index_t n) {
  return _mm256_loadu_ps(reinterpret_cast<const float*>(kLaneMask + 8 - n));
}

/// All-ones in lanes [8 - n, 8), zeros below (n in [1, 7]).
inline __m256 last_lanes(index_t n) {
  return _mm256_loadu_ps(reinterpret_cast<const float*>(kLaneMask + 8 + n));
}

/// Masked diff vector for the tail lanes [i, d) of an fp16 row; squares to
/// the tail's contribution when fed to an FMA.
inline __m256 tail_diff_fp16(const float* q, const std::uint16_t* row,
                             index_t d, index_t i) {
  if (d >= 8) {
    const __m256 diff = _mm256_sub_ps(_mm256_loadu_ps(q + d - 8),
                                      load8_fp16(row + d - 8));
    // Already-counted lanes may hold inf codes; the AND clears them to 0.
    return _mm256_and_ps(diff, last_lanes(d - i));
  }
  alignas(32) float qbuf[8] = {};
  alignas(16) std::uint16_t xbuf[8] = {};
  std::memcpy(qbuf, q + i, static_cast<std::size_t>(d - i) * sizeof(float));
  std::memcpy(xbuf, row + i,
              static_cast<std::size_t>(d - i) * sizeof(std::uint16_t));
  // Padded lanes: q = 0 and code 0 decodes to +0, so the diff is exactly 0.
  return _mm256_sub_ps(_mm256_load_ps(qbuf), load8_fp16(xbuf));
}

/// Masked diff vector for the tail lanes [i, d) of an int8 row.
inline __m256 tail_diff_int8(const float* q, const std::int8_t* row,
                             index_t d, index_t i, __m256 sv, __m256 ov) {
  if (d >= 8) {
    const __m256 qo = _mm256_sub_ps(_mm256_loadu_ps(q + d - 8), ov);
    const __m256 diff = _mm256_fnmadd_ps(sv, load8_int8(row + d - 8), qo);
    return _mm256_and_ps(diff, last_lanes(d - i));
  }
  alignas(32) float qbuf[8] = {};
  alignas(8) std::int8_t xbuf[8] = {};
  std::memcpy(qbuf, q + i, static_cast<std::size_t>(d - i) * sizeof(float));
  std::memcpy(xbuf, row + i, static_cast<std::size_t>(d - i));
  // Padded lanes dequantize to -offset; mask them back to 0.
  const __m256 qo = _mm256_sub_ps(_mm256_load_ps(qbuf), ov);
  const __m256 diff = _mm256_fnmadd_ps(sv, load8_int8(xbuf), qo);
  return _mm256_and_ps(diff, first_lanes(d - i));
}

inline float fp16_one(const float* q, const std::uint16_t* row, index_t d) {
  __m256 acc = _mm256_setzero_ps();
  index_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256 diff = _mm256_sub_ps(_mm256_loadu_ps(q + i),
                                      load8_fp16(row + i));
    acc = _mm256_fmadd_ps(diff, diff, acc);
  }
  if (i < d) {
    const __m256 t = tail_diff_fp16(q, row, d, i);
    acc = _mm256_fmadd_ps(t, t, acc);
  }
  return hsum(acc);
}

inline float int8_one(const float* q, const std::int8_t* row, index_t d,
                      float scale, float offset) {
  const __m256 sv = _mm256_set1_ps(scale);
  const __m256 ov = _mm256_set1_ps(offset);
  __m256 acc = _mm256_setzero_ps();
  index_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256 qo = _mm256_sub_ps(_mm256_loadu_ps(q + i), ov);
    const __m256 diff = _mm256_fnmadd_ps(sv, load8_int8(row + i), qo);
    acc = _mm256_fmadd_ps(diff, diff, acc);
  }
  if (i < d) {
    const __m256 t = tail_diff_int8(q, row, d, i, sv, ov);
    acc = _mm256_fmadd_ps(t, t, acc);
  }
  return hsum(acc);
}

float rows_fp16_avx2(const float* q, index_t d, const std::uint16_t* x,
                     std::size_t stride, index_t lo, index_t hi, float* out) {
  float best = kInfDist;
  index_t p = lo;
  for (; p + kRowBlock <= hi; p += kRowBlock) {
    const std::uint16_t* r[kRowBlock];
    for (index_t b = 0; b < kRowBlock; ++b)
      r[b] = x + static_cast<std::size_t>(p + b) * stride;
    __m256 acc[kRowBlock] = {
        _mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps(),
        _mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps(),
        _mm256_setzero_ps(), _mm256_setzero_ps()};
    index_t i = 0;
    for (; i + 8 <= d; i += 8) {
      const __m256 qv = _mm256_loadu_ps(q + i);
      for (index_t b = 0; b < kRowBlock; ++b) {
        const __m256 diff = _mm256_sub_ps(qv, load8_fp16(r[b] + i));
        acc[b] = _mm256_fmadd_ps(diff, diff, acc[b]);
      }
    }
    if (i < d) {
      for (index_t b = 0; b < kRowBlock; ++b) {
        const __m256 t = tail_diff_fp16(q, r[b], d, i);
        acc[b] = _mm256_fmadd_ps(t, t, acc[b]);
      }
    }
    float* o = out + (p - lo);
    for (index_t b = 0; b < kRowBlock; ++b) {
      const float v = hsum(acc[b]);
      o[b] = v;
      if (v < best) best = v;
    }
  }
  for (; p < hi; ++p) {
    const float v = fp16_one(q, x + static_cast<std::size_t>(p) * stride, d);
    out[p - lo] = v;
    if (v < best) best = v;
  }
  return best;
}

// int8 rows block four rows, not kRowBlock: per row the loop keeps an
// accumulator plus broadcast scale and offset live, and 3 x 8 ymm registers
// would spill (AVX2 has 16); 3 x 4 plus the shared query vector fits.
constexpr index_t kInt8Block = 4;

float rows_int8_avx2(const float* q, index_t d, const std::int8_t* x,
                     std::size_t stride, const float* scale,
                     const float* offset, index_t lo, index_t hi,
                     float* out) {
  float best = kInfDist;
  index_t p = lo;
  for (; p + kInt8Block <= hi; p += kInt8Block) {
    const std::int8_t* r[kInt8Block];
    __m256 sv[kInt8Block];
    __m256 ov[kInt8Block];
    for (index_t b = 0; b < kInt8Block; ++b) {
      r[b] = x + static_cast<std::size_t>(p + b) * stride;
      sv[b] = _mm256_set1_ps(scale[p + b]);
      ov[b] = _mm256_set1_ps(offset[p + b]);
    }
    __m256 acc[kInt8Block] = {_mm256_setzero_ps(), _mm256_setzero_ps(),
                              _mm256_setzero_ps(), _mm256_setzero_ps()};
    index_t i = 0;
    for (; i + 8 <= d; i += 8) {
      const __m256 qv = _mm256_loadu_ps(q + i);
      for (index_t b = 0; b < kInt8Block; ++b) {
        const __m256 diff = _mm256_fnmadd_ps(sv[b], load8_int8(r[b] + i),
                                             _mm256_sub_ps(qv, ov[b]));
        acc[b] = _mm256_fmadd_ps(diff, diff, acc[b]);
      }
    }
    if (i < d) {
      for (index_t b = 0; b < kInt8Block; ++b) {
        const __m256 t = tail_diff_int8(q, r[b], d, i, sv[b], ov[b]);
        acc[b] = _mm256_fmadd_ps(t, t, acc[b]);
      }
    }
    float* o = out + (p - lo);
    for (index_t b = 0; b < kInt8Block; ++b) {
      const float v = hsum(acc[b]);
      o[b] = v;
      if (v < best) best = v;
    }
  }
  for (; p < hi; ++p) {
    const float v = int8_one(q, x + static_cast<std::size_t>(p) * stride, d,
                             scale[p], offset[p]);
    out[p - lo] = v;
    if (v < best) best = v;
  }
  return best;
}

// ------------------------------------------------------------ l2_lanes ---
//
// A 16-row block is two 8-lane halves, each accumulated as acc = acc +
// diff * diff with a separate multiply and add — never _mm256_fmadd_ps, and
// rbc_core's -ffp-contract=off keeps GCC from fusing the pair under -mfma —
// so every lane repeats Euclidean{}'s per-pair rounding. Two blocks run at
// once: four independent add chains sharing one broadcast query feature.

inline __m256 lanes_step(__m256 acc, __m256 qi, const float* x) {
  const __m256 diff = _mm256_sub_ps(qi, _mm256_loadu_ps(x));
  return _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
}

void l2_lanes_avx2(const float* q, index_t d, const float* lanes, index_t n,
                   float* out) {
  const std::size_t block = static_cast<std::size_t>(d) * kLanes;
  const index_t blocks = (n + kLanes - 1) / kLanes;
  index_t b = 0;
  for (; b + 2 <= n / kLanes; b += 2) {
    const float* x = lanes + b * block;
    __m256 a0 = _mm256_setzero_ps(), a1 = a0, a2 = a0, a3 = a0;
    for (index_t i = 0; i < d; ++i) {
      const __m256 qi = _mm256_set1_ps(q[i]);
      const float* xi = x + static_cast<std::size_t>(i) * kLanes;
      a0 = lanes_step(a0, qi, xi);
      a1 = lanes_step(a1, qi, xi + 8);
      a2 = lanes_step(a2, qi, xi + block);
      a3 = lanes_step(a3, qi, xi + block + 8);
    }
    float* o = out + static_cast<std::size_t>(b) * kLanes;
    _mm256_storeu_ps(o, _mm256_sqrt_ps(a0));
    _mm256_storeu_ps(o + 8, _mm256_sqrt_ps(a1));
    _mm256_storeu_ps(o + kLanes, _mm256_sqrt_ps(a2));
    _mm256_storeu_ps(o + kLanes + 8, _mm256_sqrt_ps(a3));
  }
  for (; b < blocks; ++b) {
    const float* x = lanes + b * block;
    __m256 lo = _mm256_setzero_ps(), hi = lo;
    for (index_t i = 0; i < d; ++i) {
      const __m256 qi = _mm256_set1_ps(q[i]);
      const float* xi = x + static_cast<std::size_t>(i) * kLanes;
      lo = lanes_step(lo, qi, xi);
      hi = lanes_step(hi, qi, xi + 8);
    }
    // The last block may be partial: store its live lanes only.
    alignas(32) float dist[kLanes];
    _mm256_store_ps(dist, _mm256_sqrt_ps(lo));
    _mm256_store_ps(dist + 8, _mm256_sqrt_ps(hi));
    const index_t live = std::min<index_t>(kLanes, n - b * kLanes);
    std::memcpy(out + static_cast<std::size_t>(b) * kLanes, dist,
                sizeof(float) * live);
  }
}

constexpr KernelOps kAvx2Ops = {
    tile_avx2,                  tile_gemm_avx2,
    rows_avx2,                  rows_metric_avx2<L1LaneOp>,
    rows_metric_avx2<IpLaneOp>, rows_fp16_avx2,
    rows_int8_avx2,             l2_lanes_avx2};

}  // namespace

const KernelOps* avx2_table() noexcept { return &kAvx2Ops; }

bool avx2_table_uses_f16c() noexcept {
#if defined(__F16C__)
  return true;
#else
  return false;
#endif
}

}  // namespace rbc::dispatch::detail

#else  // compiled without AVX2+FMA — table absent, dispatcher skips it

namespace rbc::dispatch::detail {
const KernelOps* avx2_table() noexcept { return nullptr; }
bool avx2_table_uses_f16c() noexcept { return false; }
}  // namespace rbc::dispatch::detail

#endif
