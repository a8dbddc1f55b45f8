// AVX-512F kernel table. Compiled with -mavx512f when the compiler supports
// it; selected at runtime only when CPUID reports AVX-512F. The 16-lane
// registers make the tile shapes particularly clean: one zmm accumulator
// covers the whole 16-query tile, and the feature-axis kernels use masked
// loads for the tail instead of a scalar epilogue.
#include "distance/isa_tables.hpp"

#if defined(__AVX512F__)
#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "distance/quantized.hpp"

namespace rbc::dispatch::detail {

namespace {

void tile_avx512(const float* qt, index_t d, const float* x,
                 std::size_t stride, index_t lo, index_t hi, float* out,
                 float* lane_min) {
  __m512 vmin = _mm512_set1_ps(kInfDist);
  for (index_t p = lo; p < hi; ++p) {
    const float* row = x + static_cast<std::size_t>(p) * stride;
    __m512 acc0 = _mm512_setzero_ps();
    __m512 acc1 = _mm512_setzero_ps();
    index_t i = 0;
    // Two rows of the transposed tile per iteration: independent chains.
    for (; i + 2 <= d; i += 2) {
      const float* q = qt + static_cast<std::size_t>(i) * kTile;
      const __m512 d0 = _mm512_sub_ps(_mm512_loadu_ps(q),
                                      _mm512_set1_ps(row[i]));
      const __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(q + kTile),
                                      _mm512_set1_ps(row[i + 1]));
      acc0 = _mm512_fmadd_ps(d0, d0, acc0);
      acc1 = _mm512_fmadd_ps(d1, d1, acc1);
    }
    if (i < d) {
      const __m512 diff =
          _mm512_sub_ps(_mm512_loadu_ps(qt + static_cast<std::size_t>(i) *
                                        kTile),
                        _mm512_set1_ps(row[i]));
      acc0 = _mm512_fmadd_ps(diff, diff, acc0);
    }
    const __m512 v = _mm512_add_ps(acc0, acc1);
    vmin = _mm512_min_ps(vmin, v);
    _mm512_storeu_ps(out + static_cast<std::size_t>(p - lo) * kTile, v);
  }
  _mm512_storeu_ps(lane_min, vmin);
}

void tile_gemm_avx512(const float* qt, const float* q_sq, index_t d,
                      const float* x, std::size_t stride, const float* x_sq,
                      index_t lo, index_t hi, float* out, float* lane_min) {
  const __m512 qs = _mm512_loadu_ps(q_sq);
  const __m512 zero = _mm512_setzero_ps();
  const __m512 minus2 = _mm512_set1_ps(-2.0f);
  __m512 vmin = _mm512_set1_ps(kInfDist);
  for (index_t p = lo; p < hi; ++p) {
    const float* row = x + static_cast<std::size_t>(p) * stride;
    __m512 dot0 = _mm512_setzero_ps();
    __m512 dot1 = _mm512_setzero_ps();
    index_t i = 0;
    for (; i + 2 <= d; i += 2) {
      const float* q = qt + static_cast<std::size_t>(i) * kTile;
      dot0 = _mm512_fmadd_ps(_mm512_loadu_ps(q), _mm512_set1_ps(row[i]),
                             dot0);
      dot1 = _mm512_fmadd_ps(_mm512_loadu_ps(q + kTile),
                             _mm512_set1_ps(row[i + 1]), dot1);
    }
    if (i < d)
      dot0 = _mm512_fmadd_ps(
          _mm512_loadu_ps(qt + static_cast<std::size_t>(i) * kTile),
          _mm512_set1_ps(row[i]), dot0);
    const __m512 base = _mm512_add_ps(qs, _mm512_set1_ps(x_sq[p]));
    const __m512 v = _mm512_max_ps(
        _mm512_fmadd_ps(minus2, _mm512_add_ps(dot0, dot1), base), zero);
    vmin = _mm512_min_ps(vmin, v);
    _mm512_storeu_ps(out + static_cast<std::size_t>(p - lo) * kTile, v);
  }
  _mm512_storeu_ps(lane_min, vmin);
}

/// One query against one row with a masked tail load (no scalar epilogue).
inline float sq_l2_one(const float* q, const float* row, index_t d) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  index_t i = 0;
  for (; i + 32 <= d; i += 32) {
    const __m512 d0 =
        _mm512_sub_ps(_mm512_loadu_ps(q + i), _mm512_loadu_ps(row + i));
    const __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(q + i + 16),
                                    _mm512_loadu_ps(row + i + 16));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
    acc1 = _mm512_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 16 <= d; i += 16) {
    const __m512 diff =
        _mm512_sub_ps(_mm512_loadu_ps(q + i), _mm512_loadu_ps(row + i));
    acc0 = _mm512_fmadd_ps(diff, diff, acc0);
  }
  if (i < d) {
    const __mmask16 tail =
        static_cast<__mmask16>((1u << (d - i)) - 1u);
    const __m512 diff = _mm512_sub_ps(_mm512_maskz_loadu_ps(tail, q + i),
                                      _mm512_maskz_loadu_ps(tail, row + i));
    acc1 = _mm512_fmadd_ps(diff, diff, acc1);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

float rows_avx512(const float* q, index_t d, const float* x,
                  std::size_t stride, index_t lo, index_t hi, float* out) {
  const __mmask16 tail = d % 16 != 0
                             ? static_cast<__mmask16>((1u << (d % 16)) - 1u)
                             : static_cast<__mmask16>(0xffff);
  float best = kInfDist;
  index_t p = lo;
  for (; p + kRowBlock <= hi; p += kRowBlock) {
    const float* r[kRowBlock];
    for (index_t b = 0; b < kRowBlock; ++b)
      r[b] = x + static_cast<std::size_t>(p + b) * stride;
    __m512 acc[kRowBlock] = {
        _mm512_setzero_ps(), _mm512_setzero_ps(), _mm512_setzero_ps(),
        _mm512_setzero_ps(), _mm512_setzero_ps(), _mm512_setzero_ps(),
        _mm512_setzero_ps(), _mm512_setzero_ps()};
    index_t i = 0;
    for (; i + 16 <= d; i += 16) {
      const __m512 qv = _mm512_loadu_ps(q + i);
      for (index_t b = 0; b < kRowBlock; ++b) {
        const __m512 diff = _mm512_sub_ps(qv, _mm512_loadu_ps(r[b] + i));
        acc[b] = _mm512_fmadd_ps(diff, diff, acc[b]);
      }
    }
    if (i < d) {
      const __m512 qv = _mm512_maskz_loadu_ps(tail, q + i);
      for (index_t b = 0; b < kRowBlock; ++b) {
        const __m512 diff =
            _mm512_sub_ps(qv, _mm512_maskz_loadu_ps(tail, r[b] + i));
        acc[b] = _mm512_fmadd_ps(diff, diff, acc[b]);
      }
    }
    float* o = out + (p - lo);
    for (index_t b = 0; b < kRowBlock; ++b) {
      o[b] = _mm512_reduce_add_ps(acc[b]);
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

inline __m512 abs_ps512(__m512 v) {
  return _mm512_abs_ps(v);
}

/// One query against one row, Manhattan, masked tail.
inline float l1_one(const float* q, const float* row, index_t d) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  index_t i = 0;
  for (; i + 32 <= d; i += 32) {
    acc0 = _mm512_add_ps(
        acc0, abs_ps512(_mm512_sub_ps(_mm512_loadu_ps(q + i),
                                      _mm512_loadu_ps(row + i))));
    acc1 = _mm512_add_ps(
        acc1, abs_ps512(_mm512_sub_ps(_mm512_loadu_ps(q + i + 16),
                                      _mm512_loadu_ps(row + i + 16))));
  }
  for (; i + 16 <= d; i += 16)
    acc0 = _mm512_add_ps(
        acc0, abs_ps512(_mm512_sub_ps(_mm512_loadu_ps(q + i),
                                      _mm512_loadu_ps(row + i))));
  if (i < d) {
    const __mmask16 tail = static_cast<__mmask16>((1u << (d - i)) - 1u);
    acc1 = _mm512_add_ps(
        acc1, abs_ps512(_mm512_sub_ps(_mm512_maskz_loadu_ps(tail, q + i),
                                      _mm512_maskz_loadu_ps(tail, row + i))));
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

/// One query against one row, negated dot, masked tail.
inline float neg_dot_one(const float* q, const float* row, index_t d) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  index_t i = 0;
  for (; i + 32 <= d; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(q + i), _mm512_loadu_ps(row + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(q + i + 16),
                           _mm512_loadu_ps(row + i + 16), acc1);
  }
  for (; i + 16 <= d; i += 16)
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(q + i), _mm512_loadu_ps(row + i),
                           acc0);
  if (i < d) {
    const __mmask16 tail = static_cast<__mmask16>((1u << (d - i)) - 1u);
    acc1 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(tail, q + i),
                           _mm512_maskz_loadu_ps(tail, row + i), acc1);
  }
  return -_mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

/// Shared 8-row blocked skeleton of the metric row shapes (see the AVX2
/// twin): Op supplies the per-lane accumulate, horizontal finish, and
/// single-row remainder kernel; the tail-mask/block/min plumbing is shared.
struct L1LaneOp {
  static __m512 accum(__m512 acc, __m512 qv, __m512 xv) {
    return _mm512_add_ps(acc, abs_ps512(_mm512_sub_ps(qv, xv)));
  }
  static float finish(__m512 acc) { return _mm512_reduce_add_ps(acc); }
  static float one(const float* q, const float* row, index_t d) {
    return l1_one(q, row, d);
  }
};

struct IpLaneOp {
  static __m512 accum(__m512 acc, __m512 qv, __m512 xv) {
    return _mm512_fmadd_ps(qv, xv, acc);
  }
  static float finish(__m512 acc) { return -_mm512_reduce_add_ps(acc); }
  static float one(const float* q, const float* row, index_t d) {
    return neg_dot_one(q, row, d);
  }
};

template <class Op>
float rows_metric_avx512(const float* q, index_t d, const float* x,
                         std::size_t stride, index_t lo, index_t hi,
                         float* out) {
  const __mmask16 tail = d % 16 != 0
                             ? static_cast<__mmask16>((1u << (d % 16)) - 1u)
                             : static_cast<__mmask16>(0xffff);
  float best = kInfDist;
  index_t p = lo;
  for (; p + kRowBlock <= hi; p += kRowBlock) {
    const float* r[kRowBlock];
    for (index_t b = 0; b < kRowBlock; ++b)
      r[b] = x + static_cast<std::size_t>(p + b) * stride;
    __m512 acc[kRowBlock] = {
        _mm512_setzero_ps(), _mm512_setzero_ps(), _mm512_setzero_ps(),
        _mm512_setzero_ps(), _mm512_setzero_ps(), _mm512_setzero_ps(),
        _mm512_setzero_ps(), _mm512_setzero_ps()};
    index_t i = 0;
    for (; i + 16 <= d; i += 16) {
      const __m512 qv = _mm512_loadu_ps(q + i);
      for (index_t b = 0; b < kRowBlock; ++b)
        acc[b] = Op::accum(acc[b], qv, _mm512_loadu_ps(r[b] + i));
    }
    if (i < d) {
      const __m512 qv = _mm512_maskz_loadu_ps(tail, q + i);
      for (index_t b = 0; b < kRowBlock; ++b)
        acc[b] =
            Op::accum(acc[b], qv, _mm512_maskz_loadu_ps(tail, r[b] + i));
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

/// Sixteen binary16 codes -> sixteen floats. VCVTPH2PS on zmm is plain
/// AVX-512F (the EVEX form predates AVX512-FP16), so no extra CPUID gate.
inline __m512 load16_fp16(const std::uint16_t* p) {
  return _mm512_cvtph_ps(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

/// Sixteen int8 codes -> sixteen floats (sign-extend, convert — both exact).
inline __m512 load16_int8(const std::int8_t* p) {
  return _mm512_cvtepi32_ps(
      _mm512_cvtepi8_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))));
}

// Tail handling (d % 16 != 0). Per-element software decodes dominated whole
// scans at the paper's dims (21 and 74 both carry tails), so for d >= 16 the
// tail is one more full-width step over the row's LAST 16 elements — always
// in-bounds — with the lanes the main loop already counted zero-masked.
// Sub-32-bit masked loads would need AVX512BW; the full-window reload plus
// __mmask16 zeroing keeps this TU F-only. Only d < 16, where no full window
// exists, falls back to zero-padded copies.

/// Set in lanes [16 - n, 16), clear below (n in [1, 15]).
inline __mmask16 last_lanes(index_t n) {
  return static_cast<__mmask16>(0xFFFFu << (16 - n));
}

/// Masked diff vector for the tail lanes [i, d) of an fp16 row; squares to
/// the tail's contribution when fed to an FMA.
inline __m512 tail_diff_fp16(const float* q, const std::uint16_t* row,
                             index_t d, index_t i) {
  if (d >= 16) {
    // Already-counted lanes may hold inf codes; maskz clears them to 0.
    return _mm512_maskz_sub_ps(last_lanes(d - i), _mm512_loadu_ps(q + d - 16),
                               load16_fp16(row + d - 16));
  }
  alignas(64) float qbuf[16] = {};
  alignas(32) std::uint16_t xbuf[16] = {};
  std::memcpy(qbuf, q + i, static_cast<std::size_t>(d - i) * sizeof(float));
  std::memcpy(xbuf, row + i,
              static_cast<std::size_t>(d - i) * sizeof(std::uint16_t));
  // Padded lanes: q = 0 and code 0 decodes to +0, so the diff is exactly 0.
  return _mm512_sub_ps(_mm512_load_ps(qbuf), load16_fp16(xbuf));
}

/// Masked diff vector for the tail lanes [i, d) of an int8 row.
inline __m512 tail_diff_int8(const float* q, const std::int8_t* row,
                             index_t d, index_t i, __m512 sv, __m512 ov) {
  if (d >= 16) {
    const __m512 qo = _mm512_sub_ps(_mm512_loadu_ps(q + d - 16), ov);
    return _mm512_maskz_fnmadd_ps(last_lanes(d - i), sv,
                                  load16_int8(row + d - 16), qo);
  }
  alignas(64) float qbuf[16] = {};
  alignas(16) std::int8_t xbuf[16] = {};
  std::memcpy(qbuf, q + i, static_cast<std::size_t>(d - i) * sizeof(float));
  std::memcpy(xbuf, row + i, static_cast<std::size_t>(d - i));
  // Padded lanes dequantize to -offset; maskz forces them back to 0.
  const __mmask16 m = static_cast<__mmask16>((1u << (d - i)) - 1u);
  const __m512 qo = _mm512_sub_ps(_mm512_load_ps(qbuf), ov);
  return _mm512_maskz_fnmadd_ps(m, sv, load16_int8(xbuf), qo);
}

inline float fp16_one(const float* q, const std::uint16_t* row, index_t d) {
  __m512 acc = _mm512_setzero_ps();
  index_t i = 0;
  for (; i + 16 <= d; i += 16) {
    const __m512 diff =
        _mm512_sub_ps(_mm512_loadu_ps(q + i), load16_fp16(row + i));
    acc = _mm512_fmadd_ps(diff, diff, acc);
  }
  if (i < d) {
    const __m512 t = tail_diff_fp16(q, row, d, i);
    acc = _mm512_fmadd_ps(t, t, acc);
  }
  return _mm512_reduce_add_ps(acc);
}

inline float int8_one(const float* q, const std::int8_t* row, index_t d,
                      float scale, float offset) {
  const __m512 sv = _mm512_set1_ps(scale);
  const __m512 ov = _mm512_set1_ps(offset);
  __m512 acc = _mm512_setzero_ps();
  index_t i = 0;
  for (; i + 16 <= d; i += 16) {
    const __m512 qo = _mm512_sub_ps(_mm512_loadu_ps(q + i), ov);
    const __m512 diff = _mm512_fnmadd_ps(sv, load16_int8(row + i), qo);
    acc = _mm512_fmadd_ps(diff, diff, acc);
  }
  if (i < d) {
    const __m512 t = tail_diff_int8(q, row, d, i, sv, ov);
    acc = _mm512_fmadd_ps(t, t, acc);
  }
  return _mm512_reduce_add_ps(acc);
}

float rows_fp16_avx512(const float* q, index_t d, const std::uint16_t* x,
                       std::size_t stride, index_t lo, index_t hi,
                       float* out) {
  float best = kInfDist;
  index_t p = lo;
  for (; p + kRowBlock <= hi; p += kRowBlock) {
    const std::uint16_t* r[kRowBlock];
    for (index_t b = 0; b < kRowBlock; ++b)
      r[b] = x + static_cast<std::size_t>(p + b) * stride;
    __m512 acc[kRowBlock] = {
        _mm512_setzero_ps(), _mm512_setzero_ps(), _mm512_setzero_ps(),
        _mm512_setzero_ps(), _mm512_setzero_ps(), _mm512_setzero_ps(),
        _mm512_setzero_ps(), _mm512_setzero_ps()};
    index_t i = 0;
    for (; i + 16 <= d; i += 16) {
      const __m512 qv = _mm512_loadu_ps(q + i);
      for (index_t b = 0; b < kRowBlock; ++b) {
        const __m512 diff = _mm512_sub_ps(qv, load16_fp16(r[b] + i));
        acc[b] = _mm512_fmadd_ps(diff, diff, acc[b]);
      }
    }
    if (i < d) {
      for (index_t b = 0; b < kRowBlock; ++b) {
        const __m512 t = tail_diff_fp16(q, r[b], d, i);
        acc[b] = _mm512_fmadd_ps(t, t, acc[b]);
      }
    }
    float* o = out + (p - lo);
    for (index_t b = 0; b < kRowBlock; ++b) {
      const float v = _mm512_reduce_add_ps(acc[b]);
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

float rows_int8_avx512(const float* q, index_t d, const std::int8_t* x,
                       std::size_t stride, const float* scale,
                       const float* offset, index_t lo, index_t hi,
                       float* out) {
  float best = kInfDist;
  index_t p = lo;
  for (; p + kRowBlock <= hi; p += kRowBlock) {
    const std::int8_t* r[kRowBlock];
    __m512 sv[kRowBlock];
    __m512 ov[kRowBlock];
    for (index_t b = 0; b < kRowBlock; ++b) {
      r[b] = x + static_cast<std::size_t>(p + b) * stride;
      sv[b] = _mm512_set1_ps(scale[p + b]);
      ov[b] = _mm512_set1_ps(offset[p + b]);
    }
    __m512 acc[kRowBlock] = {
        _mm512_setzero_ps(), _mm512_setzero_ps(), _mm512_setzero_ps(),
        _mm512_setzero_ps(), _mm512_setzero_ps(), _mm512_setzero_ps(),
        _mm512_setzero_ps(), _mm512_setzero_ps()};
    index_t i = 0;
    for (; i + 16 <= d; i += 16) {
      const __m512 qv = _mm512_loadu_ps(q + i);
      for (index_t b = 0; b < kRowBlock; ++b) {
        const __m512 diff = _mm512_fnmadd_ps(sv[b], load16_int8(r[b] + i),
                                             _mm512_sub_ps(qv, ov[b]));
        acc[b] = _mm512_fmadd_ps(diff, diff, acc[b]);
      }
    }
    if (i < d) {
      for (index_t b = 0; b < kRowBlock; ++b) {
        const __m512 t = tail_diff_int8(q, r[b], d, i, sv[b], ov[b]);
        acc[b] = _mm512_fmadd_ps(t, t, acc[b]);
      }
    }
    float* o = out + (p - lo);
    for (index_t b = 0; b < kRowBlock; ++b) {
      const float v = _mm512_reduce_add_ps(acc[b]);
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
// One zmm accumulator per 16-row block, updated as acc = acc + diff * diff
// with a separate multiply and add (rbc_core's -ffp-contract=off keeps GCC
// from fusing them), so every lane repeats Euclidean{}'s per-pair rounding.
// Four blocks run at once: four independent add chains hide the add
// latency, and the broadcast query feature is shared by all four. The last
// one to four blocks, the final one partial or not, run together too
// (lanes_tail): the exact index's cover scans runs of only a few blocks.

inline __m512 lanes_step(__m512 acc, __m512 qi, const float* x) {
  const __m512 diff = _mm512_sub_ps(qi, _mm512_loadu_ps(x));
  return _mm512_add_ps(acc, _mm512_mul_ps(diff, diff));
}

/// The last R blocks of a run, whose final block holds `live` rows.
template <int R>
void lanes_tail(const float* q, index_t d, const float* x, std::size_t block,
                index_t live, float* out) {
  __m512 acc[R];
  for (int r = 0; r < R; ++r) acc[r] = _mm512_setzero_ps();
  for (index_t i = 0; i < d; ++i) {
    const __m512 qi = _mm512_set1_ps(q[i]);
    const float* xi = x + static_cast<std::size_t>(i) * kLanes;
    for (int r = 0; r < R; ++r) acc[r] = lanes_step(acc[r], qi, xi + r * block);
  }
  for (int r = 0; r + 1 < R; ++r)
    _mm512_storeu_ps(out + r * kLanes, _mm512_sqrt_ps(acc[r]));
  _mm512_mask_storeu_ps(out + (R - 1) * kLanes,
                        static_cast<__mmask16>((1u << live) - 1u),
                        _mm512_sqrt_ps(acc[R - 1]));
}

void l2_lanes_avx512(const float* q, index_t d, const float* lanes,
                     index_t n, float* out) {
  const std::size_t block = static_cast<std::size_t>(d) * kLanes;
  const index_t blocks = (n + kLanes - 1) / kLanes;
  index_t b = 0;
  for (; b + 4 <= n / kLanes; b += 4) {
    const float* x = lanes + b * block;
    __m512 a0 = _mm512_setzero_ps(), a1 = a0, a2 = a0, a3 = a0;
    for (index_t i = 0; i < d; ++i) {
      const __m512 qi = _mm512_set1_ps(q[i]);
      const float* xi = x + static_cast<std::size_t>(i) * kLanes;
      a0 = lanes_step(a0, qi, xi);
      a1 = lanes_step(a1, qi, xi + block);
      a2 = lanes_step(a2, qi, xi + 2 * block);
      a3 = lanes_step(a3, qi, xi + 3 * block);
    }
    float* o = out + static_cast<std::size_t>(b) * kLanes;
    _mm512_storeu_ps(o, _mm512_sqrt_ps(a0));
    _mm512_storeu_ps(o + kLanes, _mm512_sqrt_ps(a1));
    _mm512_storeu_ps(o + 2 * kLanes, _mm512_sqrt_ps(a2));
    _mm512_storeu_ps(o + 3 * kLanes, _mm512_sqrt_ps(a3));
  }
  // The last block may be partial: store its live lanes only.
  const index_t live = n - (blocks - 1) * kLanes;
  const float* x = lanes + b * block;
  float* o = out + static_cast<std::size_t>(b) * kLanes;
  switch (blocks - b) {
    case 1:
      lanes_tail<1>(q, d, x, block, live, o);
      break;
    case 2:
      lanes_tail<2>(q, d, x, block, live, o);
      break;
    case 3:
      lanes_tail<3>(q, d, x, block, live, o);
      break;
    case 4:  // three full blocks and a partial one
      lanes_tail<4>(q, d, x, block, live, o);
      break;
    default:  // n == 0, or every block ran in the groups of four
      break;
  }
}

constexpr KernelOps kAvx512Ops = {
    tile_avx512,                  tile_gemm_avx512,
    rows_avx512,                  rows_metric_avx512<L1LaneOp>,
    rows_metric_avx512<IpLaneOp>, rows_fp16_avx512,
    rows_int8_avx512,             l2_lanes_avx512};

}  // namespace

const KernelOps* avx512_table() noexcept { return &kAvx512Ops; }

}  // namespace rbc::dispatch::detail

#else  // compiled without AVX-512F — table absent, dispatcher skips it

namespace rbc::dispatch::detail {
const KernelOps* avx512_table() noexcept { return nullptr; }
}  // namespace rbc::dispatch::detail

#endif
