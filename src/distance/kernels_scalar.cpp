// Portable kernel table — the fallback every build ships and the reference
// the SIMD tables are fuzzed against (tests/test_kernels.cpp). Loop
// structure mirrors the vector kernels (row-major streaming, per-lane
// accumulators) so the scalar path benefits from the same cache behavior
// even without vector units.
#include <cmath>

#include "distance/isa_tables.hpp"
#include "distance/quantized.hpp"

namespace rbc::dispatch::detail {

namespace {

void tile_scalar(const float* qt, index_t d, const float* x,
                 std::size_t stride, index_t lo, index_t hi, float* out,
                 float* lane_min) {
  for (index_t t = 0; t < kTile; ++t) lane_min[t] = kInfDist;
  for (index_t p = lo; p < hi; ++p) {
    const float* row = x + static_cast<std::size_t>(p) * stride;
    float acc[kTile] = {};
    for (index_t i = 0; i < d; ++i) {
      const float xi = row[i];
      const float* q = qt + static_cast<std::size_t>(i) * kTile;
      for (index_t t = 0; t < kTile; ++t) {
        const float diff = q[t] - xi;
        acc[t] += diff * diff;
      }
    }
    float* o = out + static_cast<std::size_t>(p - lo) * kTile;
    for (index_t t = 0; t < kTile; ++t) {
      o[t] = acc[t];
      if (acc[t] < lane_min[t]) lane_min[t] = acc[t];
    }
  }
}

void tile_gemm_scalar(const float* qt, const float* q_sq, index_t d,
                      const float* x, std::size_t stride, const float* x_sq,
                      index_t lo, index_t hi, float* out, float* lane_min) {
  for (index_t t = 0; t < kTile; ++t) lane_min[t] = kInfDist;
  for (index_t p = lo; p < hi; ++p) {
    const float* row = x + static_cast<std::size_t>(p) * stride;
    float dot[kTile] = {};
    for (index_t i = 0; i < d; ++i) {
      const float xi = row[i];
      const float* q = qt + static_cast<std::size_t>(i) * kTile;
      for (index_t t = 0; t < kTile; ++t) dot[t] += q[t] * xi;
    }
    float* o = out + static_cast<std::size_t>(p - lo) * kTile;
    for (index_t t = 0; t < kTile; ++t) {
      const float v = q_sq[t] + x_sq[p] - 2.0f * dot[t];
      o[t] = v > 0.0f ? v : 0.0f;
      if (o[t] < lane_min[t]) lane_min[t] = o[t];
    }
  }
}

inline float sq_l2_one(const float* q, const float* row, index_t d) {
  float acc = 0.0f;
  for (index_t i = 0; i < d; ++i) {
    const float diff = q[i] - row[i];
    acc += diff * diff;
  }
  return acc;
}

float rows_scalar(const float* q, index_t d, const float* x,
                  std::size_t stride, index_t lo, index_t hi, float* out) {
  float best = kInfDist;
  for (index_t p = lo; p < hi; ++p) {
    const float v =
        sq_l2_one(q, x + static_cast<std::size_t>(p) * stride, d);
    out[p - lo] = v;
    if (v < best) best = v;
  }
  return best;
}

inline float l1_one(const float* q, const float* row, index_t d) {
  float acc = 0.0f;
  for (index_t i = 0; i < d; ++i) acc += std::fabs(q[i] - row[i]);
  return acc;
}

inline float neg_dot_one(const float* q, const float* row, index_t d) {
  float acc = 0.0f;
  for (index_t i = 0; i < d; ++i) acc += q[i] * row[i];
  return -acc;
}

float rows_l1_scalar(const float* q, index_t d, const float* x,
                     std::size_t stride, index_t lo, index_t hi, float* out) {
  float best = kInfDist;
  for (index_t p = lo; p < hi; ++p) {
    const float v = l1_one(q, x + static_cast<std::size_t>(p) * stride, d);
    out[p - lo] = v;
    if (v < best) best = v;
  }
  return best;
}

float rows_ip_scalar(const float* q, index_t d, const float* x,
                     std::size_t stride, index_t lo, index_t hi, float* out) {
  float best = kInfDist;
  for (index_t p = lo; p < hi; ++p) {
    const float v =
        neg_dot_one(q, x + static_cast<std::size_t>(p) * stride, d);
    out[p - lo] = v;
    if (v < best) best = v;
  }
  return best;
}

inline float sq_l2_one_fp16(const float* q, const std::uint16_t* row,
                            index_t d) {
  float acc = 0.0f;
  for (index_t i = 0; i < d; ++i) {
    const float diff = q[i] - quant::fp16_decode(row[i]);
    acc += diff * diff;
  }
  return acc;
}

/// Fused dequant form (q_i - offset) - scale * code_i: one subtract and one
/// FMA-shaped multiply-subtract per feature — the same op count the vector
/// tables run, so the rounding model matches across ISAs.
inline float sq_l2_one_int8(const float* q, const std::int8_t* row, index_t d,
                            float scale, float offset) {
  float acc = 0.0f;
  for (index_t i = 0; i < d; ++i) {
    const float diff = (q[i] - offset) - scale * static_cast<float>(row[i]);
    acc += diff * diff;
  }
  return acc;
}

float rows_fp16_scalar(const float* q, index_t d, const std::uint16_t* x,
                       std::size_t stride, index_t lo, index_t hi,
                       float* out) {
  float best = kInfDist;
  for (index_t p = lo; p < hi; ++p) {
    const float v =
        sq_l2_one_fp16(q, x + static_cast<std::size_t>(p) * stride, d);
    out[p - lo] = v;
    if (v < best) best = v;
  }
  return best;
}

float rows_int8_scalar(const float* q, index_t d, const std::int8_t* x,
                       std::size_t stride, const float* scale,
                       const float* offset, index_t lo, index_t hi,
                       float* out) {
  float best = kInfDist;
  for (index_t p = lo; p < hi; ++p) {
    const float v = sq_l2_one_int8(
        q, x + static_cast<std::size_t>(p) * stride, d, scale[p], offset[p]);
    out[p - lo] = v;
    if (v < best) best = v;
  }
  return best;
}

/// The per-pair loop of Euclidean{}, one row at a time (feature order,
/// multiply then add), reading the row's lane of its block with a stride of
/// kLanes. The exact RBC does not call it: under the scalar table it keeps
/// the row-major functor loop, which runs faster than any scalar lane
/// variant measured (this one, or sixteen chains per block).
void l2_lanes_scalar(const float* q, index_t d, const float* lanes,
                     index_t n, float* out) {
  for (index_t j = 0; j < n; ++j) {
    const float* x = lanes +
                     static_cast<std::size_t>(j / kLanes) * d * kLanes +
                     j % kLanes;
    float acc = 0.0f;
    for (index_t i = 0; i < d; ++i) {
      const float diff = q[i] - x[static_cast<std::size_t>(i) * kLanes];
      acc += diff * diff;
    }
    out[j] = std::sqrt(acc);
  }
}

constexpr KernelOps kScalarOps = {tile_scalar,      tile_gemm_scalar,
                                  rows_scalar,      rows_l1_scalar,
                                  rows_ip_scalar,   rows_fp16_scalar,
                                  rows_int8_scalar, l2_lanes_scalar};

}  // namespace

const KernelOps* scalar_table() noexcept { return &kScalarOps; }

}  // namespace rbc::dispatch::detail
