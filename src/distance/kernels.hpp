// Low-level distance kernels between two dense float vectors: the one scalar
// reference every metric functor (distance/metrics.hpp) computes with.
//
// Each kernel is a plain sequential loop — one multiply and one add per
// feature, accumulated in feature order — so a functor gives the same bits
// whatever -march the including translation unit is compiled for (rbc_core
// builds with -ffp-contract=off, so no multiply-add pair is fused). The
// vectorized forms live in the runtime-dispatched kernel layer
// (distance/dispatch.hpp): prefilter shapes whose candidates are re-measured
// with these functions, and the bit-exact `l2_lanes` shape, which
// reproduces sq_l2's per-pair order across lanes instead of across features.
#pragma once

#include <cmath>

#include "common/types.hpp"

namespace rbc::kernels {

inline float sq_l2(const float* a, const float* b, index_t d) {
  float acc = 0.0f;
  for (index_t i = 0; i < d; ++i) {
    const float diff = a[i] - b[i];
    acc += diff * diff;
  }
  return acc;
}

inline float l1(const float* a, const float* b, index_t d) {
  float acc = 0.0f;
  for (index_t i = 0; i < d; ++i) acc += std::fabs(a[i] - b[i]);
  return acc;
}

inline float linf(const float* a, const float* b, index_t d) {
  float acc = 0.0f;
  for (index_t i = 0; i < d; ++i) {
    const float diff = std::fabs(a[i] - b[i]);
    if (diff > acc) acc = diff;
  }
  return acc;
}

inline float dot(const float* a, const float* b, index_t d) {
  float acc = 0.0f;
  for (index_t i = 0; i < d; ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace rbc::kernels
