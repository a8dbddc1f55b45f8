// The scalar reference kernels (distance/kernels.hpp) and every shape x ISA
// of the runtime-dispatched kernel layer (distance/dispatch.hpp): the
// prefilter shapes within their documented margins, the l2_lanes shape bit
// for bit, across dimensionalities that exercise every tail-handling path.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "distance/dispatch.hpp"
#include "distance/kernels.hpp"
#include "distance/metrics.hpp"
#include "distance/quantized.hpp"

namespace rbc {
namespace {

std::vector<float> random_vec(index_t d, std::uint64_t seed) {
  std::vector<float> v(d);
  Rng rng(seed);
  for (auto& x : v) x = rng.uniform_float(-3.0f, 3.0f);
  return v;
}

TEST(Kernels, ZeroDimension) {
  const float x = 1.0f;
  EXPECT_EQ(kernels::sq_l2(&x, &x, 0), 0.0f);
  EXPECT_EQ(kernels::l1(&x, &x, 0), 0.0f);
  EXPECT_EQ(kernels::linf(&x, &x, 0), 0.0f);
  EXPECT_EQ(kernels::dot(&x, &x, 0), 0.0f);
}

TEST(Kernels, IdenticalVectorsGiveZeroDistance) {
  const auto v = random_vec(77, 42);
  EXPECT_EQ(kernels::sq_l2(v.data(), v.data(), 77), 0.0f);
  EXPECT_EQ(kernels::l1(v.data(), v.data(), 77), 0.0f);
  EXPECT_EQ(kernels::linf(v.data(), v.data(), 77), 0.0f);
}

TEST(Kernels, KnownValues) {
  const float a[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  const float b[4] = {3.0f, 4.0f, 0.0f, 0.0f};
  EXPECT_FLOAT_EQ(kernels::sq_l2(a, b, 4), 25.0f);
  EXPECT_FLOAT_EQ(kernels::l1(a, b, 4), 7.0f);
  EXPECT_FLOAT_EQ(kernels::linf(a, b, 4), 4.0f);
  EXPECT_FLOAT_EQ(kernels::dot(b, b, 4), 25.0f);
}

// ---------------------------------------- dispatched kernel layer fuzz ---
//
// Every compiled-and-runnable ISA table x every kernel shape must agree
// with the scalar reference within the documented margins
// (dispatch::tile_margin / gemm_margin_scale — the slack the re-measure
// prefilters inflate their bounds by). Row counts deliberately not
// multiples of the 8-row block, dims cover every tail path.

class DispatchFuzzTest : public ::testing::TestWithParam<index_t> {};

Matrix<float> random_points(index_t rows, index_t d, std::uint64_t seed) {
  Matrix<float> m(rows, d);
  Rng rng(seed);
  for (index_t i = 0; i < rows; ++i)
    for (index_t j = 0; j < d; ++j)
      m.at(i, j) = rng.uniform_float(-3.0f, 3.0f);
  return m;
}

std::vector<dispatch::Isa> runnable_isas() {
  std::vector<dispatch::Isa> isas;
  for (const dispatch::Isa isa :
       {dispatch::Isa::kScalar, dispatch::Isa::kAvx2,
        dispatch::Isa::kAvx512})
    if (dispatch::isa_available(isa)) isas.push_back(isa);
  return isas;
}

TEST_P(DispatchFuzzTest, TileShapesMatchScalarReference) {
  const index_t d = GetParam();
  const index_t rows = 53;  // not a multiple of anything interesting
  const Matrix<float> X = random_points(rows, d, 1'000 + d);
  const Matrix<float> Q = random_points(dispatch::kTile, d, 2'000 + d);

  const float* qrows[dispatch::kTile];
  for (index_t t = 0; t < dispatch::kTile; ++t) qrows[t] = Q.row(t);
  std::vector<float> qt(static_cast<std::size_t>(d) * dispatch::kTile);
  dispatch::pack_tile(qrows, dispatch::kTile, d, qt.data());
  float q_sq[dispatch::kTile];
  std::vector<float> x_sq(rows);
  for (index_t t = 0; t < dispatch::kTile; ++t)
    q_sq[t] = kernels::dot(Q.row(t), Q.row(t), d);
  for (index_t p = 0; p < rows; ++p)
    x_sq[p] = kernels::dot(X.row(p), X.row(p), d);

  const float mrel = dispatch::tile_margin(d);
  const float mabs = dispatch::gemm_margin_scale(d);
  for (const dispatch::Isa isa : runnable_isas()) {
    const dispatch::KernelOps& ops = *dispatch::ops_for(isa);
    std::vector<float> tile_out(static_cast<std::size_t>(rows) *
                                dispatch::kTile);
    std::vector<float> gemm_out(tile_out.size());
    float tile_min[dispatch::kTile], gemm_min[dispatch::kTile];
    ops.tile(qt.data(), d, X.data(), X.stride(), 0, rows, tile_out.data(),
             tile_min);
    ops.tile_gemm(qt.data(), q_sq, d, X.data(), X.stride(), x_sq.data(), 0,
                  rows, gemm_out.data(), gemm_min);
    for (index_t p = 0; p < rows; ++p)
      for (index_t t = 0; t < dispatch::kTile; ++t) {
        const float ref = kernels::sq_l2(Q.row(t), X.row(p), d);
        const std::size_t at =
            static_cast<std::size_t>(p) * dispatch::kTile + t;
        EXPECT_NEAR(tile_out[at], ref, 1e-6f + mrel * ref)
            << "tile " << dispatch::isa_name(isa) << " d=" << d;
        EXPECT_NEAR(gemm_out[at], ref,
                    1e-6f + mrel * ref + mabs * (q_sq[t] + x_sq[p]))
            << "tile_gemm " << dispatch::isa_name(isa) << " d=" << d;
        // The reported lane minimum must never exceed any written value
        // (it gates whole-lane skips — an overshoot would drop candidates).
        EXPECT_LE(tile_min[t], tile_out[at]);
        EXPECT_LE(gemm_min[t], gemm_out[at]);
      }
  }
}

TEST_P(DispatchFuzzTest, RowShapesMatchScalarReference) {
  const index_t d = GetParam();
  const index_t rows = 61;  // 7 full 8-row blocks + a 5-row remainder
  const Matrix<float> X = random_points(rows, d, 3'000 + d);
  const Matrix<float> Q = random_points(1, d, 4'000 + d);

  const float mrel = dispatch::tile_margin(d);
  for (const dispatch::Isa isa : runnable_isas()) {
    const dispatch::KernelOps& ops = *dispatch::ops_for(isa);
    std::vector<float> out(rows);
    ops.rows(Q.row(0), d, X.data(), X.stride(), 0, rows, out.data());
    for (index_t p = 0; p < rows; ++p) {
      const float ref = kernels::sq_l2(Q.row(0), X.row(p), d);
      EXPECT_NEAR(out[p], ref, 1e-6f + mrel * ref)
          << "rows " << dispatch::isa_name(isa) << " d=" << d << " p=" << p;
    }
    // Offset start: exercises lo != 0 block alignment.
    if (rows > 9) {
      ops.rows(Q.row(0), d, X.data(), X.stride(), 9, rows, out.data());
      for (index_t p = 9; p < rows; ++p) {
        const float ref = kernels::sq_l2(Q.row(0), X.row(p), d);
        EXPECT_NEAR(out[p - 9], ref, 1e-6f + mrel * ref)
            << "rows(lo=9) " << dispatch::isa_name(isa) << " d=" << d;
      }
    }
  }
}

// The metric shapes of the unified API's runtime metrics: Manhattan
// (rows_l1, relative tolerance — sums of non-negative terms) and negated
// dot (rows_ip, absolute tolerance scaled by ||q||*||x|| — cancellation
// makes relative bounds meaningless).
TEST_P(DispatchFuzzTest, L1AndIpShapesMatchScalarReference) {
  const index_t d = GetParam();
  const index_t rows = 61;  // 7 full 8-row blocks + a 5-row remainder
  const Matrix<float> X = random_points(rows, d, 5'000 + d);
  const Matrix<float> Q = random_points(1, d, 6'000 + d);
  const float* q = Q.row(0);

  const float mrel = dispatch::tile_margin(d);
  const float q_norm = std::sqrt(kernels::dot(q, q, d));
  for (const dispatch::Isa isa : runnable_isas()) {
    const dispatch::KernelOps& ops = *dispatch::ops_for(isa);
    std::vector<float> out(rows);

    const float l1_min =
        ops.rows_l1(q, d, X.data(), X.stride(), 0, rows, out.data());
    float written_min = kInfDist;
    for (index_t p = 0; p < rows; ++p) {
      const float ref = kernels::l1(q, X.row(p), d);
      EXPECT_NEAR(out[p], ref, 1e-6f + mrel * ref)
          << "rows_l1 " << dispatch::isa_name(isa) << " d=" << d;
      written_min = std::min(written_min, out[p]);
    }
    EXPECT_EQ(l1_min, written_min) << "rows_l1 min " << dispatch::isa_name(isa);

    const float ip_min =
        ops.rows_ip(q, d, X.data(), X.stride(), 0, rows, out.data());
    written_min = kInfDist;
    for (index_t p = 0; p < rows; ++p) {
      const float ref = -kernels::dot(q, X.row(p), d);
      const float x_norm =
          std::sqrt(kernels::dot(X.row(p), X.row(p), d));
      EXPECT_NEAR(out[p], ref, 1e-6f + mrel * q_norm * x_norm)
          << "rows_ip " << dispatch::isa_name(isa) << " d=" << d;
      written_min = std::min(written_min, out[p]);
    }
    EXPECT_EQ(ip_min, written_min) << "rows_ip min " << dispatch::isa_name(isa);

    // Offset start: lo != 0 block alignment for both metric row shapes.
    if (rows > 9) {
      ops.rows_l1(q, d, X.data(), X.stride(), 9, rows, out.data());
      for (index_t p = 9; p < rows; ++p) {
        const float ref = kernels::l1(q, X.row(p), d);
        EXPECT_NEAR(out[p - 9], ref, 1e-6f + mrel * ref)
            << "rows_l1(lo=9) " << dispatch::isa_name(isa) << " d=" << d;
      }
    }
  }
}

// The compressed-tier shapes (rows_fp16, rows_int8) measure against the
// *dequantized* point x̂, so the reference is the double-precision distance
// to x̂ — not to x. Edge rows bake in the codec's hard cases: a constant row
// (int8 scale 0), fp16 overflow (codes go ±inf), float denormals (flush to
// ±0 in half), and a huge-scale int8 row where the fused dequant's
// cancellation slack matters.
TEST_P(DispatchFuzzTest, QuantizedShapesMatchDequantizedReference) {
  const index_t d = GetParam();
  const index_t rows = 61;  // 7 full 8-row blocks + a 5-row remainder
  Matrix<float> X = random_points(rows, d, 7'000 + d);
  for (index_t j = 0; j < d; ++j) {
    X.at(0, j) = 2.5f;                                // constant row
    X.at(1, j) = (j % 2 ? 1.0f : -1.0f) * 7.0e4f;     // fp16 overflow
    X.at(2, j) = (j % 2 ? 1.0f : -1.0f) * 3.0e-40f;   // denormal floats
    X.at(3, j) = j == 0 ? 1.0e4f : 1.0e-4f;           // huge int8 scale
  }
  const Matrix<float> Q = random_points(1, d, 8'000 + d);
  const float* q = Q.row(0);
  const double q_norm = std::sqrt(
      static_cast<double>(kernels::dot(q, q, d)));

  const float mrel = dispatch::tile_margin(d);
  for (const quant::Storage mode :
       {quant::Storage::kFp16, quant::Storage::kInt8}) {
    const quant::QuantizedStore store = quant::quantize(mode, X);
    // Distance to the dequantized row, accumulated in double.
    const auto ref_l2 = [&](index_t p) {
      double sq = 0.0;
      for (index_t j = 0; j < d; ++j) {
        const std::size_t at = static_cast<std::size_t>(p) * d + j;
        const double xq =
            mode == quant::Storage::kFp16
                ? static_cast<double>(quant::fp16_decode(store.fp16[at]))
                : static_cast<double>(store.int8[at]) * store.scale[p] +
                      store.offset[p];
        const double diff = static_cast<double>(q[j]) - xq;
        sq += diff * diff;
      }
      return std::sqrt(sq);
    };
    // The fused int8 dequant's rounding slack scales with the row's
    // magnitude bound (see quantized_scan_rows); fp16 decodes exactly.
    const auto tol = [&](index_t p, double ref) {
      const double amp = mode == quant::Storage::kInt8
                             ? static_cast<double>(store.amp[p])
                             : 0.0;
      return 1e-6 + mrel * ref + 2e-6 * (q_norm + amp);
    };

    for (const dispatch::Isa isa : runnable_isas()) {
      const dispatch::KernelOps& ops = *dispatch::ops_for(isa);
      const std::string what = std::string(quant::name(mode)) + " " +
                               dispatch::isa_name(isa) +
                               " d=" + std::to_string(d);
      std::vector<float> out(rows, -1.0f);
      const float ret =
          mode == quant::Storage::kFp16
              ? ops.rows_fp16(q, d, store.fp16.data(), d, 0, rows,
                              out.data())
              : ops.rows_int8(q, d, store.int8.data(), d,
                              store.scale.data(), store.offset.data(), 0,
                              rows, out.data());
      float written_min = kInfDist;
      for (index_t p = 0; p < rows; ++p) {
        const double ref = ref_l2(p);
        if (std::isinf(ref)) {
          EXPECT_EQ(out[p], kInfDist) << what << " p=" << p;
        } else {
          EXPECT_NEAR(std::sqrt(static_cast<double>(out[p])), ref,
                      tol(p, ref))
              << what << " p=" << p;
        }
        written_min = std::min(written_min, out[p]);
      }
      // The min-return contract gates chunk skips: it must equal the min
      // of the written values exactly (an overshoot would drop points).
      EXPECT_EQ(ret, written_min) << what;

      // Offset start: lo != 0 block alignment.
      if (rows > 9) {
        if (mode == quant::Storage::kFp16) {
          ops.rows_fp16(q, d, store.fp16.data(), d, 9, rows, out.data());
        } else {
          ops.rows_int8(q, d, store.int8.data(), d, store.scale.data(),
                        store.offset.data(), 9, rows, out.data());
        }
        for (index_t p = 9; p < rows; ++p) {
          const double ref = ref_l2(p);
          if (std::isinf(ref)) continue;
          EXPECT_NEAR(std::sqrt(static_cast<double>(out[p - 9])), ref,
                      tol(p, ref))
              << what << "(lo=9) p=" << p;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, DispatchFuzzTest,
                         ::testing::Values(1, 2, 7, 8, 15, 16, 17, 21, 31,
                                           32, 54, 74, 128, 333));

// ------------------------------------------- bit-exact l2_lanes shape ---
//
// Contract 2 of dispatch.hpp: on every runnable ISA each l2_lanes output
// equals Euclidean{}(q, x) bit for bit — the exact RBC stores these values
// (owners, list distances, psi) and prunes with them, so "close" is a bug.
// A fused multiply-add anywhere in a lane (e.g. from FP contraction under
// -mfma) changes the rounding of almost every random input and fails here.
//
// Rows are q plus a per-row perturbation of magnitude 2^e, with e swept
// from the smallest subnormal to past the float range, across query scales
// from subnormal to 2^70: differences that vanish, subnormal differences
// and products, ordinary values, and sums that overflow to +inf. Rows equal
// to q (distance 0) and plain random rows ride along. Row counts cover a
// partial first block, exact blocks, and every grouping remainder.

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

class LanesFuzzTest : public ::testing::TestWithParam<index_t> {};

TEST_P(LanesFuzzTest, L2LanesEqualsEuclideanBitwise) {
  const index_t d = GetParam();
  constexpr int kExponents[] = {-149, -140, -130, -100, -75, -70, -64,
                                -40,  -20,  0,    20,   40,  62,  63,
                                64,   70};
  constexpr int kQueryScales[] = {-140, -70, 0, 60, 70};
  constexpr index_t kRowCounts[] = {1, 15, 16, 17, 32, 47, 48, 52, 63, 100, 131};
  const Euclidean euclid{};
  for (const int qs : kQueryScales) {
    Rng rng(static_cast<std::uint64_t>(d) * 1'000 + qs + 200);
    std::vector<float> q(d);
    for (auto& v : q) v = std::ldexp(rng.uniform_float(-1.0f, 1.0f), qs);
    for (const index_t n : kRowCounts) {
      Matrix<float> X(n, d);
      for (index_t j = 0; j < n; ++j) {
        const index_t kind = j % (std::size(kExponents) + 2);
        for (index_t i = 0; i < d; ++i) {
          if (kind == std::size(kExponents))
            X.at(j, i) = q[i];  // identical row: distance 0
          else if (kind == std::size(kExponents) + 1)
            X.at(j, i) = rng.uniform_float(-3.0f, 3.0f);
          else
            X.at(j, i) =
                q[i] + std::ldexp(rng.uniform_float(-1.0f, 1.0f),
                                  kExponents[kind]);
        }
      }
      std::vector<float> lanes(dispatch::lanes_size(n, d));
      dispatch::pack_lanes(X.data(), X.stride(), n, d, lanes.data());
      for (const dispatch::Isa isa : runnable_isas()) {
        // One sentinel block past n: the shape must write exactly n values.
        std::vector<float> out(n + dispatch::kLanes, -1.0f);
        dispatch::ops_for(isa)->l2_lanes(q.data(), d, lanes.data(), n,
                                          out.data());
        for (index_t j = 0; j < n; ++j) {
          const float ref = euclid(q.data(), X.row(j), d);
          ASSERT_EQ(bits(out[j]), bits(ref))
              << dispatch::isa_name(isa) << " d=" << d << " n=" << n
              << " row=" << j << " query scale 2^" << qs << ": " << out[j]
              << " vs " << ref;
        }
        for (index_t j = n; j < n + dispatch::kLanes; ++j)
          ASSERT_EQ(out[j], -1.0f) << dispatch::isa_name(isa)
                                   << " wrote past n=" << n;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, LanesFuzzTest,
                         ::testing::Values(1, 7, 15, 16, 17, 21, 54, 74,
                                           129));

// The software binary16 codec underpinning the scalar table (and the err
// bounds of every store): known encodings, saturation, subnormals, and
// round-to-nearest-even at the exact midpoint.
TEST(QuantizedCodec, Fp16EncodesLikeTheIeeeReference) {
  EXPECT_EQ(quant::fp16_encode(0.0f), 0x0000u);
  EXPECT_EQ(quant::fp16_encode(-0.0f), 0x8000u);
  EXPECT_EQ(quant::fp16_encode(1.0f), 0x3C00u);
  EXPECT_EQ(quant::fp16_encode(-2.0f), 0xC000u);
  EXPECT_EQ(quant::fp16_encode(65504.0f), 0x7BFFu);  // largest finite half
  EXPECT_EQ(quant::fp16_encode(65520.0f), 0x7C00u);  // overflows to +inf
  EXPECT_EQ(quant::fp16_encode(-1.0e6f), 0xFC00u);
  EXPECT_EQ(quant::fp16_decode(0x7C00u), kInfDist);
  // Smallest subnormal half (2^-24) and below-half-ulp flush to zero.
  EXPECT_EQ(quant::fp16_encode(5.9604645e-8f), 0x0001u);
  EXPECT_EQ(quant::fp16_encode(1.0e-9f), 0x0000u);
  // Midpoint 1 + 2^-11 is equidistant between 1.0 and 1 + 2^-10: RNE picks
  // the even code (1.0); the next representable float above rounds up.
  EXPECT_EQ(quant::fp16_encode(1.00048828125f), 0x3C00u);
  EXPECT_EQ(quant::fp16_encode(std::nextafter(1.00048828125f, 2.0f)),
            0x3C01u);
  // Round-trip: every half code decodes then re-encodes to itself (skip
  // NaNs — payload bits are not preserved exactly).
  for (std::uint32_t code = 0; code <= 0xFFFFu; ++code) {
    const float value = quant::fp16_decode(static_cast<std::uint16_t>(code));
    if (std::isnan(value)) continue;
    EXPECT_EQ(quant::fp16_encode(value), code) << "code " << code;
  }
}

// The stored per-row err must be a true upper bound on ||x - x̂|| — the
// whole exactness argument rides on it — and int8 codes must stay in the
// clamped [-127, 127] range with exact constant-row encodings.
TEST(QuantizedCodec, StoreErrBoundsTheReconstructionResidual) {
  const index_t rows = 37, d = 21;
  Matrix<float> X = random_points(rows, d, 11'000);
  for (index_t j = 0; j < d; ++j) {
    X.at(0, j) = -1.25f;                         // constant row
    X.at(1, j) = j == 0 ? 7.0e4f : -7.0e4f;      // fp16-saturating range
  }
  for (const quant::Storage mode :
       {quant::Storage::kFp16, quant::Storage::kInt8}) {
    const quant::QuantizedStore store = quant::quantize(mode, X);
    EXPECT_TRUE(store.active());
    EXPECT_EQ(store.rows, rows);
    EXPECT_EQ(store.cols, d);
    float err_max = 0.0f, amp_max = 0.0f;
    for (index_t p = 0; p < rows; ++p) {
      double sq = 0.0;
      for (index_t j = 0; j < d; ++j) {
        const std::size_t at = static_cast<std::size_t>(p) * d + j;
        double xq;
        if (mode == quant::Storage::kFp16) {
          xq = quant::fp16_decode(store.fp16[at]);
        } else {
          EXPECT_GE(store.int8[at], -127);
          EXPECT_LE(store.int8[at], 127);
          xq = static_cast<double>(store.int8[at]) * store.scale[p] +
               store.offset[p];
        }
        const double diff = X.at(p, j) - xq;
        sq += diff * diff;
      }
      if (std::isinf(sq)) continue;  // saturated fp16 row: err is +inf too
      EXPECT_LE(std::sqrt(sq), store.err[p]) << quant::name(mode) << " row "
                                             << p;
      err_max = std::max(err_max, store.err[p]);
      if (mode == quant::Storage::kInt8)
        amp_max = std::max(amp_max, store.amp[p]);
    }
    EXPECT_GE(store.err_max, err_max);
    EXPECT_GE(store.amp_max, amp_max);
  }
  // Constant row encodes exactly under int8 (scale 0, dequant == offset).
  const quant::QuantizedStore store = quant::quantize(quant::Storage::kInt8, X);
  EXPECT_EQ(store.scale[0], 0.0f);
  EXPECT_EQ(store.offset[0], -1.25f);
}

TEST(Dispatch, ScalarAlwaysCompiledAndDetectionConsistent) {
  EXPECT_TRUE(dispatch::isa_compiled(dispatch::Isa::kScalar));
  EXPECT_TRUE(dispatch::isa_available(dispatch::Isa::kScalar));
  EXPECT_NE(dispatch::ops_for(dispatch::Isa::kScalar), nullptr);
  // The detected ISA must be one the dispatcher can actually run.
  EXPECT_TRUE(dispatch::isa_available(dispatch::detected_isa()));
  // fast_kernel() is exactly "active != scalar".
  EXPECT_EQ(dispatch::fast_kernel(),
            dispatch::active_isa() != dispatch::Isa::kScalar);
}

TEST(Dispatch, ForceIsaRoundTripsAndIgnoresUnavailable) {
  const dispatch::Isa detected = dispatch::detected_isa();
  EXPECT_EQ(dispatch::force_isa(dispatch::Isa::kScalar),
            dispatch::Isa::kScalar);
  EXPECT_EQ(dispatch::active_isa(), dispatch::Isa::kScalar);
  for (const dispatch::Isa isa :
       {dispatch::Isa::kAvx2, dispatch::Isa::kAvx512}) {
    const dispatch::Isa got = dispatch::force_isa(isa);
    if (dispatch::isa_available(isa))
      EXPECT_EQ(got, isa);
    else
      EXPECT_EQ(got, dispatch::Isa::kScalar);  // unavailable: unchanged
    dispatch::force_isa(dispatch::Isa::kScalar);
  }
  dispatch::clear_forced_isa();
  EXPECT_EQ(dispatch::active_isa(), detected);
}

TEST(Dispatch, ZeroDimensionAndEmptyRangesAreSafe) {
  const float x = 1.0f;
  float out[4] = {-1.0f, -1.0f, -1.0f, -1.0f};
  for (const dispatch::Isa isa : runnable_isas()) {
    const dispatch::KernelOps& ops = *dispatch::ops_for(isa);
    ops.rows(&x, 0, &x, 1, 0, 1, out);  // d == 0: distance is 0
    EXPECT_EQ(out[0], 0.0f) << dispatch::isa_name(isa);
    ops.rows(&x, 1, &x, 1, 0, 0, out);  // empty row range: no write
    ops.rows_l1(&x, 0, &x, 1, 0, 1, out);  // metric shapes: same contract
    EXPECT_EQ(out[0], 0.0f) << dispatch::isa_name(isa);
    ops.rows_ip(&x, 0, &x, 1, 0, 1, out);
    EXPECT_EQ(out[0], 0.0f) << dispatch::isa_name(isa);
    ops.rows_l1(&x, 1, &x, 1, 0, 0, out);
    ops.rows_ip(&x, 1, &x, 1, 0, 0, out);
    ops.l2_lanes(&x, 0, nullptr, 1, out);  // d == 0: distance is 0
    EXPECT_EQ(out[0], 0.0f) << dispatch::isa_name(isa);
    out[0] = -1.0f;
    ops.l2_lanes(&x, 1, nullptr, 0, out);  // no rows: no write
    EXPECT_EQ(out[0], -1.0f) << dispatch::isa_name(isa);
  }
}

}  // namespace
}  // namespace rbc
