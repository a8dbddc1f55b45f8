// Runtime-dispatched SIMD distance-kernel layer — one ISA decision for every
// hot scan in the library (paper §3: brute-force search "is virtually
// matrix-matrix multiply" and must be engineered like one).
//
// The library previously carried a single AVX2 kernel compiled behind a
// configure-time probe, reachable only from the exact index's large-batch
// path; every other scan (brute force, RBC stage 1, one-shot, small batches)
// ran whatever the default ISA produced. This layer replaces that with three
// per-ISA translation units — scalar (always), AVX2+FMA and AVX-512F (when
// the compiler can target them) — selected **at runtime** from CPUID, so one
// binary runs the best kernels the executing host actually has.
//
// Two contracts. Every shape below belongs to exactly one of them.
//
// 1. Prefilter shapes (everything except l2_lanes). Outputs differ from the
//    scalar reference (distance/kernels.hpp) by association-order and FMA
//    rounding, bounded by tile_margin / gemm_margin_scale below. Callers
//    compare against an inflated bound and re-measure every surviving
//    candidate with the scalar metric, so returned (distance, id) results
//    are bit-identical to the never-vectorized path under every ISA. Used
//    by every candidate scan: brute force, RBC stage-3 list scans, one-shot
//    probes, the compressed tier and MutableIndex's delta scan (through
//    bruteforce/kernel_scan.hpp or bf_knn's tiles).
//    tests/test_kernels.cpp fuzzes the raw kernels against their margins;
//    tests/test_rbc_exact.cpp's ForcedIsaParity cases pin end-to-end parity
//    per ISA.
//
// 2. The bit-exact lane shape (l2_lanes). Vectorized across rows instead
//    of across features: each lane runs the reference's per-pair loop —
//    feature order, a separate multiply and add (no contraction; rbc_core
//    builds with -ffp-contract=off), then a correctly rounded sqrt — so
//    every output equals Euclidean{}(q, x) bit for bit on every ISA and
//    needs no re-measure. Used where the distances themselves are the
//    product: the exact RBC's BF(X, R) at build (owners, list distances,
//    psi) and BF(q, R) in stage 1 (the pruning bounds), on the SIMD tables.
//    Under the scalar table the RBC keeps the functor loop over row-major
//    rows: the scalar l2_lanes is that loop read with a stride, and slower.
//
// Prefilter shapes (all squared L2 — the form every dense scan reduces to):
//
//   tile       16 transposed queries x database rows. Each row load is
//              amortized 16 ways across independent FMA chains. No library
//              scan calls it (bf_knn's tiles run tile_gemm); the kernel
//              tests and the micro bench measure it.
//   tile_gemm  the same tile in the GEMM formulation of §3,
//              ||q||^2 + ||x||^2 - 2 q.x, with both norms precomputed.
//              Drops the per-element subtract, the fastest form when row
//              norms can be cached (the bruteforce backend caches them at
//              build, RowNormsCache). bf_knn is its one caller: every
//              squared-L2 group of 8 to 16 queries runs one tile per row
//              chunk, a partial tile included.
//   rows       one query x a block of 8 consecutive rows, each row with its
//              own accumulator chain. What makes single-query scans stop
//              being latency-bound: a plain scan has one dependent FMA
//              chain, this one has eight. Its callers: bf_knn's groups of
//              fewer than 8 queries and its L1/ip/quantized groups, the RBC
//              list scans and the delta scan. Every single-query scan reads
//              contiguous rows, so there is no index-array form.
//
// Metric variants (the unified API's runtime-selectable metrics,
// api/metrics.hpp): the single-query shape additionally ships as
//
//   rows_l1    Manhattan distance, sum |q_i - x_i|;
//   rows_ip    negated inner product -<q, x> — ascending order ranks the
//              largest dot product first, so every heap/merge structure
//              works unchanged.
//
// Compressed variants (the quantized scan tier, distance/quantized.hpp):
//
//   rows_fp16  squared L2 over binary16 row codes (2 B per feature),
//              dequantized in registers;
//   rows_int8  squared L2 over int8 codes with per-row scale/offset (1 B
//              per feature), fused dequantize-and-accumulate.
//
// The tile shapes stay squared-L2 only (the GEMM formulation has no L1
// analogue); cosine runs entirely through the L2 shapes on normalized rows.
//
// Bit-exact shape:
//
//   l2_lanes   one query x rows stored dimension-major in blocks of kLanes
//              (pack_lanes). AVX-512 runs a block as one 16-lane register,
//              AVX2 as two 8-lane halves, the scalar table as the per-pair
//              loop. tests/test_kernels.cpp fuzzes it bitwise against
//              Euclidean{}; tests/test_rbc_exact.cpp rebuilds the exact
//              index under every ISA and compares lists, psi and saved bytes.
//
// Selection: active_isa() == the best compiled-in ISA the CPU reports,
// unless overridden by the RBC_FORCE_ISA environment variable
// ("scalar" | "avx2" | "avx512"; unknown or unavailable values are ignored)
// or programmatically by force_isa() (tests, benches).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"

namespace rbc::dispatch {

/// Instruction sets a kernel table can be built for, worst to best.
enum class Isa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

inline constexpr int kNumIsas = 3;

/// Queries per tile for the tile/tile_gemm shapes. 16 = two 8-lane AVX2
/// accumulators or one 16-lane AVX-512 accumulator per database row.
inline constexpr index_t kTile = 16;

/// Rows processed per block by the `rows` shape (8 independent accumulator
/// chains — enough to hide FMA latency on every supported ISA).
inline constexpr index_t kRowBlock = 8;

/// Rows per block of the lane-blocked layout the `l2_lanes` shape reads:
/// one 16-lane AVX-512 register, or two 8-lane AVX2 halves.
inline constexpr index_t kLanes = 16;

/// One ISA's kernel table. `x` is the base pointer of a row-major matrix
/// whose rows are `stride` floats apart (rbc::Matrix layout: padding lanes
/// are zero, but kernels only ever read the first `d` features). All
/// outputs are squared L2 distances.
struct KernelOps {
  /// out[(p - lo) * kTile + t] = ||q_t - x_p||^2 for rows p in [lo, hi).
  /// `qt` is the d x kTile transposed query tile (see pack_tile).
  /// `lane_min[t]` receives the per-lane minimum over the row range (+inf
  /// for an empty range): callers filtering lanes against heap bounds skip
  /// a lane's whole filter pass when its minimum already misses — the
  /// common case once heaps have warmed up.
  void (*tile)(const float* qt, index_t d, const float* x, std::size_t stride,
               index_t lo, index_t hi, float* out, float* lane_min);

  /// GEMM form of `tile`: out = q_sq[t] + x_sq[p] - 2 q_t.x_p, clamped at 0.
  /// `q_sq` holds the kTile per-lane squared norms, `x_sq[p]` the row norms
  /// (indexed by absolute row id p). `lane_min` as in `tile`.
  void (*tile_gemm)(const float* qt, const float* q_sq, index_t d,
                    const float* x, std::size_t stride, const float* x_sq,
                    index_t lo, index_t hi, float* out, float* lane_min);

  /// out[p - lo] = ||q - x_p||^2 for rows p in [lo, hi). Returns the
  /// minimum of the written values (+inf for an empty range): callers
  /// filtering against a bound skip the whole block without reading `out`
  /// when the minimum already misses it — the common case once a heap has
  /// warmed up.
  float (*rows)(const float* q, index_t d, const float* x, std::size_t stride,
                index_t lo, index_t hi, float* out);

  /// Manhattan variant of `rows`: out = sum_i |q_i - x_i|. Same signature
  /// and min-return contract.
  float (*rows_l1)(const float* q, index_t d, const float* x,
                   std::size_t stride, index_t lo, index_t hi, float* out);

  /// Negated-inner-product variants: out = -<q, x_p>. Outputs may be
  /// negative; the returned minimum is the best (largest) dot product.
  /// Callers filtering against a bound must add an absolute slack scaled
  /// by ||q|| * ||x|| (cancellation error is relative to the magnitudes,
  /// not the result — see kernel_scan.hpp).
  float (*rows_ip)(const float* q, index_t d, const float* x,
                   std::size_t stride, index_t lo, index_t hi, float* out);

  /// Compressed scan tier (distance/quantized.hpp): fused
  /// dequantize-and-accumulate squared L2 over binary16 row codes. Same
  /// blocking and min-return contract as `rows`; `x` is a packed
  /// code matrix whose rows are `stride` codes apart. Half decode is exact
  /// in float, so the rounding model (and tile_margin) matches `rows`.
  float (*rows_fp16)(const float* q, index_t d, const std::uint16_t* x,
                     std::size_t stride, index_t lo, index_t hi, float* out);

  /// int8 variants: row p dequantizes as x̂_i = codes_i * scale[p] +
  /// offset[p] (scale/offset indexed by absolute row id), accumulated in
  /// the fused form ((q_i - offset[p]) - scale[p] * codes_i)^2. The two
  /// subtractions can cancel, so callers add an absolute slack scaled by
  /// the row magnitudes on top of tile_margin (see quantized_scan_rows in
  /// kernel_scan.hpp).
  float (*rows_int8)(const float* q, index_t d, const std::int8_t* x,
                     std::size_t stride, const float* scale,
                     const float* offset, index_t lo, index_t hi, float* out);

  /// Bit-exact Euclidean distances (contract 2 in the file comment):
  /// out[j] = Euclidean{}(q, x_j) for j in [0, n), bit for bit, where the
  /// n rows are stored lane-blocked in `lanes` (pack_lanes; lanes_size(n, d)
  /// floats). Writes exactly n values; padding lanes are never stored.
  void (*l2_lanes)(const float* q, index_t d, const float* lanes, index_t n,
                   float* out);
};

/// Human-readable ISA name ("scalar" / "avx2" / "avx512").
const char* isa_name(Isa isa) noexcept;

/// True when the translation unit for `isa` was compiled with real kernels
/// (the compiler supported the flags; see RBC_SIMD in CMakeLists.txt).
bool isa_compiled(Isa isa) noexcept;

/// True when `isa` is compiled in AND the executing CPU supports it — i.e.
/// force_isa(isa) would actually take effect.
bool isa_available(Isa isa) noexcept;

/// Best available ISA on this host, ignoring any override.
Isa detected_isa() noexcept;

/// The ISA every dispatched scan currently uses: the forced override when
/// one is set (RBC_FORCE_ISA at first use, or force_isa()), else
/// detected_isa().
Isa active_isa() noexcept;

/// Pins the dispatch to `isa` for the rest of the process (or until the
/// next call). Ignored (keeping the current selection) when `isa` is not
/// available. Returns the ISA actually active afterwards. Thread-safe, but
/// intended for tests and benches — not for flipping mid-search.
Isa force_isa(Isa isa) noexcept;

/// Drops any override (programmatic or RBC_FORCE_ISA) and returns to
/// detected_isa().
void clear_forced_isa() noexcept;

/// Kernel table of active_isa(). The reference stays valid forever (tables
/// are static); re-fetch after force_isa() to pick up a change.
const KernelOps& ops() noexcept;

/// Kernel table for a specific ISA; null when !isa_compiled(isa). Lets
/// benches and parity tests exercise every compiled table regardless of the
/// active selection (callers must still check isa_available before
/// *running* a SIMD table).
const KernelOps* ops_for(Isa isa) noexcept;

/// True when the active ISA beats scalar — the signal callers use to decide
/// whether blocked/tiled layouts are worth assembling (replaces the old
/// configure-time blocked::fast_kernel()).
inline bool fast_kernel() noexcept { return active_isa() != Isa::kScalar; }

/// Fills a d x kTile transposed tile from `count` query rows
/// (count <= kTile); unused lanes duplicate the first row so every lane
/// computes something harmless. `qt` must hold d * kTile floats.
void pack_tile(const float* const* rows, index_t count, index_t d, float* qt);

/// Floats the lane-blocked layout of n rows x d features occupies: n
/// rounded up to whole kLanes blocks, d * kLanes floats per block.
inline std::size_t lanes_size(index_t n, index_t d) noexcept {
  return static_cast<std::size_t>((n + kLanes - 1) / kLanes) * kLanes * d;
}

/// Packs n row-major rows (`stride` floats apart) into the lane-blocked
/// layout `l2_lanes` reads: block b holds rows [b * kLanes, (b+1) * kLanes)
/// dimension-major, lanes[(b * d + i) * kLanes + l] = x[b * kLanes + l][i].
/// Padding lanes of the last block are zero. `lanes` must hold
/// lanes_size(n, d) floats.
void pack_lanes(const float* x, std::size_t stride, index_t n, index_t d,
                float* lanes);

// ------------------------------------------------------------- tolerances ---
//
// Callers filtering with prefilter-shape outputs must inflate their
// squared-distance bound by these margins; anything inside the inflated
// bound is re-measured with the scalar metric (contract 1 in the file
// comment). l2_lanes outputs are exact and need none.

/// Relative margin covering association-order + FMA-contraction rounding of
/// the difference-form kernels (tile/rows): sums of non-negative
/// terms, so the relative error is bounded by ~d ulps regardless of
/// summation order. Keep if  approx <= bound_sq * (1 + tile_margin(d)).
inline float tile_margin(index_t d) noexcept {
  return 1e-5f + 4e-7f * static_cast<float>(d);
}

/// Absolute-margin scale for the GEMM-form kernel, whose cancellation error
/// is relative to the norm magnitudes rather than to the distance. Keep if
///   approx <= bound_sq * (1 + tile_margin(d))
///             + gemm_margin_scale(d) * (q_sq + x_sq).
inline float gemm_margin_scale(index_t d) noexcept {
  return 1e-5f + 4e-7f * static_cast<float>(d);
}

}  // namespace rbc::dispatch
