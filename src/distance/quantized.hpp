// Compressed row storage for the dense scan tier (ROADMAP item 1): fp16 and
// int8 row codes with per-row dequantization parameters, built once at index
// time next to the float matrix the exact re-measure step keeps.
//
// The dense scans are memory-bandwidth-bound at AVX-512 widths, so the next
// raw-speed multiple comes from shrinking bytes-per-vector, not more FLOPs —
// the central lesson of the André fast-scan lineage (PAPERS.md). A quantized
// scan reads 2 (fp16) or 1 (int8) bytes per feature instead of 4 and
// dequantizes in registers, fused into the same squared-L2 accumulate the
// float `rows` kernels run (see the rows_fp16 / rows_int8 entries of
// dispatch::KernelOps).
//
// Exactness contract (the prefilter argument of kernel_scan.hpp, extended):
// the quantized kernel measures d(q, x̂) against the *dequantized* point x̂,
// not x. Per row we store err_r >= ||x_r - x̂_r||, so by the triangle
// inequality any x_r with d(q, x_r) <= B satisfies d(q, x̂_r) <= B + err_r.
// Scans therefore accept every kernel value inside
//   (B + err_r + fp_slack)^2 * (1 + tile_margin(d))
// and re-measure survivors with the scalar float metric — results stay
// bit-identical to the float32 path under every ISA. fp_slack covers the
// kernel's own dequantize-arithmetic rounding (see quantized_scan_rows).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/matrix.hpp"
#include "common/types.hpp"

namespace rbc::quant {

/// Row-store encodings of the unified API (IndexOptions::storage).
enum class Storage : int { kFloat32 = 0, kFp16 = 1, kInt8 = 2 };

/// Canonical name ("float32", "fp16", "int8").
const char* name(Storage storage) noexcept;

/// Resolves a storage name; returns false (leaving `out` untouched) for an
/// unknown name.
bool lookup(std::string_view name, Storage& out) noexcept;

/// Parses and validates a backend's requested storage mode against the set
/// it supports — the storage twin of metric::require, sharing its uniform
/// std::invalid_argument shape:
///   rbc::Index[<backend>]: unsupported storage '<s>' (supported: ...)
Storage require(const char* backend, std::string_view requested,
                std::span<const Storage> supported);
inline Storage require(const char* backend, std::string_view requested,
                       std::initializer_list<Storage> supported) {
  return require(backend, requested,
                 std::span<const Storage>(supported.begin(), supported.size()));
}

/// The names of `supported`, in the given order — what backends put in
/// IndexInfo::supported_storage.
std::vector<std::string> names(std::span<const Storage> supported);
inline std::vector<std::string> names(
    std::initializer_list<Storage> supported) {
  return names(std::span<const Storage>(supported.begin(), supported.size()));
}

// -------------------------------------------------- software fp16 codec ---
// IEEE binary16 with round-to-nearest-even, the reference the hardware
// converters (F16C VCVTPS2PH, AVX-512 VCVTPH2PS) agree with bit for bit —
// what keeps the scalar table's fp16 kernels byte-compatible with the SIMD
// tables over one shared code buffer.

std::uint16_t fp16_encode(float value) noexcept;
float fp16_decode(std::uint16_t code) noexcept;

// ----------------------------------------------------- quantized row store --

/// Compressed codes for one row-major matrix. Rows are packed contiguously
/// (stride == cols — no padding lanes); the float matrix the codes were
/// built from stays with the owning index for the exact re-measure step.
struct QuantizedStore {
  Storage mode = Storage::kFloat32;
  index_t rows = 0;
  index_t cols = 0;

  /// kFp16: rows * cols binary16 codes.
  std::vector<std::uint16_t> fp16;
  /// kInt8: rows * cols codes in [-127, 127] plus per-row affine dequant
  /// x̂_i = code_i * scale[r] + offset[r] (offset = row midpoint, scale =
  /// row range / 254 — chosen so every row value lands inside the code
  /// range and a constant row encodes exactly with scale 0).
  std::vector<std::int8_t> int8;
  std::vector<float> scale;
  std::vector<float> offset;

  /// Per-row reconstruction error: err[r] >= ||x_r - x̂_r|| (computed in
  /// double, inflated to absorb its own rounding). err_max = max over rows,
  /// the chunk-skip bound.
  std::vector<float> err;
  float err_max = 0.0f;
  /// Per-row magnitude bound for the int8 kernel's fused-dequant rounding
  /// slack (||x̂_r|| + 2 |offset_r| sqrt(d); 0 for fp16 — see
  /// quantized_scan_rows). amp_max = max over rows.
  std::vector<float> amp;
  float amp_max = 0.0f;

  /// True when this store holds codes a quantized scan can run on.
  bool active() const noexcept {
    return mode != Storage::kFloat32 && rows > 0;
  }
  std::size_t memory_bytes() const noexcept {
    return fp16.size() * sizeof(std::uint16_t) + int8.size() +
           (scale.size() + offset.size() + err.size() + amp.size()) *
               sizeof(float);
  }
};

/// Builds the compressed store for X under `mode` (kFloat32 returns an
/// inactive store). Deterministic: a pure function of the float rows, so
/// a saved index persists the storage tag alone and a load rebuilds the
/// codes.
QuantizedStore quantize(Storage mode, const Matrix<float>& X);

}  // namespace rbc::quant
