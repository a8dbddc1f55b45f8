// Row-major, padded, aligned 2-D container: the canonical representation of a
// point set (database, query batch, representative set) throughout the library.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstring>
#include <span>

#include "common/aligned.hpp"
#include "common/types.hpp"

namespace rbc {

/// Dense row-major matrix of T with rows padded to a multiple of 16 elements.
///
/// Invariants:
///  * every row starts at a 64-byte aligned address;
///  * padding lanes (columns in [cols, stride)) are zero and stay zero, so
///    SIMD distance kernels may read full stride-width rows without masking
///    (|0-0| contributes nothing to any shipped metric).
///
/// Rows are points, columns are features, matching the paper's BF(Q, X)
/// convention where both arguments are point sets.
template <class T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(index_t rows, index_t cols) : Matrix(rows, cols, /*zero=*/true) {}

  /// A rows x cols matrix whose storage is left uninitialized, for a writer
  /// that fills every row with set_row before handing it out: the padding
  /// invariant then holds without a zero-fill pass first.
  static Matrix uninitialized(index_t rows, index_t cols) {
    return Matrix(rows, cols, /*zero=*/false);
  }

  /// Number of points.
  index_t rows() const noexcept { return rows_; }
  /// Number of features per point.
  index_t cols() const noexcept { return cols_; }
  /// Allocated row width in elements (>= cols, multiple of 16).
  index_t stride() const noexcept { return stride_; }
  bool empty() const noexcept { return rows_ == 0; }

  T* row(index_t i) noexcept {
    assert(i < rows_);
    return data_.data() + static_cast<std::size_t>(i) * stride_;
  }
  const T* row(index_t i) const noexcept {
    assert(i < rows_);
    return data_.data() + static_cast<std::size_t>(i) * stride_;
  }

  /// Logical view of row i: exactly cols() elements, no padding.
  std::span<T> row_span(index_t i) noexcept { return {row(i), cols_}; }
  std::span<const T> row_span(index_t i) const noexcept {
    return {row(i), cols_};
  }

  T& at(index_t i, index_t j) noexcept {
    assert(j < cols_);
    return row(i)[j];
  }
  const T& at(index_t i, index_t j) const noexcept {
    assert(j < cols_);
    return row(i)[j];
  }

  T* data() noexcept { return data_.data(); }
  const T* data() const noexcept { return data_.data(); }
  /// Total allocated elements (rows * stride).
  std::size_t size() const noexcept { return data_.size(); }

  /// Copies the logical part of row `src` of `from` into row `dst` of *this.
  /// Column counts must match; padding stays zero.
  void copy_row_from(const Matrix& from, index_t src, index_t dst) {
    assert(from.cols() == cols_);
    std::memcpy(row(dst), from.row(src), sizeof(T) * cols_);
  }

  /// Writes row i whole: the cols() elements at `src`, then zero padding.
  void set_row(index_t i, const T* src) {
    T* dst = row(i);
    std::memcpy(dst, src, sizeof(T) * cols_);
    std::fill(dst + cols_, dst + stride_, T{});
  }

  /// Deep copy (Matrix is move-only by default to prevent accidental
  /// multi-GB copies; cloning is explicit).
  Matrix clone() const {
    Matrix out(rows_, cols_);
    // An empty matrix owns no buffer, and memcpy from null is undefined
    // even for zero bytes.
    if (data_.size() != 0)
      std::memcpy(out.data(), data(), sizeof(T) * data_.size());
    return out;
  }

  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;
  Matrix(const Matrix&) = delete;
  Matrix& operator=(const Matrix&) = delete;

 private:
  Matrix(index_t rows, index_t cols, bool zero)
      : rows_(rows),
        cols_(cols),
        stride_(pad(cols)),
        data_(static_cast<std::size_t>(rows) * pad(cols), zero) {}

  static index_t pad(index_t cols) {
    constexpr index_t kPad = 16;  // 64 bytes of float
    return (cols + kPad - 1) / kPad * kPad;
  }

  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t stride_ = 0;
  AlignedBuffer<T> data_;
};

}  // namespace rbc
