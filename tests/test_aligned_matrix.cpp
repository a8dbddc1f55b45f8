#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/aligned.hpp"
#include "common/matrix.hpp"

namespace rbc {
namespace {

TEST(AlignedBuffer, AlignmentIs64Bytes) {
  for (const std::size_t count : {1u, 7u, 64u, 1000u}) {
    AlignedBuffer<float> buf(count);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kAlignment, 0u);
    EXPECT_EQ(buf.size(), count);
  }
}

TEST(AlignedBuffer, ZeroInitOption) {
  AlignedBuffer<float> buf(257, /*zero=*/true);
  for (const float v : buf) EXPECT_EQ(v, 0.0f);
}

TEST(AlignedBuffer, EmptyBuffer) {
  AlignedBuffer<double> buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.data(), nullptr);
  AlignedBuffer<double> sized(0);
  EXPECT_TRUE(sized.empty());
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> a(16);
  a[3] = 42;
  int* raw = a.data();
  AlignedBuffer<int> b(std::move(a));
  EXPECT_EQ(b.data(), raw);
  EXPECT_EQ(b[3], 42);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move): testing it
  AlignedBuffer<int> c;
  c = std::move(b);
  EXPECT_EQ(c.data(), raw);
  EXPECT_EQ(c[3], 42);
}

TEST(Matrix, StridePaddingIsMultipleOf16) {
  for (const index_t cols : {1u, 15u, 16u, 17u, 54u, 74u, 128u}) {
    Matrix<float> m(3, cols);
    EXPECT_EQ(m.stride() % 16, 0u);
    EXPECT_GE(m.stride(), cols);
    EXPECT_LT(m.stride(), cols + 16);
  }
}

TEST(Matrix, PaddingLanesAreZero) {
  Matrix<float> m(4, 21);
  for (index_t i = 0; i < m.rows(); ++i)
    for (index_t j = 0; j < m.cols(); ++j) m.at(i, j) = 7.0f;
  for (index_t i = 0; i < m.rows(); ++i)
    for (index_t j = m.cols(); j < m.stride(); ++j)
      EXPECT_EQ(m.row(i)[j], 0.0f) << "row " << i << " pad lane " << j;
}

TEST(Matrix, RowsAreAligned) {
  Matrix<float> m(5, 74);
  for (index_t i = 0; i < m.rows(); ++i)
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.row(i)) % kAlignment, 0u);
}

TEST(Matrix, RowSpanHasLogicalLength) {
  Matrix<float> m(2, 21);
  EXPECT_EQ(m.row_span(0).size(), 21u);
  EXPECT_EQ(m.row_span(1).size(), 21u);
}

TEST(Matrix, CopyRowFromPreservesPadding) {
  Matrix<float> src(2, 10);
  for (index_t j = 0; j < 10; ++j) src.at(0, j) = static_cast<float>(j);
  Matrix<float> dst(2, 10);
  dst.copy_row_from(src, 0, 1);
  for (index_t j = 0; j < 10; ++j) EXPECT_EQ(dst.at(1, j), static_cast<float>(j));
  for (index_t j = 10; j < dst.stride(); ++j) EXPECT_EQ(dst.row(1)[j], 0.0f);
}

TEST(Matrix, SetRowWritesTheRowAndZeroPadding) {
  Matrix<float> src(1, 10);
  for (index_t j = 0; j < 10; ++j) src.at(0, j) = static_cast<float>(j + 1);
  // Stands in for uninitialized() storage: every lane dirty.
  Matrix<float> dst(2, 10);
  std::fill(dst.data(), dst.data() + dst.size(), -3.0f);
  dst.set_row(1, src.row(0));
  for (index_t j = 0; j < 10; ++j)
    EXPECT_EQ(dst.at(1, j), static_cast<float>(j + 1));
  for (index_t j = 10; j < dst.stride(); ++j) EXPECT_EQ(dst.row(1)[j], 0.0f);
}

TEST(Matrix, CloneIsDeep) {
  Matrix<float> a(2, 3);
  a.at(0, 0) = 1.0f;
  Matrix<float> b = a.clone();
  b.at(0, 0) = 2.0f;
  EXPECT_EQ(a.at(0, 0), 1.0f);
  EXPECT_EQ(b.at(0, 0), 2.0f);
}

TEST(Matrix, EmptyMatrix) {
  Matrix<float> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  Matrix<float> zero_rows(0, 5);
  EXPECT_TRUE(zero_rows.empty());
  EXPECT_EQ(zero_rows.cols(), 5u);
}

}  // namespace
}  // namespace rbc
