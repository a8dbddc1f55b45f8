// Exact range search: the returned set must equal a linear scan exactly for
// every radius, including boundary-inclusive hits.
#include <gtest/gtest.h>

#include "distance/dispatch.hpp"
#include "rbc/rbc.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

class RangeRadiusTest : public ::testing::TestWithParam<float> {};

TEST_P(RangeRadiusTest, MatchesLinearScan) {
  const float radius = GetParam();
  const Matrix<float> X = testutil::clustered_matrix(1'200, 8, 6, 1);
  const Matrix<float> Q = testutil::random_matrix(25, 8, 2, -6.0f, 6.0f);

  RbcExactIndex<> index;
  index.build(X, {.num_reps = 35, .seed = 3});

  for (index_t qi = 0; qi < Q.rows(); ++qi) {
    const auto expected = testutil::naive_range(Q.row(qi), X, radius);
    const auto actual = index.range_search(Q.row(qi), radius);
    EXPECT_EQ(expected, actual) << "query " << qi << " radius " << radius;
  }
}

INSTANTIATE_TEST_SUITE_P(Radii, RangeRadiusTest,
                         ::testing::Values(0.0f, 0.1f, 0.5f, 1.0f, 2.0f, 5.0f,
                                           20.0f),
                         [](const auto& info) {
                           std::string s = std::to_string(info.param);
                           for (auto& c : s)
                             if (c == '.' || c == '-') c = '_';
                           return "r" + s;
                         });

TEST(RangeSearch, ZeroRadiusFindsExactDuplicates) {
  Matrix<float> base = testutil::random_matrix(100, 5, 4);
  const Matrix<float> X = testutil::with_duplicates(base, 100);
  RbcExactIndex<> index;
  index.build(X, {.num_reps = 14, .seed = 5});

  // Query = point 7; duplicates of 7 are at 7 and 107.
  const auto hits = index.range_search(X.row(7), 0.0f);
  EXPECT_EQ(hits, (std::vector<index_t>{7, 107}));
}

TEST(RangeSearch, HugeRadiusReturnsEverything) {
  const Matrix<float> X = testutil::random_matrix(300, 6, 6);
  RbcExactIndex<> index;
  index.build(X, {.num_reps = 17, .seed = 7});
  const Matrix<float> Q = testutil::random_matrix(1, 6, 8);
  const auto hits = index.range_search(Q.row(0), 1e9f);
  ASSERT_EQ(hits.size(), X.rows());
  for (index_t i = 0; i < X.rows(); ++i) EXPECT_EQ(hits[i], i);
}

TEST(RangeSearch, EmptyResultWhenRadiusTooSmall) {
  const Matrix<float> X = testutil::random_matrix(200, 7, 9, 10.0f, 20.0f);
  RbcExactIndex<> index;
  index.build(X, {.num_reps = 14, .seed = 10});
  Matrix<float> q(1, 7);  // all zeros, far from [10,20]^7
  EXPECT_TRUE(index.range_search(q.row(0), 1.0f).empty());
}

TEST(RangeSearch, PruningStillExactWithL1) {
  const Matrix<float> X = testutil::clustered_matrix(800, 9, 5, 11);
  const Matrix<float> Q = testutil::random_matrix(15, 9, 12, -6.0f, 6.0f);
  RbcExactIndex<L1> index;
  index.build(X, {.num_reps = 28, .seed = 13}, L1{});
  const L1 m{};
  for (index_t qi = 0; qi < Q.rows(); ++qi) {
    std::vector<index_t> expected;
    for (index_t j = 0; j < X.rows(); ++j)
      if (m(Q.row(qi), X.row(j), 9) <= 2.0f) expected.push_back(j);
    EXPECT_EQ(expected, index.range_search(Q.row(qi), 2.0f));
  }
}

// Stage 1 runs through the cover of R and each list's window through the
// row-kernel prefilter: under every runnable ISA the hits must equal a
// linear scan, on flat triangles (points on a line, where every triangle
// bound is tight) and lattice ties, with lists long enough for the kernel
// and representative counts from one to every row.
TEST(RangeSearch, EveryIsaMatchesTheLinearScan) {
  Matrix<float> line(600, 5);
  for (index_t i = 0; i < line.rows(); ++i)
    for (index_t j = 0; j < line.cols(); ++j)
      line.at(i, j) = static_cast<float>(i % 300) * (0.1f + 0.37f * j);
  Matrix<float> lattice(256, 4);
  for (index_t p = 0; p < lattice.rows(); ++p)
    for (index_t j = 0; j < 4; ++j)
      lattice.at(p, j) = static_cast<float>((p >> (2 * j)) & 3u);
  const dispatch::Isa entry_isa = dispatch::active_isa();
  for (const dispatch::Isa isa :
       {dispatch::Isa::kScalar, dispatch::Isa::kAvx2, dispatch::Isa::kAvx512}) {
    if (!dispatch::isa_available(isa)) continue;
    dispatch::force_isa(isa);
    for (const Matrix<float>* X : {&line, &lattice}) {
      for (const index_t nr : {1u, 17u, X->rows()}) {
        RbcExactIndex<> index;
        index.build(*X, {.num_reps = nr, .seed = 15});
        for (index_t qi = 0; qi < X->rows(); qi += 37)
          for (const float radius : {0.0f, 1.0f, 1.4142135f, 3.0f, 40.0f})
            EXPECT_EQ(testutil::naive_range(X->row(qi), *X, radius),
                      index.range_search(X->row(qi), radius))
                << dispatch::isa_name(isa) << ", nr " << nr << ", row " << qi
                << ", radius " << radius;
      }
    }
  }
  dispatch::force_isa(entry_isa);
}

}  // namespace
}  // namespace rbc
