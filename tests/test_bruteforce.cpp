// The brute-force primitive against a naive reference: exact equality of
// (distance, id) results, including ties, across batch sizes (tiles,
// partial tiles, row-scanned groups, row chunks), metrics, storage modes,
// team sizes and edge cases.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <tuple>

#include "bruteforce/bf.hpp"
#include "distance/quantized.hpp"
#include "parallel/runtime.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

class BfShapeTest
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, index_t>> {
 protected:
  index_t n() const { return std::get<0>(GetParam()); }
  index_t d() const { return std::get<1>(GetParam()); }
  index_t k() const { return std::get<2>(GetParam()); }
};

TEST_P(BfShapeTest, MatchesNaiveReference) {
  const Matrix<float> X = testutil::clustered_matrix(n(), d(), 5, 1);
  const Matrix<float> Q = testutil::random_matrix(33, d(), 2, -6.0f, 6.0f);
  const KnnResult expected = testutil::naive_knn(Q, X, k());
  const KnnResult actual = bf_knn(Q, X, k());
  EXPECT_TRUE(testutil::knn_equal(expected, actual));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BfShapeTest,
    ::testing::Combine(::testing::Values<index_t>(1, 2, 10, 257, 1000),
                       ::testing::Values<index_t>(1, 8, 21, 74),
                       ::testing::Values<index_t>(1, 3, 10)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_d" +
             std::to_string(std::get<1>(info.param)) + "_k" +
             std::to_string(std::get<2>(info.param));
    });

TEST(BruteForce, KLargerThanDatabasePads) {
  const Matrix<float> X = testutil::random_matrix(5, 4, 3);
  const Matrix<float> Q = testutil::random_matrix(7, 4, 4);
  const KnnResult r = bf_knn(Q, X, 9);
  for (index_t qi = 0; qi < Q.rows(); ++qi) {
    for (index_t j = 0; j < 5; ++j)
      EXPECT_NE(r.ids.at(qi, j), kInvalidIndex);
    for (index_t j = 5; j < 9; ++j) {
      EXPECT_EQ(r.ids.at(qi, j), kInvalidIndex);
      EXPECT_EQ(r.dists.at(qi, j), kInfDist);
    }
  }
}

TEST(BruteForce, DuplicatePointsTieByIdLikeReference) {
  const Matrix<float> base = testutil::random_matrix(40, 6, 5);
  const Matrix<float> X = testutil::with_duplicates(base, 40);  // every point twice
  const Matrix<float> Q = testutil::random_matrix(15, 6, 6);
  EXPECT_TRUE(testutil::knn_equal(testutil::naive_knn(Q, X, 4),
                                  bf_knn(Q, X, 4)));
}

TEST(BruteForce, OneRowBatchesMatchReference) {
  // One query splits the rows into chunks across the team (the paper's
  // stream mode); each chunk's heap merges into the reference answer.
  const Matrix<float> X = testutil::clustered_matrix(2'000, 12, 4, 7);
  const Matrix<float> Q = testutil::random_matrix(5, 12, 8, -6.0f, 6.0f);
  for (index_t qi = 0; qi < Q.rows(); ++qi) {
    Matrix<float> one(1, Q.cols());
    one.copy_row_from(Q, qi, 0);
    EXPECT_TRUE(testutil::knn_equal(testutil::naive_knn(one, X, 5),
                                    bf_knn(one, X, 5)));
    EXPECT_TRUE(testutil::knn_equal(testutil::naive_knn(one, X, 5, L1{}),
                                    bf_knn(one, X, 5, L1{})));
  }
}

TEST(BruteForce, ResultsIndependentOfThreadCount) {
  const Matrix<float> X = testutil::clustered_matrix(1'500, 9, 6, 9);
  const Matrix<float> Q = testutil::random_matrix(64, 9, 10, -6.0f, 6.0f);
  KnnResult multi = bf_knn(Q, X, 3);
  ThreadLimit limit(1);
  KnnResult single = bf_knn(Q, X, 3);
  EXPECT_TRUE(testutil::knn_equal(multi, single));
}

TEST(BruteForce, L1MetricMatchesReference) {
  const Matrix<float> X = testutil::random_matrix(300, 11, 13);
  const Matrix<float> Q = testutil::random_matrix(20, 11, 14);
  EXPECT_TRUE(testutil::knn_equal(testutil::naive_knn(Q, X, 4, L1{}),
                                  bf_knn(Q, X, 4, L1{})));
}

TEST(BruteForce, LInfMetricMatchesReference) {
  const Matrix<float> X = testutil::random_matrix(300, 11, 15);
  const Matrix<float> Q = testutil::random_matrix(20, 11, 16);
  EXPECT_TRUE(testutil::knn_equal(testutil::naive_knn(Q, X, 4, LInf{}),
                                  bf_knn(Q, X, 4, LInf{})));
}

TEST(BruteForce, SqEuclideanOrderingMatchesEuclidean) {
  const Matrix<float> X = testutil::random_matrix(400, 10, 17);
  const Matrix<float> Q = testutil::random_matrix(25, 10, 18);
  const KnnResult sq = bf_knn(Q, X, 5, SqEuclidean{});
  const KnnResult l2 = bf_knn(Q, X, 5, Euclidean{});
  for (index_t qi = 0; qi < Q.rows(); ++qi)
    for (index_t j = 0; j < 5; ++j)
      EXPECT_EQ(sq.ids.at(qi, j), l2.ids.at(qi, j));
}

TEST(BruteForce, EmptyQueryBatch) {
  const Matrix<float> X = testutil::random_matrix(10, 4, 19);
  const Matrix<float> Q(0, 4);
  const KnnResult r = bf_knn(Q, X, 2);
  EXPECT_EQ(r.ids.rows(), 0u);
}

TEST(BruteForce, Bf1nnConvenience) {
  const Matrix<float> X = testutil::random_matrix(200, 8, 20);
  const Matrix<float> Q = testutil::random_matrix(1, 8, 21);
  const auto [d, id] = bf_1nn(Q.row(0), X);
  const KnnResult expected = testutil::naive_knn(Q, X, 1);
  EXPECT_EQ(id, expected.ids.at(0, 0));
  EXPECT_EQ(d, expected.dists.at(0, 0));
}

// make_row_norms_cache splits the rows by the team: every norm, and the
// largest, must carry the same bits at one thread and on the full team, at
// sizes around the block floor and the kernel's row block.
TEST(BruteForce, RowNormsDoNotDependOnTheTeam) {
  for (const index_t n : {1u, 7u, 1023u, 1025u, 4099u, 20000u}) {
    const Matrix<float> X = testutil::random_matrix(n, 21, 70 + n, -4.0f, 4.0f);
    RowNormsCache one;
    {
      ThreadLimit limit(1);
      one = make_row_norms_cache(X);
    }
    const RowNormsCache team = make_row_norms_cache(X);
    ASSERT_EQ(team.sq.size(), one.sq.size()) << n << " rows";
    for (std::size_t i = 0; i < one.sq.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(team.sq[i]),
                std::bit_cast<std::uint32_t>(one.sq[i]))
          << n << " rows, row " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(team.max),
              std::bit_cast<std::uint32_t>(one.max))
        << n << " rows";
  }
}

TEST(BruteForce, CountsDistanceEvaluations) {
  const Matrix<float> X = testutil::random_matrix(123, 5, 22);
  // 45 rows: whole tiles plus a row-scanned group; 1 row: split into row
  // chunks on a team. Each counts nq * n once.
  for (const index_t nq : {45u, 1u}) {
    const Matrix<float> Q = testutil::random_matrix(nq, 5, 23);
    counters::Scope scope;
    bf_knn(Q, X, 1);
    EXPECT_EQ(scope.delta(), 123u * nq);
    counters::Scope l1_scope;
    bf_knn(Q, X, 1, L1{});
    EXPECT_EQ(l1_scope.delta(), 123u * nq);
  }
}

// ------------------------------------------------------ the sweep ---------
//
// Every batch size from one query to four tiles, on databases from empty to
// about 2k rows with every row stored twice, under every metric and the
// compressed storage modes, on one thread and on a team: bf_knn and
// bf_knn_quantized must return the scalar reference's bits (ids, distances
// and tie order).

enum class Scan { kL2, kSqL2, kL1, kLInf, kIp, kL2Fp16, kL2Int8, kSqL2Fp16,
                  kSqL2Int8 };
enum class Db { kEmpty, kFewerThanK, kFewerThanThreads, kTies };

constexpr index_t kSweepK = 10;
constexpr index_t kSweepDim = 21;

const char* scan_name(Scan scan) {
  switch (scan) {
    case Scan::kL2: return "l2";
    case Scan::kSqL2: return "sql2";
    case Scan::kL1: return "l1";
    case Scan::kLInf: return "linf";
    case Scan::kIp: return "ip";
    case Scan::kL2Fp16: return "l2_fp16";
    case Scan::kL2Int8: return "l2_int8";
    case Scan::kSqL2Fp16: return "sql2_fp16";
    case Scan::kSqL2Int8: return "sql2_int8";
  }
  return "";
}

const char* db_name(Db db) {
  switch (db) {
    case Db::kEmpty: return "empty";
    case Db::kFewerThanK: return "fewer_than_k";
    case Db::kFewerThanThreads: return "fewer_than_threads";
    case Db::kTies: return "ties";
  }
  return "";
}

Matrix<float> sweep_database(Db db) {
  switch (db) {
    case Db::kEmpty: return Matrix<float>(0, kSweepDim);
    case Db::kFewerThanK: return testutil::random_matrix(7, kSweepDim, 31);
    case Db::kFewerThanThreads:
      return testutil::random_matrix(2, kSweepDim, 32);
    case Db::kTies:
      return testutil::with_duplicates(
          testutil::clustered_matrix(1'000, kSweepDim, 5, 33), 1'000);
  }
  return {};
}

/// 64 queries; every other one copies a database row, so distance-0 ties
/// (with the row's duplicate) are in the answers.
Matrix<float> sweep_queries(const Matrix<float>& X) {
  Matrix<float> Q = testutil::random_matrix(64, kSweepDim, 34, -6.0f, 6.0f);
  if (X.rows() > 0)
    for (index_t qi = 0; qi < Q.rows(); qi += 2)
      Q.copy_row_from(X, (qi * 37) % X.rows(), qi);
  return Q;
}

quant::Storage sweep_storage(Scan scan) {
  if (scan == Scan::kL2Fp16 || scan == Scan::kSqL2Fp16)
    return quant::Storage::kFp16;
  if (scan == Scan::kL2Int8 || scan == Scan::kSqL2Int8)
    return quant::Storage::kInt8;
  return quant::Storage::kFloat32;
}

bool bits_equal(const KnnResult& a, const KnnResult& b) {
  if (a.ids.rows() != b.ids.rows() || a.ids.cols() != b.ids.cols())
    return false;
  for (index_t i = 0; i < a.ids.rows(); ++i)
    for (index_t j = 0; j < a.ids.cols(); ++j)
      if (a.ids.at(i, j) != b.ids.at(i, j) ||
          std::bit_cast<std::uint32_t>(a.dists.at(i, j)) !=
              std::bit_cast<std::uint32_t>(b.dists.at(i, j)))
        return false;
  return true;
}

/// (scan, database, team): team 0 is the default team (max_threads()).
/// Float rows run with and without a RowNormsCache: with one, a group of 8
/// to 15 queries is a partial tile (8, 15, 24); without, batches under one
/// tile scan rows.
class BfSweep : public ::testing::TestWithParam<std::tuple<Scan, Db, int>> {
 protected:
  template <class M>
  void sweep(M metric) {
    const auto [scan, db, team] = GetParam();
    const Matrix<float> X = sweep_database(db);
    const Matrix<float> all = sweep_queries(X);
    const quant::QuantizedStore store = quant::quantize(sweep_storage(scan), X);
    const RowNormsCache norms = make_row_norms_cache(X);
    ThreadLimit limit(team == 0 ? max_threads() : team);
    for (const index_t nq :
         {1u, 2u, 3u, 7u, 8u, 15u, 16u, 17u, 24u, 33u, 64u}) {
      Matrix<float> Q(nq, kSweepDim);
      for (index_t qi = 0; qi < nq; ++qi) Q.copy_row_from(all, qi, qi);
      const KnnResult expected = testutil::naive_knn(Q, X, kSweepK, metric);
      if constexpr (quantized_metric<M>) {
        if (store.active()) {
          EXPECT_TRUE(bits_equal(
              expected, bf_knn_quantized(Q, X, store, kSweepK, metric)))
              << "batch of " << nq << " rows";
          continue;
        }
      }
      EXPECT_TRUE(bits_equal(expected, bf_knn(Q, X, kSweepK, metric)))
          << "batch of " << nq << " rows";
      EXPECT_TRUE(bits_equal(expected, bf_knn(Q, X, kSweepK, metric, &norms)))
          << "batch of " << nq << " rows, cached norms";
    }
  }
};

TEST_P(BfSweep, BitIdenticalToReference) {
  switch (std::get<0>(GetParam())) {
    case Scan::kL2:
    case Scan::kL2Fp16:
    case Scan::kL2Int8: sweep(Euclidean{}); break;
    case Scan::kSqL2:
    case Scan::kSqL2Fp16:
    case Scan::kSqL2Int8: sweep(SqEuclidean{}); break;
    case Scan::kL1: sweep(L1{}); break;
    case Scan::kLInf: sweep(LInf{}); break;
    case Scan::kIp: sweep(InnerProduct{}); break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BfSweep,
    ::testing::Combine(
        ::testing::Values(Scan::kL2, Scan::kSqL2, Scan::kL1, Scan::kLInf,
                          Scan::kIp, Scan::kL2Fp16, Scan::kL2Int8,
                          Scan::kSqL2Fp16, Scan::kSqL2Int8),
        ::testing::Values(Db::kEmpty, Db::kFewerThanK, Db::kFewerThanThreads,
                          Db::kTies),
        ::testing::Values(1, 3, 0)),
    [](const auto& info) {
      const int team = std::get<2>(info.param);
      return std::string(scan_name(std::get<0>(info.param))) + "_" +
             db_name(std::get<1>(info.param)) + "_" +
             (team == 0 ? std::string("team") : "t" + std::to_string(team));
    });

}  // namespace
}  // namespace rbc
