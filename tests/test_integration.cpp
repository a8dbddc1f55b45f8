// End-to-end integration: the full pipelines the benchmarks and examples
// run, at test-sized scale — dataset surrogate -> index -> search -> quality
// metrics, plus cross-checks between all four search implementations
// (brute force, exact RBC, cover tree, kd-tree) on the same data.
#include <gtest/gtest.h>

#include <cstdio>

#include "baselines/covertree.hpp"
#include "baselines/kdtree.hpp"
#include "data/expansion_rate.hpp"
#include "data/generators.hpp"
#include "data/io.hpp"
#include "data/rank_error.hpp"
#include "rbc/rbc.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

TEST(Integration, EveryExactBackendAgreesOnSurrogateData) {
  // The cross-backend contract, exercised through the unified API: every
  // registered exact backend answers identically to brute force (ties
  // included) on the same surrogate data.
  const data::DataSplit split =
      data::make_benchmark_data(data::dataset_by_name("robot"), 2'000, 50, 1);
  const Matrix<float>& X = split.database;
  const Matrix<float>& Q = split.queries;
  const index_t k = 3;

  const KnnResult brute = bf_knn(Q, X, k);
  const SearchRequest request{.queries = &Q, .k = k};

  for (const char* name :
       {"bruteforce", "rbc-exact", "covertree", "kdtree", "balltree"}) {
    auto index = make_index(name, {.rbc = {.seed = 2}});
    index->build(X);
    ASSERT_TRUE(index->info().exact) << name;
    EXPECT_TRUE(testutil::knn_equal(brute, index->knn_search(request).knn))
        << name;
  }
}

TEST(Integration, EveryPaperSurrogateSupportsTheFullPipeline) {
  for (const auto& spec : data::paper_datasets()) {
    const data::DataSplit split = data::make_benchmark_data(spec, 1'000, 30, 3);
    RbcExactIndex<> exact;
    exact.build(split.database, {.seed = 4});
    const KnnResult expected =
        testutil::naive_knn(split.queries, split.database, 1);
    EXPECT_TRUE(
        testutil::knn_equal(expected, exact.search(split.queries, 1)))
        << spec.name;

    RbcOneShotIndex<> oneshot;
    oneshot.build(split.database, {.seed = 5});
    const double recall = data::recall_at_1(split.queries, split.database,
                                            oneshot.search(split.queries, 1));
    EXPECT_GT(recall, 0.3) << spec.name << " one-shot recall collapsed";
  }
}

TEST(Integration, ExpansionEstimateFeedsTheoryParams) {
  const Matrix<float> X =
      data::make_dataset(data::dataset_by_name("bio"), 2'000, 6);
  const data::ExpansionEstimate est = data::estimate_expansion_rate(X, 20, 7);
  ASSERT_GT(est.c_q90, 1.0);

  const index_t param =
      oneshot_theory_params(X.rows(), est.c_q90, /*delta=*/0.05);
  EXPECT_GE(param, 1u);
  EXPECT_LE(param, X.rows());

  RbcOneShotIndex<> index;
  index.build(X, {.num_reps = param, .points_per_rep = param, .seed = 8});
  const Matrix<float> Q = testutil::random_matrix(100, X.cols(), 9, -3.0f, 3.0f);
  // Theory target is 95%; surrogate data and the estimator are both
  // approximate, so test a loose floor.
  EXPECT_GT(data::recall_at_1(Q, X, index.search(Q, 1)), 0.7);
}

TEST(Integration, MatrixPersistsThroughFileSystem) {
  const Matrix<float> X = testutil::random_matrix(100, 9, 13);
  const std::string bin = ::testing::TempDir() + "/mat.bin";
  const std::string csv = ::testing::TempDir() + "/mat.csv";
  data::save_matrix(X, bin);
  data::save_csv(X, csv);
  const Matrix<float> from_bin = data::load_matrix(bin);
  const Matrix<float> from_csv = data::load_csv(csv);
  ASSERT_EQ(from_bin.rows(), X.rows());
  ASSERT_EQ(from_csv.rows(), X.rows());
  for (index_t i = 0; i < X.rows(); ++i)
    for (index_t j = 0; j < X.cols(); ++j) {
      EXPECT_EQ(from_bin.at(i, j), X.at(i, j));
      EXPECT_NEAR(from_csv.at(i, j), X.at(i, j), 1e-4f);  // CSV text round-off
    }
  std::remove(bin.c_str());
  std::remove(csv.c_str());
}

TEST(Integration, RankErrorIdentifiesExactAndApproximateAnswers) {
  const Matrix<float> X = testutil::clustered_matrix(1'000, 8, 5, 14);
  const Matrix<float> Q = testutil::random_matrix(50, 8, 15, -6.0f, 6.0f);

  // Exact answers: rank 0 everywhere, recall 1.
  RbcExactIndex<> exact;
  exact.build(X, {.seed = 16});
  const KnnResult exact_result = exact.search(Q, 1);
  EXPECT_EQ(data::mean_rank(Q, X, exact_result), 0.0);
  EXPECT_EQ(data::recall_at_1(Q, X, exact_result), 1.0);

  // Degraded one-shot (tiny lists): positive mean rank, recall < 1.
  RbcOneShotIndex<> weak;
  weak.build(X, {.num_reps = 4, .points_per_rep = 4, .seed = 17});
  const KnnResult weak_result = weak.search(Q, 1);
  EXPECT_GT(data::mean_rank(Q, X, weak_result), 0.0);
  EXPECT_LT(data::recall_at_1(Q, X, weak_result), 1.0);
}

TEST(Integration, WorkAccountingConsistentBetweenStatsAndCounters) {
  const Matrix<float> X = testutil::clustered_matrix(2'000, 10, 6, 18);
  const Matrix<float> Q = testutil::random_matrix(30, 10, 19, -6.0f, 6.0f);
  RbcExactIndex<> index;
  index.build(X, {.seed = 20});

  counters::reset();
  SearchStats stats;
  counters::Scope scope;
  index.search(Q, 1, &stats);
  // Global counter and per-search stats must agree on total distance evals.
  EXPECT_EQ(scope.delta(), stats.dist_evals());
}

}  // namespace
}  // namespace rbc
