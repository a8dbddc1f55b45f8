// Distributed RBC (paper §8): exactness under sharding, load balance,
// communication accounting, and the representative-sharding vs
// random-sharding contrast.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "dist/distributed_rbc.hpp"
#include "test_util.hpp"

namespace rbc::dist {
namespace {

class DistExactness
    : public ::testing::TestWithParam<std::tuple<index_t, int>> {};

TEST_P(DistExactness, EqualsBruteForceForEveryWorkerCount) {
  const auto [workers, sharding_int] = GetParam();
  const auto sharding = static_cast<Sharding>(sharding_int);
  const Matrix<float> X = testutil::clustered_matrix(1'500, 10, 6, 1);
  const Matrix<float> Q = testutil::random_matrix(40, 10, 2, -6.0f, 6.0f);

  DistributedRbc cluster;
  cluster.build(X, workers, {.num_reps = 38, .seed = 3}, sharding);
  ASSERT_EQ(cluster.num_workers(), workers);

  const KnnResult expected = testutil::naive_knn(Q, X, 4);
  const KnnResult actual = cluster.search(Q, 4);
  EXPECT_TRUE(testutil::knn_equal(expected, actual));
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndPolicies, DistExactness,
    ::testing::Combine(::testing::Values<index_t>(1, 2, 3, 8, 16),
                       ::testing::Values(0, 1)),
    [](const auto& info) {
      return std::string("w") + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == 0 ? "_byrep" : "_random");
    });

TEST(Distributed, DuplicateHeavyDataStaysExact) {
  const Matrix<float> base = testutil::random_matrix(200, 6, 4);
  const Matrix<float> X = testutil::with_duplicates(base, 200);
  const Matrix<float> Q = testutil::random_matrix(20, 6, 5);
  DistributedRbc cluster;
  cluster.build(X, 4, {.num_reps = 16, .seed = 6});
  EXPECT_TRUE(testutil::knn_equal(testutil::naive_knn(Q, X, 5),
                                  cluster.search(Q, 5)));
}

// The lattice tie sweep (testutil::lattice_tie_case, the seeds of
// test_rbc_exact's RbcExactTies): rounded distances tie to the last ulp, so
// the coordinator's rules and every worker's rules and Claim-2 window must
// clear the single-node index's rounding margin to keep a tied row with
// the lower id. One worker and four randomly sharded ones, annulus off and
// on; every query carries the functor scan's ids and distance bits.
TEST(Distributed, LatticeTiesMatchTheFunctorScan) {
  std::uint64_t queries = 0, wrong = 0;
  std::string first;
  for (std::uint64_t seed = 3'000; seed < 4'000; ++seed) {
    const testutil::TieCase c = testutil::lattice_tie_case(seed);
    const KnnResult want = testutil::naive_knn(c.Q, c.X, c.k);
    for (const bool annulus : {false, true})
      for (const index_t workers : {1u, 4u}) {
        DistributedRbc cluster;
        cluster.build(c.X, workers,
                      {.num_reps = c.num_reps,
                       .seed = seed,
                       .use_annulus_bound = annulus},
                      workers == 1 ? Sharding::kByRepresentative
                                   : Sharding::kRandomPoints);
        const KnnResult got = cluster.search(c.Q, c.k);
        for (index_t row = 0; row < c.Q.rows(); ++row) {
          ++queries;
          if (testutil::rows_identical(want, row, got, row) || wrong++ > 0)
            continue;
          first = c.name + ", " + std::to_string(workers) + " workers" +
                  (annulus ? ", annulus on" : ", annulus off") + ", query " +
                  std::to_string(row);
        }
      }
  }
  EXPECT_EQ(wrong, 0u) << wrong << " of " << queries
                       << " queries differ from the functor scan; first: "
                       << first;
}

TEST(Distributed, EveryPointStoredExactlyOnceUnderRepSharding) {
  const Matrix<float> X = testutil::clustered_matrix(800, 8, 5, 7);
  DistributedRbc cluster;
  cluster.build(X, 5, {.num_reps = 25, .seed = 8});
  std::uint64_t total = 0;
  for (index_t w = 0; w < cluster.num_workers(); ++w)
    total += cluster.worker_points(w);
  EXPECT_EQ(total, X.rows());
}

TEST(Distributed, GreedyBalanceKeepsWorkersWithinFactor) {
  const Matrix<float> X = testutil::clustered_matrix(4'000, 8, 12, 9);
  DistributedRbc cluster;
  cluster.build(X, 4, {.seed = 10});
  index_t min_pts = kInvalidIndex, max_pts = 0;
  for (index_t w = 0; w < 4; ++w) {
    min_pts = std::min(min_pts, cluster.worker_points(w));
    max_pts = std::max(max_pts, cluster.worker_points(w));
  }
  // Greedy largest-first bin packing: max/min stays small unless one list
  // dominates the whole database.
  EXPECT_LT(max_pts, 3u * min_pts)
      << "load imbalance: " << min_pts << " vs " << max_pts;
}

TEST(Distributed, RepShardingContactsFewerWorkersThanRandom) {
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(3'050, 10, 8, 11),
                           3'000);
  const index_t workers = 8;

  DistStats by_rep, random;
  {
    DistributedRbc cluster;
    cluster.build(X, workers, {.seed = 12}, Sharding::kByRepresentative);
    (void)cluster.search(Q, 1, &by_rep);
  }
  {
    DistributedRbc cluster;
    cluster.build(X, workers, {.seed = 12}, Sharding::kRandomPoints);
    (void)cluster.search(Q, 1, &random);
  }
  // Random point placement scatters every list over all workers, so nearly
  // all 8 must be contacted; representative sharding touches only the
  // workers owning surviving lists.
  EXPECT_GT(random.workers_contacted_per_query(), 6.0);
  EXPECT_LT(by_rep.workers_contacted_per_query(),
            0.8 * random.workers_contacted_per_query());
}

TEST(Distributed, NetworkMetersQueriesAndResponses) {
  const Matrix<float> X = testutil::clustered_matrix(600, 8, 4, 13);
  const Matrix<float> Q = testutil::random_matrix(10, 8, 14, -6.0f, 6.0f);
  DistributedRbc cluster;
  cluster.build(X, 3, {.num_reps = 18, .seed = 15});

  const TrafficStats after_build = cluster.network().total();
  EXPECT_GT(after_build.bytes, 600ull * 8 * sizeof(float))
      << "ingest must ship the whole database";

  DistStats stats;
  (void)cluster.search(Q, 2, &stats);
  const TrafficStats after_search = cluster.network().total();
  // Each contacted worker costs one request and one response message.
  EXPECT_EQ(after_search.messages - after_build.messages,
            2 * stats.workers_contacted);
  EXPECT_GT(after_search.bytes, after_build.bytes);
}

TEST(Distributed, SingleWorkerMatchesSingleNodeWork) {
  // With one worker the distributed search degenerates to the single-node
  // exact search over the same ceil(sqrt(n)) representatives (same
  // pruning, same scans), except for stage 1: the single node's runs
  // through its cover of R, the simulator's stays the flat BF(q, R).
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(2'030, 9, 6, 16),
                           2'000);
  DistributedRbc cluster;
  cluster.build(X, 1, {.seed = 17});
  DistStats stats;
  const KnnResult dist_result = cluster.search(Q, 1, &stats);

  RbcExactIndex<> single;
  single.build(X, {.num_reps = RbcParams{}.resolve_num_reps(X.rows()),
                   .seed = 17});
  // Per-query reference (search_one): the schedule the workers actually
  // run. Batch search() would take the query-tile blocked path for this
  // many queries, whose frozen-bound windows count work differently.
  SearchStats single_stats;
  KnnResult single_result(Q.rows(), 1);
  {
    RbcExactIndex<>::Scratch scratch;
    TopK top(1);
    for (index_t qi = 0; qi < Q.rows(); ++qi) {
      top.reset();
      single.search_one(Q.row(qi), 1, top, scratch, &single_stats);
      top.extract_sorted(single_result.dists.row(qi),
                         single_result.ids.row(qi));
    }
  }

  EXPECT_TRUE(testutil::knn_equal(dist_result, single_result));
  EXPECT_EQ(stats.rep_dist_evals,
            std::uint64_t{Q.rows()} * single.num_reps());
  // The worker cannot see the coordinator's dynamically-tightening bound,
  // so it may scan somewhat more than the single-node search — but never
  // an order of magnitude more.
  EXPECT_GE(stats.list_dist_evals, single_stats.list_dist_evals);
  EXPECT_LT(stats.list_dist_evals, 5 * single_stats.list_dist_evals + 100);
}

TEST(Distributed, WorkerWorkMetersSumToListEvals) {
  const Matrix<float> X = testutil::clustered_matrix(1'000, 8, 5, 18);
  const Matrix<float> Q = testutil::random_matrix(25, 8, 19, -6.0f, 6.0f);
  DistributedRbc cluster;
  cluster.build(X, 4, {.num_reps = 30, .seed = 20});
  DistStats stats;
  (void)cluster.search(Q, 1, &stats);
  std::uint64_t sum = 0;
  for (index_t w = 0; w < 4; ++w) sum += cluster.worker_list_evals(w);
  EXPECT_EQ(sum, stats.list_dist_evals);
}

TEST(Distributed, MoreWorkersThanReps) {
  const Matrix<float> X = testutil::random_matrix(100, 5, 21);
  const Matrix<float> Q = testutil::random_matrix(10, 5, 22);
  DistributedRbc cluster;
  cluster.build(X, 32, {.num_reps = 6, .seed = 23});  // most workers empty
  EXPECT_TRUE(testutil::knn_equal(testutil::naive_knn(Q, X, 3),
                                  cluster.search(Q, 3)));
}

}  // namespace
}  // namespace rbc::dist
