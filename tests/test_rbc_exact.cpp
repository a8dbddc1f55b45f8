// The exactness contract of the RBC exact-search algorithm: for every query,
// every dataset shape, every parameter combination and every metric, results
// equal brute force under the (distance, id) order — ties included.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "data/generators.hpp"
#include "distance/dispatch.hpp"
#include "rbc/rbc.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

/// Scalar BF(X, R) with the Euclidean functor, straight from paper §4: each
/// point joins its nearest representative, the lowest representative index
/// winning ties; lists are ordered by (distance, id) and psi is the
/// largest member distance (0 for an empty list).
struct BuildModel {
  std::vector<std::vector<std::pair<dist_t, index_t>>> lists;
  std::vector<dist_t> psi;
};

BuildModel scalar_build_model(const Matrix<float>& X,
                              const std::vector<index_t>& rep_ids) {
  const Euclidean m{};
  BuildModel model;
  model.lists.resize(rep_ids.size());
  for (index_t x = 0; x < X.rows(); ++x) {
    dist_t best = kInfDist;
    std::size_t owner = 0;
    for (std::size_t r = 0; r < rep_ids.size(); ++r) {
      const dist_t d = m(X.row(x), X.row(rep_ids[r]), X.cols());
      if (d < best) {
        best = d;
        owner = r;
      }
    }
    model.lists[owner].emplace_back(best, x);
  }
  for (auto& list : model.lists) {
    std::sort(list.begin(), list.end());
    model.psi.push_back(list.empty() ? 0.0f : list.back().first);
  }
  return model;
}

/// Every list of `index` equals the model's, ids in order and distances
/// and psi bitwise.
void expect_matches_model(const RbcExactIndex<>& index,
                          const BuildModel& model, const std::string& what) {
  ASSERT_EQ(static_cast<std::size_t>(index.num_reps()), model.lists.size());
  for (index_t r = 0; r < index.num_reps(); ++r) {
    const auto ids = index.list_ids(r);
    const auto dists = index.list_dists(r);
    const auto& want = model.lists[r];
    ASSERT_EQ(ids.size(), want.size()) << what << " list " << r;
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(ids[j], want[j].second) << what << " list " << r;
      EXPECT_EQ(bits(dists[j]), bits(want[j].first)) << what << " list " << r;
    }
    EXPECT_EQ(bits(index.psi(r)), bits(model.psi[r])) << what << " psi " << r;
  }
}

// ---------------------------------------------------------------- build ---

TEST(RbcExactBuild, ListsPartitionTheDatabase) {
  const Matrix<float> X = testutil::clustered_matrix(500, 10, 6, 1);
  RbcExactIndex<> index;
  index.build(X, {.num_reps = 20, .seed = 42});

  std::vector<int> seen(X.rows(), 0);
  for (index_t r = 0; r < index.num_reps(); ++r)
    for (const index_t id : index.list_ids(r)) ++seen[id];
  for (index_t x = 0; x < X.rows(); ++x)
    EXPECT_EQ(seen[x], 1) << "point " << x << " not owned exactly once";
}

TEST(RbcExactBuild, EveryPointOwnedByItsNearestRepresentative) {
  // Duplicated rows make representatives tie: the owner must then be the
  // lowest-index nearest one, at the functor's exact distance.
  const Matrix<float> X =
      testutil::with_duplicates(testutil::clustered_matrix(300, 8, 4, 2), 150);
  RbcExactIndex<> index;
  index.build(X, {.num_reps = 40, .seed = 7});
  expect_matches_model(index, scalar_build_model(X, index.rep_ids()),
                       dispatch::isa_name(dispatch::active_isa()));
}

// BF(X, R) and stage 1 run the dispatched bit-exact l2_lanes shape. Under
// every runnable ISA the built structure must equal a scalar BF(X, R) —
// owners with ties to the lowest representative, list distances and psi
// bitwise — and the saved bytes, the answers and the per-query work counts
// must be identical across ISAs. Representative counts leave partial lane blocks
// and cover the 4-block groups of the AVX-512 kernel; the lattice data
// makes exact distance ties between distinct representatives common.
TEST(RbcExactBuild, EveryIsaBuildsTheScalarModelBitForBit) {
  Matrix<float> lattice(4 * 4 * 4 * 4, 4);
  for (index_t p = 0; p < lattice.rows(); ++p)
    for (index_t j = 0; j < 4; ++j)
      lattice.at(p, j) = static_cast<float>((p >> (2 * j)) & 3u);
  struct Case {
    const char* name;
    Matrix<float> X;
    index_t num_reps;
  };
  Case cases[] = {
      {"clustered+dups",
       testutil::with_duplicates(testutil::clustered_matrix(900, 21, 6, 31),
                                 300),
       75},
      {"lattice+dups", testutil::with_duplicates(lattice, 128), 37},
      {"high_dim", testutil::clustered_matrix(500, 74, 5, 32), 16},
  };
  const dispatch::Isa entry_isa = dispatch::active_isa();
  for (const Case& c : cases) {
    const Matrix<float> Q =
        testutil::random_matrix(64, c.X.cols(), 33, -6.0f, 6.0f);
    std::string first_bytes;
    KnnResult first_result;
    SearchStats first_stats;
    for (const dispatch::Isa isa :
         {dispatch::Isa::kScalar, dispatch::Isa::kAvx2,
          dispatch::Isa::kAvx512}) {
      if (!dispatch::isa_available(isa)) continue;
      dispatch::force_isa(isa);
      const std::string what =
          std::string(c.name) + " under " + dispatch::isa_name(isa);
      RbcExactIndex<> index;
      index.build(c.X, {.num_reps = c.num_reps, .seed = 1234});
      expect_matches_model(index, scalar_build_model(c.X, index.rep_ids()),
                           what);

      std::ostringstream os;
      index.save(os);
      // Per-query path on every ISA (search() would switch to the blocked
      // batch path on SIMD ISAs, whose work counts differ by design).
      constexpr index_t k = 5;
      KnnResult result(Q.rows(), k);
      SearchStats stats;
      RbcExactIndex<>::Scratch scratch;
      TopK top(k);
      for (index_t qi = 0; qi < Q.rows(); ++qi) {
        top.reset();
        index.search_one(Q.row(qi), k, top, scratch, &stats);
        top.extract_sorted(result.dists.row(qi), result.ids.row(qi));
      }
      if (first_bytes.empty()) {
        first_bytes = os.str();
        first_result = std::move(result);
        first_stats = stats;
        continue;
      }
      EXPECT_EQ(os.str(), first_bytes) << what << ": saved bytes differ";
      EXPECT_TRUE(testutil::knn_equal(first_result, result)) << what;
      EXPECT_EQ(stats.rep_dist_evals, first_stats.rep_dist_evals) << what;
      EXPECT_EQ(stats.list_dist_evals, first_stats.list_dist_evals) << what;
      EXPECT_EQ(stats.reps_pruned_overlap, first_stats.reps_pruned_overlap)
          << what;
      EXPECT_EQ(stats.reps_pruned_lemma, first_stats.reps_pruned_lemma)
          << what;
      EXPECT_EQ(stats.reps_scanned, first_stats.reps_scanned) << what;
    }
  }
  dispatch::force_isa(entry_isa);
}

TEST(RbcExactBuild, ListsSortedAndPsiIsMaxMemberDistance) {
  const Matrix<float> X = testutil::clustered_matrix(400, 12, 5, 3);
  RbcExactIndex<> index;
  index.build(X, {.num_reps = 18, .seed = 11});

  for (index_t r = 0; r < index.num_reps(); ++r) {
    const auto dists = index.list_dists(r);
    for (std::size_t j = 1; j < dists.size(); ++j)
      EXPECT_LE(dists[j - 1], dists[j]) << "list " << r << " not sorted";
    const dist_t max_member =
        dists.empty() ? 0.0f : *std::max_element(dists.begin(), dists.end());
    EXPECT_EQ(index.psi(r), max_member);
  }
}

TEST(RbcExactBuild, AutoParamsChooseSqrtN) {
  const Matrix<float> X = testutil::random_matrix(400, 5, 4);
  RbcExactIndex<> index;
  index.build(X);  // num_reps = 0 -> ceil(sqrt(400)) = 20
  EXPECT_EQ(index.num_reps(), 20u);
}

TEST(RbcExactBuild, BernoulliSamplingBuildsWorkingIndex) {
  const Matrix<float> X = testutil::clustered_matrix(600, 9, 5, 5);
  RbcExactIndex<> index;
  index.build(X, {.num_reps = 25, .seed = 13, .sampling = Sampling::kBernoulli});
  EXPECT_GT(index.num_reps(), 0u);
  const Matrix<float> Q = testutil::random_matrix(20, 9, 6, -6.0f, 6.0f);
  EXPECT_TRUE(
      testutil::knn_equal(testutil::naive_knn(Q, X, 3), index.search(Q, 3)));
}

TEST(RbcExactBuild, DeterministicForFixedSeed) {
  const Matrix<float> X = testutil::clustered_matrix(300, 7, 4, 7);
  RbcExactIndex<> a, b;
  a.build(X, {.num_reps = 12, .seed = 99});
  b.build(X, {.num_reps = 12, .seed = 99});
  EXPECT_EQ(a.rep_ids(), b.rep_ids());
  for (index_t r = 0; r < a.num_reps(); ++r) {
    const auto la = a.list_ids(r), lb = b.list_ids(r);
    ASSERT_EQ(la.size(), lb.size());
    for (std::size_t j = 0; j < la.size(); ++j) EXPECT_EQ(la[j], lb[j]);
  }
}

// ----------------------------------------------- exactness property sweep ---

struct ExactCase {
  const char* name;
  index_t n, d, num_reps, k;
  bool clustered;
  bool duplicates;
};

class RbcExactProperty : public ::testing::TestWithParam<ExactCase> {};

TEST_P(RbcExactProperty, SearchEqualsBruteForce) {
  const ExactCase& c = GetParam();
  Matrix<float> X = c.clustered
                        ? testutil::clustered_matrix(c.n, c.d, 7, c.n + c.d)
                        : testutil::random_matrix(c.n, c.d, c.n + c.d);
  if (c.duplicates) X = testutil::with_duplicates(X, c.n / 4);
  const Matrix<float> Q = testutil::random_matrix(40, c.d, c.n, -6.0f, 6.0f);

  RbcExactIndex<> index;
  index.build(X, {.num_reps = c.num_reps, .seed = 1234});
  const KnnResult expected = testutil::naive_knn(Q, X, c.k);
  const KnnResult actual = index.search(Q, c.k);
  EXPECT_TRUE(testutil::knn_equal(expected, actual)) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RbcExactProperty,
    ::testing::Values(
        ExactCase{"tiny", 10, 3, 3, 1, false, false},
        ExactCase{"single_rep", 200, 5, 1, 1, false, false},
        ExactCase{"all_reps", 100, 5, 100, 1, false, false},
        ExactCase{"uniform_k1", 800, 8, 28, 1, false, false},
        ExactCase{"uniform_k5", 800, 8, 28, 5, false, false},
        ExactCase{"clustered_k1", 1000, 12, 32, 1, true, false},
        ExactCase{"clustered_k10", 1000, 12, 32, 10, true, false},
        ExactCase{"duplicates_k3", 400, 6, 20, 3, true, true},
        ExactCase{"duplicates_k1", 400, 6, 20, 1, false, true},
        ExactCase{"high_dim", 500, 74, 22, 3, true, false},
        ExactCase{"low_dim", 1200, 2, 35, 4, true, false},
        ExactCase{"k_exceeds_n", 30, 4, 6, 50, false, false},
        ExactCase{"many_reps_few_points", 60, 5, 40, 2, true, false}),
    [](const auto& info) { return info.param.name; });

// ------------------------------------------------ pruning configurations ---

class RbcExactPruneFlags
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool, bool>> {};

TEST_P(RbcExactPruneFlags, AllFlagCombinationsRemainExact) {
  const auto [overlap, lemma, early, annulus] = GetParam();
  const Matrix<float> X = testutil::clustered_matrix(900, 10, 6, 77);
  const Matrix<float> Q = testutil::random_matrix(30, 10, 78, -6.0f, 6.0f);

  RbcParams params;
  params.num_reps = 30;
  params.seed = 5;
  params.use_overlap_rule = overlap;
  params.use_lemma_rule = lemma;
  params.use_early_exit = early;
  params.use_annulus_bound = annulus;

  RbcExactIndex<> index;
  index.build(X, params);
  EXPECT_TRUE(
      testutil::knn_equal(testutil::naive_knn(Q, X, 3), index.search(Q, 3)));
}

INSTANTIATE_TEST_SUITE_P(Flags, RbcExactPruneFlags,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

// ------------------------------------------------------- other metrics ---

TEST(RbcExactMetrics, L1SearchEqualsBruteForce) {
  const Matrix<float> X = testutil::clustered_matrix(700, 9, 5, 31);
  const Matrix<float> Q = testutil::random_matrix(25, 9, 32, -6.0f, 6.0f);
  RbcExactIndex<L1> index;
  index.build(X, {.num_reps = 26, .seed = 3}, L1{});
  EXPECT_TRUE(testutil::knn_equal(testutil::naive_knn(Q, X, 4, L1{}),
                                  index.search(Q, 4)));
}

TEST(RbcExactMetrics, LInfSearchEqualsBruteForce) {
  const Matrix<float> X = testutil::clustered_matrix(700, 9, 5, 33);
  const Matrix<float> Q = testutil::random_matrix(25, 9, 34, -6.0f, 6.0f);
  RbcExactIndex<LInf> index;
  index.build(X, {.num_reps = 26, .seed = 3}, LInf{});
  EXPECT_TRUE(testutil::knn_equal(testutil::naive_knn(Q, X, 4, LInf{}),
                                  index.search(Q, 4)));
}

// ------------------------------------------------------------ statistics ---

TEST(RbcExactStats, PruningReducesWorkOnClusteredData) {
  const index_t n = 4'000;
  const Matrix<float> X = testutil::clustered_matrix(n, 16, 10, 55);
  const Matrix<float> Q = testutil::random_matrix(50, 16, 56, -6.0f, 6.0f);
  RbcExactIndex<> index;
  index.build(X, {.seed = 2});  // auto nr = ceil(sqrt(n))

  SearchStats stats;
  index.search(Q, 1, &stats);
  EXPECT_EQ(stats.queries, 50u);
  // Work must be far below brute force n per query; on clustered data the
  // RBC examines a small fraction of the database.
  EXPECT_LT(stats.dist_evals_per_query(), 0.5 * n);
  EXPECT_GT(stats.reps_pruned_overlap + stats.reps_pruned_lemma, 0u);
}

TEST(RbcExactStats, StatsAccumulateAcrossCalls) {
  const Matrix<float> X = testutil::clustered_matrix(500, 8, 5, 57);
  const Matrix<float> Q = testutil::random_matrix(10, 8, 58);
  RbcExactIndex<> index;
  index.build(X, {.num_reps = 20, .seed = 2});
  SearchStats stats;
  index.search(Q, 1, &stats);
  index.search(Q, 1, &stats);
  EXPECT_EQ(stats.queries, 20u);
}

TEST(RbcExactStats, EarlyExitSkipsPointsOnClusteredData) {
  // Early exit engages when the candidate bound is tight, which requires
  // in-distribution queries (held-out rows of the same clustered set).
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(3'040, 10, 8, 59), 3'000);
  RbcExactIndex<> index;
  index.build(X, {.seed = 4});
  SearchStats stats;
  index.search(Q, 1, &stats);
  EXPECT_GT(stats.points_skipped_early_exit, 0u);
}

TEST(RbcExactStats, AnnulusBoundSkipsWithoutChangingResults) {
  const Matrix<float> X = testutil::clustered_matrix(2'000, 10, 8, 61);
  const Matrix<float> Q = testutil::random_matrix(30, 10, 62, -6.0f, 6.0f);

  RbcParams with;
  with.seed = 4;
  with.use_annulus_bound = true;
  RbcExactIndex<> a, b;
  a.build(X, with);
  b.build(X, {.seed = 4});

  SearchStats stats_a, stats_b;
  const KnnResult ra = a.search(Q, 2, &stats_a);
  const KnnResult rb = b.search(Q, 2, &stats_b);
  EXPECT_TRUE(testutil::knn_equal(ra, rb));
  EXPECT_GT(stats_a.points_skipped_annulus, 0u);
  EXPECT_LE(stats_a.list_dist_evals, stats_b.list_dist_evals);
}

// -------------------------------------------------------- search scaling ---

TEST(RbcExactScaling, WorkGrowsSublinearlyInN) {
  // Theorem 1: expected examined points ~ c^3 n / nr; with nr = sqrt(n) the
  // per-query work is O(c^3 sqrt(n)). The bound is useful when the intrinsic
  // dimensionality (log2 c) is small, so use 3-dimensional cluster subspaces
  // in an 8-d ambient space. Work ratio between n and 4n must be far below 4
  // (the brute-force ratio); sqrt predicts 2.
  const index_t d = 8;
  double work[2];
  index_t sizes[2] = {2'000, 8'000};
  for (int round = 0; round < 2; ++round) {
    const auto [X, Q] = testutil::split_rows(
        data::make_subspace_clusters(sizes[round] + 60, d, 10,
                                     /*intrinsic_d=*/3, 0.02f, 63),
        sizes[round]);
    RbcExactIndex<> index;
    index.build(X, {.seed = 5});
    SearchStats stats;
    index.search(Q, 1, &stats);
    work[round] = stats.dist_evals_per_query();
  }
  EXPECT_LT(work[1] / work[0], 3.0)
      << "work should scale ~sqrt(n): " << work[0] << " -> " << work[1];
}

TEST(RbcExactEdge, EmptyQueryBatch) {
  const Matrix<float> X = testutil::random_matrix(50, 4, 65);
  RbcExactIndex<> index;
  index.build(X, {.num_reps = 7, .seed = 6});
  const Matrix<float> Q(0, 4);
  const KnnResult r = index.search(Q, 1);
  EXPECT_EQ(r.ids.rows(), 0u);
}

TEST(RbcExactEdge, SinglePointDatabase) {
  Matrix<float> X(1, 3);
  X.at(0, 0) = 1.0f;
  RbcExactIndex<> index;
  index.build(X, {.seed = 7});
  Matrix<float> Q(1, 3);
  Q.at(0, 1) = 2.0f;
  const KnnResult r = index.search(Q, 1);
  EXPECT_EQ(r.ids.at(0, 0), 0u);
}

TEST(RbcExactEdge, QueryEqualsDatabasePoint) {
  const Matrix<float> X = testutil::random_matrix(200, 6, 66);
  RbcExactIndex<> index;
  index.build(X, {.num_reps = 14, .seed = 8});
  Matrix<float> Q(1, 6);
  Q.copy_row_from(X, 123, 0);
  const KnnResult r = index.search(Q, 1);
  EXPECT_EQ(r.ids.at(0, 0), 123u);
  EXPECT_EQ(r.dists.at(0, 0), 0.0f);
}

TEST(RbcExactEdge, MemoryBytesPositiveAndPlausible) {
  const Matrix<float> X = testutil::random_matrix(1'000, 16, 67);
  RbcExactIndex<> index;
  index.build(X, {.seed = 9});
  // At least the packed copy of the database, at most a few multiples.
  const std::size_t raw = 1'000ull * index.dim() * sizeof(float);
  EXPECT_GT(index.memory_bytes(), raw);
  EXPECT_LT(index.memory_bytes(), 8 * raw);
}

}  // namespace
}  // namespace rbc
