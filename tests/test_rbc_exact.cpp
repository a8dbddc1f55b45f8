// The exactness contract of the RBC exact-search algorithm: for every query,
// every dataset shape, every parameter combination, every metric, every
// batch size and every ISA the dispatcher can select, results equal brute
// force under the (distance, id) order — ties included.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "common/counters.hpp"
#include "data/generators.hpp"
#include "distance/dispatch.hpp"
#include "parallel/runtime.hpp"
#include "rbc/rbc.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

/// Every ISA this binary can execute: scalar always, avx2/avx512 when
/// compiled in and reported by CPUID. The others are skipped, which is the
/// graceful degradation the dispatcher promises.
std::vector<dispatch::Isa> runnable_isas() {
  std::vector<dispatch::Isa> isas;
  for (const dispatch::Isa isa :
       {dispatch::Isa::kScalar, dispatch::Isa::kAvx2, dispatch::Isa::kAvx512})
    if (dispatch::isa_available(isa)) isas.push_back(isa);
  return isas;
}

/// Pins an ISA for a scope, then restores the one selected on entry (an
/// RBC_FORCE_ISA choice included).
class IsaGuard {
 public:
  explicit IsaGuard(dispatch::Isa isa) : entry_(dispatch::active_isa()) {
    dispatch::force_isa(isa);
  }
  ~IsaGuard() { dispatch::force_isa(entry_); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;

 private:
  dispatch::Isa entry_;
};

/// Scalar BF(X, R) with the metric functor, straight from paper §4: each
/// point joins its nearest representative, the lowest representative index
/// winning ties; lists are ordered by (distance, id) and psi is the
/// largest member distance (0 for an empty list).
struct BuildModel {
  std::vector<std::vector<std::pair<dist_t, index_t>>> lists;
  std::vector<dist_t> psi;
};

template <class M = Euclidean>
BuildModel scalar_build_model(const Matrix<float>& X,
                              const std::vector<index_t>& rep_ids) {
  const M m{};
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

/// The serial reference: search_one row by row, work counted into `stats`.
template <class M>
KnnResult serial_rows(const RbcExactIndex<M>& index, const Matrix<float>& Q,
                      index_t k, SearchStats* stats = nullptr) {
  KnnResult result(Q.rows(), k);
  typename RbcExactIndex<M>::Scratch scratch;
  TopK top(k);
  for (index_t qi = 0; qi < Q.rows(); ++qi) {
    top.reset();
    index.search_one(Q.row(qi), k, top, scratch, stats);
    top.extract_sorted(result.dists.row(qi), result.ids.row(qi));
  }
  return result;
}

/// Every work count of `got` equals `want`'s.
void expect_same_work(const SearchStats& want, const SearchStats& got,
                      const std::string& what) {
  EXPECT_EQ(got.queries, want.queries) << what;
  EXPECT_EQ(got.rep_dist_evals, want.rep_dist_evals) << what;
  EXPECT_EQ(got.list_dist_evals, want.list_dist_evals) << what;
  EXPECT_EQ(got.reps_pruned_overlap, want.reps_pruned_overlap) << what;
  EXPECT_EQ(got.reps_pruned_lemma, want.reps_pruned_lemma) << what;
  EXPECT_EQ(got.reps_scanned, want.reps_scanned) << what;
  EXPECT_EQ(got.points_skipped_early_exit, want.points_skipped_early_exit)
      << what;
  EXPECT_EQ(got.points_skipped_annulus, want.points_skipped_annulus) << what;
}

/// Rows [lo, lo + rows) of Q.
Matrix<float> slice_rows(const Matrix<float>& Q, index_t lo, index_t rows) {
  Matrix<float> out(rows, Q.cols());
  for (index_t i = 0; i < rows; ++i) out.copy_row_from(Q, lo + i, i);
  return out;
}

/// Every row of `got` carries the ids and distance bits of row lo + i of
/// `want`.
void expect_rows_match(const KnnResult& want, index_t lo, const KnnResult& got,
                       const std::string& what) {
  ASSERT_EQ(got.ids.cols(), want.ids.cols()) << what;
  ASSERT_LE(lo + got.ids.rows(), want.ids.rows()) << what;
  for (index_t i = 0; i < got.ids.rows(); ++i)
    for (index_t j = 0; j < got.ids.cols(); ++j) {
      EXPECT_EQ(got.ids.at(i, j), want.ids.at(lo + i, j))
          << what << ", row " << lo + i << " slot " << j;
      EXPECT_EQ(bits(got.dists.at(i, j)), bits(want.dists.at(lo + i, j)))
          << what << ", row " << lo + i << " slot " << j;
    }
}

/// Every list of `index` equals the model's, ids in order and distances
/// and psi bitwise.
template <class M>
void expect_matches_model(const RbcExactIndex<M>& index,
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

/// Integer points of the 4-cube {0..3}^4 plus `dups` duplicated rows: exact
/// distance ties everywhere, between rows and between representatives.
Matrix<float> lattice_with_duplicates(index_t dups = 128) {
  Matrix<float> lattice(4 * 4 * 4 * 4, 4);
  for (index_t p = 0; p < lattice.rows(); ++p)
    for (index_t j = 0; j < 4; ++j)
      lattice.at(p, j) = static_cast<float>((p >> (2 * j)) & 3u);
  return testutil::with_duplicates(lattice, dups);
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

constexpr index_t kNested = RbcExactIndex<>::kNestedOwnersMinReps;
using OwnerPath = RbcExactIndex<>::OwnerPath;

// Owners come from BF(X, R) below kNestedOwnersMinReps representatives.
// From it on a strided sample of kOwnerSampleRows rows takes an exact RBC
// over R, and the other rows take it too unless the sample showed it
// costly, when they take BF(X, R); stage 1 and BF(X, R) run the dispatched
// bit-exact l2_lanes shape. Under every runnable ISA the built structure
// must equal a scalar BF(X, R) — owners with ties to the lowest
// representative, list distances and psi bitwise — and the
// representatives, the answers and the per-query work counts must be
// identical across ISAs. Each case pins the owner path it ran: above the
// crossover, clustered rows keep the search and uniform rows of high
// dimension fall back to BF(X, R) after the sample. Representative counts
// leave partial lane blocks and cover the 4-block groups of the AVX-512
// kernel; one sits exactly at the crossover. The lattice data makes exact
// distance ties between distinct representatives common; above the
// crossover it has more representatives than distinct points, so the inner
// index's own representatives and lists hold duplicates too (and fewer
// rows than the sample, which then covers them all). The last case's outer
// search knobs (every rule off, Bernoulli sampling, and approx_eps 100,
// which would make an inner 1-NN all but greedy) must not reach the owner
// search: leaked whole, the inner index would recurse without end; its
// approx_eps alone would give some rows the wrong owner.
TEST(RbcExactBuild, EveryIsaBuildsTheScalarModelBitForBit) {
  struct Case {
    const char* name;
    Matrix<float> X;
    RbcParams params;
    OwnerPath path;
  };
  Case cases[] = {
      {"clustered+dups",
       testutil::with_duplicates(testutil::clustered_matrix(900, 21, 6, 31),
                                 300),
       {.num_reps = 75, .seed = 1234},
       OwnerPath::kBruteForce},
      {"lattice+dups", lattice_with_duplicates(),
       {.num_reps = 37, .seed = 1234},
       OwnerPath::kBruteForce},
      {"high_dim", testutil::clustered_matrix(500, 74, 5, 32),
       {.num_reps = 16, .seed = 1234},
       OwnerPath::kBruteForce},
      {"clustered at the crossover",
       testutil::clustered_matrix(1200, 21, 8, 34),
       {.num_reps = kNested, .seed = 1234},
       OwnerPath::kSearch},
      {"clustered+dups above the crossover",
       testutil::with_duplicates(testutil::clustered_matrix(1500, 13, 7, 35),
                                 500),
       {.num_reps = kNested + 93, .seed = 1234},
       OwnerPath::kSearch},
      {"lattice+dups above the crossover", lattice_with_duplicates(700),
       {.num_reps = kNested + 32, .seed = 1234},
       OwnerPath::kSearch},
      {"uniform high_dim above the crossover",
       testutil::random_matrix(1500, 40, 39),
       {.num_reps = kNested + 16, .seed = 1234},
       OwnerPath::kBruteForce},
      {"approx, no rules, bernoulli above the crossover",
       testutil::clustered_matrix(2000, 12, 6, 37),
       {.num_reps = kNested + 112,  // draws 401 representatives
        .seed = 5,
        .sampling = Sampling::kBernoulli,
        .use_overlap_rule = false,
        .use_lemma_rule = false,
        .use_early_exit = false,
        .use_annulus_bound = false,
        .approx_eps = 100.0f},
       OwnerPath::kSearch},
  };
  const dispatch::Isa entry_isa = dispatch::active_isa();
  for (const Case& c : cases) {
    const Matrix<float> Q =
        testutil::random_matrix(64, c.X.cols(), 33, -6.0f, 6.0f);
    std::vector<index_t> first_reps;
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
      index.build(c.X, c.params);
      expect_matches_model(index, scalar_build_model(c.X, index.rep_ids()),
                           what);
      EXPECT_EQ(index.owner_path(), c.path) << what;

      // Per-query path on every ISA (search() would switch to the blocked
      // batch path on SIMD ISAs, whose work counts differ by design).
      SearchStats stats;
      KnnResult result = serial_rows(index, Q, 5, &stats);
      if (first_reps.empty()) {
        first_reps = index.rep_ids();
        first_result = std::move(result);
        first_stats = stats;
        continue;
      }
      EXPECT_EQ(index.rep_ids(), first_reps)
          << what << ": representatives differ";
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

// Above the crossover the inner search runs the metric's own kernels: the
// L1 build must equal the scalar L1 model too, on every ISA.
TEST(RbcExactBuild, NestedOwnersMatchTheL1ModelOnEveryIsa) {
  const Matrix<float> X = testutil::with_duplicates(
      testutil::clustered_matrix(1400, 17, 6, 36), 200);
  const dispatch::Isa entry_isa = dispatch::active_isa();
  for (const dispatch::Isa isa :
       {dispatch::Isa::kScalar, dispatch::Isa::kAvx2, dispatch::Isa::kAvx512}) {
    if (!dispatch::isa_available(isa)) continue;
    dispatch::force_isa(isa);
    RbcExactIndex<L1> index;
    index.build(X, {.num_reps = kNested + 40, .seed = 77});
    expect_matches_model(index, scalar_build_model<L1>(X, index.rep_ids()),
                         std::string("l1 under ") + dispatch::isa_name(isa));
    EXPECT_EQ(index.owner_path(), RbcExactIndex<L1>::OwnerPath::kSearch);
  }
  dispatch::force_isa(entry_isa);
}

// BF(X, R) counts n * nr evaluations; from the crossover on the owner
// search counts the inner build plus the inner searches, fewer.
TEST(RbcExactBuild, NestedOwnersCountFewerEvaluationsThanBruteForce) {
  const Matrix<float> X = testutil::clustered_matrix(3000, 8, 10, 38);
  for (const index_t nr : {kNested - 1, kNested, kNested + 100}) {
    counters::Scope scope;
    RbcExactIndex<> index;
    index.build(X, {.num_reps = nr, .seed = 3});
    const std::uint64_t brute = std::uint64_t{X.rows()} * nr;
    if (nr < kNested) {
      EXPECT_EQ(scope.delta(), brute) << "nr " << nr;
    } else {
      EXPECT_EQ(index.owner_path(), OwnerPath::kSearch) << "nr " << nr;
      EXPECT_LT(scope.delta(), brute) << "nr " << nr;
    }
  }
}

// On uniform rows of high dimension the owner search prunes little: it
// costs about nr + ceil(sqrt(nr)) evaluations per row, more than BF(X, R).
// The sample shows that, the other rows take BF(X, R), and the build counts
// at most n * nr plus the sample's evaluations: the inner build over R
// (nr * ceil(sqrt(nr)), itself a BF) and at most ceil(sqrt(nr)) + nr per
// sampled row. Searching every row instead counts about 10.99M here,
// against a bound of 10.84M.
TEST(RbcExactBuild, HighDimensionalRowsKeepBruteForceOwners) {
  const Matrix<float> X = testutil::random_matrix(32768, 32, 39);
  const index_t nr = kNested;
  counters::Scope scope;
  RbcExactIndex<> index;
  index.build(X, {.num_reps = nr, .seed = 3});
  EXPECT_EQ(index.owner_path(), OwnerPath::kBruteForce);
  const auto inner_reps = static_cast<std::uint64_t>(
      std::ceil(std::sqrt(static_cast<double>(nr))));
  const std::uint64_t sample =
      nr * inner_reps + RbcExactIndex<>::kOwnerSampleRows * (inner_reps + nr);
  EXPECT_LE(scope.delta(), std::uint64_t{X.rows()} * nr + sample);
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

// Batches smaller than the team take the team path: every shape of the
// sweep, searched one row and three rows at a time on four threads, carries
// the bits of the serial per-row search and of brute force.
TEST_P(RbcExactProperty, TeamPathEqualsSerialRowsAndBruteForce) {
  const ExactCase& c = GetParam();
  Matrix<float> X = c.clustered
                        ? testutil::clustered_matrix(c.n, c.d, 7, c.n + c.d)
                        : testutil::random_matrix(c.n, c.d, c.n + c.d);
  if (c.duplicates) X = testutil::with_duplicates(X, c.n / 4);
  const Matrix<float> Q = testutil::random_matrix(12, c.d, c.n, -6.0f, 6.0f);

  RbcExactIndex<> index;
  index.build(X, {.num_reps = c.num_reps, .seed = 1234});
  const KnnResult serial = serial_rows(index, Q, c.k);
  EXPECT_TRUE(testutil::knn_equal(testutil::naive_knn(Q, X, c.k), serial))
      << c.name;
  const ThreadLimit threads(4);
  for (const index_t batch : {1u, 3u})
    for (index_t lo = 0; lo < Q.rows(); lo += batch)
      expect_rows_match(serial, lo,
                        index.search(slice_rows(Q, lo, batch), c.k),
                        std::string(c.name) + ", batch " +
                            std::to_string(batch));
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

// ------------------------------------------------------------ team path ---

/// search() on every batch smaller than the team: under each runnable ISA
/// and team sizes 2, 3, 4 and 7, Q is searched in batches of 1 and of
/// nt - 1 rows, for k of 1, 5, one more than the longest list, and n. Every
/// batch must carry the ids and distance bits of the per-row search_one,
/// which must equal the naive brute force.
template <class M>
void expect_team_path_exact(const Matrix<float>& X, const Matrix<float>& Q,
                            const RbcParams& params, quant::Storage storage,
                            const std::string& name) {
  for (const dispatch::Isa isa : runnable_isas()) {
    const IsaGuard guard(isa);
    RbcExactIndex<M> index;
    if constexpr (quantized_metric<M>) index.set_storage(storage);
    index.build(X, params);
    index_t longest = 0;
    for (index_t r = 0; r < index.num_reps(); ++r)
      longest = std::max(longest, static_cast<index_t>(index.list_ids(r).size()));
    for (const index_t k : {index_t{1}, index_t{5}, longest + 1, X.rows()}) {
      const std::string what = name + " under " + dispatch::isa_name(isa) +
                               ", k " + std::to_string(k);
      const KnnResult serial = serial_rows(index, Q, k);
      expect_rows_match(testutil::naive_knn(Q, X, k, M{}), 0, serial,
                        what + ", search_one");
      for (const int nt : {2, 3, 4, 7}) {
        const ThreadLimit threads(nt);
        for (const index_t batch : {1, nt - 1}) {
          if (batch == 1 && nt == 2) continue;  // batch 1 already ran
          for (index_t lo = 0; lo < Q.rows(); lo += batch) {
            const index_t rows = std::min(batch, Q.rows() - lo);
            expect_rows_match(serial, lo,
                              index.search(slice_rows(Q, lo, rows), k),
                              what + ", " + std::to_string(nt) +
                                  " threads, batch " + std::to_string(rows));
          }
        }
      }
    }
  }
}

/// Integer-valued queries around the lattice, so query distances tie too.
Matrix<float> lattice_queries() {
  Matrix<float> Q = testutil::random_matrix(9, 4, 41, -1.0f, 4.0f);
  for (index_t i = 0; i < Q.rows(); ++i)
    for (index_t j = 0; j < Q.cols(); ++j)
      Q.at(i, j) = std::round(Q.at(i, j));
  return Q;
}

TEST(RbcExactTeam, LatticeWithDuplicatesEqualsSerialAndBruteForce) {
  expect_team_path_exact<Euclidean>(lattice_with_duplicates(),
                                    lattice_queries(),
                                    {.num_reps = 37, .seed = 1234},
                                    quant::Storage::kFloat32, "lattice+dups");
}

TEST(RbcExactTeam, AnnulusBoundEqualsSerialAndBruteForce) {
  const Matrix<float> X =
      testutil::with_duplicates(testutil::clustered_matrix(900, 21, 6, 43), 200);
  const Matrix<float> Q = testutil::random_matrix(9, 21, 44, -6.0f, 6.0f);
  RbcParams params{.num_reps = 30, .seed = 45};
  params.use_annulus_bound = true;
  expect_team_path_exact<Euclidean>(X, Q, params, quant::Storage::kFloat32,
                                    "clustered+dups, annulus");
}

TEST(RbcExactTeam, L1EqualsSerialAndBruteForce) {
  expect_team_path_exact<L1>(lattice_with_duplicates(), lattice_queries(),
                             {.num_reps = 37, .seed = 1234},
                             quant::Storage::kFloat32, "lattice+dups, L1");
}

TEST(RbcExactTeam, CompressedStorageEqualsSerialAndBruteForce) {
  const Matrix<float> X =
      testutil::with_duplicates(testutil::clustered_matrix(900, 21, 6, 46), 200);
  const Matrix<float> Q = testutil::random_matrix(9, 21, 47, -6.0f, 6.0f);
  for (const quant::Storage storage :
       {quant::Storage::kFp16, quant::Storage::kInt8})
    expect_team_path_exact<Euclidean>(
        X, Q, {.num_reps = 30, .seed = 48}, storage,
        std::string("clustered+dups, ") + quant::name(storage));
}

// The shared bound is candidate-derived, so approx_eps shrinks it like the
// thread's own heap bound: the (1+eps) guarantee holds on the team path.
TEST(RbcExactTeam, ApproxEpsKeepsTheOnePlusEpsGuarantee) {
  const float eps = 0.5f;
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(2'030, 10, 7, 49), 2'000);
  RbcParams params{.seed = 50};
  params.approx_eps = eps;
  RbcExactIndex<> index;
  index.build(X, params);
  const index_t k = 5;
  const KnnResult truth = testutil::naive_knn(Q, X, k);
  const ThreadLimit threads(4);
  for (const index_t batch : {1u, 3u})
    for (index_t lo = 0; lo + batch <= Q.rows(); lo += batch) {
      const KnnResult got = index.search(slice_rows(Q, lo, batch), k);
      for (index_t i = 0; i < batch; ++i)
        for (index_t j = 0; j < k; ++j) {
          const dist_t true_d = truth.dists.at(lo + i, j);
          const dist_t got_d = got.dists.at(i, j);
          ASSERT_NE(got.ids.at(i, j), kInvalidIndex) << "row " << lo + i;
          // Small float slack on top of the guarantee factor.
          EXPECT_LE(got_d, (1.0f + eps) * true_d * (1.0f + 1e-5f) + 1e-6f)
              << "row " << lo + i << " slot " << j << ", batch " << batch;
          EXPECT_GE(got_d, true_d * (1.0f - 1e-5f))
              << "row " << lo + i << " slot " << j << ", batch " << batch;
        }
    }
}

// On the default team (OMP_NUM_THREADS decides it), batches of 1 and
// nt - 1 rows carry the serial answer. Work counts on the team path depend
// on the schedule, but each evaluation is counted once in the stats and once
// in the global counters, and every representative of every row is either
// pruned or scanned exactly once.
TEST(RbcExactTeam, DefaultTeamCountsMatchTheCountersAndVisitEachListOnce) {
  const Matrix<float> X = testutil::clustered_matrix(3'000, 12, 8, 51);
  const index_t nt = static_cast<index_t>(max_threads());
  const Matrix<float> Q =
      testutil::random_matrix(std::max<index_t>(nt, 2), 12, 52, -6.0f, 6.0f);
  RbcExactIndex<> index;
  index.build(X, {.seed = 53});
  const std::uint64_t nr = index.num_reps();
  const index_t k = 5;
  const KnnResult serial = serial_rows(index, Q, k);
  for (const index_t batch : {index_t{1}, nt - 1}) {
    if (batch == 0) continue;  // a team of one has no smaller batch
    SearchStats stats;
    const counters::Scope scope;
    const KnnResult got = index.search(slice_rows(Q, 0, batch), k, &stats);
    const std::string what = "batch " + std::to_string(batch);
    expect_rows_match(serial, 0, got, what);
    EXPECT_EQ(scope.delta(), stats.dist_evals()) << what;
    EXPECT_EQ(stats.queries, batch);
    EXPECT_EQ(stats.rep_dist_evals, batch * nr);
    EXPECT_EQ(stats.reps_pruned_overlap + stats.reps_pruned_lemma +
                  stats.reps_scanned,
              batch * nr)
        << what;
    EXPECT_GT(stats.list_dist_evals, 0u) << what;
  }
}

// Inside an active OpenMP region (ShardedIndex's (shard, row) fan-out, any
// outer loop) a small batch keeps the serial per-row search: the same
// answer and the same work counts as search_one.
TEST(RbcExactTeam, InsideAnOpenMpRegionRowsRunSerially) {
  const Matrix<float> X = testutil::clustered_matrix(3'000, 12, 8, 54);
  const Matrix<float> Q = testutil::random_matrix(3, 12, 55, -6.0f, 6.0f);
  RbcExactIndex<> index;
  index.build(X, {.seed = 56});
  const index_t k = 5;
  SearchStats want_stats;
  const KnnResult want = serial_rows(index, Q, k, &want_stats);

  const ThreadLimit threads(4);
  KnnResult got;
  SearchStats stats;
  std::uint64_t evals = 0;
  bool nested = false;
#pragma omp parallel num_threads(2)
  {
#pragma omp single
    {
      nested = in_parallel();
      const counters::Scope scope;
      got = index.search(Q, k, &stats);
      evals = scope.delta();
    }
  }
#ifdef _OPENMP
  EXPECT_TRUE(nested);
#endif
  expect_rows_match(want, 0, got, "inside a region");
  EXPECT_EQ(evals, want_stats.dist_evals());
  expect_same_work(want_stats, stats, "inside a region");
}

// ----------------------------------------------------------- batch path ---

// search() on a batch of max_threads() rows and on the batch sizes a
// service coalesces and an offline caller sends (16, 69, 128 and 256 rows),
// under every runnable ISA: every row carries the ids and distance bits of
// the per-row search_one, which equal brute force. Duplicated rows make
// distance ties. A batch of at least max_threads() rows runs one row per
// task and counts exactly the per-row work; a smaller one takes the team
// path, whose counts vary with the schedule.
TEST(RbcExactBatch, EveryBatchSizeMatchesSearchOneAndBruteForce) {
  const auto [base, Q] = testutil::split_rows(
      testutil::clustered_matrix(3'256, 12, 8, 3), 3'000);  // 256 queries
  const Matrix<float> X = testutil::with_duplicates(base, 300);
  const index_t team = static_cast<index_t>(max_threads());
  for (const dispatch::Isa isa : runnable_isas()) {
    const IsaGuard guard(isa);
    RbcExactIndex<> index;
    index.build(X, {.seed = 4});
    for (const index_t k : {1u, 5u, 17u}) {
      const std::string at =
          std::string(dispatch::isa_name(isa)) + ", k " + std::to_string(k);
      const KnnResult serial = serial_rows(index, Q, k);
      expect_rows_match(testutil::naive_knn(Q, X, k), 0, serial,
                        at + ", search_one");
      for (const index_t batch :
           {std::min(team, Q.rows()), 16u, 69u, 128u, 256u}) {
        const std::string what = at + ", batch " + std::to_string(batch);
        const Matrix<float> rows = slice_rows(Q, 0, batch);
        SearchStats want, got;
        expect_rows_match(serial, 0, index.search(rows, k, &got), what);
        if (batch < team) continue;
        (void)serial_rows(index, rows, k, &want);
        expect_same_work(want, got, what);
      }
    }
  }
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

// ------------------------------------------------- forced-ISA parity ------
//
// The acceptance bar of the dispatch layer: every backend returns identical
// ids/dists under RBC_FORCE_ISA=scalar|avx2|avx512 (here forced through the
// equivalent programmatic hook; ISAs the host lacks are skipped — that IS
// the graceful degradation being tested).

TEST(ForcedIsaParity, AllBackendsMatchScalarReference) {
  // Duplicated rows manufacture ties; 69 queries leave bruteforce's batch
  // path a partial tile; the clustered structure engages pruning and early
  // exit.
  const Matrix<float> base = testutil::clustered_matrix(1'200, 13, 6, 21);
  const auto [X, Q] = testutil::split_rows(
      testutil::with_duplicates(base, 300), 1'431);  // 69 held-out queries
  const index_t k = 5;

  for (const char* backend :
       {"bruteforce", "rbc-exact", "rbc-oneshot", "kdtree", "balltree"}) {
    auto index = make_index(backend, {.rbc = {.seed = 22}});
    index->build(X);

    KnnResult reference;
    {
      IsaGuard guard(dispatch::Isa::kScalar);
      reference = index->knn_search({.queries = &Q, .k = k}).knn;
    }
    for (const dispatch::Isa isa : runnable_isas()) {
      IsaGuard guard(isa);
      const KnnResult got = index->knn_search({.queries = &Q, .k = k}).knn;
      EXPECT_TRUE(testutil::knn_equal(reference, got))
          << backend << " under " << dispatch::isa_name(isa);
    }
  }
}

TEST(ForcedIsaParity, SmallBatchesAndSingleQueries) {
  // Below bruteforce's tile threshold: the row-block kernel, per query.
  const auto [X, Q] = testutil::split_rows(
      testutil::clustered_matrix(807, 7, 5, 23), 800);  // 7 queries

  for (const char* backend : {"bruteforce", "rbc-exact", "rbc-oneshot"}) {
    auto index = make_index(backend, {.rbc = {.seed = 24}});
    index->build(X);

    KnnResult reference;
    {
      IsaGuard guard(dispatch::Isa::kScalar);
      reference = index->knn_search({.queries = &Q, .k = 3}).knn;
    }
    for (const dispatch::Isa isa : runnable_isas()) {
      IsaGuard guard(isa);
      const KnnResult got = index->knn_search({.queries = &Q, .k = 3}).knn;
      EXPECT_TRUE(testutil::knn_equal(reference, got))
          << backend << " under " << dispatch::isa_name(isa);
    }
  }
}

TEST(ForcedIsaParity, LongAnnulusListsMatchAcrossIsas) {
  // Four representatives over 800 rows => ownership lists of ~200 rows, so
  // every list scan runs the kernelized segment path (>= kKernelMinSegment)
  // with the annulus bound cutting both ends of the window. Compare every
  // ISA against the scalar-forced dispatch AND against the naive reference.
  const Matrix<float> base = testutil::clustered_matrix(600, 9, 4, 25);
  const Matrix<float> extra = testutil::clustered_matrix(200, 9, 4, 26);
  Matrix<float> X(base.rows() + extra.rows(), base.cols());
  for (index_t i = 0; i < base.rows(); ++i) X.copy_row_from(base, i, i);
  for (index_t i = 0; i < extra.rows(); ++i)
    X.copy_row_from(extra, i, base.rows() + i);
  const Matrix<float> Q = testutil::random_matrix(40, 9, 27, -6.0f, 6.0f);

  RbcParams params{.num_reps = 4, .seed = 28};
  params.use_annulus_bound = true;
  RbcExactIndex<> index;
  index.build(X, params);
  for (index_t r = 0; r < index.num_reps(); ++r)
    ASSERT_GE(index.list_ids(r).size(), RbcExactIndex<>::kKernelMinSegment);

  KnnResult reference;
  {
    IsaGuard guard(dispatch::Isa::kScalar);
    reference = index.search(Q, 4);
  }
  EXPECT_TRUE(testutil::knn_equal(testutil::naive_knn(Q, X, 4), reference));
  for (const dispatch::Isa isa : runnable_isas()) {
    IsaGuard guard(isa);
    EXPECT_TRUE(testutil::knn_equal(reference, index.search(Q, 4)))
        << dispatch::isa_name(isa);
  }
}

TEST(ForcedIsaParity, SerializedIndexSearchesIdenticallyAfterReload) {
  // A load rebuilds the index from its saved rows: the reloaded index must
  // answer identically under every ISA.
  const auto [X, Q] = testutil::split_rows(
      testutil::clustered_matrix(1'050, 11, 6, 29), 1'000);
  auto index = make_index("rbc-exact", {.rbc = {.seed = 30}});
  index->build(X);

  std::stringstream stream;
  index->save(stream);
  const auto reloaded = load_index(stream);

  for (const dispatch::Isa isa : runnable_isas()) {
    IsaGuard guard(isa);
    EXPECT_TRUE(testutil::knn_equal(
        index->knn_search({.queries = &Q, .k = 3}).knn,
        reloaded->knn_search({.queries = &Q, .k = 3}).knn))
        << dispatch::isa_name(isa);
  }
}

}  // namespace
}  // namespace rbc
