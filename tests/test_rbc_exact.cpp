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
#include "rbc/serialize_io.hpp"
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

using OwnerPath = RbcExactIndex<>::OwnerPath;

// Owners come through the two-level cover of R: a strided sample of
// kOwnerSampleRows rows takes a 1-NN search through it, and the other rows
// take it too unless the sample showed it costly, when they take BF(X, R);
// the cover and BF(X, R) run the dispatched bit-exact l2_lanes shape. Under
// every runnable ISA the built structure must equal a scalar BF(X, R) —
// owners with ties to the lowest representative, list distances and psi
// bitwise — and the representatives, the answers and the per-query work
// counts must be identical across ISAs. Each case pins the owner path it
// ran: clustered rows keep the cover and uniform rows of high dimension
// fall back to BF(X, R) after the sample; databases no larger than the
// sample take the cover for every row. Representative counts leave partial
// lane blocks and cover the 4-block groups of the AVX-512 kernel. The
// lattice data makes exact distance ties between distinct representatives
// common; at 352 representatives it has more of them than distinct points,
// so the cover's inner representatives and lists hold duplicates too (and
// fewer rows than the sample, which then covers them all). The last case's
// outer search knobs (every rule off, Bernoulli sampling, and approx_eps
// 100) must not reach the cover, whose prunes need exact owners.
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
       OwnerPath::kCover},
      {"lattice+dups", lattice_with_duplicates(),
       {.num_reps = 37, .seed = 1234},
       OwnerPath::kCover},
      {"high_dim", testutil::clustered_matrix(500, 74, 5, 32),
       {.num_reps = 16, .seed = 1234},
       OwnerPath::kCover},
      {"clustered at nr 320", testutil::clustered_matrix(1200, 21, 8, 34),
       {.num_reps = 320, .seed = 1234},
       OwnerPath::kCover},
      {"clustered+dups at nr 413",
       testutil::with_duplicates(testutil::clustered_matrix(1500, 13, 7, 35),
                                 500),
       {.num_reps = 413, .seed = 1234},
       OwnerPath::kCover},
      {"lattice+dups at nr 352", lattice_with_duplicates(700),
       {.num_reps = 352, .seed = 1234},
       OwnerPath::kCover},
      {"uniform high_dim at nr 336", testutil::random_matrix(1500, 40, 39),
       {.num_reps = 336, .seed = 1234},
       OwnerPath::kBruteForce},
      {"uniform high_dim at nr 40", testutil::random_matrix(3000, 40, 40),
       {.num_reps = 40, .seed = 1234},
       OwnerPath::kBruteForce},
      {"approx, no rules, bernoulli at nr 432",
       testutil::clustered_matrix(2000, 12, 6, 37),
       {.num_reps = 432,  // draws 401 representatives
        .seed = 5,
        .sampling = Sampling::kBernoulli,
        .use_overlap_rule = false,
        .use_lemma_rule = false,
        .use_early_exit = false,
        .use_annulus_bound = false,
        .approx_eps = 100.0f},
       OwnerPath::kCover},
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
      expect_same_work(first_stats, stats, what);
    }
  }
  dispatch::force_isa(entry_isa);
}

// The cover runs the metric's own kernels off the lane shape: the L1 build
// must equal the scalar L1 model too, on every ISA.
TEST(RbcExactBuild, CoverOwnersMatchTheL1ModelOnEveryIsa) {
  const Matrix<float> X = testutil::with_duplicates(
      testutil::clustered_matrix(1400, 17, 6, 36), 200);
  const dispatch::Isa entry_isa = dispatch::active_isa();
  for (const dispatch::Isa isa :
       {dispatch::Isa::kScalar, dispatch::Isa::kAvx2, dispatch::Isa::kAvx512}) {
    if (!dispatch::isa_available(isa)) continue;
    dispatch::force_isa(isa);
    RbcExactIndex<L1> index;
    index.build(X, {.num_reps = 360, .seed = 77});
    expect_matches_model(index, scalar_build_model<L1>(X, index.rep_ids()),
                         std::string("l1 under ") + dispatch::isa_name(isa));
    EXPECT_EQ(index.owner_path(), RbcExactIndex<L1>::OwnerPath::kCover);
  }
  dispatch::force_isa(entry_isa);
}

/// ceil(sqrt(v)), the cover's inner representative count for v
/// representatives.
std::uint64_t ceil_sqrt(index_t v) {
  return static_cast<std::uint64_t>(std::ceil(std::sqrt(static_cast<double>(v))));
}

// The cover path counts BF(R, S) (nr * ceil(sqrt(nr))) plus, per row, the
// inner distances and the list windows it scans: on clustered rows at most
// half of BF(X, R)'s n * nr (two fifths to a seventh here).
TEST(RbcExactBuild, CoverOwnersCountFewerEvaluationsThanBruteForce) {
  const Matrix<float> X = testutil::clustered_matrix(3000, 8, 10, 38);
  for (const index_t nr : {64u, 319u, 420u}) {
    counters::Scope scope;
    RbcExactIndex<> index;
    index.build(X, {.num_reps = nr, .seed = 3});
    EXPECT_EQ(index.owner_path(), OwnerPath::kCover) << "nr " << nr;
    const std::uint64_t cover = std::uint64_t{nr} * ceil_sqrt(nr);
    EXPECT_LE(scope.delta(), cover + std::uint64_t{X.rows()} * nr / 2)
        << "nr " << nr;
  }
}

// On uniform rows of high dimension the cover prunes little: the sample
// shows that, the other rows take BF(X, R), and the build counts exactly
// BF(X, R) for them plus the cover's BF(R, S) and the sample's search, at
// most ceil(sqrt(nr)) + nr per sampled row: n * nr + nr * ceil(sqrt(nr)) +
// kOwnerSampleRows * ceil(sqrt(nr)) in all.
TEST(RbcExactBuild, HighDimensionalRowsKeepBruteForceOwners) {
  const Matrix<float> X = testutil::random_matrix(32768, 32, 39);
  const index_t nr = 320;
  counters::Scope scope;
  RbcExactIndex<> index;
  index.build(X, {.num_reps = nr, .seed = 3});
  EXPECT_EQ(index.owner_path(), OwnerPath::kBruteForce);
  const std::uint64_t inner = ceil_sqrt(nr);
  const std::uint64_t rows = RbcExactIndex<>::kOwnerSampleRows;
  EXPECT_GE(scope.delta(), (X.rows() - rows) * std::uint64_t{nr});
  EXPECT_LE(scope.delta(),
            std::uint64_t{X.rows()} * nr + nr * inner + rows * inner);
}

// num_reps == 0: the exact index draws 2 ceil(sqrt(n)) representatives and
// keeps them where the sampled cover search prunes (clustered rows of low
// dimension), and redraws ceil(sqrt(n)) where it does not (uniform rows of
// high dimension), whose owners all come from BF(X, R); an explicit
// num_reps is kept as given. Counts decide, so
// the representatives are the same on every ISA, in a second build, and
// in the index a dense save -> load rebuilds from the saved rows and
// params.
TEST(RbcExactBuild, NumRepsZeroDoublesWhereTheCoverPrunes) {
  struct Case {
    const char* name;
    Matrix<float> X;
    RbcParams params;
    index_t want;
    OwnerPath path;
  };
  Case cases[] = {
      {"clustered low-dim", testutil::clustered_matrix(20000, 6, 12, 41),
       {.seed = 9}, 2 * 142, OwnerPath::kCover},
      {"uniform high-dim", testutil::random_matrix(20000, 48, 42),
       {.seed = 9}, 142, OwnerPath::kBruteForce},
      {"explicit", testutil::clustered_matrix(20000, 6, 12, 41),
       {.num_reps = 100, .seed = 9}, 100, OwnerPath::kCover},
  };
  const dispatch::Isa entry_isa = dispatch::active_isa();
  for (const Case& c : cases) {
    std::vector<index_t> first;
    for (const dispatch::Isa isa : runnable_isas()) {
      dispatch::force_isa(isa);
      const std::string what =
          std::string(c.name) + " under " + dispatch::isa_name(isa);
      RbcExactIndex<> a, b;
      a.build(c.X, c.params);
      b.build(c.X, c.params);
      EXPECT_EQ(a.num_reps(), c.want) << what;
      EXPECT_EQ(a.owner_path(), c.path) << what;
      expect_matches_model(a, scalar_build_model(c.X, a.rep_ids()), what);
      EXPECT_EQ(a.rep_ids(), b.rep_ids()) << what;
      if (first.empty()) first = a.rep_ids();
      EXPECT_EQ(a.rep_ids(), first) << what;
    }
    dispatch::force_isa(entry_isa);

    // The dense stream keeps num_reps as given (0), and a load rebuilds
    // from the saved rows under the saved params.
    auto index = make_index("rbc-exact", {.rbc = c.params});
    index->build(c.X);
    std::stringstream stream;
    index->save(stream);
    io::read_header(stream, io::kMagicDense, "dense index");
    for (int tag = 0; tag < 3; ++tag) (void)io::read_string(stream);
    const RbcParams saved = io::read_params(stream);
    EXPECT_EQ(saved.num_reps, c.params.num_reps) << c.name;
    IndexOptions knobs;
    io::read_pod(stream, knobs.leaf_size);
    io::read_pod(stream, knobs.seed);
    io::read_pod(stream, knobs.max_delta);
    std::uint8_t background_merge = 0;
    io::read_pod(stream, background_merge);
    index_t dim = 0;
    io::read_pod(stream, dim);
    std::vector<index_t> ids;
    io::read_vec(stream, ids);
    const Matrix<float> rows = io::read_matrix(stream);
    RbcExactIndex<> reloaded;
    reloaded.build(rows, saved);
    EXPECT_EQ(reloaded.rep_ids(), first) << c.name << " after save -> load";
    stream.clear();
    stream.seekg(0);
    const auto again = load_index(stream);
    EXPECT_EQ(again->info().memory_bytes, index->info().memory_bytes)
        << c.name;
  }
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

// -------------------------------------------------------------- stage 1 ---
//
// Stages 1 and 2 run through the cover of R: the k nearest representatives
// give gamma1 and rep_bound, and inner lists whose triangle bound passes an
// enabled rule are pruned unevaluated. The result must be exactly what a
// flat BF(q, R) followed by rules 1 and 2 gives: the same survivors, at the
// same distance bits, in the same nearest-first order, and the same bounds.
// Both sides apply the rules through the index's rounding margin, which
// keeps a representative whose distance passes a rule by less than it.

/// The flat stage 1 and 2 of paper §5.2 over `index`'s representatives.
template <class M>
void expect_flat_plan(const RbcExactIndex<M>& index, const Matrix<float>& X,
                      const RbcParams& params, const float* q, index_t k,
                      const std::string& what) {
  const M m{};
  const index_t nr = index.num_reps();
  std::vector<dist_t> d(nr);
  for (index_t r = 0; r < nr; ++r)
    d[r] = m(q, X.row(index.rep_ids()[r]), X.cols());
  std::vector<dist_t> sorted = d;
  std::sort(sorted.begin(), sorted.end());
  const dist_t gamma1 = sorted[0];
  const dist_t rep_bound = k <= nr ? sorted[k - 1] : kInfDist;
  const PruneMargin& margin = index.margin();
  std::vector<index_t> want;
  for (index_t r = 0; r < nr; ++r) {
    if (params.use_overlap_rule &&
        margin.overlap_prunes(d[r], rep_bound, index.psi(r)))
      continue;
    if (params.use_lemma_rule && margin.lemma_prunes(d[r], rep_bound, gamma1))
      continue;
    want.push_back(r);
  }
  std::sort(want.begin(), want.end(), [&](index_t a, index_t b) {
    return d[a] < d[b] || (d[a] == d[b] && a < b);
  });

  typename RbcExactIndex<M>::Scratch plan;
  SearchStats stats;
  index.plan_query(q, k, plan, stats);
  EXPECT_EQ(bits(plan.gamma1), bits(gamma1)) << what;
  EXPECT_EQ(bits(plan.rep_bound), bits(rep_bound)) << what;
  ASSERT_EQ(plan.survivors, want) << what;
  for (const index_t r : want)
    EXPECT_EQ(bits(plan.rep_dists[r]), bits(d[r])) << what << " rep " << r;
  EXPECT_EQ(stats.reps_pruned_overlap + stats.reps_pruned_lemma + want.size(),
            std::uint64_t{nr})
      << what;
}

/// n points on a line through the origin, at integer multiples of one
/// direction, and the queries on it too: every triangle is flat, so every
/// triangle bound of the cover is tight up to rounding, and the rules'
/// bounds (sums of list distances) meet representative distances exactly.
Matrix<float> points_on_a_line(index_t n, index_t d, std::uint64_t seed) {
  const Matrix<float> dir = testutil::random_matrix(1, d, seed, 0.1f, 1.0f);
  Rng rng(seed + 1);
  Matrix<float> X(n, d);
  for (index_t i = 0; i < n; ++i) {
    const auto t = static_cast<float>(rng.uniform_index(2 * n)) - n;
    for (index_t j = 0; j < d; ++j) X.at(i, j) = t * dir.at(0, j);
  }
  return X;
}

template <class M>
void check_stage1(const char* name, const Matrix<float>& X,
                  const Matrix<float>& Q) {
  RbcParams variants[] = {
      {},
      {.use_overlap_rule = false},
      {.use_lemma_rule = false},
      {.approx_eps = 0.5f},
  };
  const dispatch::Isa entry_isa = dispatch::active_isa();
  for (const dispatch::Isa isa : runnable_isas()) {
    dispatch::force_isa(isa);
    for (const index_t nr : {1u, 2u, 15u, 16u, 17u, 33u, X.rows()}) {
      for (RbcParams params : variants) {
        params.num_reps = nr;
        params.seed = 61;
        RbcExactIndex<M> index;
        index.build(X, params);
        for (const index_t k : {1u, 10u, nr + 3}) {
          for (index_t qi = 0; qi < Q.rows(); ++qi) {
            std::ostringstream what;
            what << name << " under " << dispatch::isa_name(isa) << ", nr "
                 << nr << " k " << k << " rules " << params.use_overlap_rule
                 << params.use_lemma_rule << " eps " << params.approx_eps
                 << ", query " << qi;
            expect_flat_plan(index, X, params, Q.row(qi), k, what.str());
            if (testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
  dispatch::force_isa(entry_isa);
}

TEST(RbcExactStage1, ClusteredRowsWithDuplicatesMatchTheFlatScan) {
  const Matrix<float> X = testutil::with_duplicates(
      testutil::clustered_matrix(240, 9, 5, 62), 60);
  check_stage1<Euclidean>("clustered+dups", X,
                          testutil::random_matrix(12, 9, 63, -6.0f, 6.0f));
}

TEST(RbcExactStage1, LatticeTiesMatchTheFlatScan) {
  const Matrix<float> X = lattice_with_duplicates();
  check_stage1<Euclidean>("lattice+dups", X, lattice_with_duplicates(0));
}

// Uniform rows of high dimension: no inner list prunes, every
// representative is evaluated.
TEST(RbcExactStage1, UniformHighDimensionalRowsMatchTheFlatScan) {
  const Matrix<float> X = testutil::random_matrix(300, 64, 64);
  check_stage1<Euclidean>("uniform high-dim", X,
                          testutil::random_matrix(12, 64, 65));
}

// Flat triangles make the cover's bounds tight to the last ulp: a prune
// without the rounding margin drops survivors here.
TEST(RbcExactStage1, PointsOnALineMatchTheFlatScan) {
  const Matrix<float> X = points_on_a_line(400, 7, 66);
  check_stage1<Euclidean>("line", X, points_on_a_line(40, 7, 66));
}

TEST(RbcExactStage1, L1MatchesTheFlatScan) {
  const Matrix<float> X = testutil::with_duplicates(
      testutil::clustered_matrix(240, 9, 5, 67), 60);
  check_stage1<L1>("l1 clustered+dups", X,
                   testutil::random_matrix(12, 9, 68, -6.0f, 6.0f));
  check_stage1<L1>("l1 line", points_on_a_line(400, 7, 69),
                   points_on_a_line(40, 7, 69));
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

// ------------------------------------------------------------------ ties ---
//
// The lattice tie sweep (testutil::lattice_tie_case): the bounds of rules 1
// and 2 and both ends of the Claim-2 window are sums of rounded distances
// that meet a tied row's distance to the last ulp, so a prune without the
// rounding margin can drop the tied row with the lower id. Each
// configuration runs with the annulus off and on, and every query must carry
// the functor scan's ids and distance bits. Without the margins this seed's
// sweep returns a tied row's larger id on both paths, annulus off and on.

constexpr std::uint64_t kTieSeed = 3'000;
constexpr std::uint64_t kTieCases = 1'000;

/// Calls search(index, c, check) for every configuration of the sweep and
/// annulus setting; search passes each answer to check(lo, got), got
/// holding the answers to rows [lo, lo + got.ids.rows()) of c.Q. Counts the
/// queries whose answer differs from the functor scan's and names the
/// first.
template <class Search>
void expect_tie_sweep_exact(Search search) {
  std::uint64_t queries = 0, wrong = 0;
  std::string first;
  for (std::uint64_t i = 0; i < kTieCases; ++i) {
    const testutil::TieCase c = testutil::lattice_tie_case(kTieSeed + i);
    const KnnResult want = testutil::naive_knn(c.Q, c.X, c.k);
    for (const bool annulus : {false, true}) {
      RbcExactIndex<> index;
      index.build(c.X, {.num_reps = c.num_reps,
                        .seed = kTieSeed + i,
                        .use_annulus_bound = annulus});
      search(index, c, [&](index_t lo, const KnnResult& got) {
        for (index_t row = 0; row < got.ids.rows(); ++row) {
          ++queries;
          if (testutil::rows_identical(want, lo + row, got, row) ||
              wrong++ > 0)
            continue;
          first = c.name + (annulus ? ", annulus on" : ", annulus off") +
                  ", query " + std::to_string(lo + row);
        }
      });
    }
  }
  EXPECT_EQ(wrong, 0u) << wrong << " of " << queries
                       << " queries differ from the functor scan; first: "
                       << first;
}

// The per-row path: 16-row batches on four threads, one row per task.
TEST(RbcExactTies, PerRowPathMatchesTheFunctorScan) {
  const ThreadLimit threads(4);
  expect_tie_sweep_exact(
      [](const RbcExactIndex<>& index, const testutil::TieCase& c,
         auto check) { check(0, index.search(c.Q, c.k)); });
}

// The team path: batches of 1, 2 and 3 rows in turn on four threads.
TEST(RbcExactTies, TeamPathMatchesTheFunctorScan) {
  const ThreadLimit threads(4);
  expect_tie_sweep_exact([](const RbcExactIndex<>& index,
                            const testutil::TieCase& c, auto check) {
    for (index_t lo = 0, rows = 1; lo < c.Q.rows();
         lo += rows, rows = rows % 3 + 1) {
      rows = std::min(rows, c.Q.rows() - lo);
      check(lo, index.search(slice_rows(c.Q, lo, rows), c.k));
    }
  });
}

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
// in the global counters, stages 1 and 2 (one plan per row, on the calling
// thread) count what the serial rows count, and every representative of
// every row is either pruned or scanned exactly once.
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
    SearchStats planned;
    serial_rows(index, slice_rows(Q, 0, batch), k, &planned);
    EXPECT_EQ(stats.rep_dist_evals, planned.rep_dist_evals) << what;
    EXPECT_EQ(stats.reps_pruned_overlap + stats.reps_pruned_lemma +
                  stats.reps_scanned,
              batch * nr)
        << what;
    EXPECT_GT(stats.list_dist_evals, 0u) << what;
  }
}

// Inside an active OpenMP region (ShardedIndex's (shard, row block)
// fan-out, any outer loop) a small batch keeps the serial per-row search:
// the same answer and the same work counts as search_one.
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
  index.build(X, {.seed = 2});  // auto nr (num_reps = 0)

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

  RbcExactIndex<> a, b;
  a.build(X, {.seed = 4, .use_annulus_bound = true});
  b.build(X, {.seed = 4, .use_annulus_bound = false});

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
