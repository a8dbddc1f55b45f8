// The query-tile blocked batch path of RbcExactIndex and the runtime ISA
// dispatch behind every dense scan: results must be IDENTICAL to the
// per-query adaptive path AND identical across every forced ISA — ties
// included — on every data shape and knob combination, because search()
// silently switches paths on batch size and the dispatcher silently
// switches kernels on CPUID. Each test compares against search_one (always
// adaptive) and/or against the scalar-forced dispatch.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "api/api.hpp"
#include "distance/dispatch.hpp"
#include "rbc/rbc.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

/// Every ISA this binary can actually execute (scalar always; avx2/avx512
/// when compiled in and reported by CPUID — unsupported ones are skipped
/// gracefully, which is what the acceptance criterion asks for).
std::vector<dispatch::Isa> runnable_isas() {
  std::vector<dispatch::Isa> isas;
  for (const dispatch::Isa isa :
       {dispatch::Isa::kScalar, dispatch::Isa::kAvx2,
        dispatch::Isa::kAvx512})
    if (dispatch::isa_available(isa)) isas.push_back(isa);
  return isas;
}

/// RAII: pins an ISA for a scope, returns to runtime detection after.
struct IsaGuard {
  explicit IsaGuard(dispatch::Isa isa) { dispatch::force_isa(isa); }
  ~IsaGuard() { dispatch::clear_forced_isa(); }
};

/// Adaptive-path reference: per-query search_one, never blocked.
KnnResult adaptive_search(const RbcExactIndex<>& index,
                          const Matrix<float>& Q, index_t k) {
  KnnResult result(Q.rows(), k);
  RbcExactIndex<>::Scratch scratch;
  TopK top(k);
  for (index_t qi = 0; qi < Q.rows(); ++qi) {
    top.reset();
    index.search_one(Q.row(qi), k, top, scratch);
    top.extract_sorted(result.dists.row(qi), result.ids.row(qi));
  }
  return result;
}

TEST(RbcBlocked, TileKernelMatchesScalarWithinContractionSlack) {
  const index_t d = 37;  // odd, exercises no-padding assumptions
  const Matrix<float> X = testutil::random_matrix(100, d, 1);
  const Matrix<float> Q = testutil::random_matrix(dispatch::kTile, d, 2);

  const float* rows[dispatch::kTile];
  for (index_t t = 0; t < dispatch::kTile; ++t) rows[t] = Q.row(t);
  std::vector<float> qt(static_cast<std::size_t>(d) * dispatch::kTile);
  dispatch::pack_tile(rows, dispatch::kTile, d, qt.data());

  for (const dispatch::Isa isa : runnable_isas()) {
    const dispatch::KernelOps& ops = *dispatch::ops_for(isa);
    std::vector<float> out(static_cast<std::size_t>(X.rows()) *
                           dispatch::kTile);
    float lane_min[dispatch::kTile];
    ops.tile(qt.data(), d, X.data(), X.stride(), 0, X.rows(), out.data(),
             lane_min);

    for (index_t p = 0; p < X.rows(); ++p)
      for (index_t t = 0; t < dispatch::kTile; ++t) {
        const float ref = kernels::sq_l2(Q.row(t), X.row(p), d);
        const float got =
            out[static_cast<std::size_t>(p) * dispatch::kTile + t];
        EXPECT_NEAR(got, ref, 1e-5f + 1e-6f * ref)
            << dispatch::isa_name(isa) << " p=" << p << " t=" << t;
      }
  }
}

TEST(RbcBlocked, LargeBatchMatchesAdaptivePathExactly) {
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(3'256, 12, 8, 3),
                           3'000);  // 256 queries >> kBlockedMinBatch
  RbcExactIndex<> index;
  index.build(X, {.seed = 4});

  for (index_t k : {1u, 5u, 17u}) {
    const KnnResult blocked_result = index.search(Q, k);
    const KnnResult adaptive = adaptive_search(index, Q, k);
    EXPECT_TRUE(testutil::knn_equal(adaptive, blocked_result)) << "k=" << k;
    EXPECT_TRUE(
        testutil::knn_equal(testutil::naive_knn(Q, X, k), blocked_result))
        << "k=" << k << " vs brute force";
  }
}

TEST(RbcBlocked, TiesAndUniformDataMatchExactly) {
  // Duplicated rows force distance ties — the case the (distance, id) order
  // exists for; uniform data defeats pruning so segments span whole lists.
  const Matrix<float> base = testutil::random_matrix(500, 6, 5);
  const Matrix<float> X = testutil::with_duplicates(base, 300);
  const Matrix<float> Q = testutil::random_matrix(150, 6, 6);

  RbcExactIndex<> index;
  index.build(X, {.seed = 7});
  EXPECT_TRUE(testutil::knn_equal(adaptive_search(index, Q, 4),
                                  index.search(Q, 4)));
}

TEST(RbcBlocked, UnevenTailTileAndOddDimensions) {
  const auto [X, Q] = testutil::split_rows(
      testutil::clustered_matrix(2'069, 21, 7, 8), 2'000);  // 69 queries
  RbcExactIndex<> index;
  index.build(X, {.seed = 9});
  EXPECT_TRUE(testutil::knn_equal(adaptive_search(index, Q, 3),
                                  index.search(Q, 3)));
}

TEST(RbcBlocked, AnnulusAndApproxKnobsStayConsistent) {
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(2'128, 10, 6, 10),
                           2'000);

  RbcParams annulus{.seed = 11};
  annulus.use_annulus_bound = true;
  RbcExactIndex<> a;
  a.build(X, annulus);
  EXPECT_TRUE(
      testutil::knn_equal(adaptive_search(a, Q, 2), a.search(Q, 2)));

  // approx_eps: blocked and adaptive prune with the same shrunken bounds;
  // both must stay within the (1+eps) guarantee of the true distances.
  RbcParams approx{.seed = 11};
  approx.approx_eps = 0.5f;
  RbcExactIndex<> b;
  b.build(X, approx);
  const KnnResult truth = testutil::naive_knn(Q, X, 2);
  const KnnResult got = b.search(Q, 2);
  for (index_t qi = 0; qi < Q.rows(); ++qi)
    for (index_t j = 0; j < 2; ++j)
      EXPECT_LE(got.dists.at(qi, j),
                truth.dists.at(qi, j) * 1.5f * (1.0f + 1e-5f))
          << "q" << qi;
}

TEST(RbcBlocked, StatsStayPlausibleOnTheBlockedPath) {
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(4'128, 10, 8, 15),
                           4'000);
  RbcExactIndex<> index;
  index.build(X, {.seed = 16});

  SearchStats stats;
  (void)index.search(Q, 1, &stats);
  EXPECT_EQ(stats.queries, Q.rows());
  EXPECT_EQ(stats.rep_dist_evals,
            static_cast<std::uint64_t>(Q.rows()) * index.num_reps());
  EXPECT_GT(stats.list_dist_evals, 0u);
  // Work stays bounded by brute force on clustered data even though the
  // blocked path refreshes bounds per representative, not per point.
  EXPECT_LT(stats.dist_evals_per_query(), static_cast<double>(X.rows()));
}

// ------------------------------------------------- forced-ISA parity ------
//
// The acceptance bar of the dispatch layer: every backend returns identical
// ids/dists under RBC_FORCE_ISA=scalar|avx2|avx512 (here forced through the
// equivalent programmatic hook; ISAs the host lacks are skipped — that IS
// the graceful degradation being tested).

TEST(ForcedIsaParity, AllBackendsMatchScalarReference) {
  // Duplicated rows manufacture ties; 69 queries leave a partial tile; the
  // clustered structure engages pruning and early exit.
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
  // Below every tile threshold: the row-block kernel path, per query.
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
  // The norms cache is derived state, recomputed when a load rebuilds the
  // index — a reloaded index must answer identically under every ISA.
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
