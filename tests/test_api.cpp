// The unified index API: factory registry, type-erased search parity with
// the concrete classes, request validation, and save -> load_index -> search
// round-trips on the unified serialization path — for every registered
// backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "api/api.hpp"
#include "baselines/balltree.hpp"
#include "baselines/covertree.hpp"
#include "baselines/kdtree.hpp"
#include "gpu/gpu_bf.hpp"
#include "rbc/rbc.hpp"
#include "rbc/serialize_io.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

/// The six CPU backends the acceptance bar names: each must build, answer
/// through the unified SearchRequest API, and round-trip through
/// rbc::load_index. The exact five must equal brute force, ties included.
const char* const kCpuBackends[] = {"bruteforce", "rbc-exact", "rbc-oneshot",
                                    "kdtree",     "balltree",  "covertree"};

TEST(ApiRegistry, AllBuiltinBackendsAreRegistered) {
  const std::vector<std::string> names = registered_backends();
  for (const char* required :
       {"bruteforce", "rbc-exact", "rbc-oneshot", "kdtree", "balltree",
        "covertree", "gpu-bf", "gpu-oneshot"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << "missing backend: " << required;
  }
}

TEST(ApiRegistry, UnknownNameThrowsWithKnownNamesListed) {
  try {
    (void)make_index("no-such-backend");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("rbc-exact"), std::string::npos)
        << "error should list registered names, got: " << e.what();
  }
}

TEST(ApiRegistry, ReRegisteringATakenNameIsRejected) {
  EXPECT_FALSE(register_backend(
      {.name = "bruteforce",
       .create = [](const IndexOptions&) -> std::unique_ptr<Index> {
         return nullptr;
       },
       .magic = 0,
       .load = nullptr}));
}

class ApiBackendTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ApiBackendTest, BuildsAndAnswersThroughTheUnifiedRequestApi) {
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(1'040, 12, 6, 1),
                           1'000);
  const index_t k = 5;

  auto index = make_index(GetParam(), {.rbc = {.seed = 2}});
  ASSERT_NE(index, nullptr);
  index->build(X);

  const IndexInfo info = index->info();
  EXPECT_EQ(info.backend, GetParam());
  EXPECT_EQ(info.size, X.rows());
  EXPECT_EQ(info.dim, X.cols());

  SearchRequest request{.queries = &Q, .k = k};
  request.options.collect_stats = true;
  const SearchResponse response = index->knn_search(request);
  EXPECT_EQ(response.knn.ids.rows(), Q.rows());
  EXPECT_EQ(response.knn.ids.cols(), k);
  EXPECT_EQ(response.stats.queries, Q.rows());

  const KnnResult reference = testutil::naive_knn(Q, X, k);
  if (info.exact) {
    EXPECT_TRUE(testutil::knn_equal(reference, response.knn))
        << GetParam() << " diverged from brute force";
  } else {
    // Probabilistic backend (one-shot): documented recall, not a guarantee.
    index_t agree = 0;
    for (index_t qi = 0; qi < Q.rows(); ++qi)
      if (response.knn.ids.at(qi, 0) == reference.ids.at(qi, 0)) ++agree;
    EXPECT_GT(agree, Q.rows() / 3)
        << GetParam() << " recall@1 collapsed: " << agree << "/" << Q.rows();
  }
}

TEST_P(ApiBackendTest, MatchesItsConcreteClassExactly) {
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(540, 8, 4, 3), 500);
  const index_t k = 3;
  const RbcParams params{.seed = 4};

  auto erased = make_index(GetParam(), {.rbc = params});
  erased->build(X);
  const KnnResult from_erased =
      erased->knn_search({.queries = &Q, .k = k}).knn;

  KnnResult from_concrete;
  const std::string name = GetParam();
  if (name == "bruteforce") {
    from_concrete = bf_knn(Q, X, k);
  } else if (name == "rbc-exact") {
    RbcExactIndex<> concrete;
    concrete.build(X, params);
    from_concrete = concrete.search(Q, k);
  } else if (name == "rbc-oneshot") {
    RbcOneShotIndex<> concrete;
    concrete.build(X, params);
    from_concrete = concrete.search(Q, k);
  } else if (name == "kdtree" || name == "balltree" || name == "covertree") {
    KdTree kd;
    BallTree<> ball;
    CoverTree<> cover;
    if (name == "kdtree") kd.build(X);
    if (name == "balltree") ball.build(X);
    if (name == "covertree") cover.build(X);
    from_concrete = KnnResult(Q.rows(), k);
    for (index_t qi = 0; qi < Q.rows(); ++qi) {
      TopK top(k);
      if (name == "kdtree") kd.knn(Q.row(qi), k, top);
      if (name == "balltree") ball.knn(Q.row(qi), k, top);
      if (name == "covertree") cover.knn(Q.row(qi), k, top);
      top.extract_sorted(from_concrete.dists.row(qi),
                         from_concrete.ids.row(qi));
    }
  }
  EXPECT_TRUE(testutil::knn_equal(from_concrete, from_erased))
      << name << ": type-erased adapter diverged from its concrete class";
}

TEST_P(ApiBackendTest, SaveLoadIndexRoundTripAnswersIdentically) {
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(330, 7, 4, 5), 300);
  const index_t k = 4;

  auto index = make_index(GetParam(), {.rbc = {.seed = 6}});
  index->build(X);
  ASSERT_TRUE(index->info().supports_save);
  const KnnResult before = index->knn_search({.queries = &Q, .k = k}).knn;

  std::stringstream stream;
  index->save(stream);
  const auto restored = load_index(stream);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->info().backend, GetParam());
  EXPECT_EQ(restored->info().size, X.rows());

  const KnnResult after = restored->knn_search({.queries = &Q, .k = k}).knn;
  EXPECT_TRUE(testutil::knn_equal(before, after))
      << GetParam() << ": restored index diverged";
}

TEST_P(ApiBackendTest, MalformedRequestsThrow) {
  const Matrix<float> X = testutil::random_matrix(50, 6, 7);
  const Matrix<float> Q = testutil::random_matrix(5, 6, 8);
  const Matrix<float> wrong_dim = testutil::random_matrix(5, 4, 9);

  auto index = make_index(GetParam());
  // Unbuilt index.
  EXPECT_THROW((void)index->knn_search({.queries = &Q, .k = 1}),
               std::invalid_argument);
  index->build(X);
  // Null queries, k == 0, k > database size, dimension mismatch.
  EXPECT_THROW((void)index->knn_search({.queries = nullptr, .k = 1}),
               std::invalid_argument);
  EXPECT_THROW((void)index->knn_search({.queries = &Q, .k = 0}),
               std::invalid_argument);
  EXPECT_THROW((void)index->knn_search({.queries = &Q, .k = X.rows() + 1}),
               std::invalid_argument);
  EXPECT_THROW((void)index->knn_search({.queries = &wrong_dim, .k = 1}),
               std::invalid_argument);
}

TEST(ApiErrors, KBeyondDatabaseSizeThrowsIdenticallyAcrossAllBackends) {
  // The unified contract (satellite of the error-path cleanup): k > n is a
  // request error everywhere — CPU and device backends alike — not
  // backend-specific padding, truncation, or UB. n is kept below the device
  // kernel's kMaxK so this check is what fires, not the GPU k limit.
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(28, 6, 3, 22), 24);
  for (const std::string& name : registered_backends()) {
    auto index = make_index(
        name, {.rbc = {.num_reps = 6, .seed = 23}, .gpu_workers = 2});
    index->build(X);
    try {
      (void)index->knn_search({.queries = &Q, .k = X.rows() + 1});
      FAIL() << name << " accepted k > database size";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("exceeds database size"),
                std::string::npos)
          << name << " threw a different message: " << e.what();
    }
  }
}

TEST(ApiErrors, KBeyondPostDeleteSizeThrowsTheSameUniformError) {
  // Streaming-mutability satellite: when remove() shrinks the live set
  // below a previously valid k, the next search must fail with the exact
  // same uniform "exceeds database size" contract as build-time k > n —
  // not stale padding from tombstoned rows, and not a different message.
  const Matrix<float> X = testutil::clustered_matrix(12, 6, 3, 29);
  const Matrix<float> Q = testutil::random_matrix(3, 6, 30);
  for (const std::string& name : registered_backends()) {
    auto index = make_index(
        name, {.rbc = {.num_reps = 4, .seed = 31}, .num_shards = 2});
    if (!index->info().supports_mutation) continue;
    SCOPED_TRACE(name);
    index->build(X);
    EXPECT_NO_THROW((void)index->knn_search({.queries = &Q, .k = 10}));
    // Drop 4 rows: 8 live, so k = 10 now exceeds the database size even
    // though 12 physical rows sit behind the tombstones.
    EXPECT_EQ(index->remove(std::vector<index_t>{1, 4, 7, 10}), 4u);
    try {
      (void)index->knn_search({.queries = &Q, .k = 10});
      FAIL() << name << " accepted k > post-delete database size";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("exceeds database size"),
                std::string::npos)
          << name << " threw a different message: " << e.what();
    }
    // k == the shrunken live count is the boundary and must pass.
    EXPECT_NO_THROW((void)index->knn_search({.queries = &Q, .k = 8}));
  }
}

INSTANTIATE_TEST_SUITE_P(CpuBackends, ApiBackendTest,
                         ::testing::ValuesIn(kCpuBackends),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(ApiRangeSearch, BruteforceAndRbcExactMatchTheNaiveReference) {
  const Matrix<float> X = testutil::clustered_matrix(800, 8, 5, 10);
  const Matrix<float> Q = testutil::random_matrix(20, 8, 11, -6.0f, 6.0f);
  const dist_t radius = 2.0f;

  for (const char* name : {"bruteforce", "rbc-exact"}) {
    auto index = make_index(name);
    index->build(X);
    ASSERT_TRUE(index->info().supports_range);
    const RangeResponse response =
        index->range_search({.queries = &Q, .radius = radius});
    ASSERT_EQ(response.ids.size(), Q.rows());
    for (index_t qi = 0; qi < Q.rows(); ++qi)
      EXPECT_EQ(response.ids[qi], testutil::naive_range(Q.row(qi), X, radius))
          << name << " query " << qi;
  }
}

TEST(ApiRangeSearch, IpRadiusIsANegatedDotThresholdAndMayBeNegative) {
  const Matrix<float> X = testutil::random_matrix(200, 6, 14);
  const Matrix<float> Q = testutil::random_matrix(5, 6, 15);
  auto index = make_index("bruteforce", {.metric = "ip"});
  index->build(X);

  // radius = -t selects all rows with dot(q, x) >= t; a negative radius is
  // the useful case and must pass validation under "ip".
  const float t = 0.25f;
  const RangeResponse response =
      index->range_search({.queries = &Q, .radius = -t});
  ASSERT_EQ(response.ids.size(), Q.rows());
  const InnerProduct metric{};
  for (index_t qi = 0; qi < Q.rows(); ++qi) {
    std::vector<index_t> expected;
    for (index_t j = 0; j < X.rows(); ++j)
      if (metric(Q.row(qi), X.row(j), X.cols()) <= -t) expected.push_back(j);
    EXPECT_EQ(response.ids[qi], expected) << "query " << qi;
  }

  // Real metrics keep the non-negativity rule.
  auto l2 = make_index("bruteforce");
  l2->build(X);
  EXPECT_THROW((void)l2->range_search({.queries = &Q, .radius = -1.0f}),
               std::invalid_argument);
}

TEST(ApiRangeSearch, UnsupportedBackendThrows) {
  const Matrix<float> X = testutil::random_matrix(30, 5, 12);
  const Matrix<float> Q = testutil::random_matrix(3, 5, 13);
  auto index = make_index("kdtree");
  index->build(X);
  EXPECT_FALSE(index->info().supports_range);
  EXPECT_THROW((void)index->range_search({.queries = &Q, .radius = 1.0f}),
               std::runtime_error);
}

TEST(ApiGpu, DeviceBackendsMatchBruteForceWithinKernelLimits) {
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(1'030, 10, 5, 14),
                           1'000);
  const index_t k = 3;
  const KnnResult reference = testutil::naive_knn(Q, X, k);

  auto gpu_bf = make_index("gpu-bf", {.gpu_workers = 2});
  gpu_bf->build(X);
  EXPECT_FALSE(gpu_bf->info().supports_save);
  const SearchResponse bf_resp = gpu_bf->knn_search({.queries = &Q, .k = k});
  EXPECT_TRUE(testutil::knn_equal(reference, bf_resp.knn));
  // k beyond the device kernel limit is a request error, not a crash.
  EXPECT_THROW(
      (void)gpu_bf->knn_search({.queries = &Q, .k = gpu::kMaxK + 1}),
      std::invalid_argument);

  auto gpu_oneshot = make_index(
      "gpu-oneshot",
      {.rbc = {.num_reps = 64, .points_per_rep = 64, .seed = 15},
       .gpu_workers = 2});
  gpu_oneshot->build(X);
  const KnnResult approx =
      gpu_oneshot->knn_search({.queries = &Q, .k = 1}).knn;
  index_t agree = 0;
  for (index_t qi = 0; qi < Q.rows(); ++qi)
    if (approx.ids.at(qi, 0) == reference.ids.at(qi, 0)) ++agree;
  EXPECT_GT(agree, Q.rows() / 3) << "gpu-oneshot recall collapsed";
}

TEST(ApiSerialization, AUserFormatLoadsThroughItsRegisteredMagic) {
  // A user backend with a format of its own registers a magic and a
  // loader; load_index hands that loader the stream from the magic on.
  // This one's format is its magic followed by a dense stream.
  static constexpr std::uint32_t kUserMagic = 0x52455355;  // "USER"
  ASSERT_TRUE(register_backend(
      {.name = "user-format",
       .create =
           [](const IndexOptions& o) { return make_index("bruteforce", o); },
       .magic = kUserMagic,
       .load = [](std::istream& is) -> std::unique_ptr<Index> {
         io::expect_pod(is, kUserMagic, "user magic");
         return load_index(is);
       }}));
  const Matrix<float> X = testutil::clustered_matrix(200, 6, 4, 16);
  const Matrix<float> Q = testutil::random_matrix(10, 6, 17);
  auto index = make_index("user-format");
  index->build(X);
  std::stringstream stream;
  io::write_pod(stream, kUserMagic);
  index->save(stream);
  const auto restored = load_index(stream);
  EXPECT_TRUE(testutil::knn_equal(
      index->knn_search({.queries = &Q, .k = 3}).knn,
      restored->knn_search({.queries = &Q, .k = 3}).knn));
}

TEST(ApiSerialization, GarbageStreamIsRejected) {
  std::stringstream stream("definitely not an index file");
  EXPECT_THROW((void)load_index(stream), std::runtime_error);
}

TEST(ApiStats, CollectStatsIsOffByDefaultAndOnByRequest) {
  const Matrix<float> X = testutil::clustered_matrix(500, 8, 4, 19);
  const Matrix<float> Q = testutil::random_matrix(25, 8, 20);

  auto index = make_index("rbc-exact", {.rbc = {.seed = 21}});
  index->build(X);

  const SearchResponse quiet = index->knn_search({.queries = &Q, .k = 2});
  EXPECT_EQ(quiet.stats.queries, 0u);

  SearchRequest request{.queries = &Q, .k = 2};
  request.options.collect_stats = true;
  const SearchResponse loud = index->knn_search(request);
  EXPECT_EQ(loud.stats.queries, Q.rows());
  EXPECT_GT(loud.stats.dist_evals(), 0u);
}

}  // namespace
}  // namespace rbc
