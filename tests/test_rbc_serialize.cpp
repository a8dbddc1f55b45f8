#include <gtest/gtest.h>

#include <cstring>
#include <new>
#include <sstream>
#include <string>

#include "api/api.hpp"
#include "metricspace/dataset.hpp"
#include "rbc/rbc.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

TEST(Serialize, ExactIndexRoundTripsBitExactly) {
  const Matrix<float> X = testutil::clustered_matrix(600, 11, 6, 1);
  const Matrix<float> Q = testutil::random_matrix(30, 11, 2, -6.0f, 6.0f);

  RbcExactIndex<> original;
  original.build(X, {.num_reps = 22, .seed = 3});

  std::stringstream stream;
  original.save(stream);
  const RbcExactIndex<> restored = RbcExactIndex<>::load(stream);

  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.dim(), original.dim());
  EXPECT_EQ(restored.num_reps(), original.num_reps());
  EXPECT_EQ(restored.rep_ids(), original.rep_ids());
  for (index_t r = 0; r < original.num_reps(); ++r)
    EXPECT_EQ(restored.psi(r), original.psi(r));

  EXPECT_TRUE(
      testutil::knn_equal(original.search(Q, 5), restored.search(Q, 5)));
}

TEST(Serialize, OneShotIndexRoundTripsBitExactly) {
  const Matrix<float> X = testutil::clustered_matrix(500, 9, 5, 4);
  const Matrix<float> Q = testutil::random_matrix(30, 9, 5, -6.0f, 6.0f);

  RbcOneShotIndex<> original;
  original.build(X, {.num_reps = 18, .points_per_rep = 24, .seed = 6});

  std::stringstream stream;
  original.save(stream);
  const RbcOneShotIndex<> restored = RbcOneShotIndex<>::load(stream);

  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.points_per_rep(), original.points_per_rep());
  EXPECT_TRUE(
      testutil::knn_equal(original.search(Q, 3), restored.search(Q, 3)));
}

TEST(Serialize, RangeSearchSurvivesRoundTrip) {
  const Matrix<float> X = testutil::clustered_matrix(400, 7, 4, 7);
  RbcExactIndex<> original;
  original.build(X, {.num_reps = 16, .seed = 8});
  std::stringstream stream;
  original.save(stream);
  const RbcExactIndex<> restored = RbcExactIndex<>::load(stream);
  const Matrix<float> Q = testutil::random_matrix(5, 7, 9, -6.0f, 6.0f);
  for (index_t qi = 0; qi < Q.rows(); ++qi)
    EXPECT_EQ(original.range_search(Q.row(qi), 1.5f),
              restored.range_search(Q.row(qi), 1.5f));
}

// RbcParams has padding bytes, which constructing it leaves as it found
// them, and the exact, one-shot and payload formats store the params in
// their in-memory layout. Builds from equal params constructed over storage
// holding different garbage must still save identical bytes.
TEST(Serialize, SavedBytesDoNotDependOnParamsPadding) {
  const Matrix<float> X = testutil::clustered_matrix(300, 6, 4, 21);
  const metricspace::DatasetHandle words = metricspace::make_string_dataset(
      {"ab", "abc", "b", "bca", "cab", "abcd", "dc", "cd", "a", "bb"});
  const auto save = [&](unsigned char garbage, const std::string& kind) {
    alignas(RbcParams) unsigned char storage[sizeof(RbcParams)];
    std::memset(storage, garbage, sizeof storage);
    const RbcParams& params = *::new (storage)
        RbcParams{.num_reps = 12, .points_per_rep = 20, .seed = 3};
    std::ostringstream os;
    if (kind == "exact") {
      RbcExactIndex<> index;
      index.build(X, params);
      index.save(os);
    } else if (kind == "oneshot") {
      RbcOneShotIndex<> index;
      index.build(X, params);
      index.save(os);
    } else {
      IndexOptions options;
      options.metric = "edit";
      options.rbc = params;
      auto index = make_index("rbc-exact", options);
      index->build_payload(words);
      index->save(os);
    }
    return os.str();
  };
  for (const std::string kind : {"exact", "oneshot", "payload"})
    EXPECT_EQ(save(0x00, kind), save(0xA5, kind)) << kind;
}

TEST(Serialize, RejectsWrongMagic) {
  std::stringstream stream;
  const std::uint32_t bogus = 0xDEADBEEF;
  stream.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  EXPECT_THROW((void)RbcExactIndex<>::load(stream), std::runtime_error);
}

TEST(Serialize, RejectsWrongIndexKind) {
  // A one-shot file must not load as an exact index.
  const Matrix<float> X = testutil::random_matrix(100, 5, 10);
  RbcOneShotIndex<> oneshot;
  oneshot.build(X, {.num_reps = 8, .seed = 11});
  std::stringstream stream;
  oneshot.save(stream);
  EXPECT_THROW((void)RbcExactIndex<>::load(stream), std::runtime_error);
}

TEST(Serialize, RejectsWrongMetric) {
  const Matrix<float> X = testutil::random_matrix(100, 5, 12);
  RbcExactIndex<L1> l1_index;
  l1_index.build(X, {.num_reps = 8, .seed = 13}, L1{});
  std::stringstream stream;
  l1_index.save(stream);
  EXPECT_THROW((void)RbcExactIndex<Euclidean>::load(stream),
               std::runtime_error);
}

TEST(Serialize, RejectsTruncatedStream) {
  const Matrix<float> X = testutil::random_matrix(200, 6, 14);
  RbcExactIndex<> index;
  index.build(X, {.num_reps = 10, .seed = 15});
  std::stringstream stream;
  index.save(stream);
  const std::string full = stream.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)RbcExactIndex<>::load(truncated), std::runtime_error);
}

TEST(Serialize, RejectsDimDisagreeingWithRowWidth) {
  // load() derives the lane-blocked representatives from dim-wide rows, so
  // a header dim that disagrees with the stored matrices must be refused
  // before anything reads past a row.
  const Matrix<float> X = testutil::random_matrix(200, 6, 16);
  RbcExactIndex<> index;
  index.build(X, {.num_reps = 10, .seed = 17});
  std::stringstream stream;
  index.save(stream);
  std::string bytes = stream.str();
  // magic (4) + version (4) + metric tag (8-byte length + "l2") + n (4).
  const std::size_t dim_at = 4 + 4 + 8 + 2 + 4;
  index_t dim = 0;
  std::memcpy(&dim, bytes.data() + dim_at, sizeof(dim));
  ASSERT_EQ(dim, 6u);
  for (const index_t bad : {index_t{5}, index_t{7}, index_t{1u << 30}}) {
    std::memcpy(bytes.data() + dim_at, &bad, sizeof(bad));
    std::stringstream corrupt(bytes);
    EXPECT_THROW((void)RbcExactIndex<>::load(corrupt), std::runtime_error)
        << "dim " << bad;
  }
}

}  // namespace
}  // namespace rbc
