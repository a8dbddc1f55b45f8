// ShardedIndex internals the conformance suite doesn't reach: the
// partition math, k clamping when shards are smaller than k, range-search
// fan-out, IndexInfo aggregation, shard-parameter validation, the generic
// "sharded:<inner>" factory fallback for user-registered backends, and a
// shard's search failure reaching the caller from either fan-out.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "api/api.hpp"
#include "parallel/runtime.hpp"
#include "rbc/serialize_io.hpp"
#include "shard/sharded_index.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

struct ShardFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A read-only bruteforce whose every k-NN search throws ShardFault.
class FaultyIndex final : public Index {
 public:
  void build(const Matrix<float>& X) override { inner_->build(X); }
  SearchResponse knn_search(const SearchRequest&) const override {
    throw ShardFault("faulty-knn: shard search failed");
  }
  IndexInfo info() const override {
    IndexInfo info = inner_->info();
    info.backend = "faulty-knn";
    info.supports_mutation = false;
    return info;
  }

 private:
  std::unique_ptr<Index> inner_ = make_index("bruteforce");
};

TEST(ShardPartition, ContiguousCoversEveryRowOnceInOrder) {
  for (index_t n : {0u, 1u, 5u, 7u, 100u}) {
    for (index_t shards : {1u, 2u, 7u, 13u}) {
      const auto rows =
          shard::partition_rows(n, shards, shard::Partition::kContiguous);
      ASSERT_EQ(rows.size(), shards);
      std::vector<index_t> flat;
      for (const auto& set : rows)
        flat.insert(flat.end(), set.begin(), set.end());
      std::vector<index_t> expected(n);
      std::iota(expected.begin(), expected.end(), 0u);
      EXPECT_EQ(flat, expected) << "n=" << n << " shards=" << shards;
      // Balance: contiguous shard sizes differ by at most one row.
      std::size_t lo = n, hi = 0;
      for (const auto& set : rows) {
        lo = std::min(lo, set.size());
        hi = std::max(hi, set.size());
      }
      EXPECT_LE(hi - lo, 1u);
    }
  }
}

TEST(ShardPartition, StridedAssignsRowIModShards) {
  const auto rows =
      shard::partition_rows(10, 3, shard::Partition::kStrided);
  EXPECT_EQ(rows[0], (std::vector<index_t>{0, 3, 6, 9}));
  EXPECT_EQ(rows[1], (std::vector<index_t>{1, 4, 7}));
  EXPECT_EQ(rows[2], (std::vector<index_t>{2, 5, 8}));
}

TEST(ShardedIndex, KLargerThanEveryShardClampsAndMergesExactly) {
  // 10 points over 7 shards: every shard holds 1-2 rows, so k = 8 forces
  // the per-shard clamp on every shard and the merge must still equal the
  // unsharded answer including ties.
  const Matrix<float> X =
      testutil::with_duplicates(testutil::random_matrix(6, 4, 1), 4);
  const Matrix<float> Q = testutil::random_matrix(9, 4, 2);
  const index_t k = 8;
  const KnnResult reference = testutil::naive_knn(Q, X, k);

  for (const char* partition : {"contiguous", "strided"}) {
    auto index = make_index("sharded:bruteforce",
                            {.num_shards = 7, .partition = partition});
    index->build(X);
    EXPECT_EQ(index->info().shards, 7u);
    const KnnResult result = index->knn_search({.queries = &Q, .k = k}).knn;
    EXPECT_TRUE(testutil::knn_equal(reference, result)) << partition;
  }
}

TEST(ShardedIndex, MoreShardsThanRowsLeavesExcessShardsUnbuilt) {
  const Matrix<float> X = testutil::random_matrix(3, 4, 3);
  const Matrix<float> Q = testutil::random_matrix(4, 4, 4);
  auto index = make_index("sharded:bruteforce", {.num_shards = 8});
  index->build(X);
  EXPECT_EQ(index->info().shards, 3u);
  EXPECT_EQ(index->info().size, 3u);
  EXPECT_TRUE(testutil::knn_equal(
      testutil::naive_knn(Q, X, 3),
      index->knn_search({.queries = &Q, .k = 3}).knn));
}

TEST(ShardedIndex, RangeSearchUnionsShardsAndRemapsIds) {
  const Matrix<float> X = testutil::clustered_matrix(400, 6, 5, 5);
  const Matrix<float> Q = testutil::random_matrix(12, 6, 6, -6.0f, 6.0f);
  const dist_t radius = 2.5f;

  for (const char* partition : {"contiguous", "strided"}) {
    auto index = make_index("sharded:rbc-exact",
                            {.num_shards = 5, .partition = partition});
    index->build(X);
    ASSERT_TRUE(index->info().supports_range);
    const RangeResponse response =
        index->range_search({.queries = &Q, .radius = radius});
    ASSERT_EQ(response.ids.size(), Q.rows());
    for (index_t qi = 0; qi < Q.rows(); ++qi)
      EXPECT_EQ(response.ids[qi], testutil::naive_range(Q.row(qi), X, radius))
          << partition << " query " << qi;
  }
}

TEST(ShardedIndex, RangeSearchOverTreeInnerThrowsUnsupported) {
  const Matrix<float> X = testutil::random_matrix(30, 5, 7);
  const Matrix<float> Q = testutil::random_matrix(3, 5, 8);
  auto index = make_index("sharded:kdtree", {.num_shards = 2});
  index->build(X);
  EXPECT_FALSE(index->info().supports_range);
  EXPECT_THROW((void)index->range_search({.queries = &Q, .radius = 1.0f}),
               std::runtime_error);
}

TEST(ShardedIndex, InfoAggregatesOverShards) {
  const Matrix<float> X = testutil::clustered_matrix(300, 8, 4, 9);
  auto index = make_index("sharded:rbc-exact", {.num_shards = 4});
  index->build(X);
  const IndexInfo info = index->info();
  EXPECT_EQ(info.backend, "sharded:rbc-exact");
  EXPECT_EQ(info.size, 300u);
  EXPECT_EQ(info.dim, 8u);
  EXPECT_EQ(info.shards, 4u);
  EXPECT_TRUE(info.exact);
  EXPECT_TRUE(info.supports_save);
  // Memory aggregates the inner indices plus the id-remap tables; each
  // shard owns a copy of its rows, so the total at least covers the data.
  EXPECT_GE(info.memory_bytes, 300u * 8u * sizeof(float));

  // Search stats aggregate across shards but count each query once.
  const Matrix<float> Q = testutil::random_matrix(10, 8, 10);
  SearchRequest request{.queries = &Q, .k = 3};
  request.options.collect_stats = true;
  const SearchResponse response = index->knn_search(request);
  EXPECT_EQ(response.stats.queries, Q.rows());
  EXPECT_GT(response.stats.dist_evals(), 0u);
}

TEST(ShardedIndex, SaveLoadRoundTripsThroughAFile) {
  const Matrix<float> X = testutil::clustered_matrix(250, 7, 4, 11);
  const Matrix<float> Q = testutil::random_matrix(15, 7, 12);
  auto index = make_index("sharded:rbc-exact",
                          {.num_shards = 3, .partition = "strided"});
  index->build(X);
  const KnnResult before = index->knn_search({.queries = &Q, .k = 4}).knn;

  std::stringstream stream;
  index->save(stream);
  const auto restored = load_index(stream);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->info().backend, "sharded:rbc-exact");
  EXPECT_EQ(restored->info().shards, 3u);
  const KnnResult after = restored->knn_search({.queries = &Q, .k = 4}).knn;
  EXPECT_TRUE(testutil::knn_equal(before, after));
}

TEST(ShardedIndex, InvalidShardParametersThrowAtMakeTime) {
  EXPECT_THROW((void)make_index("sharded:rbc-exact", {.num_shards = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)make_index("sharded:rbc-exact", {.partition = "hashed"}),
      std::invalid_argument);
  EXPECT_THROW((void)make_index("sharded:no-such-backend"),
               std::invalid_argument);
}

TEST(ShardedIndex, UserRegisteredBackendsShardThroughTheGenericFallback) {
  // A backend registered outside the shipped set gets a sharded composite
  // without any extra registration: make_index resolves the "sharded:"
  // prefix generically.
  register_backend({.name = "conformance-dummy-bf",
                    .create = [](const IndexOptions&) {
                      return make_index("bruteforce");
                    },
                    .magic = 0,
                    .load = nullptr});
  const Matrix<float> X = testutil::random_matrix(60, 5, 13);
  const Matrix<float> Q = testutil::random_matrix(8, 5, 14);
  auto index = make_index("sharded:conformance-dummy-bf", {.num_shards = 4});
  index->build(X);
  EXPECT_TRUE(testutil::knn_equal(
      testutil::naive_knn(Q, X, 2),
      index->knn_search({.queries = &Q, .k = 2}).knn));
}

TEST(ShardedIndex, ShardSearchFailureReachesTheCallerFromEitherFanOut) {
  // A one-row batch on four threads runs one task per (shard, row) pair
  // inside an OpenMP region, where an escaping exception would terminate
  // the process; the block takes the shard-after-shard loop. Both must
  // hand the caller the shard's own exception.
  register_backend({.name = "faulty-knn",
                    .create = [](const IndexOptions&) -> std::unique_ptr<Index> {
                      return std::make_unique<FaultyIndex>();
                    },
                    .magic = 0,
                    .load = nullptr});
  auto index = make_index("sharded:faulty-knn", {.num_shards = 4});
  index->build(testutil::random_matrix(40, 5, 15));
  ASSERT_EQ(index->info().shards, 4u);

  const ThreadLimit threads(4);
  for (const index_t rows : {1u, 8u}) {
    const Matrix<float> Q = testutil::random_matrix(rows, 5, 16);
    try {
      (void)index->knn_search({.queries = &Q, .k = 2});
      FAIL() << rows << "-row search swallowed the shard's exception";
    } catch (const ShardFault& e) {
      EXPECT_STREQ(e.what(), "faulty-knn: shard search failed") << rows;
    }
  }
}

TEST(ShardedIndex, BuiltInMagicsCannotBeClaimedByARegistration) {
  for (const std::uint32_t magic :
       {io::kMagicDense, io::kMagicSharded, io::kMagicPayload})
    EXPECT_FALSE(register_backend(
        {.name = "magic-squatter",
         .create = [](const IndexOptions&) { return make_index("bruteforce"); },
         .magic = magic,
         .load = nullptr}))
        << std::hex << magic;
}

}  // namespace
}  // namespace rbc
