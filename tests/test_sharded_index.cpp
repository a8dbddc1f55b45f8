// ShardedIndex internals the conformance suite doesn't reach: the
// partition math, k clamping when shards are smaller than k, range-search
// fan-out, IndexInfo aggregation, shard-parameter validation, the generic
// "sharded:<inner>" factory fallback for user-registered backends, and a
// shard's k-NN, range or payload failure reaching the caller from the
// fan-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "api/api.hpp"
#include "metricspace/dataset.hpp"
#include "parallel/runtime.hpp"
#include "rbc/serialize_io.hpp"
#include "shard/sharded_index.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

struct ShardFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A read-only bruteforce whose every k-NN and range search throws
/// ShardFault.
class FaultyIndex final : public Index {
 public:
  void build(const Matrix<float>& X) override { inner_->build(X); }
  SearchResponse knn_search(const SearchRequest&) const override {
    throw ShardFault("faulty-knn: shard search failed");
  }
  RangeResponse range_search(const RangeRequest&) const override {
    throw ShardFault("faulty-knn: shard range search failed");
  }
  IndexInfo info() const override {
    IndexInfo info = inner_->info();
    info.backend = "faulty-knn";
    info.supports_range = true;
    info.supports_mutation = false;
    return info;
  }

 private:
  std::unique_ptr<Index> inner_ = make_index("bruteforce");
};

TEST(ShardPartition, ContiguousCoversEveryRowOnceInOrder) {
  // 4e9 rows: s * n overflows 32 bits, so the split must not.
  for (index_t n : {0u, 1u, 5u, 7u, 100u, 4'000'000'000u}) {
    for (index_t shards : {1u, 2u, 7u, 13u}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " shards=" + std::to_string(shards));
      // The ranges tile [0, n) in shard order, and (balance) their sizes
      // differ by at most one row.
      index_t next = 0, smallest = n, largest = 0;
      for (index_t s = 0; s < shards; ++s) {
        const shard::RowRange rows = shard::partition_rows(n, shards, s);
        EXPECT_EQ(rows.lo, next) << "shard " << s;
        EXPECT_LE(rows.lo, rows.hi) << "shard " << s;
        next = rows.hi;
        smallest = std::min(smallest, rows.size());
        largest = std::max(largest, rows.size());
      }
      EXPECT_EQ(next, n);
      EXPECT_LE(largest - smallest, 1u);
    }
  }
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

  auto index = make_index("sharded:bruteforce", {.num_shards = 7});
  index->build(X);
  EXPECT_EQ(index->info().shards, 7u);
  const KnnResult result = index->knn_search({.queries = &Q, .k = k}).knn;
  EXPECT_TRUE(testutil::knn_equal(reference, result));
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

  auto index = make_index("sharded:rbc-exact", {.num_shards = 5});
  index->build(X);
  ASSERT_TRUE(index->info().supports_range);
  const RangeResponse response =
      index->range_search({.queries = &Q, .radius = radius});
  ASSERT_EQ(response.ids.size(), Q.rows());
  for (index_t qi = 0; qi < Q.rows(); ++qi)
    EXPECT_EQ(response.ids[qi], testutil::naive_range(Q.row(qi), X, radius))
        << "query " << qi;
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
  auto index = make_index("sharded:rbc-exact", {.num_shards = 3});
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

TEST(ShardedIndex, ShardSearchFailureReachesTheCaller) {
  // On four threads a one-row batch runs one item per shard and an 8-row
  // batch two row blocks per shard, each item inside an OpenMP region,
  // where an escaping exception would terminate the process. Both must
  // hand the caller the shard's own exception, for k-NN and range.
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
      ADD_FAILURE() << rows << "-row search swallowed the shard's exception";
    } catch (const ShardFault& e) {
      EXPECT_STREQ(e.what(), "faulty-knn: shard search failed") << rows;
    }
    try {
      (void)index->range_search({.queries = &Q, .radius = 1.0f});
      ADD_FAILURE() << rows << "-row range swallowed the shard's exception";
    } catch (const ShardFault& e) {
      EXPECT_STREQ(e.what(), "faulty-knn: shard range search failed") << rows;
    }
  }
}

TEST(ShardedIndex, MalformedPayloadQueryErrorNamesItsPlaceInTheBatch) {
  // On four threads a 3-query batch runs one query per item. A shard
  // numbers its block's queries from 0, so the composite adds where the
  // block sits in the batch.
  IndexOptions options;
  options.metric = "graph-sp";
  auto index = make_index("sharded:rbc-exact", options);
  index->build_payload(metricspace::make_graph_dataset(
      4, {{0, 1, 1.0f}, {1, 2, 1.0f}, {2, 3, 1.0f}}));
  const std::string node0(8, '\0');  // little-endian node id 0
  const std::vector<std::string> queries{node0, "xyz", node0};
  const ThreadLimit threads(4);
  try {
    (void)index->knn_search_payload({.queries = &queries, .k = 1});
    ADD_FAILURE() << "a malformed graph query was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("queries [1, 2) of the batch"),
              std::string::npos)
        << e.what();
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
