// Unit tests of the streaming-mutability subsystem (src/mutate/): delta and
// tombstone accounting, the background merge lifecycle, sharded insert
// routing and shard draining, the serving layer's mutation entry points,
// and range search over a mutated index. The cross-backend behavioral lock
// (mutate-then-search vs a scratch rebuild, the uniform error contract,
// mutated serialize round-trips) lives in tests/conformance.hpp; these
// tests pin the mechanics the matrix can't see from the outside.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "rbc/sampling.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

Matrix<float> rows_of(const Matrix<float>& pool, index_t from, index_t n) {
  Matrix<float> out(n, pool.cols());
  for (index_t i = 0; i < n; ++i) out.copy_row_from(pool, from + i, i);
  return out;
}

IndexOptions inline_merge_options(index_t max_delta) {
  IndexOptions options;
  options.rbc.seed = 7;
  options.max_delta = max_delta;
  options.background_merge = false;
  return options;
}

/// A scratch build over exactly `index`'s live ids, where id i is pool row i.
std::unique_ptr<Index> rebuild_live(const std::string& backend,
                                    const IndexOptions& options,
                                    const Index& index,
                                    const Matrix<float>& pool) {
  const std::vector<index_t> live = index.live_ids();
  Matrix<float> rows(static_cast<index_t>(live.size()), pool.cols());
  for (index_t i = 0; i < rows.rows(); ++i)
    rows.copy_row_from(pool, live[i], i);
  auto scratch = make_index(backend, options);
  scratch->build_with_ids(rows, live);
  return scratch;
}

TEST(MutableIndex, DeltaAndTombstoneAccounting) {
  const Matrix<float> pool = testutil::clustered_matrix(40, 6, 4, 301);
  auto index = make_index("bruteforce", inline_merge_options(1024));
  index->build(rows_of(pool, 0, 20));
  EXPECT_EQ(index->info().size, 20u);
  EXPECT_EQ(index->info().delta_rows, 0u);
  EXPECT_EQ(index->info().tombstones, 0u);
  EXPECT_TRUE(index->info().supports_mutation);

  const std::vector<index_t> new_ids{20, 21, 22};
  index->insert(rows_of(pool, 20, 3), new_ids);
  EXPECT_EQ(index->info().size, 23u);
  EXPECT_EQ(index->info().delta_rows, 3u);
  EXPECT_EQ(index->info().tombstones, 0u);

  // Two main rows become tombstones; one delta row disappears outright.
  const std::vector<index_t> dropped{3, 15, 21};
  EXPECT_EQ(index->remove(dropped), 3u);
  EXPECT_EQ(index->info().size, 20u);
  EXPECT_EQ(index->info().delta_rows, 2u);
  EXPECT_EQ(index->info().tombstones, 2u);

  const std::vector<index_t> live = index->live_ids();
  EXPECT_EQ(live.size(), 20u);
  EXPECT_EQ(std::count(live.begin(), live.end(), 3u), 0);
  EXPECT_EQ(std::count(live.begin(), live.end(), 21u), 0);
  EXPECT_EQ(std::count(live.begin(), live.end(), 22u), 1);

  // compact() folds everything back into the main structure.
  index->compact();
  EXPECT_EQ(index->info().size, 20u);
  EXPECT_EQ(index->info().delta_rows, 0u);
  EXPECT_EQ(index->info().tombstones, 0u);
  EXPECT_EQ(index->live_ids(), live);
}

TEST(MutableIndex, BackgroundMergeFoldsTheDelta) {
  const Matrix<float> pool = testutil::clustered_matrix(60, 6, 4, 302);
  IndexOptions options;
  options.rbc.seed = 7;
  options.max_delta = 4;
  options.background_merge = true;
  auto index = make_index("rbc-exact", options);
  index->build(rows_of(pool, 0, 30));

  // Crossing max_delta launches the merge thread; compact() joins it (and
  // folds whatever is left), so afterwards the structure must be clean.
  const std::vector<index_t> batch{30, 31, 32, 33};
  index->insert(rows_of(pool, 30, 4), batch);
  index->compact();
  EXPECT_EQ(index->info().size, 34u);
  EXPECT_EQ(index->info().delta_rows, 0u);
  EXPECT_EQ(index->info().tombstones, 0u);

  // The merged structure answers exactly like a scratch build over the
  // same 34 rows (ids are 0..33, so a plain build matches).
  auto scratch = make_index("rbc-exact", options);
  scratch->build(rows_of(pool, 0, 34));
  const Matrix<float> Q = testutil::random_matrix(8, 6, 303);
  const KnnResult a = index->knn_search({.queries = &Q, .k = 5}).knn;
  const KnnResult b = scratch->knn_search({.queries = &Q, .k = 5}).knn;
  EXPECT_TRUE(testutil::knn_equal(a, b));
}

// The dense stream carries the write-buffer knobs: a restored index merges
// at the saved max_delta and inline, not at the defaults (1,024 rows, on a
// background thread).
TEST(MutableIndex, SaveLoadKeepsMaxDeltaAndBackgroundMerge) {
  const Matrix<float> pool = testutil::clustered_matrix(50, 6, 4, 306);
  auto index = make_index("bruteforce", inline_merge_options(8));
  index->build(rows_of(pool, 0, 30));
  std::stringstream stream;
  index->save(stream);
  const auto restored = load_index(stream);
  for (index_t i = 30; i < 40; ++i) {
    const std::vector<index_t> id{i};
    index->insert(rows_of(pool, i, 1), id);
    restored->insert(rows_of(pool, i, 1), id);
    // Inline merges finish inside insert(): the counts are final here.
    ASSERT_EQ(restored->info().delta_rows, index->info().delta_rows)
        << "after inserting id " << i;
  }
  EXPECT_EQ(restored->info().delta_rows, 2u);  // merged at the 8th insert
}

TEST(MutableIndex, EmptyBuildThenInsertBecomesSearchable) {
  auto index = make_index("bruteforce", inline_merge_options(1024));
  const Matrix<float> empty(0, 5);
  index->build(empty);  // a valid built state with zero rows
  EXPECT_EQ(index->info().size, 0u);
  EXPECT_EQ(index->info().dim, 5u);

  const Matrix<float> pool = testutil::clustered_matrix(10, 5, 2, 304);
  const std::vector<index_t> ids{0, 1, 2};
  index->insert(rows_of(pool, 0, 3), ids);
  EXPECT_EQ(index->info().size, 3u);
  const Matrix<float> Q = testutil::random_matrix(2, 5, 305);
  const KnnResult r = index->knn_search({.queries = &Q, .k = 3}).knn;
  for (index_t qi = 0; qi < Q.rows(); ++qi) {
    EXPECT_LE(r.dists.at(qi, 0), r.dists.at(qi, 1));
    EXPECT_LE(r.dists.at(qi, 1), r.dists.at(qi, 2));
  }
}

TEST(MutableIndex, RangeSearchSeesDeltaAndMasksTombstones) {
  const Matrix<float> pool = testutil::clustered_matrix(50, 6, 4, 306);
  auto index = make_index("bruteforce", inline_merge_options(1024));
  index->build(rows_of(pool, 0, 30));
  const std::vector<index_t> new_ids{30, 31, 32, 33};
  index->insert(rows_of(pool, 30, 4), new_ids);
  const std::vector<index_t> dropped{5, 17, 31};
  ASSERT_EQ(index->remove(dropped), 3u);

  // Scratch reference over exactly the live rows, with the same ids: the
  // range answer (an exact set) must match id-for-id.
  std::vector<index_t> live = index->live_ids();
  Matrix<float> live_rows(static_cast<index_t>(live.size()), 6);
  for (index_t i = 0; i < live_rows.rows(); ++i)
    live_rows.copy_row_from(pool, live[i], i);
  auto scratch = make_index("bruteforce", inline_merge_options(1024));
  scratch->build_with_ids(live_rows, live);

  const Matrix<float> Q = testutil::random_matrix(5, 6, 307);
  for (const float radius : {0.5f, 2.0f, 10.0f}) {
    const RangeResponse a =
        index->range_search({.queries = &Q, .radius = radius});
    const RangeResponse b =
        scratch->range_search({.queries = &Q, .radius = radius});
    ASSERT_EQ(a.ids.size(), b.ids.size());
    for (std::size_t qi = 0; qi < a.ids.size(); ++qi)
      EXPECT_EQ(a.ids[qi], b.ids[qi]) << "radius=" << radius << " qi=" << qi;
  }
}

// The main-structure read asks the inner index for the top-k first and
// searches again at k + |dead| only for the rows that answer left short of
// live ids. The next three tests pin that rule's edges.

TEST(MutableIndex, RemovingTwoQueriesWholeTopKSearchesPastTheDeadRows) {
  const Matrix<float> pool = testutil::clustered_matrix(200, 6, 5, 315);
  const Matrix<float> Q = testutil::random_matrix(6, 6, 316);
  const index_t k = 5;
  const std::vector<std::string> metrics =
      make_index("rbc-exact")->info().supported_metrics;
  for (const std::string& metric : metrics) {
    SCOPED_TRACE(metric);
    IndexOptions options = inline_merge_options(1024);
    options.metric = metric;
    auto index = make_index("rbc-exact", options);
    index->build(pool);

    // Queries 1 and 4 lose their whole top-k, so their first pass returns
    // only dead rows; the other four keep theirs, so the second search is a
    // strict sub-block of the (transformed) queries.
    const KnnResult before = index->knn_search({.queries = &Q, .k = k}).knn;
    std::vector<index_t> drop;
    for (const index_t qi : {1u, 4u})
      for (index_t j = 0; j < k; ++j) drop.push_back(before.ids.at(qi, j));
    EXPECT_GT(index->remove(drop), 0u);

    const KnnResult after = index->knn_search({.queries = &Q, .k = k}).knn;
    const KnnResult reference =
        rebuild_live("rbc-exact", options, *index, pool)
            ->knn_search({.queries = &Q, .k = k})
            .knn;
    EXPECT_TRUE(testutil::knn_equal(reference, after));
  }
}

TEST(MutableIndex, DeltaFillsTheAnswerWhenFewerThanKMainRowsLive) {
  const Matrix<float> pool = testutil::clustered_matrix(30, 6, 3, 317);
  const Matrix<float> Q = testutil::random_matrix(4, 6, 318);
  for (const std::string backend : {"bruteforce", "rbc-exact"}) {
    SCOPED_TRACE(backend);
    const IndexOptions options = inline_merge_options(1024);
    auto index = make_index(backend, options);
    index->build(rows_of(pool, 0, 10));
    const std::vector<index_t> drop{0, 1, 2, 3, 4, 5, 6, 7};
    ASSERT_EQ(index->remove(drop), 8u);
    const std::vector<index_t> fresh{10, 11, 12, 13, 14, 15};
    index->insert(rows_of(pool, 10, 6), fresh);
    ASSERT_EQ(index->info().tombstones, 8u);
    ASSERT_EQ(index->info().delta_rows, 6u);

    // Two live main rows against k = 6 and 8: the delta supplies the rest.
    auto scratch = rebuild_live(backend, options, *index, pool);
    for (const index_t k : {6u, 8u}) {
      const KnnResult got = index->knn_search({.queries = &Q, .k = k}).knn;
      const KnnResult want = scratch->knn_search({.queries = &Q, .k = k}).knn;
      EXPECT_TRUE(testutil::knn_equal(want, got)) << "k=" << k;
    }
  }
}

TEST(MutableIndex, RemovingRowsOutsideEveryAnswerAddsNoEvaluations) {
  // Tombstones that no query's top-k reaches leave the inner search alone:
  // same k, same pruning, same distance evaluations (a search at
  // k + |dead| would loosen the RBC's pruning bound).
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(1'000, 8, 6, 319), 960);
  auto index = make_index("rbc-exact", inline_merge_options(1024));
  index->build(X);
  SearchRequest request{.queries = &Q, .k = 5};
  request.options.collect_stats = true;
  const SearchResponse before = index->knn_search(request);

  std::set<index_t> answered;
  for (index_t qi = 0; qi < Q.rows(); ++qi)
    for (index_t j = 0; j < request.k; ++j)
      answered.insert(before.knn.ids.at(qi, j));
  std::vector<index_t> drop;
  for (index_t id = 0; id < X.rows() && drop.size() < 60; ++id)
    if (answered.count(id) == 0) drop.push_back(id);
  ASSERT_EQ(index->remove(drop), 60u);
  ASSERT_EQ(index->info().tombstones, 60u);

  const SearchResponse after = index->knn_search(request);
  EXPECT_TRUE(testutil::knn_equal(before.knn, after.knn));
  EXPECT_EQ(after.stats.rep_dist_evals, before.stats.rep_dist_evals);
  EXPECT_EQ(after.stats.list_dist_evals, before.stats.list_dist_evals);
}

TEST(MutableIndex, RemovingEveryRepresentativeKeepsSearchExact) {
  // Tombstoned representatives stay in the main RBC structure as routing
  // points: stage 1 still prunes with them, and only the answer drops them.
  const Matrix<float> X = testutil::clustered_matrix(600, 9, 5, 11);
  const Matrix<float> Q = testutil::random_matrix(30, 9, 12, -6.0f, 6.0f);
  IndexOptions options = inline_merge_options(1024);
  options.rbc = {.num_reps = 24, .seed = 13};
  auto index = make_index("rbc-exact", options);
  index->build(X);

  const std::vector<index_t> reps =
      choose_representatives(X.rows(), options.rbc);
  ASSERT_EQ(index->remove(reps), reps.size());
  ASSERT_EQ(index->info().tombstones, reps.size());

  for (const index_t k : {1u, 3u}) {
    const KnnResult want = rebuild_live("bruteforce", options, *index, X)
                               ->knn_search({.queries = &Q, .k = k})
                               .knn;
    EXPECT_TRUE(testutil::knn_equal(
        want, index->knn_search({.queries = &Q, .k = k}).knn))
        << "k=" << k;
  }
}

// One copy of the rows: a backend that lends its rows (Index::stored_rows)
// holds the main rows once, so the whole index stays below two row copies
// through the build, inline merges with removes and re-inserts, and
// compaction. rbc-oneshot lends none (its lists need not hold every row):
// the wrapper keeps its own copy, which the bound would not allow.
TEST(MutableIndex, LendingBackendsHoldTheRowsOnce) {
  const index_t dim = 40;
  const Matrix<float> pool = testutil::clustered_matrix(400, dim, 5, 311);
  for (const std::string backend :
       {"bruteforce", "rbc-exact", "kdtree", "balltree", "covertree",
        "rbc-oneshot"}) {
    const std::vector<std::string> served =
        make_index(backend)->info().supported_storage;
    for (const std::string metric : {"l2", "cosine"}) {
      for (const std::string storage : {"float32", "int8"}) {
        if (std::find(served.begin(), served.end(), storage) == served.end())
          continue;
        SCOPED_TRACE(backend + " " + metric + " " + storage);
        IndexOptions options = inline_merge_options(8);
        options.metric = metric;
        options.storage = storage;
        auto index = make_index(backend, options);
        const auto expect_one_copy = [&] {
          const IndexInfo info = index->info();
          const std::size_t one_copy =
              std::size_t{info.size} * pool.stride() * sizeof(float);
          if (backend == "rbc-oneshot")
            EXPECT_GE(info.memory_bytes, 2 * one_copy);
          else
            EXPECT_LT(info.memory_bytes, 2 * one_copy);
        };
        index->build(rows_of(pool, 0, 300));
        expect_one_copy();
        for (index_t round = 0; round < 5; ++round) {
          std::vector<index_t> ids(10);
          std::iota(ids.begin(), ids.end(), 300 + 10 * round);
          index->insert(rows_of(pool, 300 + 10 * round, 10), ids);
          // Every other round re-inserts the id the previous one removed.
          const std::vector<index_t> drop{3 * round, 3 * round + 1};
          index->remove(drop);
          if (round % 2 == 1)
            index->insert(rows_of(pool, 3 * round - 3, 1),
                          std::vector<index_t>{3 * round - 3});
        }
        expect_one_copy();
        index->compact();
        expect_one_copy();
      }
    }
  }
}

TEST(ShardedMutation, InsertsRouteToTheLeastFullShard) {
  // 2 rows over 3 shards: one shard starts empty and info().shards reports
  // only the answering shards; the first insert must fill the empty slot.
  const Matrix<float> pool = testutil::clustered_matrix(20, 5, 2, 308);
  IndexOptions options = inline_merge_options(1024);
  options.num_shards = 3;
  auto index = make_index("sharded:bruteforce", options);
  index->build(rows_of(pool, 0, 2));
  EXPECT_EQ(index->info().shards, 2u);

  const std::vector<index_t> first{10};
  index->insert(rows_of(pool, 2, 1), first);
  EXPECT_EQ(index->info().shards, 3u);
  EXPECT_EQ(index->info().size, 3u);

  // Draining every row of a shard makes it search-invisible again, and
  // searches still answer over what is left.
  const std::vector<index_t> drop{10};
  ASSERT_EQ(index->remove(drop), 1u);
  EXPECT_EQ(index->info().shards, 2u);
  const Matrix<float> Q = testutil::random_matrix(3, 5, 309);
  const KnnResult r = index->knn_search({.queries = &Q, .k = 2}).knn;
  for (index_t qi = 0; qi < Q.rows(); ++qi) {
    const std::set<index_t> got{r.ids.at(qi, 0), r.ids.at(qi, 1)};
    EXPECT_EQ(got, (std::set<index_t>{0, 1}));
  }
}

TEST(ShardedMutation, MutatedShardedSaveReloadsIdNative) {
  // After mutation the shard assignment no longer matches the positional
  // partition; the round-trip must restore the actual id routing (the
  // legacy derived assignment would misattribute every remapped id).
  const Matrix<float> pool = testutil::clustered_matrix(40, 6, 3, 310);
  IndexOptions options = inline_merge_options(1024);
  options.num_shards = 3;
  auto index = make_index("sharded:bruteforce", options);
  index->build(rows_of(pool, 0, 20));
  const std::vector<index_t> new_ids{100, 101};
  index->insert(rows_of(pool, 20, 2), new_ids);
  const std::vector<index_t> dropped{0, 19};
  ASSERT_EQ(index->remove(dropped), 2u);

  std::stringstream stream;
  index->save(stream);
  const auto restored = load_index(stream);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->info().backend, "sharded:bruteforce");
  EXPECT_TRUE(restored->info().supports_mutation);
  EXPECT_EQ(restored->live_ids(), index->live_ids());

  const Matrix<float> Q = testutil::random_matrix(6, 6, 311);
  const KnnResult before = index->knn_search({.queries = &Q, .k = 4}).knn;
  const KnnResult after = restored->knn_search({.queries = &Q, .k = 4}).knn;
  EXPECT_TRUE(testutil::knn_equal(before, after));

  // The restored routing map accepts further mutation on the right shard.
  const std::vector<index_t> again{100};
  EXPECT_EQ(restored->remove(again), 1u);
  EXPECT_EQ(restored->info().size, index->info().size - 1);
}

TEST(ServiceMutation, InsertRemoveFlowThroughTheService) {
  const Matrix<float> pool = testutil::clustered_matrix(30, 6, 3, 312);
  auto index = make_index("bruteforce", inline_merge_options(1024));
  index->build(rows_of(pool, 0, 10));
  serve::SearchService service(std::move(index), {.max_batch = 16});

  // k is admitted against the live size: 10 rows now, 12 after the insert.
  const Matrix<float> Q = testutil::random_matrix(1, 6, 313);
  EXPECT_THROW((void)service.submit_batch(Q, 11), std::invalid_argument);

  const std::vector<index_t> new_ids{10, 11};
  service.insert(rows_of(pool, 10, 2), new_ids);
  std::future<KnnResult> f = service.submit_batch(Q, 11);
  const KnnResult r = f.get();
  EXPECT_EQ(r.ids.cols(), 11u);

  // Searches answer over the mutated database: a query equal to a freshly
  // inserted row finds it at distance zero.
  Matrix<float> probe(1, 6);
  probe.copy_row_from(pool, 11, 0);
  const serve::QueryResult nearest =
      service.submit(std::span<const float>(probe.row(0), 6), 1).get();
  EXPECT_EQ(nearest.ids[0], 11u);
  EXPECT_EQ(nearest.dists[0], 0.0f);

  EXPECT_EQ(service.remove(new_ids), 2u);
  EXPECT_THROW((void)service.submit_batch(Q, 11), std::invalid_argument);
  service.compact();
  EXPECT_EQ(service.index().info().delta_rows, 0u);
  EXPECT_EQ(service.index().info().tombstones, 0u);
  service.stop();
}

TEST(ServiceMutation, IncapableBackendRejectsServiceMutation) {
  const Matrix<float> X = testutil::clustered_matrix(12, 5, 2, 314);
  auto index = make_index("gpu-bf", {.gpu_workers = 2});
  index->build(X);
  serve::SearchService service(std::move(index), {});
  Matrix<float> one(1, 5);
  for (index_t j = 0; j < 5; ++j) one.at(0, j) = 1.0f;
  const std::vector<index_t> id{100};
  EXPECT_THROW(service.insert(one, id), std::runtime_error);
  EXPECT_THROW((void)service.remove(id), std::runtime_error);
  service.stop();
}

}  // namespace
}  // namespace rbc
