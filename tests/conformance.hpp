// Cross-backend conformance harness: one parameterized suite that every
// factory-registered backend must pass.
//
// Before this harness the per-backend contracts (exactness vs brute force,
// the k > n error shape, serialize round-trips, thread-safety of const
// search) were asserted by copy-pasted per-backend tests that new backends
// could silently skip. Here the checks are written once against the unified
// rbc::Index interface and instantiated from rbc::registered_backends(), so
// registering a backend *is* opting into the full suite — including the
// sharded:* composites, whose extra bit-parity obligation (identical ids,
// distances, and tie order to the wrapped backend at several shard counts)
// is enforced here too.
//
// test_conformance.cpp instantiates the suite; the checks live in this
// header so other tests (stress, determinism) can reuse the datasets and
// reference helpers.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "api/metrics.hpp"
#include "metricspace/dataset.hpp"
#include "metricspace/space.hpp"
#include "parallel/runtime.hpp"
#include "rbc/serialize_io.hpp"
#include "test_util.hpp"

namespace rbc::conformance {

/// A named (database, queries) pair. The suite runs every check on several
/// datasets with different neighborhood structure; `ties` marks the one
/// with duplicated rows, where exact backends must reproduce the
/// (distance, id) tie order bit-for-bit.
struct Dataset {
  std::string name;
  Matrix<float> X;
  Matrix<float> Q;
};

/// The suite's fixed datasets: clustered blobs (pruning-friendly), uniform
/// noise (pruning-hostile), and clustered data with duplicated rows
/// (guaranteed distance ties).
inline std::vector<Dataset> datasets() {
  std::vector<Dataset> sets;
  {
    auto [X, Q] =
        testutil::split_rows(testutil::clustered_matrix(560, 12, 6, 101), 520);
    sets.push_back({"clustered", std::move(X), std::move(Q)});
  }
  {
    auto [X, Q] =
        testutil::split_rows(testutil::random_matrix(410, 9, 102), 380);
    sets.push_back({"uniform", std::move(X), std::move(Q)});
  }
  {
    // Held-out in-distribution queries (the paper's protocol) so the
    // recall bound is meaningful for approximate backends too; the
    // database rows are duplicated for guaranteed distance ties.
    auto [base, Q] =
        testutil::split_rows(testutil::clustered_matrix(230, 8, 4, 103), 200);
    Matrix<float> X = testutil::with_duplicates(base, 160);
    sets.push_back({"ties", std::move(X), std::move(Q)});
  }
  return sets;
}

/// Build options every backend accepts on the suite's small datasets: a
/// fixed seed (reproducible RBC sampling), a small SIMT pool for the device
/// backends, and a shard count that exercises clamping without dwarfing
/// the data.
inline IndexOptions suite_options() {
  IndexOptions options;
  options.rbc.seed = 7;
  options.gpu_workers = 2;
  options.num_shards = 3;
  return options;
}

/// Recall@1 of `result` against the exact reference (both over the same
/// queries) — the acceptance measure for approximate backends.
inline double recall_at_1(const KnnResult& result, const KnnResult& exact) {
  index_t agree = 0;
  for (index_t qi = 0; qi < result.ids.rows(); ++qi)
    if (result.ids.at(qi, 0) == exact.ids.at(qi, 0)) ++agree;
  return result.ids.rows() == 0
             ? 1.0
             : static_cast<double>(agree) / result.ids.rows();
}

/// Builds the backend over X with the suite options.
inline std::unique_ptr<Index> build_index(const std::string& backend,
                                          const Matrix<float>& X) {
  auto index = make_index(backend, suite_options());
  index->build(X);
  return index;
}

// ---------------------------------------------------------------- checks ---

/// Exact backends must equal the naive reference including tie order;
/// approximate backends must keep a sane recall@1.
inline void check_answers(const std::string& backend) {
  for (const Dataset& data : datasets()) {
    SCOPED_TRACE(backend + " on " + data.name);
    auto index = build_index(backend, data.X);
    for (index_t k : {index_t{1}, index_t{5}}) {
      const KnnResult reference = testutil::naive_knn(data.Q, data.X, k);
      const SearchResponse response =
          index->knn_search({.queries = &data.Q, .k = k});
      ASSERT_EQ(response.knn.ids.rows(), data.Q.rows());
      ASSERT_EQ(response.knn.ids.cols(), k);
      if (index->info().exact) {
        EXPECT_TRUE(testutil::knn_equal(reference, response.knn))
            << backend << " diverged from brute force at k=" << k;
      } else {
        EXPECT_GT(recall_at_1(response.knn, reference), 1.0 / 3.0)
            << backend << " recall collapsed at k=" << k;
      }
    }
  }
}

/// `call` must throw the uniform `rbc::Index[<backend>]` invalid_argument
/// whose message names `row` ("row 13", "query row 2") as holding a
/// non-finite value.
template <class Call>
void expect_nonfinite_refused(const std::string& backend, const Call& call,
                              const std::string& row,
                              const std::string& what) {
  try {
    call();
    ADD_FAILURE() << backend << " accepted a non-finite value at " << what;
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_EQ(message.rfind("rbc::Index[" + backend + "]: ", 0), 0u)
        << what << ": " << message;
    EXPECT_NE(message.find(row + " "), std::string::npos)
        << what << ": " << message;
    EXPECT_NE(message.find("non-finite"), std::string::npos)
        << what << ": " << message;
  }
}

/// The unified request-error contract: identical conditions and message
/// shape across every backend (see Index::knn_search).
inline void check_error_contract(const std::string& backend) {
  const Matrix<float> X = testutil::random_matrix(50, 6, 105);
  const Matrix<float> Q = testutil::random_matrix(5, 6, 106);
  const Matrix<float> wrong_dim = testutil::random_matrix(5, 4, 107);

  auto index = make_index(backend, suite_options());
  EXPECT_THROW((void)index->knn_search({.queries = &Q, .k = 1}),
               std::invalid_argument)
      << backend << ": unbuilt index";
  index->build(X);
  EXPECT_THROW((void)index->knn_search({.queries = nullptr, .k = 1}),
               std::invalid_argument)
      << backend << ": null queries";
  EXPECT_THROW((void)index->knn_search({.queries = &Q, .k = 0}),
               std::invalid_argument)
      << backend << ": k == 0";
  EXPECT_THROW((void)index->knn_search({.queries = &wrong_dim, .k = 1}),
               std::invalid_argument)
      << backend << ": dimension mismatch";
  try {
    (void)index->knn_search({.queries = &Q, .k = X.rows() + 1});
    FAIL() << backend << " accepted k > database size";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds database size"),
              std::string::npos)
        << backend << " threw a different message: " << e.what();
  }
  // A query holding a NaN or an infinity: its distances are NaN (under ip,
  // NaN for some rows and -inf for others), which no (distance, id) order
  // ranks.
  const float inf = std::numeric_limits<float>::infinity();
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(), inf, -inf}) {
    SCOPED_TRACE(backend + " with " + std::to_string(bad));
    Matrix<float> bad_q = Q.clone();
    bad_q.at(2, 5) = bad;
    bad_q.at(4, 0) = bad;  // the message names the first bad row
    expect_nonfinite_refused(
        backend, [&] { (void)index->knn_search({.queries = &bad_q, .k = 1}); },
        "query row 2", "knn");
    if (index->info().supports_range)
      expect_nonfinite_refused(
          backend,
          [&] {
            (void)index->range_search({.queries = &bad_q, .radius = 1.0f});
          },
          "query row 2", "range");
  }
}

/// Degenerate-but-legal inputs: an empty query block answers with an empty
/// response, and a one-point database answers k = 1.
inline void check_degenerate_inputs(const std::string& backend) {
  const Matrix<float> X = testutil::clustered_matrix(40, 5, 3, 108);
  auto index = build_index(backend, X);

  const Matrix<float> no_queries(0, 5);
  const SearchResponse empty =
      index->knn_search({.queries = &no_queries, .k = 2});
  EXPECT_EQ(empty.knn.ids.rows(), 0u) << backend << ": empty query block";

  Matrix<float> one_point(1, 5);
  for (index_t j = 0; j < 5; ++j) one_point.at(0, j) = 0.5f;
  auto tiny = make_index(backend, suite_options());
  tiny->build(one_point);
  const Matrix<float> q = testutil::random_matrix(3, 5, 109);
  const SearchResponse r = tiny->knn_search({.queries = &q, .k = 1});
  for (index_t qi = 0; qi < q.rows(); ++qi)
    EXPECT_EQ(r.knn.ids.at(qi, 0), 0u)
        << backend << ": one-point database must answer id 0";
}

/// save -> load_index -> search must reproduce the original answers
/// exactly (range answers too, where supported), and saving the restored
/// index must write the same bytes. Skips backends that declare
/// !supports_save (after checking that save() then throws as documented).
inline void check_serialize_roundtrip(const std::string& backend) {
  const Dataset data = std::move(datasets().front());
  auto index = build_index(backend, data.X);
  const index_t k = 4;
  const KnnResult before =
      index->knn_search({.queries = &data.Q, .k = k}).knn;

  std::stringstream stream;
  if (!index->info().supports_save) {
    EXPECT_THROW(index->save(stream), std::runtime_error)
        << backend << ": unsupported save must throw, not silently no-op";
    return;
  }
  index->save(stream);
  const auto restored = load_index(stream);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->info().backend, backend);
  EXPECT_EQ(restored->info().size, data.X.rows());
  const KnnResult after =
      restored->knn_search({.queries = &data.Q, .k = k}).knn;
  EXPECT_TRUE(testutil::knn_equal(before, after))
      << backend << ": restored index diverged";
  if (index->info().supports_range) {
    // The first query's k-th distance as radius: a few hits per query.
    const RangeRequest range{.queries = &data.Q,
                             .radius = before.dists.at(0, k - 1)};
    EXPECT_EQ(index->range_search(range).ids,
              restored->range_search(range).ids)
        << backend << ": restored range answers diverged";
  }
  std::stringstream again;
  restored->save(again);
  EXPECT_EQ(again.str(), stream.str())
      << backend << ": the restored index saves different bytes";
}

/// Concurrent const searches (the contract SearchService relies on): every
/// thread must see the same answers a lone caller gets.
inline void check_concurrent_search(const std::string& backend) {
  const Dataset data = std::move(datasets().front());
  auto index = build_index(backend, data.X);
  const index_t k = 3;
  const KnnResult reference =
      index->knn_search({.queries = &data.Q, .k = k}).knn;

  constexpr int kThreads = 4, kRounds = 3;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const KnnResult result =
            index->knn_search({.queries = &data.Q, .k = k}).knn;
        if (!testutil::knn_equal(reference, result)) ++mismatches[t];
      }
    });
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[t], 0)
        << backend << ": thread " << t << " saw diverging results";
}

/// The sharded composites' extra obligation: bit-identical (ids, distances,
/// tie order) to the wrapped backend at shard counts {1, 2, 7} under both
/// partition schemes, on every dataset — enforced for exact inners, where
/// the answer is unique. (Approximate inners legitimately answer from a
/// different per-shard structure; check_answers already bounds their
/// recall.) No-op for non-sharded backends.
inline void check_sharded_bit_parity(const std::string& backend) {
  constexpr std::string_view kPrefix = "sharded:";
  if (backend.substr(0, kPrefix.size()) != kPrefix) return;
  const std::string inner = backend.substr(kPrefix.size());

  for (const Dataset& data : datasets()) {
    auto reference_index = build_index(inner, data.X);
    if (!reference_index->info().exact) return;
    const index_t k = 5;
    const KnnResult reference =
        reference_index->knn_search({.queries = &data.Q, .k = k}).knn;

    for (index_t shards : {index_t{1}, index_t{2}, index_t{7}}) {
      for (const char* partition : {"contiguous", "strided"}) {
        SCOPED_TRACE(backend + " on " + data.name + " shards=" +
                     std::to_string(shards) + " partition=" + partition);
        IndexOptions options = suite_options();
        options.num_shards = shards;
        options.partition = partition;
        auto sharded = make_index(backend, options);
        sharded->build(data.X);
        EXPECT_EQ(sharded->info().shards, std::min(shards, data.X.rows()));
        const KnnResult result =
            sharded->knn_search({.queries = &data.Q, .k = k}).knn;
        EXPECT_TRUE(testutil::knn_equal(reference, result))
            << backend << " is not bit-identical to " << inner;
      }
    }
  }
}

// ------------------------------------------------- metric x backend matrix ---

/// Reference k-NN under a registry metric, mirroring the backends' exact
/// computation path (the cosine case uses the same shared normalize() and
/// distance conversion the backends use, so exact backends must match it
/// bit for bit).
inline KnnResult metric_reference_knn(const Matrix<float>& Q,
                                      const Matrix<float>& X,
                                      metric::Kind kind, index_t k) {
  switch (kind) {
    case metric::Kind::kL2:
      return testutil::naive_knn(Q, X, k, Euclidean{});
    case metric::Kind::kL1:
      return testutil::naive_knn(Q, X, k, L1{});
    case metric::Kind::kCosine: {
      KnnResult r = testutil::naive_knn(metric::normalized_clone(Q),
                                        metric::normalized_clone(X), k,
                                        Euclidean{});
      metric::cosine_distances_from_l2(r.dists);
      return r;
    }
    case metric::Kind::kIp:
      return testutil::naive_knn(Q, X, k, InnerProduct{});
  }
  return KnnResult(Q.rows(), k);
}

/// Every metric a backend declares in supported_metrics must actually
/// work: info().metric reports it, exact backends reproduce the per-metric
/// scalar reference including tie order, approximate backends keep a sane
/// recall@1 against that reference, and a request asserting the built
/// metric passes the shared validator.
inline void check_metric_matrix(const std::string& backend) {
  const std::vector<std::string> supported =
      make_index(backend, suite_options())->info().supported_metrics;
  ASSERT_FALSE(supported.empty()) << backend;
  for (const std::string& name : supported) {
    metric::Kind kind{};
    ASSERT_TRUE(metric::lookup(name, kind))
        << backend << " declares unknown metric '" << name << "'";
    for (const Dataset& data : datasets()) {
      SCOPED_TRACE(backend + " metric=" + name + " on " + data.name);
      IndexOptions options = suite_options();
      options.metric = name;
      auto index = make_index(backend, options);
      index->build(data.X);
      EXPECT_EQ(index->info().metric, name);
      const index_t k = 4;
      const KnnResult reference =
          metric_reference_knn(data.Q, data.X, kind, k);
      SearchRequest request{.queries = &data.Q, .k = k};
      request.options.metric = name;  // assert-the-built-metric contract
      const SearchResponse response = index->knn_search(request);
      if (index->info().exact) {
        EXPECT_TRUE(testutil::knn_equal(reference, response.knn))
            << backend << " diverged from the " << name << " reference";
      } else {
        EXPECT_GT(recall_at_1(response.knn, reference), 1.0 / 3.0)
            << backend << " recall collapsed under " << name;
      }
    }
  }
}

/// The unsupported-metric contract: every registry metric a backend does
/// NOT declare must be rejected at make_index time with the uniform
/// std::invalid_argument shape, as must names outside the registry; and a
/// request asserting a metric other than the built one must fail in the
/// shared validator.
inline void check_unsupported_metric_contract(const std::string& backend) {
  const std::vector<std::string> supported =
      make_index(backend, suite_options())->info().supported_metrics;
  auto expect_rejected = [&](const std::string& name) {
    IndexOptions options = suite_options();
    options.metric = name;
    try {
      (void)make_index(backend, options);
      FAIL() << backend << " accepted metric '" << name << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported metric"),
                std::string::npos)
          << backend << " threw a different message: " << e.what();
    }
  };
  for (const metric::Entry& entry : metric::registry())
    if (std::find(supported.begin(), supported.end(), entry.name) ==
        supported.end())
      expect_rejected(entry.name);
  expect_rejected("no-such-metric");

  // Metric-assertion mismatch: the shared validator, not the backend, must
  // reject a request that assumes a different metric than the index holds.
  const Matrix<float> X = testutil::clustered_matrix(40, 5, 3, 110);
  const Matrix<float> Q = testutil::random_matrix(3, 5, 111);
  auto index = build_index(backend, X);  // built with the default "l2"
  SearchRequest mismatched{.queries = &Q, .k = 1};
  mismatched.options.metric = "cosine";
  EXPECT_THROW((void)index->knn_search(mismatched), std::invalid_argument)
      << backend << ": metric-assertion mismatch must throw";
  SearchRequest asserted{.queries = &Q, .k = 1};
  asserted.options.metric = "l2";
  EXPECT_NO_THROW((void)index->knn_search(asserted))
      << backend << ": asserting the built metric must pass";
}

/// Sharded bit-parity under "cosine" (the satellite obligation of the
/// metric redesign): the composite must stay bit-identical to its inner
/// backend when both run the normalized-L2 cosine path — the merge
/// operates on converted distances, so this pins the conversion happening
/// inside the shards, once, not per layer. No-op for non-sharded backends
/// and inners without cosine.
inline void check_sharded_metric_parity(const std::string& backend) {
  constexpr std::string_view kPrefix = "sharded:";
  if (backend.substr(0, kPrefix.size()) != kPrefix) return;
  const std::string inner = backend.substr(kPrefix.size());
  const std::vector<std::string> supported =
      make_index(inner, suite_options())->info().supported_metrics;
  if (std::find(supported.begin(), supported.end(), "cosine") ==
      supported.end())
    return;

  for (const Dataset& data : datasets()) {
    IndexOptions inner_options = suite_options();
    inner_options.metric = "cosine";
    auto reference_index = make_index(inner, inner_options);
    reference_index->build(data.X);
    if (!reference_index->info().exact) return;
    const index_t k = 5;
    const KnnResult reference =
        reference_index->knn_search({.queries = &data.Q, .k = k}).knn;

    for (index_t shards : {index_t{2}, index_t{7}}) {
      for (const char* partition : {"contiguous", "strided"}) {
        SCOPED_TRACE(backend + " cosine on " + data.name + " shards=" +
                     std::to_string(shards) + " partition=" + partition);
        IndexOptions options = suite_options();
        options.metric = "cosine";
        options.num_shards = shards;
        options.partition = partition;
        auto sharded = make_index(backend, options);
        sharded->build(data.X);
        EXPECT_EQ(sharded->info().metric, "cosine");
        const KnnResult result =
            sharded->knn_search({.queries = &data.Q, .k = k}).knn;
        EXPECT_TRUE(testutil::knn_equal(reference, result))
            << backend << " cosine is not bit-identical to " << inner;
      }
    }
  }
}

/// Serialize round-trips must preserve the metric: a restored index
/// reports the same info().metric and answers identically under it ("l2"
/// is covered by check_serialize_roundtrip; this covers the rest).
inline void check_metric_serialize_roundtrip(const std::string& backend) {
  const Dataset data = std::move(datasets().front());
  const std::vector<std::string> supported =
      make_index(backend, suite_options())->info().supported_metrics;
  for (const std::string& name : supported) {
    if (name == "l2") continue;
    SCOPED_TRACE(backend + " metric=" + name);
    IndexOptions options = suite_options();
    options.metric = name;
    auto index = make_index(backend, options);
    index->build(data.X);
    if (!index->info().supports_save) continue;
    const index_t k = 4;
    const KnnResult before =
        index->knn_search({.queries = &data.Q, .k = k}).knn;
    std::stringstream stream;
    index->save(stream);
    const auto restored = load_index(stream);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->info().backend, backend);
    EXPECT_EQ(restored->info().metric, name);
    const KnnResult after =
        restored->knn_search({.queries = &data.Q, .k = k}).knn;
    EXPECT_TRUE(testutil::knn_equal(before, after))
        << backend << ": restored " << name << " index diverged";
  }
}

// ------------------------------------------------------ mutation checks ---

/// The uniform mutation-capability contract: backends that declare
/// supports_mutation must enforce the insert/remove argument contract with
/// the shared invalid_argument shapes, and backends that don't must reject
/// every mutation entry point with the uniform runtime_error — never a
/// silent no-op or a crash.
inline void check_mutation_contract(const std::string& backend) {
  const Matrix<float> X = testutil::random_matrix(30, 6, 115);
  auto index = build_index(backend, X);
  Matrix<float> one(1, 6);
  for (index_t j = 0; j < 6; ++j) one.at(0, j) = 0.25f * (j + 1);

  if (!index->info().supports_mutation) {
    const std::vector<index_t> id{500};
    try {
      index->insert(one, id);
      FAIL() << backend << " accepted insert without declaring mutation";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("does not support mutation"),
                std::string::npos)
          << backend << " threw a different message: " << e.what();
    }
    EXPECT_THROW((void)index->remove(id), std::runtime_error) << backend;
    EXPECT_THROW(index->compact(), std::runtime_error) << backend;
    EXPECT_THROW((void)index->live_ids(), std::runtime_error) << backend;
    EXPECT_THROW(index->build_with_ids(X, std::vector<index_t>{}),
                 std::runtime_error)
        << backend;
    return;
  }

  // Unbuilt index: mutation is a caller error, same as search.
  {
    auto fresh = make_index(backend, suite_options());
    const std::vector<index_t> id{500};
    EXPECT_THROW(fresh->insert(one, id), std::invalid_argument)
        << backend << ": insert before build";
    EXPECT_THROW((void)fresh->remove(id), std::invalid_argument)
        << backend << ": remove before build";
  }

  // Malformed insert batches leave the index untouched.
  {
    Matrix<float> wrong_dim(1, 4);
    for (index_t j = 0; j < 4; ++j) wrong_dim.at(0, j) = 1.0f;
    const std::vector<index_t> id{501};
    EXPECT_THROW(index->insert(wrong_dim, id), std::invalid_argument)
        << backend << ": dimension mismatch";
    const std::vector<index_t> two_ids{501, 502};
    EXPECT_THROW(index->insert(one, two_ids), std::invalid_argument)
        << backend << ": id/row count mismatch";
    Matrix<float> two(2, 6);
    for (index_t j = 0; j < 6; ++j) two.at(0, j) = two.at(1, j) = 0.5f;
    const std::vector<index_t> dup{501, 501};
    EXPECT_THROW(index->insert(two, dup), std::invalid_argument)
        << backend << ": duplicate ids in one batch";
    const std::vector<index_t> invalid{kInvalidIndex};
    EXPECT_THROW(index->insert(one, invalid), std::invalid_argument)
        << backend << ": the reserved invalid id";
    const std::vector<index_t> taken{3};
    try {
      index->insert(one, taken);
      FAIL() << backend << " accepted an id that is already live";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("already live"), std::string::npos)
          << backend << " threw a different message: " << e.what();
    }
    EXPECT_EQ(index->info().size, X.rows())
        << backend << ": rejected inserts must not change the index";
  }

  // remove() dedupes its request and ignores unknown ids: {5, 5, 99}
  // removes exactly one live row.
  {
    const std::vector<index_t> ids{5, 5, 99};
    EXPECT_EQ(index->remove(ids), 1u) << backend;
    EXPECT_EQ(index->info().size, X.rows() - 1) << backend;
    const std::vector<index_t> again{5};
    EXPECT_EQ(index->remove(again), 0u)
        << backend << ": removing a dead id twice";
    // A removed id is free for reuse — with fresh row content.
    EXPECT_NO_THROW(index->insert(one, again)) << backend;
  }

  // The post-delete k > n contract (the deduped validation path): once
  // removals drop the live count below k, the search must fail with the
  // exact build-time k > n error shape, and k == live must still pass.
  {
    Matrix<float> three(3, 6);
    for (index_t i = 0; i < 3; ++i)
      for (index_t j = 0; j < 6; ++j) three.at(i, j) = 0.1f * (i * 6 + j);
    auto small = make_index(backend, suite_options());
    small->build(three);
    const std::vector<index_t> drop{0};
    ASSERT_EQ(small->remove(drop), 1u) << backend;
    const Matrix<float> q = testutil::random_matrix(2, 6, 116);
    try {
      (void)small->knn_search({.queries = &q, .k = 3});
      FAIL() << backend << " accepted k > live size after remove";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("exceeds database size"),
                std::string::npos)
          << backend << " threw a different message: " << e.what();
    }
    EXPECT_NO_THROW((void)small->knn_search({.queries = &q, .k = 2}))
        << backend << ": k == live size after remove must pass";
  }
}

/// A row holding a NaN or an infinity is refused at build and insert with
/// the uniform invalid_argument, naming the first such row: distances to it
/// are NaN, which no (distance, id) order ranks. A refused batch inserts
/// nothing, and a sharded composite refuses before its shard fan-out, so
/// no exception escapes an OpenMP region.
inline void check_nonfinite_rows(const std::string& backend) {
  const Matrix<float> X = testutil::random_matrix(40, 6, 117);
  const Matrix<float> Q = testutil::random_matrix(4, 6, 118);
  const auto expect_refused = [&](const auto& call, index_t row,
                                  const std::string& what) {
    expect_nonfinite_refused(backend, call, "row " + std::to_string(row),
                             what);
  };
  const float inf = std::numeric_limits<float>::infinity();
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(), inf, -inf}) {
    SCOPED_TRACE(backend + " with " + std::to_string(bad));
    Matrix<float> rows = X.clone();
    rows.at(13, 4) = bad;
    rows.at(29, 0) = bad;  // the message names the first bad row
    auto index = make_index(backend, suite_options());
    expect_refused([&] { index->build(rows); }, 13, "build");
    if (!index->info().supports_mutation) continue;

    std::vector<index_t> ids(X.rows());
    for (index_t i = 0; i < X.rows(); ++i) ids[i] = 2 * i;
    expect_refused([&] { index->build_with_ids(rows, ids); }, 13,
                   "build_with_ids");

    index->build(X);
    const KnnResult before = index->knn_search({.queries = &Q, .k = 3}).knn;
    Matrix<float> batch = testutil::random_matrix(3, 6, 119);
    batch.at(1, 5) = bad;
    expect_refused(
        [&] { index->insert(batch, std::vector<index_t>{500, 501, 502}); }, 1,
        "insert");
    EXPECT_EQ(index->info().size, X.rows()) << "a refused insert added rows";
    EXPECT_EQ(index->live_ids().size(), static_cast<std::size_t>(X.rows()));
    EXPECT_TRUE(testutil::knn_equal(
        before, index->knn_search({.queries = &Q, .k = 3}).knn));
  }
}

/// Logical database the mutate-then-search matrix mirrors: live id -> row.
using MutationMirror = std::map<index_t, std::vector<float>>;

/// The state a dense stream (mutate::MutableIndex::save) holds after its
/// tags and knobs.
struct DenseStreamState {
  std::vector<index_t> main_ids;
  Matrix<float> main_rows;
  std::vector<index_t> delta_ids;
  Matrix<float> delta_rows;
  std::vector<index_t> tombstones;
};

/// Saves `index` and reads its dense stream back field by field, in the
/// order rbc/serialize_io.hpp lays the stream out.
inline DenseStreamState read_dense_stream(const Index& index) {
  std::stringstream stream;
  index.save(stream);
  io::read_header(stream, io::kMagicDense, "dense index");
  for (int tag = 0; tag < 3; ++tag)  // backend, metric, storage
    (void)io::read_string(stream);
  (void)io::read_params(stream);
  IndexOptions knobs;
  io::read_pod(stream, knobs.leaf_size);
  io::read_pod(stream, knobs.seed);
  io::read_pod(stream, knobs.max_delta);
  std::uint8_t background_merge = 0;
  io::read_pod(stream, background_merge);
  index_t dim = 0;
  io::read_pod(stream, dim);
  DenseStreamState state;
  io::read_vec(stream, state.main_ids);
  state.main_rows = io::read_matrix(stream);
  io::read_vec(stream, state.delta_ids);
  state.delta_rows = io::read_matrix(stream);
  io::read_vec(stream, state.tombstones);
  return state;
}

/// One copy of the rows: the wrapper reads its main rows back from the
/// backend, so the dense stream is where a lost or stale row would show.
/// Every live main row and every delta row it holds must be the mirror's
/// row for that id in transform space (normalized under cosine), bit for
/// bit, and together they must be exactly the mirror's ids.
inline void expect_stream_rows_match(const Index& index,
                                     const MutationMirror& mirror,
                                     const std::string& metric_name) {
  const DenseStreamState state = read_dense_stream(index);
  std::vector<index_t> live;
  const auto expect_row = [&](const float* got, index_t id,
                              const char* where) {
    live.push_back(id);
    const auto it = mirror.find(id);
    ASSERT_NE(it, mirror.end()) << where << " row of dead id " << id;
    std::vector<float> want = it->second;
    const auto dim = static_cast<index_t>(want.size());
    if (metric_name == "cosine") metric::normalize(want.data(), dim);
    for (index_t j = 0; j < dim; ++j)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got[j]),
                std::bit_cast<std::uint32_t>(want[j]))
          << where << " row of id " << id << ", column " << j;
  };
  for (std::size_t i = 0; i < state.main_ids.size(); ++i) {
    const index_t id = state.main_ids[i];
    if (std::binary_search(state.tombstones.begin(), state.tombstones.end(),
                           id))
      continue;
    expect_row(state.main_rows.row(static_cast<index_t>(i)), id, "main");
  }
  for (std::size_t i = 0; i < state.delta_ids.size(); ++i)
    expect_row(state.delta_rows.row(static_cast<index_t>(i)),
               state.delta_ids[i], "delta");
  std::sort(live.begin(), live.end());
  std::vector<index_t> expected;
  for (const auto& [id, row] : mirror) expected.push_back(id);
  EXPECT_EQ(live, expected) << "the stream's live ids are not the mirror's";
}

/// Row storages to run the mutation checks under: float32, plus int8 where
/// the backend serves it under `metric_name`.
inline std::vector<std::string> mutation_storages(
    const std::string& backend, const std::string& metric_name) {
  IndexOptions options = suite_options();
  options.metric = metric_name;
  const std::vector<std::string> supported =
      make_index(backend, options)->info().supported_storage;
  std::vector<std::string> storages{"float32"};
  if (std::find(supported.begin(), supported.end(), "int8") !=
      supported.end())
    storages.push_back("int8");
  return storages;
}

/// Rebuilds `backend` from scratch over exactly the mirror's live rows
/// (ids ascending) — the reference a mutated index is compared against.
inline std::unique_ptr<Index> rebuild_from_mirror(const std::string& backend,
                                                  const IndexOptions& options,
                                                  const MutationMirror& mirror,
                                                  index_t dim) {
  Matrix<float> X(static_cast<index_t>(mirror.size()), dim);
  std::vector<index_t> ids;
  ids.reserve(mirror.size());
  for (const auto& [id, row] : mirror) {
    for (index_t j = 0; j < dim; ++j)
      X.at(static_cast<index_t>(ids.size()), j) = row[j];
    ids.push_back(id);
  }
  auto scratch = make_index(backend, options);
  scratch->build_with_ids(X, ids);
  return scratch;
}

/// One checkpoint of the mutate-then-search matrix: the mutated index must
/// agree with a scratch rebuild over the same logical rows. Exact backends
/// must agree bit-for-bit (ids, distances, tie order) at EVERY checkpoint —
/// delta rows and tombstones included; approximate backends must agree
/// bit-for-bit whenever the structure is provably identical (delta empty,
/// unsharded: the merge assembles rows in ascending-id order, exactly the
/// scratch build's input, under the same seed) and satisfy the result
/// invariants (live ids only, sorted, no duplicates) otherwise. Every
/// backend must also answer each query row searched alone with the block
/// answer's exact bits, and an unsharded index's dense stream must hold the
/// mirror's rows (expect_stream_rows_match).
inline void verify_mutation_checkpoint(Index& index,
                                       const std::string& backend,
                                       const IndexOptions& options,
                                       const MutationMirror& mirror,
                                       const Matrix<float>& Q) {
  const index_t dim = Q.cols();
  const IndexInfo info = index.info();
  ASSERT_EQ(info.size, mirror.size());

  std::vector<index_t> expected_ids;
  expected_ids.reserve(mirror.size());
  for (const auto& [id, row] : mirror) expected_ids.push_back(id);
  EXPECT_EQ(index.live_ids(), expected_ids);

  const auto k = static_cast<index_t>(
      std::min<std::size_t>(5, mirror.size()));
  ASSERT_GE(k, 1u);
  // Four threads on any runner: the block (more rows than threads) takes
  // the per-query loop, and each one-row search the sharded composite's
  // (shard, row) fan-out.
  const ThreadLimit threads(4);
  const KnnResult result = index.knn_search({.queries = &Q, .k = k}).knn;
  for (index_t qi = 0; qi < Q.rows(); ++qi) {
    Matrix<float> one(1, dim);
    one.copy_row_from(Q, qi, 0);
    const KnnResult alone = index.knn_search({.queries = &one, .k = k}).knn;
    for (index_t j = 0; j < k; ++j) {
      EXPECT_EQ(alone.ids.at(0, j), result.ids.at(qi, j))
          << backend << ": row " << qi << " searched alone, slot " << j;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(alone.dists.at(0, j)),
                std::bit_cast<std::uint32_t>(result.dists.at(qi, j)))
          << backend << ": row " << qi << " searched alone, slot " << j;
    }
  }

  const bool sharded = backend.rfind("sharded:", 0) == 0;
  if (!sharded && info.supports_save)
    expect_stream_rows_match(index, mirror, options.metric);

  auto scratch = rebuild_from_mirror(backend, options, mirror, dim);
  const KnnResult reference = scratch->knn_search({.queries = &Q, .k = k}).knn;

  const bool clean = info.delta_rows == 0 && info.tombstones == 0;
  if (info.exact || (clean && !sharded)) {
    EXPECT_TRUE(testutil::knn_equal(reference, result))
        << backend << " diverged from a scratch rebuild over the same "
        << mirror.size() << " live rows (delta_rows=" << info.delta_rows
        << " tombstones=" << info.tombstones << ")";
  } else {
    const std::set<index_t> live(expected_ids.begin(), expected_ids.end());
    for (index_t qi = 0; qi < Q.rows(); ++qi) {
      std::set<index_t> seen;
      for (index_t j = 0; j < k; ++j) {
        const index_t id = result.ids.at(qi, j);
        EXPECT_TRUE(live.count(id) == 1)
            << backend << " answered dead/unknown id " << id;
        EXPECT_TRUE(seen.insert(id).second)
            << backend << " answered id " << id << " twice for one query";
        if (j > 0)
          EXPECT_GE(result.dists.at(qi, j), result.dists.at(qi, j - 1))
              << backend << " returned unsorted distances";
      }
    }
  }
}

/// The mutate-then-search conformance matrix: drive a fixed
/// insert/remove/merge/compact schedule against every mutation-capable
/// backend and compare with a scratch rebuild at every checkpoint, across
/// the backend's whole supported-metric set, in float32 and (where served)
/// int8 storage. Merges run inline (background_merge = false) so every
/// phase is deterministic; max_delta = 6 makes the schedule cross the merge
/// threshold mid-run. The caller's build matrix is overwritten right after
/// the build, so a merge or save that still read it would diverge. No-op
/// for backends without mutation support (check_mutation_contract pins
/// their rejection).
inline void check_mutate_then_search(const std::string& backend) {
  if (!make_index(backend, suite_options())->info().supports_mutation) return;
  const index_t dim = 8;
  const Matrix<float> pool = testutil::clustered_matrix(80, dim, 5, 117);
  const Matrix<float> Q = testutil::random_matrix(10, dim, 118);
  const std::vector<std::string> supported =
      make_index(backend, suite_options())->info().supported_metrics;

  auto pool_row = [&](index_t r) {
    return std::vector<float>(pool.row(r), pool.row(r) + dim);
  };
  auto insert_rows = [&](Index& index, MutationMirror& mirror,
                         const std::vector<index_t>& ids, index_t pool_from) {
    Matrix<float> rows(static_cast<index_t>(ids.size()), dim);
    for (index_t i = 0; i < rows.rows(); ++i) {
      rows.copy_row_from(pool, pool_from + i, i);
      mirror[ids[i]] = pool_row(pool_from + i);
    }
    index.insert(rows, ids);
  };
  auto remove_rows = [&](Index& index, MutationMirror& mirror,
                         const std::vector<index_t>& ids) {
    index_t live = 0;
    for (index_t id : ids) live += mirror.erase(id);
    EXPECT_EQ(index.remove(ids), live) << backend;
  };

  // Sharded composites run the whole schedule at several shard counts —
  // including more shards than the insert schedule fills evenly.
  const bool is_sharded = backend.rfind("sharded:", 0) == 0;
  const std::vector<index_t> shard_counts =
      is_sharded ? std::vector<index_t>{1, 2, 7} : std::vector<index_t>{0};

  for (const std::string& metric : supported) {
  for (const std::string& storage : mutation_storages(backend, metric)) {
  for (const index_t shards : shard_counts) {
    SCOPED_TRACE(backend + " metric=" + metric + " storage=" + storage +
                 (is_sharded ? " shards=" + std::to_string(shards) : ""));
    IndexOptions options = suite_options();
    options.metric = metric;
    options.storage = storage;
    if (shards != 0) options.num_shards = shards;
    options.max_delta = 6;          // schedule crosses the merge threshold
    options.background_merge = false;  // merges run inline: deterministic

    auto index = make_index(backend, options);
    MutationMirror mirror;

    // Phase 0: plain build over ids 0..39.
    Matrix<float> X0(40, dim);
    for (index_t i = 0; i < 40; ++i) {
      X0.copy_row_from(pool, i, i);
      mirror[i] = pool_row(i);
    }
    index->build(X0);
    for (index_t i = 0; i < X0.rows(); ++i)
      for (index_t j = 0; j < dim; ++j) X0.at(i, j) = -7.0f;
    verify_mutation_checkpoint(*index, backend, options, mirror, Q);

    // Phase 1: a small insert lands in the delta shard (3 < max_delta).
    insert_rows(*index, mirror, {100, 101, 102}, 40);
    verify_mutation_checkpoint(*index, backend, options, mirror, Q);

    // Phase 2: removes masking main rows (tombstones) and a delta row.
    remove_rows(*index, mirror, {1, 7, 13, 25, 101});
    verify_mutation_checkpoint(*index, backend, options, mirror, Q);

    // Phase 3: this insert pushes the delta to max_delta — inline merge.
    // (Sharded composites keep a delta per shard and route the batch to the
    // least-full one, so only the unsharded index provably crosses the
    // threshold here.)
    insert_rows(*index, mirror, {200, 201, 202, 203}, 43);
    if (!is_sharded)
      EXPECT_EQ(index->info().delta_rows, 0u)
          << backend << ": crossing max_delta must trigger the merge";
    verify_mutation_checkpoint(*index, backend, options, mirror, Q);

    // Phase 4: reinsert a previously removed id with different content.
    insert_rows(*index, mirror, {7}, 47);
    verify_mutation_checkpoint(*index, backend, options, mirror, Q);

    // Phase 5: remove the reinserted id again plus unknown ids (ignored).
    remove_rows(*index, mirror, {7, 999});
    verify_mutation_checkpoint(*index, backend, options, mirror, Q);

    // Phase 6: compact folds everything into the main structure.
    index->compact();
    EXPECT_EQ(index->info().delta_rows, 0u) << backend;
    EXPECT_EQ(index->info().tombstones, 0u) << backend;
    verify_mutation_checkpoint(*index, backend, options, mirror, Q);
  }
  }
  }
}

/// A mutated index must round-trip through save/load with its delta rows
/// and tombstones intact — the restored instance answers identically, its
/// stream holds the same rows, and it stays mutable. Runs under "l2" and
/// (when supported) "cosine", whose transform-space rows are the risky
/// persistence path, in float32 and (where served) int8 storage.
inline void check_mutated_serialize_roundtrip(const std::string& backend) {
  auto probe = make_index(backend, suite_options());
  if (!probe->info().supports_mutation || !probe->info().supports_save)
    return;
  const std::vector<std::string> supported = probe->info().supported_metrics;

  for (const std::string& metric : {std::string("l2"), std::string("cosine")}) {
    if (std::find(supported.begin(), supported.end(), metric) ==
        supported.end())
      continue;
  for (const std::string& storage : mutation_storages(backend, metric)) {
    SCOPED_TRACE(backend + " metric=" + metric + " storage=" + storage);
    const index_t dim = 8;
    const Matrix<float> pool = testutil::clustered_matrix(60, dim, 4, 119);
    const Matrix<float> Q = testutil::random_matrix(6, dim, 120);
    IndexOptions options = suite_options();
    options.metric = metric;
    options.storage = storage;
    options.max_delta = 64;  // keep the delta un-merged across the save
    options.background_merge = false;

    auto index = make_index(backend, options);
    MutationMirror mirror;
    Matrix<float> X0(40, dim);
    for (index_t i = 0; i < 40; ++i) {
      X0.copy_row_from(pool, i, i);
      mirror[i] = std::vector<float>(pool.row(i), pool.row(i) + dim);
    }
    index->build(X0);
    Matrix<float> extra(4, dim);
    const std::vector<index_t> extra_ids{50, 60, 70, 80};
    for (index_t i = 0; i < 4; ++i) {
      extra.copy_row_from(pool, 40 + i, i);
      mirror[extra_ids[i]] =
          std::vector<float>(pool.row(40 + i), pool.row(40 + i) + dim);
    }
    index->insert(extra, extra_ids);
    const std::vector<index_t> dropped{2, 11, 60};
    ASSERT_EQ(index->remove(dropped), 3u);
    for (const index_t id : dropped) mirror.erase(id);

    const IndexInfo before_info = index->info();
    ASSERT_GT(before_info.delta_rows, 0u);
    ASSERT_GT(before_info.tombstones, 0u);
    const index_t k = 5;
    const KnnResult before = index->knn_search({.queries = &Q, .k = k}).knn;

    std::stringstream stream;
    index->save(stream);
    const auto restored = load_index(stream);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->info().backend, backend);
    EXPECT_EQ(restored->info().metric, metric);
    EXPECT_EQ(restored->info().size, before_info.size);
    EXPECT_EQ(restored->info().delta_rows, before_info.delta_rows);
    EXPECT_EQ(restored->info().tombstones, before_info.tombstones);
    EXPECT_TRUE(restored->info().supports_mutation)
        << backend << ": a restored mutable index must stay mutable";
    EXPECT_EQ(restored->live_ids(), index->live_ids());
    const KnnResult after = restored->knn_search({.queries = &Q, .k = k}).knn;
    EXPECT_TRUE(testutil::knn_equal(before, after))
        << backend << ": restored mutated index diverged";
    if (backend.rfind("sharded:", 0) != 0)
      expect_stream_rows_match(*restored, mirror, metric);

    // The restored instance keeps mutating: a delete and a fresh insert.
    const std::vector<index_t> drop_after{50};
    EXPECT_EQ(restored->remove(drop_after), 1u);
    Matrix<float> one(1, dim);
    one.copy_row_from(pool, 44, 0);
    const std::vector<index_t> new_id{90};
    EXPECT_NO_THROW(restored->insert(one, new_id));
    EXPECT_EQ(restored->info().size, before_info.size);
  }
  }
}

// ------------------------------------------ generic metric-space matrix ---
//
// The payload counterpart of the dense checks above: every backend that
// declares supported_spaces must serve each registered metric space
// (strings under "edit", graph nodes under "graph-sp", user functors) with
// the same contracts the dense suite pins — exactness against an
// independent naive reference including tie order, the uniform
// request-error shapes, serialize round-trips, and sharded bit-parity.
// test_conformance.cpp instantiates GenericSpaceConformanceTest over the
// payload-capable subset of the registry, with its own coverage gate.

/// A named (dataset, queries) pair of one payload kind. Queries use the
/// same payload encoding Dataset::item() exposes.
struct PayloadDataset {
  std::string name;
  metricspace::DatasetHandle data;
  std::vector<std::string> queries;
};

/// The 8-byte little-endian node-id payload — the graph-space query
/// encoding (dataset.hpp).
inline std::string encoded_node(std::uint64_t id) {
  std::string payload(8, '\0');
  for (int b = 0; b < 8; ++b)
    payload[b] = static_cast<char>((id >> (8 * b)) & 0xffu);
  return payload;
}

/// Clustered word list (a few base words plus 1-2 single-character
/// mutations each): the string analogue of the dense suite's blob
/// datasets, with the low intrinsic dimension RBC pruning exploits.
inline std::vector<std::string> payload_words(index_t count, index_t bases,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> base(bases);
  for (auto& b : base) {
    b.resize(12 + rng.uniform_index(8));
    for (auto& ch : b) ch = static_cast<char>('a' + rng.uniform_index(26));
  }
  std::vector<std::string> words(count);
  for (auto& w : words) {
    w = base[rng.uniform_index(bases)];
    const index_t mutations = 1 + rng.uniform_index(2);
    for (index_t m = 0; m < mutations; ++m)
      w[rng.uniform_index(static_cast<index_t>(w.size()))] =
          static_cast<char>('a' + rng.uniform_index(26));
  }
  return words;
}

/// The suite's fixed payload datasets per dataset kind: clustered strings,
/// strings with duplicated items (guaranteed distance ties), a chord-ring
/// graph over every node, and the same style of graph over a node subset
/// (exercising the element -> node-id remap). Queries come from the same
/// distribution (held-out words / arbitrary valid nodes). Unknown kinds —
/// user-registered spaces in other test binaries — get an empty list;
/// check_payload_space_coverage pins the shipped kinds non-empty.
inline std::vector<PayloadDataset> payload_datasets(std::string_view kind) {
  std::vector<PayloadDataset> sets;
  if (kind == "strings") {
    sets.push_back({"strings-clustered",
                    metricspace::make_string_dataset(payload_words(260, 9, 201)),
                    payload_words(18, 9, 202)});
    auto words = payload_words(90, 5, 203);
    words.insert(words.end(), words.begin(), words.begin() + 45);  // ties
    sets.push_back({"strings-ties",
                    metricspace::make_string_dataset(std::move(words)),
                    payload_words(14, 5, 204)});
  } else if (kind == "graph") {
    // Ring with random chords: connected, irregular shortest paths.
    const auto make_edges = [](index_t n, std::uint64_t seed) {
      Rng rng(seed);
      std::vector<metricspace::GraphEdge> edges;
      for (index_t i = 0; i < n; ++i)
        edges.push_back({i, (i + 1) % n, rng.uniform_float(0.5f, 2.0f)});
      for (index_t e = 0; e < n / 2; ++e) {
        const index_t u = rng.uniform_index(n), v = rng.uniform_index(n);
        if (u != v) edges.push_back({u, v, rng.uniform_float(1.0f, 4.0f)});
      }
      return edges;
    };
    const index_t n = 160;
    std::vector<std::string> queries;
    Rng rng(205);
    for (index_t q = 0; q < 15; ++q)
      queries.push_back(encoded_node(rng.uniform_index(n)));
    sets.push_back({"graph-ring",
                    metricspace::make_graph_dataset(n, make_edges(n, 206)),
                    queries});
    std::vector<index_t> subset;
    for (index_t i = 0; i < n; i += 3) subset.push_back(i);
    // Same query nodes: elements are the subset, but distances run in the
    // full graph, so non-indexed query nodes are legal.
    sets.push_back({"graph-subset",
                    metricspace::make_graph_dataset(n, make_edges(n, 207),
                                                    std::move(subset)),
                    queries});
  }
  return sets;
}

/// Naive exact k-NN reference over a bound metric space, under the
/// library's (distance, id) order and its double -> dist_t narrowing —
/// deliberately a straight loop over std::sort, sharing no code with the
/// generic backend's search structures.
inline KnnResult payload_reference_knn(const std::string& metric,
                                       const metricspace::DatasetHandle& data,
                                       const std::vector<std::string>& queries,
                                       index_t k) {
  const std::unique_ptr<metricspace::Space> space =
      metricspace::bind_space(metric, data);
  const auto nq = static_cast<index_t>(queries.size());
  KnnResult result(nq, k);
  for (index_t qi = 0; qi < nq; ++qi) {
    std::vector<std::pair<dist_t, index_t>> all;
    all.reserve(space->size());
    for (index_t j = 0; j < space->size(); ++j)
      all.emplace_back(
          static_cast<dist_t>(
              space->query_distance(queries[static_cast<std::size_t>(qi)], j)),
          j);
    std::sort(all.begin(), all.end());
    for (index_t j = 0; j < k; ++j) {
      if (static_cast<std::size_t>(j) < all.size()) {
        result.dists.at(qi, j) = all[static_cast<std::size_t>(j)].first;
        result.ids.at(qi, j) = all[static_cast<std::size_t>(j)].second;
      } else {
        result.dists.at(qi, j) = kInfDist;
        result.ids.at(qi, j) = kInvalidIndex;
      }
    }
  }
  return result;
}

/// Recall@1 by rank-0 *distance* — the acceptance measure for approximate
/// backends over payload spaces, where integral distances make large tie
/// groups the norm (an equally-near different id is a correct answer).
inline double payload_recall_at_1(const KnnResult& result,
                                  const KnnResult& exact) {
  index_t agree = 0;
  for (index_t qi = 0; qi < result.ids.rows(); ++qi)
    if (result.dists.at(qi, 0) == exact.dists.at(qi, 0)) ++agree;
  return result.ids.rows() == 0
             ? 1.0
             : static_cast<double>(agree) / result.ids.rows();
}

/// The payload build options: the dense suite options plus the space name.
inline IndexOptions payload_suite_options(const std::string& space_name) {
  IndexOptions options = suite_options();
  options.metric = space_name;
  return options;
}

/// Every space in supported_spaces must resolve in the registry and have
/// matrix datasets — the "declaring a space *is* opting into the matrix"
/// gate, mirroring what ConformanceCoverage does for backends.
inline void check_payload_space_coverage(const std::string& backend) {
  const std::vector<std::string> supported =
      make_index(backend, suite_options())->info().supported_spaces;
  ASSERT_FALSE(supported.empty()) << backend;
  for (const std::string& name : supported) {
    const metricspace::SpaceEntry* entry = metricspace::find_space(name);
    ASSERT_NE(entry, nullptr)
        << backend << " declares unregistered space '" << name << "'";
    EXPECT_FALSE(entry->cost_unit.empty()) << name;
    EXPECT_FALSE(payload_datasets(entry->dataset_kind).empty())
        << "space '" << name << "' (kind '" << entry->dataset_kind
        << "') has no conformance datasets";
  }
}

/// Exact backends must equal the naive per-space reference including tie
/// order; approximate backends must keep a sane recall@1. Also pins the
/// payload info surface (payload flag, dim 0, cost unit, dense metrics
/// cleared).
inline void check_payload_answers(const std::string& backend) {
  const std::vector<std::string> supported =
      make_index(backend, suite_options())->info().supported_spaces;
  for (const std::string& name : supported) {
    const metricspace::SpaceEntry* entry = metricspace::find_space(name);
    ASSERT_NE(entry, nullptr) << name;
    for (const PayloadDataset& data : payload_datasets(entry->dataset_kind)) {
      SCOPED_TRACE(backend + " space=" + name + " on " + data.name);
      auto index = make_index(backend, payload_suite_options(name));
      index->build_payload(data.data);
      const IndexInfo info = index->info();
      EXPECT_TRUE(info.payload);
      EXPECT_EQ(info.metric, name);
      EXPECT_EQ(info.dim, 0u);
      EXPECT_EQ(info.size, data.data->size());
      EXPECT_EQ(info.cost_unit, entry->cost_unit);
      EXPECT_TRUE(info.supported_metrics.empty())
          << backend << ": payload instances must not advertise dense metrics";
      for (index_t k : {index_t{1}, index_t{5}}) {
        const KnnResult reference =
            payload_reference_knn(name, data.data, data.queries, k);
        PayloadSearchRequest request{.queries = &data.queries, .k = k};
        request.options.metric = name;  // assert-the-built-metric contract
        const SearchResponse response = index->knn_search_payload(request);
        ASSERT_EQ(response.knn.ids.rows(), data.queries.size());
        ASSERT_EQ(response.knn.ids.cols(), k);
        if (info.exact) {
          EXPECT_TRUE(testutil::knn_equal(reference, response.knn))
              << backend << " diverged from the " << name
              << " reference at k=" << k;
        } else {
          EXPECT_GT(payload_recall_at_1(response.knn, reference), 1.0 / 3.0)
              << backend << " recall collapsed under " << name;
        }
      }
    }
  }
}

/// The unified payload request-error contract: the dense error shapes
/// (unbuilt, null queries, k == 0, k > n) carried over verbatim, plus the
/// payload-specific ones — dense entry points on a payload build, payload
/// entry points on a dense build, dataset-kind mismatches, and per-space
/// query-payload validation.
inline void check_payload_error_contract(const std::string& backend) {
  const std::vector<std::string> words = payload_words(30, 4, 210);
  const metricspace::DatasetHandle strings =
      metricspace::make_string_dataset(words);
  const std::vector<std::string> queries{"abc", "abd"};

  auto index = make_index(backend, payload_suite_options("edit"));
  EXPECT_THROW(
      (void)index->knn_search_payload({.queries = &queries, .k = 1}),
      std::invalid_argument)
      << backend << ": unbuilt payload index";
  const Matrix<float> X = testutil::random_matrix(10, 4, 211);
  EXPECT_THROW(index->build(X), std::invalid_argument)
      << backend << ": dense build on a payload metric";
  EXPECT_THROW(index->build_payload(nullptr), std::invalid_argument)
      << backend << ": null dataset handle";
  const metricspace::DatasetHandle graph = metricspace::make_graph_dataset(
      8, {{0, 1, 1.0f}, {1, 2, 1.0f}, {2, 3, 1.0f}, {3, 4, 1.0f},
          {4, 5, 1.0f}, {5, 6, 1.0f}, {6, 7, 1.0f}});
  EXPECT_THROW(index->build_payload(graph), std::invalid_argument)
      << backend << ": dataset-kind mismatch";

  index->build_payload(strings);
  EXPECT_THROW((void)index->knn_search({.queries = &X, .k = 1}),
               std::invalid_argument)
      << backend << ": dense search on a payload build";
  EXPECT_THROW(
      (void)index->knn_search_payload({.queries = nullptr, .k = 1}),
      std::invalid_argument)
      << backend << ": null queries";
  EXPECT_THROW(
      (void)index->knn_search_payload({.queries = &queries, .k = 0}),
      std::invalid_argument)
      << backend << ": k == 0";
  try {
    (void)index->knn_search_payload(
        {.queries = &queries, .k = strings->size() + 1});
    FAIL() << backend << " accepted k > database size";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds database size"),
              std::string::npos)
        << backend << " threw a different message: " << e.what();
  }
  PayloadSearchRequest mismatched{.queries = &queries, .k = 1};
  mismatched.options.metric = "l2";
  EXPECT_THROW((void)index->knn_search_payload(mismatched),
               std::invalid_argument)
      << backend << ": metric-assertion mismatch must throw";
  PayloadSearchRequest asserted{.queries = &queries, .k = 1};
  asserted.options.metric = "edit";
  EXPECT_NO_THROW((void)index->knn_search_payload(asserted))
      << backend << ": asserting the built metric must pass";

  // Per-space query validation: a graph query must be an 8-byte node id.
  auto graph_index = make_index(backend, payload_suite_options("graph-sp"));
  graph_index->build_payload(graph);
  const std::vector<std::string> bad_queries{"xyz"};
  try {
    (void)graph_index->knn_search_payload({.queries = &bad_queries, .k = 1});
    FAIL() << backend << " accepted a malformed graph query payload";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("query"), std::string::npos)
        << backend << " threw a different message: " << e.what();
  }

  // The reverse direction: a dense build rejects the payload entry points
  // with the uniform unsupported shape (runtime_error, like save()).
  auto dense = make_index(backend, suite_options());
  EXPECT_THROW(dense->build_payload(strings), std::runtime_error)
      << backend << ": payload build on a dense-metric instance";
  dense->build(X);
  EXPECT_THROW(
      (void)dense->knn_search_payload({.queries = &queries, .k = 1}),
      std::runtime_error)
      << backend << ": payload search on a dense build";
}

/// save -> load_index -> search must reproduce payload answers exactly, for
/// every supported space.
inline void check_payload_serialize_roundtrip(const std::string& backend) {
  const std::vector<std::string> supported =
      make_index(backend, suite_options())->info().supported_spaces;
  for (const std::string& name : supported) {
    const metricspace::SpaceEntry* entry = metricspace::find_space(name);
    ASSERT_NE(entry, nullptr) << name;
    const std::vector<PayloadDataset> sets =
        payload_datasets(entry->dataset_kind);
    ASSERT_FALSE(sets.empty()) << name;
    const PayloadDataset& data = sets.front();
    SCOPED_TRACE(backend + " space=" + name + " on " + data.name);
    auto index = make_index(backend, payload_suite_options(name));
    index->build_payload(data.data);
    if (!index->info().supports_save) {
      std::stringstream reject;
      EXPECT_THROW(index->save(reject), std::runtime_error) << backend;
      continue;
    }
    const index_t k = 4;
    const KnnResult before =
        index->knn_search_payload({.queries = &data.queries, .k = k}).knn;
    std::stringstream stream;
    index->save(stream);
    const auto restored = load_index(stream);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->info().backend, backend);
    EXPECT_EQ(restored->info().metric, name);
    EXPECT_TRUE(restored->info().payload);
    EXPECT_EQ(restored->info().size, data.data->size());
    const KnnResult after =
        restored->knn_search_payload({.queries = &data.queries, .k = k}).knn;
    EXPECT_TRUE(testutil::knn_equal(before, after))
        << backend << ": restored payload index diverged";
  }
}

/// The sharded composites' payload obligation: bit-identical (ids,
/// distances, tie order) to the wrapped backend at shard counts {1, 2, 7}
/// under both partition schemes, on every dataset of every supported space
/// — enforced for exact inners, exactly like the dense parity check.
inline void check_payload_sharded_parity(const std::string& backend) {
  constexpr std::string_view kPrefix = "sharded:";
  if (backend.substr(0, kPrefix.size()) != kPrefix) return;
  const std::string inner = backend.substr(kPrefix.size());
  const std::vector<std::string> supported =
      make_index(inner, suite_options())->info().supported_spaces;

  for (const std::string& name : supported) {
    const metricspace::SpaceEntry* entry = metricspace::find_space(name);
    ASSERT_NE(entry, nullptr) << name;
    for (const PayloadDataset& data : payload_datasets(entry->dataset_kind)) {
      auto reference_index = make_index(inner, payload_suite_options(name));
      reference_index->build_payload(data.data);
      if (!reference_index->info().exact) return;
      const index_t k = 5;
      const KnnResult reference =
          reference_index->knn_search_payload({.queries = &data.queries,
                                               .k = k}).knn;

      for (index_t shards : {index_t{1}, index_t{2}, index_t{7}}) {
        for (const char* partition : {"contiguous", "strided"}) {
          SCOPED_TRACE(backend + " space=" + name + " on " + data.name +
                       " shards=" + std::to_string(shards) + " partition=" +
                       partition);
          IndexOptions options = payload_suite_options(name);
          options.num_shards = shards;
          options.partition = partition;
          auto sharded = make_index(backend, options);
          sharded->build_payload(data.data);
          const KnnResult result =
              sharded->knn_search_payload({.queries = &data.queries,
                                           .k = k}).knn;
          EXPECT_TRUE(testutil::knn_equal(reference, result))
              << backend << " is not bit-identical to " << inner;
        }
      }
    }
  }
}

/// Concurrent const payload searches: same contract as the dense check —
/// every thread must see what a lone caller sees.
inline void check_payload_concurrent_search(const std::string& backend) {
  const std::vector<PayloadDataset> sets = payload_datasets("strings");
  const PayloadDataset& data = sets.front();
  auto index = make_index(backend, payload_suite_options("edit"));
  index->build_payload(data.data);
  const index_t k = 3;
  const KnnResult reference =
      index->knn_search_payload({.queries = &data.queries, .k = k}).knn;

  constexpr int kThreads = 4, kRounds = 3;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const KnnResult result =
            index->knn_search_payload({.queries = &data.queries, .k = k}).knn;
        if (!testutil::knn_equal(reference, result)) ++mismatches[t];
      }
    });
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[t], 0)
        << backend << ": thread " << t << " saw diverging payload results";
}

/// The parameterized suite types; test_conformance.cpp instantiates them
/// (ConformanceTest from registered_backends(), GenericSpaceConformanceTest
/// from its payload-capable subset) and coverage tests assert nothing was
/// skipped.
class ConformanceTest : public ::testing::TestWithParam<std::string> {};
class GenericSpaceConformanceTest
    : public ::testing::TestWithParam<std::string> {};

/// The payload-capable subset of the registry — the instantiation source
/// for GenericSpaceConformanceTest.
inline std::vector<std::string> payload_capable_backends() {
  std::vector<std::string> out;
  for (const std::string& backend : registered_backends())
    if (!make_index(backend, suite_options())->info().supported_spaces.empty())
      out.push_back(backend);
  return out;
}

/// gtest-safe test-name suffix for a backend name.
inline std::string sanitized(std::string name) {
  for (char& c : name)
    if (c == '-' || c == ':') c = '_';
  return name;
}

}  // namespace rbc::conformance
