// Determinism of the sharded composite across shard counts and kernel
// ISAs: the same dataset and seed must produce the identical SearchResponse
// — ids, distances, and tie order — for sharded:rbc-exact at shards
// {1, 2, 7} and at every team size, for the unsharded backend, and under
// every available forced ISA (the dispatched kernels are prefilters whose
// survivors are re-measured with the scalar metric, so vectorization must
// never leak into results).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/api.hpp"
#include "distance/dispatch.hpp"
#include "parallel/runtime.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

/// The ISAs this host can actually run (scalar always; avx2/avx512 when
/// compiled in and supported). Forcing an unavailable ISA is a no-op, so
/// only available ones are meaningful to pin.
std::vector<dispatch::Isa> testable_isas() {
  std::vector<dispatch::Isa> isas{dispatch::Isa::kScalar};
  for (dispatch::Isa isa : {dispatch::Isa::kAvx2, dispatch::Isa::kAvx512})
    if (dispatch::isa_available(isa)) isas.push_back(isa);
  return isas;
}

TEST(ShardDeterminism, SameSeedSameResponseAcrossShardCountsAndIsas) {
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(1'060, 16, 6, 31),
                           1'000);
  const index_t k = 6;

  // Reference: the unsharded backend under forced-scalar dispatch.
  ASSERT_EQ(dispatch::force_isa(dispatch::Isa::kScalar),
            dispatch::Isa::kScalar);
  auto unsharded = make_index("rbc-exact", {.rbc = {.seed = 32}});
  unsharded->build(X);
  const KnnResult reference =
      unsharded->knn_search({.queries = &Q, .k = k}).knn;

  for (dispatch::Isa isa : testable_isas()) {
    ASSERT_EQ(dispatch::force_isa(isa), isa);
    const std::string isa_name = dispatch::isa_name(isa);

    // Unsharded backend, rebuilt from scratch under this ISA.
    auto plain = make_index("rbc-exact", {.rbc = {.seed = 32}});
    plain->build(X);
    EXPECT_TRUE(testutil::knn_equal(
        reference, plain->knn_search({.queries = &Q, .k = k}).knn))
        << "rbc-exact diverged under " << isa_name;

    for (index_t shards : {index_t{1}, index_t{2}, index_t{7}}) {
      SCOPED_TRACE("isa=" + isa_name + " shards=" + std::to_string(shards));
      auto sharded = make_index("sharded:rbc-exact",
                                {.rbc = {.seed = 32}, .num_shards = shards});
      sharded->build(X);
      const SearchResponse response =
          sharded->knn_search({.queries = &Q, .k = k});
      EXPECT_TRUE(testutil::knn_equal(reference, response.knn))
          << "sharded:rbc-exact diverged";

      // A second identical build answers identically too (no hidden
      // run-to-run nondeterminism from the parallel shard build).
      auto again = make_index("sharded:rbc-exact",
                              {.rbc = {.seed = 32}, .num_shards = shards});
      again->build(X);
      EXPECT_TRUE(testutil::knn_equal(
          response.knn, again->knn_search({.queries = &Q, .k = k}).knn))
          << "rebuild diverged";
    }
  }
  dispatch::clear_forced_isa();
}

TEST(ShardDeterminism, SameResponseOnEveryTeamSize) {
  // The fan-out gives each item ceil(nq / threads) query rows, so every
  // team size splits the block differently; the answer must not move.
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(640, 10, 5, 33), 600);
  const index_t k = 4;
  auto unsharded = make_index("rbc-exact", {.rbc = {.seed = 34}});
  unsharded->build(X);
  const KnnResult reference =
      unsharded->knn_search({.queries = &Q, .k = k}).knn;

  auto index = make_index("sharded:rbc-exact",
                          {.rbc = {.seed = 34}, .num_shards = 5});
  index->build(X);
  for (const int team : {1, 2, 3, 4, 7}) {
    const ThreadLimit threads(team);
    EXPECT_TRUE(testutil::knn_equal(
        reference, index->knn_search({.queries = &Q, .k = k}).knn))
        << team << " threads";
  }
}

}  // namespace
}  // namespace rbc
