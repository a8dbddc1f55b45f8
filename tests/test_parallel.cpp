#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <atomic>
#include <limits>
#include <numeric>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/rows.hpp"
#include "parallel/runtime.hpp"

namespace rbc {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  const index_t n = 10'000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(0, n, [&](index_t i) { visits[i].fetch_add(1); });
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  int calls = 0;
  parallel_for(5, 5, [&](index_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForDynamic, VisitsEveryIndexExactlyOnce) {
  const index_t n = 5'000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for_dynamic(0, n, [&](index_t i) { visits[i].fetch_add(1); });
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelForBlocked, BlocksTileTheRange) {
  const index_t n = 1'237;  // deliberately not a multiple of the grain
  std::vector<std::atomic<int>> visits(n);
  std::atomic<int> blocks{0};
  parallel_for_blocked(0, n, 100, [&](index_t lo, index_t hi) {
    EXPECT_LT(lo, hi);
    EXPECT_LE(hi - lo, 100u);
    blocks.fetch_add(1);
    for (index_t i = lo; i < hi; ++i) visits[i].fetch_add(1);
  });
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
  EXPECT_EQ(blocks.load(), 13);  // ceil(1237 / 100)
}

TEST(ParallelForBlocked, GrainBelowOneIsClamped) {
  std::atomic<int> total{0};
  parallel_for_blocked(0, 10, 0, [&](index_t lo, index_t hi) {
    total.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(total.load(), 10);
}

#ifdef _OPENMP
// Called outside any region, a loop of one iteration (one block) runs its
// body outside any region too, so a parallel loop in the body forks the team
// rather than nesting, where libgomp would start fresh threads for it on
// every call.
TEST(ParallelFor, OneIterationRunsOutsideAnyRegion) {
  std::vector<int> levels;
  parallel_for(4, 5, [&](index_t i) {
    EXPECT_EQ(i, 4u);
    levels.push_back(omp_get_level());
  });
  parallel_for_dynamic(4, 5, [&](index_t i) {
    EXPECT_EQ(i, 4u);
    levels.push_back(omp_get_level());
  });
  parallel_for_blocked(4, 9, 100, [&](index_t lo, index_t hi) {
    EXPECT_EQ(lo, 4u);
    EXPECT_EQ(hi, 9u);
    levels.push_back(omp_get_level());
  });
  EXPECT_EQ(levels, std::vector<int>(3, 0));
}

// Inside an active region a one-iteration loop still runs its body as
// thread 0 of a one-thread nested team, never with the enclosing team's
// thread number: per-thread arrays sized by max_threads() (the nested
// thread count, here smaller than the enclosing team) must stay in bounds.
TEST(ParallelFor, OneIterationInsideARegionRunsAsThreadZero) {
  const int requested = max_threads() + 1;
  std::vector<int> ids(3 * static_cast<std::size_t>(requested), -1);
  int team = 0;
#pragma omp parallel num_threads(requested)
  {
    const auto t = static_cast<std::size_t>(omp_get_thread_num());
#pragma omp single
    team = omp_get_num_threads();
    parallel_for(4, 5, [&](index_t) { ids[3 * t] = thread_id(); });
    parallel_for_dynamic(4, 5, [&](index_t) { ids[3 * t + 1] = thread_id(); });
    parallel_for_blocked(4, 9, 100, [&](index_t, index_t) {
      ids[3 * t + 2] = thread_id();
    });
  }
  ids.resize(3 * static_cast<std::size_t>(team));
  EXPECT_EQ(ids, std::vector<int>(ids.size(), 0));
}
#endif

// Both row passes span several blocks of kRowPassGrain rows here.
TEST(RowPasses, GatherWritesEveryRowAndZeroPadding) {
  const index_t n = 3 * kRowPassGrain + 5;
  Matrix<float> X(n, 21);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < X.cols(); ++j)
      X.at(i, j) = static_cast<float>(i) + 0.01f * static_cast<float>(j);
  const Matrix<float> out =  // rows in reverse order
      gather_rows(X, n, [n](index_t i) { return n - 1 - i; });
  ASSERT_EQ(out.rows(), n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < X.cols(); ++j)
      ASSERT_EQ(out.at(i, j), X.at(n - 1 - i, j)) << "row " << i;
    for (index_t j = X.cols(); j < out.stride(); ++j)
      ASSERT_EQ(out.row(i)[j], 0.0f) << "row " << i << " pad lane " << j;
  }
}

TEST(RowPasses, FirstNonFiniteRowIsTheLowest) {
  const index_t n = 3 * kRowPassGrain + 5;
  Matrix<float> X(n, 7);
  EXPECT_EQ(first_nonfinite_row(X), kInvalidIndex);
  const float inf = std::numeric_limits<float>::infinity();
  X.at(n - 1, 6) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(first_nonfinite_row(X), n - 1);
  X.at(2 * kRowPassGrain + 1, 0) = -inf;
  X.at(kRowPassGrain + 3, 3) = inf;
  EXPECT_EQ(first_nonfinite_row(X), kRowPassGrain + 3);
  X.at(0, 2) = std::numeric_limits<float>::max();  // large but finite
  EXPECT_EQ(first_nonfinite_row(X), kRowPassGrain + 3);
}

TEST(Runtime, ThreadLimitRestores) {
  const int before = max_threads();
  {
    ThreadLimit limit(1);
    EXPECT_EQ(max_threads(), 1);
  }
  EXPECT_EQ(max_threads(), before);
}

TEST(Runtime, SingleThreadExecutionStillCoversRange) {
  ThreadLimit limit(1);
  const index_t n = 1'000;
  std::vector<int> visits(n, 0);
  parallel_for(0, n, [&](index_t i) { ++visits[i]; });
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0),
            static_cast<int>(n));
}

}  // namespace
}  // namespace rbc
