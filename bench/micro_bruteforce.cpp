// Micro-benchmarks of the search primitives: the brute-force primitive per
// batch size (one query, partial tiles, whole tiles), TopK selection, and
// single-query latency of each index type (google-benchmark).
#include <benchmark/benchmark.h>

#include "baselines/balltree.hpp"
#include "baselines/covertree.hpp"
#include "baselines/kdtree.hpp"
#include "bruteforce/bf.hpp"
#include "common/rng.hpp"
#include "rbc/rbc.hpp"

namespace {

using namespace rbc;

Matrix<float> clustered(index_t rows, index_t cols, std::uint64_t seed) {
  constexpr index_t kClusters = 8;
  Matrix<float> centers(kClusters, cols);
  Rng rng(seed);
  for (index_t c = 0; c < kClusters; ++c)
    for (index_t j = 0; j < cols; ++j)
      centers.at(c, j) = rng.uniform_float(-5.0f, 5.0f);
  Matrix<float> m(rows, cols);
  for (index_t i = 0; i < rows; ++i) {
    const index_t c = rng.uniform_index(kClusters);
    for (index_t j = 0; j < cols; ++j)
      m.at(i, j) = centers.at(c, j) + rng.normal_float(0.0f, 0.3f);
  }
  return m;
}

constexpr index_t kN = 20'000;
constexpr index_t kD = 21;

// bf_knn over the batch size, with the row norms built once as the
// bruteforce backend builds them: one query splits the rows across the
// team; from 8 queries a group runs as one tile_gemm tile; 64 and 512 rows
// give the team several tiles each.
void BM_BruteForceBatch(benchmark::State& state) {
  const auto nq = static_cast<index_t>(state.range(0));
  const Matrix<float> db = clustered(kN, kD, 1);
  const Matrix<float> q = clustered(nq, kD, 2);
  const RowNormsCache norms = make_row_norms_cache(db);
  for (auto _ : state) {
    const KnnResult r = bf_knn(q, db, 1, Euclidean{}, &norms);
    benchmark::DoNotOptimize(r.ids.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * nq);
}
BENCHMARK(BM_BruteForceBatch)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(64)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_RbcExactQuery(benchmark::State& state) {
  const Matrix<float> db = clustered(kN, kD, 1);
  const Matrix<float> q = clustered(1, kD, 2);
  RbcExactIndex<> index;
  index.build(db, {.seed = 3});
  RbcExactIndex<>::Scratch scratch;
  TopK top(1);
  for (auto _ : state) {
    top.reset();
    index.search_one(q.row(0), 1, top, scratch);
    benchmark::DoNotOptimize(top.worst());
  }
}
BENCHMARK(BM_RbcExactQuery)->Unit(benchmark::kMicrosecond);

void BM_RbcOneShotQuery(benchmark::State& state) {
  const Matrix<float> db = clustered(kN, kD, 1);
  const Matrix<float> q = clustered(1, kD, 2);
  RbcOneShotIndex<> index;
  index.build(db, {.seed = 3});
  RbcOneShotIndex<>::Scratch scratch;
  TopK top(1);
  for (auto _ : state) {
    top.reset();
    index.search_one(q.row(0), 1, top, scratch);
    benchmark::DoNotOptimize(top.worst());
  }
}
BENCHMARK(BM_RbcOneShotQuery)->Unit(benchmark::kMicrosecond);

void BM_CoverTreeQuery(benchmark::State& state) {
  const Matrix<float> db = clustered(kN, kD, 1);
  const Matrix<float> q = clustered(1, kD, 2);
  CoverTree<> tree;
  tree.build(db);
  TopK top(1);
  for (auto _ : state) {
    top.reset();
    tree.knn(q.row(0), 1, top);
    benchmark::DoNotOptimize(top.worst());
  }
}
BENCHMARK(BM_CoverTreeQuery)->Unit(benchmark::kMicrosecond);

void BM_BallTreeQuery(benchmark::State& state) {
  const Matrix<float> db = clustered(kN, kD, 1);
  const Matrix<float> q = clustered(1, kD, 2);
  BallTree<> tree;
  tree.build(db);
  TopK top(1);
  for (auto _ : state) {
    top.reset();
    tree.knn(q.row(0), 1, top);
    benchmark::DoNotOptimize(top.worst());
  }
}
BENCHMARK(BM_BallTreeQuery)->Unit(benchmark::kMicrosecond);

void BM_KdTreeQuery(benchmark::State& state) {
  const Matrix<float> db = clustered(kN, kD, 1);
  const Matrix<float> q = clustered(1, kD, 2);
  KdTree tree;
  tree.build(db);
  TopK top(1);
  for (auto _ : state) {
    top.reset();
    tree.knn(q.row(0), 1, top);
    benchmark::DoNotOptimize(top.worst());
  }
}
BENCHMARK(BM_KdTreeQuery)->Unit(benchmark::kMicrosecond);

void BM_RbcExactBuild(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  const Matrix<float> db = clustered(n, kD, 1);
  for (auto _ : state) {
    RbcExactIndex<> index;
    index.build(db, {.seed = 3});
    benchmark::DoNotOptimize(index.num_reps());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RbcExactBuild)->Arg(5'000)->Arg(20'000)
    ->Unit(benchmark::kMillisecond);

void BM_TopKPush(benchmark::State& state) {
  const auto k = static_cast<index_t>(state.range(0));
  Rng rng(7);
  std::vector<float> values(4096);
  for (auto& v : values) v = rng.uniform_float(0.0f, 1.0f);
  TopK top(k);
  for (auto _ : state) {
    top.reset();
    for (index_t i = 0; i < values.size(); ++i) top.push(values[i], i);
    benchmark::DoNotOptimize(top.worst());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_TopKPush)->Arg(1)->Arg(10)->Arg(100);

}  // namespace

BENCHMARK_MAIN();
