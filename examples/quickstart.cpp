// Quickstart: build indexes over a synthetic database through the unified
// API, run 1-NN and k-NN queries, and compare against brute force.
//
//   ./quickstart
//
// This is the 60-line tour of the public API; see the other examples for
// realistic workloads and the concrete templated classes (RbcExactIndex<M>,
// BallTree<M>, ...) for zero-overhead direct use with custom metrics.
#include <cstdio>

#include "data/generators.hpp"
#include "rbc/rbc.hpp"

int main() {
  using namespace rbc;

  // 1. A database: 50k points on 3-dimensional cluster subspaces in R^32.
  //    Queries are drawn from the same *distribution* (same cluster model)
  //    but with a different seed, so they are near — not identical to —
  //    database points, matching the paper's evaluation protocol.
  const index_t n = 50'000, dim = 32;
  Matrix<float> database = data::make_subspace_clusters(
      n, dim, /*clusters=*/30, /*intrinsic_d=*/3, /*noise=*/0.05f,
      /*seed=*/42);
  Matrix<float> queries = data::make_subspace_clusters(
      100, dim, 30, 3, 0.05f, /*seed=*/43);  // distribution match, fresh draw

  // 2. Exact index: always returns the true nearest neighbors.
  auto exact = make_index("rbc-exact");  // auto params (nr picked at build)
  exact->build(database);
  const IndexInfo info = exact->info();
  std::printf("%s index over %u points in %u dims (%.1f MB)\n",
              info.backend.c_str(), info.size, info.dim,
              static_cast<double>(info.memory_bytes) / 1e6);

  SearchRequest request{.queries = &queries, .k = 5};
  request.options.collect_stats = true;
  const SearchResponse exact5 = exact->knn_search(request);
  std::printf("exact 5-NN of query 0: ");
  for (index_t j = 0; j < 5; ++j)
    std::printf("(%u, %.3f) ", exact5.knn.ids.at(0, j),
                exact5.knn.dists.at(0, j));
  std::printf("\n  work: %.0f distance evals/query (brute force would be %u)\n",
              exact5.stats.dist_evals_per_query(), n);

  // 3. Cross-check against the brute-force backend — same request, same
  //    interface, different backend name.
  auto brute = make_index("bruteforce");
  brute->build(database);
  const KnnResult reference = brute->knn_search(request).knn;
  bool identical = true;
  for (index_t qi = 0; qi < queries.rows() && identical; ++qi)
    for (index_t j = 0; j < 5; ++j)
      if (reference.ids.at(qi, j) != exact5.knn.ids.at(qi, j))
        identical = false;
  std::printf("exact == brute force: %s\n", identical ? "yes" : "NO (bug!)");

  // 4. One-shot index: probabilistic answers, one ownership list per query.
  auto oneshot = make_index("rbc-oneshot");
  oneshot->build(database);
  SearchRequest one{.queries = &queries, .k = 1};
  one.options.collect_stats = true;
  const SearchResponse approx = oneshot->knn_search(one);
  index_t agree = 0;
  for (index_t qi = 0; qi < queries.rows(); ++qi)
    if (approx.knn.ids.at(qi, 0) == reference.ids.at(qi, 0)) ++agree;
  std::printf("one-shot: %u/%u exact answers at %.0f distance evals/query\n",
              agree, queries.rows(), approx.stats.dist_evals_per_query());

  // 5. Range search: everything within a radius of each query.
  const RangeResponse in_ball =
      exact->range_search({.queries = &queries, .radius = 1.0f});
  std::printf("range search r=1.0 around query 0: %zu points\n",
              in_ball.ids[0].size());
  return 0;
}
