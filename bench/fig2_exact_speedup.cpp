// Figure 2 — "Speedup of exact search over brute force" (bar chart with a
// log y-axis, one bar per dataset, 48-core machine).
//
// Both contenders run with all available cores; the work speedup column is
// the machine-independent equivalent (paper speedups: up to two orders of
// magnitude). Each dataset gets two RBC rows: the library default, whose
// list scans also skip the head of each sorted list (the annulus bound, an
// extension), and the paper's §5.2 rule set (rules 1 and 2 and Claim 2's
// early exit, annulus off), so the extension's gain shows beside Fig. 2.
#include <cstdio>
#include <utility>

#include "bench_util.hpp"
#include "rbc/rbc.hpp"

int main() {
  using namespace rbc;
  bench::print_header("Figure 2: speedup of exact RBC search over brute force");

  const index_t nq = bench::num_queries();

  std::printf("%-8s %-20s %9s %9s %9s %11s %11s %10s\n", "dataset", "rules",
              "n", "t_bf(s)", "t_rbc(s)", "speedup_t", "speedup_w",
              "evals/q");

  const std::pair<const char*, RbcParams> rule_sets[] = {
      {"default (annulus on)", {.seed = 1}},
      {"paper (annulus off)", {.seed = 1, .use_annulus_bound = false}},
  };

  for (const auto& name : bench::all_names()) {
    const bench::BenchData bd = bench::load(name, nq);

    // Both contenders behind the unified interface: same request, same
    // measurement loop, different backend name.
    auto brute = make_index("bruteforce");
    brute->build(bd.database);

    SearchRequest request{.queries = &bd.queries, .k = 1};
    request.options.collect_stats = true;

    const auto [t_bf, w_bf] =
        bench::timed([&] { (void)brute->knn_search(request); });

    for (const auto& [rules, params] : rule_sets) {
      auto rbc_exact = make_index("rbc-exact", {.rbc = params});
      rbc_exact->build(bd.database);  // standard setting nr ~ sqrt(n)

      SearchStats stats;
      const auto [t_rbc, w_rbc] = bench::timed(
          [&] { stats = rbc_exact->knn_search(request).stats; });

      std::printf("%-8s %-20s %9u %9.3f %9.3f %10.1fx %10.1fx %10.0f\n",
                  name.c_str(), rules, bd.n, t_bf, t_rbc, t_bf / t_rbc,
                  static_cast<double>(w_bf) / static_cast<double>(w_rbc),
                  stats.dist_evals_per_query());
    }
  }

  std::printf("\npaper reference (Fig. 2): exact-search speedups between ~5x\n"
              "and ~100x across the eight datasets on the 48-core machine.\n");
  return 0;
}
