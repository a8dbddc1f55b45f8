// batch-exact: offline batched exact k-NN over an index larger than the
// last-level cache — the paper's own measurement (§7). RBC pruning and the
// distance kernels do nearly all the work; serve, net, shard and mutate do
// none.

#include <exception>

#include "bench.hpp"
#include "common/counters.hpp"

namespace perfbench {

namespace {

constexpr index_t kRows = 1'000'000;  // 216 MB of rows, ~0.5 GB of index
constexpr index_t kBlock = 1024;
constexpr index_t kBlocks = 16;       // distinct query blocks, cycled
constexpr index_t kSample = 128;      // answers checked against bruteforce
constexpr index_t kSingles = 5000;    // single-row latency probe
// One build takes ~10 s and varies ~10% within a run: report the median.
constexpr int kSetups = 3;
constexpr int kWindows = 15;       // throughput: median of 1-s windows at 15 s

}  // namespace

void run_batch_exact(const RunConfig& cfg, Result& result, Tracer& tracer,
                     Watchdog& watchdog) {
  const index_t pool = kBlocks * kBlock + kSingles;
  const Inputs in = make_inputs(kRows, pool, cfg.seed);

  std::unique_ptr<rbc::Index> index;
  {
    ScopedSpan setup(tracer, "phase.setup");
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetups; ++rep) {
      index.reset();
      const auto t0 = Clock::now();
      index = rbc::make_index("rbc-exact");
      index->build(in.rows);
      const auto t1 = Clock::now();
      tracer.add("api.build", t0, t1, setup.id());
      setup_s.push_back(s_between(t0, t1));
    }
    result.set("setup_s", median(setup_s), setup_s.size());
  }
  const rbc::IndexInfo info = index->info();
  result.set("index_bytes_per_row", static_cast<double>(info.memory_bytes) /
                                        static_cast<double>(info.size));

  std::vector<rbc::Matrix<float>> blocks;
  for (index_t b = 0; b < kBlocks; ++b)
    blocks.push_back(slice_rows(in.queries, b * kBlock, kBlock));

  // Reference answers for the first kSample rows of block 0, and the
  // paper's Fig. 2 ratio on that same sample.
  const GroundTruth gt =
      ground_truth(in.rows, {}, slice_rows(in.queries, 0, kSample), tracer);
  {
    const rbc::KnnResult got = time_against_bruteforce(*index, gt, result);
    result.set("recall_at_10", recall(got, gt.knn), kSample);
    for (index_t i = 0; i < kSample; ++i)
      if (!matches(got.ids.row(i), got.dists.row(i), gt.knn, i)) {
        result.wrong = true;
        result.invalidate("rbc-exact differs from bruteforce on sample row " +
                          std::to_string(i));
        break;
      }
  }

  // Timed phase: 1024-row blocks back to back on the default OpenMP team.
  for (index_t b = 0; b < 2; ++b)  // warm-up
    (void)index->knn_search({.queries = &blocks[b], .k = kK});
  const double window_s = cfg.seconds / kWindows;
  std::vector<double> window_rows(kWindows, 0.0);
  std::vector<double> window_busy(kWindows, 0.0);
  std::vector<double> block_ms;
  {
    ScopedSpan timed(tracer, "phase.timed");
    const auto start = Clock::now();
    for (std::size_t i = 0;; ++i) {
      const auto a = Clock::now();
      const double at = s_between(start, a);
      if (at >= cfg.seconds) break;
      const rbc::Matrix<float>& q = blocks[i % kBlocks];
      result.attempted += kBlock;
      watchdog.unfinished += kBlock;
      bool ok = true;
      rbc::KnnResult got;
      const std::uint64_t evals0 = rbc::counters::total_dist_evals();
      try {
        got = index->knn_search({.queries = &q, .k = kK}).knn;
      } catch (const std::exception& e) {
        ok = false;
        result.invalidate(std::string("knn_search threw: ") + e.what());
      }
      const auto z = Clock::now();
      watchdog.unfinished -= kBlock;
      const std::uint64_t evals = rbc::counters::total_dist_evals() - evals0;
      if (ok && (got.ids.rows() != kBlock || got.ids.cols() != kK)) ok = false;
      for (index_t r = 0; ok && r < kBlock; ++r)
        ok = well_formed(got.ids.row(r), got.dists.row(r), kK, kRows) &&
             (i % kBlocks != 0 || r >= kSample ||
              matches(got.ids.row(r), got.dists.row(r), gt.knn, r));
      if (!ok) {
        result.failed += kBlock;
        result.wrong = true;
      }
      tracer.count(tracer.add("api.knn_block", a, z, timed.id(), i),
                   "dist_evals", static_cast<double>(evals));
      block_ms.push_back(ms_between(a, z));
      const int w = std::min(kWindows - 1, static_cast<int>(at / window_s));
      window_rows[w] += kBlock;
      window_busy[w] += s_between(a, z);
    }
  }
  std::vector<double> window_qps;
  for (int w = 0; w < kWindows; ++w)
    if (window_busy[w] > 0.0)
      window_qps.push_back(window_rows[w] / window_busy[w]);
  result.set("throughput_qps", median(window_qps), block_ms.size());
  result.set("api.knn_block_ms_p50",
             median(tracer.enabled() ? tracer.durations_ms("api.knn_block")
                                     : block_ms),
             block_ms.size());

  // Latency probe: one-row knn_search calls against the out-of-cache index.
  {
    ScopedSpan phase(tracer, "phase.single");
    std::vector<rbc::Matrix<float>> singles;
    for (index_t i = 0; i < kSingles; ++i)
      singles.push_back(slice_rows(in.queries, kBlocks * kBlock + i, 1));
    std::vector<double> ms;
    for (index_t i = 0; i < kSingles; ++i) {
      ++result.attempted;
      ++watchdog.unfinished;
      const auto a = Clock::now();
      bool ok = true;
      try {
        const rbc::KnnResult got =
            index->knn_search({.queries = &singles[i], .k = kK}).knn;
        ok = got.ids.rows() == 1 &&
             well_formed(got.ids.row(0), got.dists.row(0), kK, kRows);
      } catch (const std::exception&) {
        ok = false;
      }
      const auto z = Clock::now();
      --watchdog.unfinished;
      if (!ok) {
        ++result.failed;
        result.wrong = true;
      }
      tracer.add("api.knn_single", a, z, phase.id(), i);
      ms.push_back(ms_between(a, z));
    }
    set_latency(result, "latency_p50_ms", "latency_p99_ms", windows_of(ms));
    result.set("api.knn_single_us_p50", 1e3 * median(ms), ms.size());
  }

  if (cfg.trace) record_rbc_counts(*index, blocks[0], result);
}

}  // namespace perfbench
