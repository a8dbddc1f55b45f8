// ingest-rw: reads beside writes on a sharded mutable index inside an
// in-process SearchService. The only workload where shard (fan-out, merge,
// the insert lock) and mutate (delta scan, tombstones, background rebuild)
// do the work. Reads are closed-loop because read capacity swings with the
// tombstone count; an open loop would measure a backlog, not the system.

#include <algorithm>
#include <exception>
#include <functional>
#include <numeric>

#include "bench.hpp"
#include "common/rng.hpp"
#include "serve/service.hpp"

namespace perfbench {

namespace {

constexpr index_t kRows = 200'000;
constexpr index_t kPool = 20'000;  // read queries, cycled
constexpr index_t kSample = 200;   // answers checked after compact()
constexpr int kReaders = 2;
// Writes: 120 calls/s, 3 in 4 an insert of 16 fresh rows, else a remove of
// 4 live ids — 1,440 inserted rows/s, so each of the 4 shards fills its
// 1,024-row delta and merges several times per run.
constexpr double kWriteRate = 120.0;
constexpr double kInsertShare = 0.75;
constexpr index_t kInsertBatch = 16;
constexpr index_t kRemoveBatch = 4;
constexpr int kWindows = 5;
constexpr int kSetups = 5;  // one set-up takes ~0.5 s: report the median
constexpr double kWarmupS = 0.5;
constexpr double kGraceS = 10.0;

struct ReadLog {
  std::vector<Clock::time_point> submitted;
  std::vector<Clock::time_point> answered;
};

/// One scheduled write: insert `rows` under `ids`, or remove `ids`.
struct WriteOp {
  bool insert = true;
  std::vector<index_t> ids;
  rbc::Matrix<float> rows;
};

struct WriteLog {
  std::vector<double> write_ms;   ///< scheduled time -> call returned
  std::vector<double> insert_ms;  ///< insert call -> return
  std::vector<double> remove_ms;  ///< remove call -> return
  Lateness late;
};

/// Open-loop writer: runs ops[i] at start + offsets[i] seconds, late if it
/// must but never skipping one, and logs each write's latency from its
/// scheduled time. It sleeps until each due time: a spinning writer would
/// take a vCPU from the readers and the service, and its wake-up lateness
/// is recorded (loadgen.late_*) and counted in the write latency. Write
/// spans hang under span `parent`; `after_op(i)` runs after op i. A write
/// that throws counts as failed.
void run_writes(const std::vector<WriteOp>& ops,
                const std::vector<double>& offsets, Clock::time_point start,
                rbc::serve::SearchService& service, Tracer& tracer,
                std::uint64_t parent, Result& result, Watchdog& watchdog,
                WriteLog& log,
                const std::function<void(std::size_t)>& after_op) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto due = after(start, offsets[i]);
    std::this_thread::sleep_until(due);
    const WriteOp& op = ops[i];
    ++result.attempted;
    ++watchdog.unfinished;
    const std::uint64_t write_span = tracer.next_id();
    const auto t0 = Clock::now();
    log.late.record(due, t0);
    bool ok = true;
    try {
      if (op.insert)
        service.insert(op.rows, op.ids);
      else
        service.remove(op.ids);
    } catch (const std::exception& e) {
      ok = false;
      result.invalidate(std::string("write failed: ") + e.what());
    }
    const auto t1 = Clock::now();
    --watchdog.unfinished;
    if (!ok) ++result.failed;
    log.write_ms.push_back(ms_between(due, t1));
    (op.insert ? log.insert_ms : log.remove_ms).push_back(ms_between(t0, t1));
    // The write span runs from the scheduled time, so its self time (minus
    // the call) is how late the writer started it.
    tracer.add("loadgen.write", due, t1, parent, i, write_span);
    tracer.add(op.insert ? "mutate.insert" : "mutate.remove", t0, t1,
               write_span, i);
    after_op(i);
  }
}

}  // namespace

void run_ingest_rw(const RunConfig& cfg, Result& result, Tracer& tracer,
                   Watchdog& watchdog) {
  // The write schedule comes first: it fixes how many fresh rows to draw.
  const std::vector<double> offsets =
      poisson_arrivals(kWriteRate, cfg.seconds, cfg.seed ^ 0x77726974ULL);
  rbc::Rng rng(cfg.seed ^ 0x6f707321ULL);
  std::vector<bool> is_insert(offsets.size());
  index_t fresh = 0;
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    is_insert[i] = rng.uniform() < kInsertShare;
    if (is_insert[i]) fresh += kInsertBatch;
  }
  const Inputs in = make_inputs(kRows, kPool + fresh, cfg.seed);
  const index_t id_limit = kRows + fresh;

  // Write ops, tracking the live set they leave: inserts take the next
  // fresh rows (id kRows + j is query row kPool + j), removes draw live ids.
  std::vector<WriteOp> ops(offsets.size());
  std::vector<index_t> live(kRows);
  std::iota(live.begin(), live.end(), index_t{0});
  index_t next_fresh = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].insert = is_insert[i];
    if (is_insert[i]) {
      ops[i].rows = slice_rows(in.queries, kPool + next_fresh, kInsertBatch);
      for (index_t j = 0; j < kInsertBatch; ++j) {
        ops[i].ids.push_back(kRows + next_fresh + j);
        live.push_back(kRows + next_fresh + j);
      }
      next_fresh += kInsertBatch;
    } else {
      for (index_t j = 0; j < kRemoveBatch; ++j) {
        const index_t at = static_cast<index_t>(rng.uniform_index(live.size()));
        ops[i].ids.push_back(live[at]);
        live[at] = live.back();
        live.pop_back();
      }
    }
  }
  std::sort(live.begin(), live.end());

  // Set-up: sharded build + service start, kSetups times; the last serves.
  std::unique_ptr<rbc::serve::SearchService> service;
  {
    ScopedSpan setup(tracer, "phase.setup");
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetups; ++rep) {
      service.reset();
      const auto t0 = Clock::now();
      auto index = rbc::make_index("sharded:rbc-exact");
      index->build(in.rows);
      const auto t1 = Clock::now();
      service = std::make_unique<rbc::serve::SearchService>(std::move(index));
      const auto t2 = Clock::now();
      tracer.add("api.build", t0, t1, setup.id());
      tracer.add("serve.start", t1, t2, setup.id());
      setup_s.push_back(s_between(t0, t2));
    }
    result.set("setup_s", median(setup_s), setup_s.size());
  }
  const rbc::Index& index = service->index();
  {
    const rbc::IndexInfo info = index.info();
    result.set("index_bytes_per_row", static_cast<double>(info.memory_bytes) /
                                          static_cast<double>(info.size));
  }

  // ------------------------------------------------------- timed phase ---
  std::atomic<bool> stop{false};
  std::atomic<int> running{0};
  std::vector<ReadLog> reads(kReaders);
  const auto t_start = Clock::now();
  const auto measure_from = after(t_start, kWarmupS);
  const auto measure_to = after(measure_from, cfg.seconds);
  const std::uint64_t phase = tracer.next_id();

  auto reader = [&](int r) {
    ReadLog& log = reads[r];
    for (std::uint64_t i = r; !stop.load(std::memory_order_relaxed);
         i += kReaders) {
      const index_t row = static_cast<index_t>(i % kPool);
      ++result.attempted;
      ++watchdog.unfinished;
      const auto a = Clock::now();
      bool ok = false;
      try {
        const rbc::serve::QueryResult got =
            service->submit(in.queries.row_span(row), kK).get();
        ok = got.ids.size() == kK && got.dists.size() == kK &&
             well_formed(got.ids.data(), got.dists.data(), kK, id_limit);
        if (!ok) result.wrong = true;
      } catch (const std::exception& e) {
        result.invalidate(std::string("read failed: ") + e.what());
      }
      const auto z = Clock::now();
      --watchdog.unfinished;
      if (!ok) ++result.failed;
      tracer.add("serve.read", a, z, phase, i);
      log.submitted.push_back(a);
      log.answered.push_back(z);
    }
    --running;
  };

  // Layer sampling (traced run only): info() after every write, and a
  // stats probe of the read cost every 16th write.
  std::vector<double> delta_rows, tombstones, read_evals;
  int merges = 0;
  const rbc::Matrix<float> probe_block = slice_rows(in.queries, 0, 16);
  auto after_write = [&](std::size_t i) {
    if (!cfg.trace) return;
    const auto a = Clock::now();
    const rbc::IndexInfo info = index.info();
    const std::uint64_t span = tracer.add("api.info", a, Clock::now(), 0, i);
    const double d = static_cast<double>(info.delta_rows);
    tracer.count(span, "mutate.delta_rows", d);
    tracer.count(span, "mutate.tombstones",
                 static_cast<double>(info.tombstones));
    // A merge moves a whole 1,024-row delta into the main structure.
    if (!delta_rows.empty() && delta_rows.back() - d >= 512.0) ++merges;
    delta_rows.push_back(d);
    tombstones.push_back(static_cast<double>(info.tombstones));
    if (i % 16 == 0) {
      rbc::SearchRequest req{.queries = &probe_block, .k = kK};
      req.options.collect_stats = true;
      read_evals.push_back(index.knn_search(req).stats.dist_evals_per_query());
    }
  };

  WriteLog wlog;
  rbc::serve::ServiceStats s0;
  {
    std::vector<std::thread> threads;
    running = kReaders + 1;
    for (int r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
    std::this_thread::sleep_until(measure_from);
    s0 = service->stats();
    threads.emplace_back([&] {
      run_writes(ops, offsets, measure_from, *service, tracer, phase, result,
                 watchdog, wlog, after_write);
      --running;
    });
    std::this_thread::sleep_until(measure_to);
    stop = true;
    const auto give_up = after(Clock::now(), kGraceS);
    while (running.load() > 0 && Clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (running.load() > 0)  // a call never returned: report, do not hang
      watchdog.expire("readers or writer still busy " +
                      std::to_string(static_cast<int>(kGraceS)) +
                      " s after the timed phase");
    for (std::thread& t : threads) t.join();
  }
  tracer.add("phase.timed", measure_from, measure_to, 0, 0, phase);
  const rbc::serve::ServiceStats s1 = service->stats();

  // Reads: completions per equal window; latency of reads submitted inside
  // the timed phase.
  std::vector<double> latency_ms;
  std::vector<double> counts(kWindows, 0.0);
  const double window_s = cfg.seconds / kWindows;
  for (const ReadLog& log : reads)
    for (std::size_t i = 0; i < log.answered.size(); ++i) {
      const double at = s_between(measure_from, log.answered[i]);
      if (at >= 0.0 && at < cfg.seconds)
        counts[std::min(kWindows - 1, static_cast<int>(at / window_s))] += 1.0;
      if (log.submitted[i] >= measure_from && log.submitted[i] < measure_to)
        latency_ms.push_back(ms_between(log.submitted[i], log.answered[i]));
    }
  std::vector<double> window_qps;
  for (const double c : counts) window_qps.push_back(c / window_s);
  result.set("throughput_qps", median(window_qps), latency_ms.size());
  set_latency(result, "latency_p50_ms", "latency_p99_ms",
              windows_of(latency_ms));
  set_latency(result, "write_p50_ms", "write_p99_ms",
              windows_of(wlog.write_ms));
  result.set("mutate.insert_ms_p50", percentile(wlog.insert_ms, 50.0),
             wlog.insert_ms.size());
  result.set("mutate.insert_ms_p99", percentile(wlog.insert_ms, 99.0),
             wlog.insert_ms.size());
  result.set("mutate.remove_ms_p50", percentile(wlog.remove_ms, 50.0),
             wlog.remove_ms.size());
  result.set("mutate.remove_ms_p99", percentile(wlog.remove_ms, 99.0),
             wlog.remove_ms.size());
  result.set("loadgen.late_p99_ms", wlog.late.p99_ms(), wlog.late.count());
  result.set("loadgen.late_max_ms", wlog.late.max_ms(), wlog.late.count());

  const double batches = static_cast<double>(s1.batches - s0.batches);
  result.set("serve.mean_batch",
             batches > 0.0
                 ? static_cast<double>(s1.completed - s0.completed) / batches
                 : 0.0,
             s1.batches - s0.batches);
  result.set("serve.singleton_batch_frac",
             batches > 0.0 ? static_cast<double>(s1.batch_hist[0] -
                                                 s0.batch_hist[0]) /
                                 batches
                           : 0.0,
             s1.batches - s0.batches);
  result.set("serve.max_queue_depth", static_cast<double>(s1.max_queue_depth));
  result.set("serve.rejected", static_cast<double>(s1.rejected - s0.rejected));
  result.set("serve.latency_p50_ms", s1.latency_p50_ms,
             std::min<std::size_t>(8192, latency_ms.size()));
  result.set("serve.latency_p99_ms", s1.latency_p99_ms,
             std::min<std::size_t>(8192, latency_ms.size()));
  if (cfg.trace) {
    result.set("mutate.merge_cycles", merges, delta_rows.size());
    result.set("mutate.delta_rows_mean",
               std::accumulate(delta_rows.begin(), delta_rows.end(), 0.0) /
                   std::max<std::size_t>(1, delta_rows.size()),
               delta_rows.size());
    result.set("mutate.tombstones_mean",
               std::accumulate(tombstones.begin(), tombstones.end(), 0.0) /
                   std::max<std::size_t>(1, tombstones.size()),
               tombstones.size());
    result.set("mutate.read_evals_per_query",
               std::accumulate(read_evals.begin(), read_evals.end(), 0.0) /
                   std::max<std::size_t>(1, read_evals.size()),
               read_evals.size());
  }

  // ---------------------------------------------- compact, then check ---
  {
    const auto a = Clock::now();
    service->compact();
    const auto z = Clock::now();
    tracer.add("mutate.compact", a, z);
    result.set("mutate.compact_s", s_between(a, z));
  }
  if (index.live_ids() != live) {
    result.wrong = true;
    result.invalidate("live ids after compact() differ from the tracked set");
  }
  rbc::Matrix<float> live_rows(static_cast<index_t>(live.size()),
                               in.rows.cols());
  for (std::size_t i = 0; i < live.size(); ++i) {
    const index_t id = live[i];
    if (id < kRows)
      live_rows.copy_row_from(in.rows, id, static_cast<index_t>(i));
    else
      live_rows.copy_row_from(in.queries, kPool + (id - kRows),
                              static_cast<index_t>(i));
  }
  const GroundTruth gt =
      ground_truth(live_rows, live, slice_rows(in.queries, 0, kSample), tracer);
  {
    const rbc::KnnResult got = time_against_bruteforce(index, gt, result);
    result.set("recall_at_10", recall(got, gt.knn), kSample);
    for (index_t i = 0; i < kSample; ++i)
      if (!matches(got.ids.row(i), got.dists.row(i), gt.knn, i)) {
        result.wrong = true;
        result.invalidate("sharded answer differs from bruteforce on sample "
                          "row " + std::to_string(i));
        break;
      }
  }

  probe_compute(index, in.queries, tracer, result);
  const rbc::Matrix<float> block = slice_rows(in.queries, 0, 1024);
  if (cfg.trace) {
    record_rbc_counts(index, block, result);
    // The same live rows in one unsharded index: what sharding costs in
    // distance evaluations.
    auto flat = rbc::make_index("rbc-exact");
    flat->build_with_ids(live_rows, live);
    rbc::SearchRequest req{.queries = &block, .k = kK};
    req.options.collect_stats = true;
    const double sharded = index.knn_search(req).stats.dist_evals_per_query();
    const double unsharded = flat->knn_search(req).stats.dist_evals_per_query();
    result.set("shard.evals_vs_unsharded", sharded / unsharded, block.rows());
  }
  result.set("serve.self_ms_p50",
             result.get("serve.latency_p50_ms") -
                 1e-3 * result.get("api.knn_single_us_p50"));
  service->stop();
}

}  // namespace perfbench
