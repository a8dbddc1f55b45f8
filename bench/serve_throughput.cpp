// Serving-layer throughput: batched dispatch vs one-query-per-call.
//
// Sweeps client-thread count x max_batch over one rbc-exact index and
// measures end-to-end queries/sec through the SearchService. max_batch = 1
// is the degenerate configuration — every submission becomes its own
// backend call, the way naive request/response serving drives a library —
// and is the baseline the paper's batching argument (§3: BF over a query
// block ~ matrix-matrix multiply) is measured against. A second sweep
// scales the executor pool (workers = 1..4) at the loaded configuration so
// the recorded file also tracks multi-core service throughput, and a third
// sweeps the shard count of a sharded:rbc-exact composite at the same
// loaded configuration (the next scaling axis: row-partitioned fan-out).
//
//   ./bench_serve_throughput [--smoke] [--out=PATH]
//
// Writes machine-readable results to BENCH_serve.json (schema validated by
// scripts/validate_bench_serve.py; the acceptance record compares the best
// batched configuration (max_batch >= 64) against max_batch = 1 at the
// highest client count). --smoke shrinks everything so CI can validate the
// pipeline in seconds. Knobs: RBC_SERVE_BENCH_N (database size),
// RBC_SERVE_BENCH_QUERIES (total queries per configuration).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "data/generators.hpp"
#include "dist/net_router.hpp"
#include "fault_proxy.hpp"
#include "parallel/rows.hpp"
#include "rbc/rbc.hpp"
#include "serve/net/client.hpp"
#include "serve/net/server.hpp"
#include "serve/service.hpp"

namespace {

using namespace rbc;

/// Non-owning adapter so every service configuration reuses one built
/// index (SearchService takes ownership; the expensive build shouldn't be
/// repeated per sweep point).
class SharedIndexView final : public Index {
 public:
  explicit SharedIndexView(const Index* inner) : inner_(inner) {}
  void build(const Matrix<float>&) override {}  // already built
  SearchResponse knn_search(const SearchRequest& request) const override {
    return inner_->knn_search(request);
  }
  IndexInfo info() const override { return inner_->info(); }

 private:
  const Index* inner_;
};

struct RunResult {
  int clients = 0;
  index_t max_batch = 0;
  int workers = 1;
  index_t num_shards = 1;
  index_t queries = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_batch = 0.0;
  std::uint64_t batches = 0;
  double evals_per_query = 0.0;
};

/// One sweep point: `clients` threads, each pipelining its share of
/// `total_queries` single-query submissions (submit all, then collect), so
/// the service sees a sustained concurrent stream.
RunResult run_config(const Index& shared, const Matrix<float>& queries,
                     int clients, index_t max_batch, index_t k,
                     int workers = 1) {
  serve::SearchService service(
      std::make_unique<SharedIndexView>(&shared),
      {.max_batch = max_batch, .workers = workers});

  const index_t total = queries.rows();
  const index_t per_client = total / static_cast<index_t>(clients);
  WallTimer timer;
  counters::Scope work;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      const index_t begin = static_cast<index_t>(c) * per_client;
      const index_t end =
          c == clients - 1 ? total : begin + per_client;
      std::vector<std::future<serve::QueryResult>> futures;
      futures.reserve(end - begin);
      for (index_t qi = begin; qi < end; ++qi)
        futures.push_back(service.submit({queries.row(qi), queries.cols()}, k));
      for (auto& f : futures) (void)f.get();
    });
  for (auto& thread : threads) thread.join();
  service.drain();
  const double seconds = timer.seconds();

  const serve::ServiceStats stats = service.stats();
  RunResult r;
  r.clients = clients;
  r.max_batch = max_batch;
  r.workers = workers;
  r.queries = total;
  r.seconds = seconds;
  r.qps = static_cast<double>(total) / seconds;
  r.p50_ms = stats.latency_p50_ms;
  r.p99_ms = stats.latency_p99_ms;
  r.mean_batch = stats.mean_batch();
  r.batches = stats.batches;
  r.evals_per_query =
      static_cast<double>(work.delta()) / static_cast<double>(total);
  return r;
}

struct MutateRunResult {
  double write_fraction = 0.0;
  int clients = 0;
  index_t queries = 0;     // completed read queries
  std::uint64_t writes = 0;  // insert() calls interleaved with the reads
  double seconds = 0.0;
  double qps = 0.0;  // read queries/sec under the write load
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// One read/write-mix sweep point: `clients` threads each interleave
/// single-row insert() calls into their query stream at `write_fraction`
/// of operations. Writes land in the mutable delta shard and periodically
/// trigger the background merge (max_delta is set low enough that full
/// runs cross it), so the recorded qps shows what the streaming-mutability
/// layer costs concurrent readers. The service must own a live mutable
/// index here — the shared read-only view cannot forward writes — so each
/// point rebuilds rbc-exact from the same database.
MutateRunResult run_mutate_config(const Matrix<float>& database,
                                  const Matrix<float>& queries, int clients,
                                  index_t max_batch, index_t k,
                                  double write_fraction) {
  IndexOptions options{.rbc = {.seed = 3}};
  options.max_delta = 128;  // full runs cross the merge threshold repeatedly
  options.background_merge = true;
  auto index = make_index("rbc-exact", options);
  index->build(database);
  serve::SearchService service(
      std::move(index),
      {.max_batch = max_batch, .workers = 2});

  const index_t total = queries.rows();
  const index_t per_client = total / static_cast<index_t>(clients);
  const index_t every =
      write_fraction > 0.0
          ? static_cast<index_t>(1.0 / write_fraction + 0.5)
          : 0;
  const index_t dim = queries.cols();
  std::atomic<index_t> next_id{database.rows()};
  std::atomic<std::uint64_t> writes{0};
  std::atomic<index_t> query_count{0};
  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      const index_t begin = static_cast<index_t>(c) * per_client;
      const index_t end = c == clients - 1 ? total : begin + per_client;
      std::vector<std::future<serve::QueryResult>> futures;
      futures.reserve(end - begin);
      for (index_t qi = begin; qi < end; ++qi) {
        if (every != 0 && (qi - begin) % every == every - 1) {
          // A write op: insert one fresh row (content recycled from the
          // database, id globally unique so batches never collide).
          const index_t id = next_id.fetch_add(1);
          Matrix<float> one(1, dim);
          std::copy_n(database.row(id % database.rows()), dim, one.row(0));
          const index_t ids[] = {id};
          service.insert(one, ids);
          writes.fetch_add(1);
          continue;
        }
        futures.push_back(
            service.submit({queries.row(qi), queries.cols()}, k));
      }
      query_count.fetch_add(static_cast<index_t>(futures.size()));
      for (auto& f : futures) (void)f.get();
    });
  for (auto& thread : threads) thread.join();
  service.drain();
  const double seconds = timer.seconds();

  const serve::ServiceStats stats = service.stats();
  MutateRunResult r;
  r.write_fraction = write_fraction;
  r.clients = clients;
  r.queries = query_count.load();
  r.writes = writes.load();
  r.seconds = seconds;
  r.qps = static_cast<double>(r.queries) / seconds;
  r.p50_ms = stats.latency_p50_ms;
  r.p99_ms = stats.latency_p99_ms;
  return r;
}

struct NetRunResult {
  int clients = 0;
  index_t queries = 0;  // completed (admitted + answered) queries
  double seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;  // client-observed round-trip latency
  double p99_ms = 0.0;
  std::uint64_t rejected = 0;  // kOverloaded rejections (each retried)
};

/// One network sweep point: a fresh RbcServer over loopback serving the
/// shared index, `clients` closed-loop threads each sending its share of
/// `total` single-row knn requests over its own TCP connection. Overload
/// rejections are counted, honored (sleep retry_after_ms) and retried, so
/// `queries` completed answers always arrive; `rejected` records how often
/// admission control pushed back. Latency is measured client-side — wire
/// round-trip, not just service time.
NetRunResult run_net_config(const Index& shared, const Matrix<float>& queries,
                            int clients, index_t max_batch, index_t k) {
  serve::net::RbcServer server(
      std::make_unique<SharedIndexView>(&shared), {.port = 0},
      {.max_batch = max_batch, .workers = 2});
  const std::uint16_t port = server.port();

  const index_t total = queries.rows();
  const index_t per_client = total / static_cast<index_t>(clients);
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::vector<std::uint64_t> rejected(static_cast<std::size_t>(clients), 0);
  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      serve::net::RbcClient client("127.0.0.1", port);
      const index_t begin = static_cast<index_t>(c) * per_client;
      const index_t end = c == clients - 1 ? total : begin + per_client;
      auto& mine = latencies[static_cast<std::size_t>(c)];
      mine.reserve(end - begin);
      for (index_t qi = begin; qi < end; ++qi) {
        Matrix<float> one(1, queries.cols());
        std::copy_n(queries.row(qi), queries.cols(), one.row(0));
        const auto t0 = std::chrono::steady_clock::now();
        for (;;) {
          try {
            (void)client.knn(one, k);
            break;
          } catch (const serve::net::RemoteError& e) {
            if (e.code() != serve::net::ErrorCode::kOverloaded) throw;
            ++rejected[static_cast<std::size_t>(c)];
            std::this_thread::sleep_for(
                std::chrono::milliseconds(std::max(1u, e.retry_after_ms())));
          }
        }
        mine.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
      }
    });
  for (auto& thread : threads) thread.join();
  const double seconds = timer.seconds();
  server.stop();

  std::vector<double> all;
  all.reserve(total);
  for (const auto& mine : latencies) all.insert(all.end(), mine.begin(), mine.end());
  std::sort(all.begin(), all.end());
  const auto pct = [&all](double p) {
    if (all.empty()) return 0.0;
    const auto i = static_cast<std::size_t>(
        p * static_cast<double>(all.size() - 1));
    return all[i];
  };
  NetRunResult r;
  r.clients = clients;
  r.queries = static_cast<index_t>(all.size());
  r.seconds = seconds;
  r.qps = static_cast<double>(all.size()) / seconds;
  r.p50_ms = pct(0.50);
  r.p99_ms = pct(0.99);
  for (std::uint64_t n_rejected : rejected) r.rejected += n_rejected;
  return r;
}

struct FaultRunResult {
  std::string scenario;
  int replicas = 1;
  int dead_replicas = 0;
  std::uint32_t slow_ms = 0;
  index_t queries = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t failovers = 0;
  std::uint64_t transport_errors = 0;
};

/// One fault sweep point: two shards of the database behind in-process
/// RbcServers (`replicas` identical servers per shard), a NetRouter fanning
/// closed-loop single-row queries over them under an injected failure mode:
/// `dead_replicas` of shard 0's servers stopped before the run (failover +
/// breaker cost), or shard 1 fronted by a FaultProxy adding `slow_ms` to
/// every response chunk (slow-shard cost). Latency is client-observed, so
/// the recorded qps/p99 is what a caller actually experiences while the
/// fault is live.
FaultRunResult run_fault_config(
    const std::vector<std::unique_ptr<Index>>& shard_indexes,
    const Matrix<float>& queries, index_t k, std::string scenario,
    int replicas, int dead_replicas, std::uint32_t slow_ms) {
  const std::size_t num_shards = shard_indexes.size();
  std::vector<std::vector<std::unique_ptr<serve::net::RbcServer>>> servers(
      num_shards);
  std::vector<std::vector<dist::Endpoint>> topology(num_shards);
  std::unique_ptr<rbc::testing::FaultProxy> proxy;
  for (std::size_t s = 0; s < num_shards; ++s)
    for (int r = 0; r < replicas; ++r) {
      servers[s].push_back(std::make_unique<serve::net::RbcServer>(
          std::make_unique<SharedIndexView>(shard_indexes[s].get()),
          serve::net::ServerOptions{.port = 0},
          serve::ServiceOptions{.max_batch = 64, .workers = 2}));
      std::uint16_t port = servers[s].back()->port();
      if (slow_ms > 0 && s == num_shards - 1 && r == 0) {
        proxy = std::make_unique<rbc::testing::FaultProxy>("127.0.0.1", port);
        proxy->set_plan({.mode = rbc::testing::FaultPlan::Mode::kDelay,
                         .delay_ms = slow_ms});
        port = proxy->port();
      }
      topology[s].push_back({"127.0.0.1", port});
    }
  for (int d = 0; d < dead_replicas; ++d) servers[0][d]->stop();

  dist::RouterOptions options;
  options.client.timeout_ms = 30'000;
  dist::NetRouter router(topology, options);

  std::vector<double> lat;
  lat.reserve(static_cast<std::size_t>(queries.rows()));
  Matrix<float> one(1, queries.cols());
  WallTimer timer;
  for (index_t qi = 0; qi < queries.rows(); ++qi) {
    std::copy_n(queries.row(qi), queries.cols(), one.row(0));
    const auto t0 = std::chrono::steady_clock::now();
    (void)router.knn(one, k);
    lat.push_back(std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
  }
  const double seconds = timer.seconds();

  std::sort(lat.begin(), lat.end());
  const auto pct = [&lat](double p) {
    if (lat.empty()) return 0.0;
    return lat[static_cast<std::size_t>(p *
                                        static_cast<double>(lat.size() - 1))];
  };
  FaultRunResult r;
  r.scenario = std::move(scenario);
  r.replicas = replicas;
  r.dead_replicas = dead_replicas;
  r.slow_ms = slow_ms;
  r.queries = static_cast<index_t>(lat.size());
  r.seconds = seconds;
  r.qps = static_cast<double>(lat.size()) / seconds;
  r.p50_ms = pct(0.50);
  r.p99_ms = pct(0.99);
  r.failovers = router.stats().failovers;
  r.transport_errors = router.stats().transport_errors;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_serve.json";
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[a], "--out=", 6) == 0) out_path = argv[a] + 6;
  }

  const index_t n = static_cast<index_t>(
      env_or("RBC_SERVE_BENCH_N", std::int64_t{smoke ? 4'000 : 40'000}));
  const index_t total_queries = static_cast<index_t>(env_or(
      "RBC_SERVE_BENCH_QUERIES", std::int64_t{smoke ? 512 : 8'000}));
  const index_t dim = 32, k = 5;

  bench::print_header("Serving: batched dispatch vs one-query-per-call");
  std::printf("backend=rbc-exact n=%u dim=%u k=%u queries/config=%u%s\n\n",
              n, dim, k, total_queries, smoke ? "  [smoke]" : "");

  Matrix<float> database = data::make_subspace_clusters(
      n, dim, /*clusters=*/30, /*intrinsic_d=*/3, /*noise=*/0.05f, /*seed=*/1);
  Matrix<float> queries = data::make_subspace_clusters(
      total_queries, dim, 30, 3, 0.05f, /*seed=*/2);

  auto index = make_index("rbc-exact", {.rbc = {.seed = 3}});
  index->build(database);

  const std::vector<int> client_counts =
      smoke ? std::vector<int>{2} : std::vector<int>{1, 2, 4, 8};
  const std::vector<index_t> batch_sizes =
      smoke ? std::vector<index_t>{1, 64}
            : std::vector<index_t>{1, 16, 64, 256};

  std::printf("%8s %10s %8s %10s %10s %10s %10s %12s\n", "clients",
              "max_batch", "workers", "qps", "p50_ms", "p99_ms", "mean_batch",
              "evals/query");
  const auto print_row = [](const RunResult& r) {
    std::printf("%8d %10u %8d %10.0f %10.2f %10.2f %10.1f %12.0f\n",
                r.clients, r.max_batch, r.workers, r.qps, r.p50_ms, r.p99_ms,
                r.mean_batch, r.evals_per_query);
  };
  std::vector<RunResult> results;
  for (int clients : client_counts)
    for (index_t max_batch : batch_sizes) {
      const RunResult r =
          run_config(*index, queries, clients, max_batch, k);
      print_row(r);
      results.push_back(r);
    }

  // Worker-pool scaling sweep: the same loaded configuration (top client
  // count, largest batch) with 1..4 executor threads, so the recorded file
  // shows multi-core *service* throughput, not just the 1-core batching
  // win. On a single-core host the extra workers mostly document the
  // absence of regression; with cores to use, batches overlap.
  const int top_clients = client_counts.back();
  const index_t top_batch = batch_sizes.back();
  std::printf("\nworker scaling (clients=%d, max_batch=%u):\n", top_clients,
              top_batch);
  std::vector<RunResult> worker_results;
  for (int workers : smoke ? std::vector<int>{1, 2}
                           : std::vector<int>{1, 2, 4}) {
    const RunResult r =
        run_config(*index, queries, top_clients, top_batch, k, workers);
    print_row(r);
    worker_results.push_back(r);
  }

  // Shard-count sweep: the same loaded configuration served by a
  // sharded:rbc-exact composite at increasing shard counts. Results stay
  // bit-identical to the unsharded index (the conformance suite enforces
  // it), so this row records the pure fan-out/merge cost-or-win per shard
  // count. Each point rebuilds the composite from the same database.
  std::printf("\nshard scaling (clients=%d, max_batch=%u, "
              "backend=sharded:rbc-exact):\n",
              top_clients, top_batch);
  std::vector<RunResult> shard_results;
  for (index_t num_shards : smoke ? std::vector<index_t>{1, 2}
                                  : std::vector<index_t>{1, 2, 4, 8}) {
    auto sharded = make_index("sharded:rbc-exact",
                              {.rbc = {.seed = 3}, .num_shards = num_shards});
    sharded->build(database);
    RunResult r =
        run_config(*sharded, queries, top_clients, top_batch, k, /*workers=*/2);
    r.num_shards = num_shards;
    print_row(r);
    shard_results.push_back(r);
  }

  // Read/write-mix sweep: the loaded configuration again, with each client
  // interleaving single-row inserts into its query stream at increasing
  // write fractions. write_fraction = 0 re-measures the pure-read baseline
  // through the same owned-mutable-index path, so the nonzero rows isolate
  // what delta-shard writes and background merges cost concurrent readers.
  std::printf("\nmutate scaling (clients=%d, max_batch=%u, "
              "backend=rbc-exact, writes interleaved):\n",
              top_clients, top_batch);
  std::printf("%8s %10s %10s %10s %10s %10s\n", "write%", "qps", "p50_ms",
              "p99_ms", "queries", "writes");
  std::vector<MutateRunResult> mutate_results;
  for (double write_fraction : {0.0, 0.01, 0.1}) {
    const MutateRunResult r = run_mutate_config(
        database, queries, top_clients, top_batch, k, write_fraction);
    std::printf("%7.1f%% %10.0f %10.2f %10.2f %10u %10llu\n",
                100.0 * r.write_fraction, r.qps, r.p50_ms, r.p99_ms,
                r.queries, static_cast<unsigned long long>(r.writes));
    mutate_results.push_back(r);
  }

  // Network scaling sweep: the same index behind an RbcServer on loopback,
  // closed-loop single-row clients at increasing client counts. This is the
  // wire-level counterpart of the in-process client sweep above: each added
  // client deepens the queue that forms behind a busy worker, so queries/sec
  // should grow with client count until the service saturates. Latencies are client-observed
  // round trips; kOverloaded rejections are honored-and-retried and the
  // rejection count is recorded so backpressure is accounted for, not
  // hidden.
  const index_t net_queries = static_cast<index_t>(env_or(
      "RBC_SERVE_BENCH_NET_QUERIES", std::int64_t{smoke ? 128 : 2'000}));
  Matrix<float> net_query_block = data::make_subspace_clusters(
      net_queries, dim, 30, 3, 0.05f, /*seed=*/4);
  std::printf("\nnetwork scaling (loopback, single-row clients, max_batch=%u, "
              "%u queries/config):\n",
              top_batch, net_queries);
  std::printf("%8s %10s %10s %10s %10s %10s\n", "clients", "qps", "p50_ms",
              "p99_ms", "queries", "rejected");
  std::vector<NetRunResult> net_results;
  for (int clients : client_counts) {
    const NetRunResult r =
        run_net_config(*index, net_query_block, clients, top_batch, k);
    std::printf("%8d %10.0f %10.3f %10.3f %10u %10llu\n", r.clients, r.qps,
                r.p50_ms, r.p99_ms, r.queries,
                static_cast<unsigned long long>(r.rejected));
    net_results.push_back(r);
  }

  // Fault scaling sweep: the same database split over two shard-owner
  // servers and queried through the fault-tolerant NetRouter, under three
  // failure modes — healthy (replicated baseline), one dead replica
  // (failover + breaker cost on the hot path), and a 50ms slow shard
  // injected with the chaos tests' FaultProxy (every scatter waits on the
  // straggler). Answers stay exact in all three (the chaos suite asserts
  // it); these rows record what each failure mode costs in qps and tail
  // latency.
  const index_t fault_queries = static_cast<index_t>(env_or(
      "RBC_SERVE_BENCH_FAULT_QUERIES", std::int64_t{smoke ? 64 : 300}));
  Matrix<float> fault_query_block = data::make_subspace_clusters(
      fault_queries, dim, 30, 3, 0.05f, /*seed=*/5);
  std::vector<std::unique_ptr<Index>> fault_shards;
  {
    for (index_t s = 0; s < 2; ++s) {
      const shard::RowRange mine = shard::partition_rows(database.rows(), 2, s);
      fault_shards.push_back(make_index("rbc-exact", {.rbc = {.seed = 3}}));
      fault_shards.back()->build(gather_rows(
          database, mine.size(), [&](index_t i) { return mine.lo + i; }));
    }
  }
  std::printf("\nfault scaling (2 shards via NetRouter, closed-loop "
              "single-row client, %u queries/config):\n",
              fault_queries);
  std::printf("%18s %9s %6s %8s %10s %10s %10s %10s %10s\n", "scenario",
              "replicas", "dead", "slow_ms", "qps", "p50_ms", "p99_ms",
              "failovers", "transport");
  std::vector<FaultRunResult> fault_results;
  for (const auto& [scenario, replicas, dead, slow] :
       {std::tuple{"healthy", 2, 0, 0u},
        std::tuple{"one_dead_replica", 2, 1, 0u},
        std::tuple{"slow_shard_50ms", 1, 0, 50u}}) {
    const FaultRunResult r = run_fault_config(
        fault_shards, fault_query_block, k, scenario, replicas, dead, slow);
    std::printf("%18s %9d %6d %8u %10.0f %10.3f %10.3f %10llu %10llu\n",
                r.scenario.c_str(), r.replicas, r.dead_replicas, r.slow_ms,
                r.qps, r.p50_ms, r.p99_ms,
                static_cast<unsigned long long>(r.failovers),
                static_cast<unsigned long long>(r.transport_errors));
    fault_results.push_back(r);
  }

  // Acceptance record: best batched (max_batch >= 64) vs unbatched at the
  // highest client count.
  double unbatched_qps = 0.0, batched_qps = 0.0;
  index_t batched_at = 0;
  for (const RunResult& r : results) {
    if (r.clients != top_clients) continue;
    if (r.max_batch == 1) unbatched_qps = r.qps;
    if (r.max_batch >= 64 && r.qps > batched_qps) {
      batched_qps = r.qps;
      batched_at = r.max_batch;
    }
  }
  const double speedup =
      unbatched_qps > 0.0 ? batched_qps / unbatched_qps : 0.0;
  std::printf("\nbatched (max_batch=%u) vs one-query-per-call at %d clients: "
              "%.2fx queries/sec\n",
              batched_at, top_clients, speedup);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"serve_throughput\",\n"
               "  \"backend\": \"rbc-exact\",\n"
               "  \"smoke\": %s,\n"
               "  \"n\": %u,\n  \"dim\": %u,\n  \"k\": %u,\n"
               "  \"total_queries\": %u,\n"
               "  \"results\": [\n",
               smoke ? "true" : "false", n, dim, k, total_queries);
  const auto write_row = [out](const RunResult& r, bool last) {
    std::fprintf(out,
                 "    {\"clients\": %d, \"max_batch\": %u, \"workers\": %d, "
                 "\"num_shards\": %u, \"queries\": %u, "
                 "\"seconds\": %.4f, \"qps\": %.1f, \"p50_ms\": %.3f, "
                 "\"p99_ms\": %.3f, \"mean_batch\": %.2f, \"batches\": %llu, "
                 "\"dist_evals_per_query\": %.1f}%s\n",
                 r.clients, r.max_batch, r.workers, r.num_shards, r.queries,
                 r.seconds, r.qps, r.p50_ms, r.p99_ms, r.mean_batch,
                 static_cast<unsigned long long>(r.batches),
                 r.evals_per_query, last ? "" : ",");
  };
  for (std::size_t i = 0; i < results.size(); ++i)
    write_row(results[i], i + 1 == results.size());
  std::fprintf(out,
               "  ],\n"
               "  \"worker_scaling\": [\n");
  for (std::size_t i = 0; i < worker_results.size(); ++i)
    write_row(worker_results[i], i + 1 == worker_results.size());
  std::fprintf(out,
               "  ],\n"
               "  \"shard_scaling\": [\n");
  for (std::size_t i = 0; i < shard_results.size(); ++i)
    write_row(shard_results[i], i + 1 == shard_results.size());
  std::fprintf(out,
               "  ],\n"
               "  \"mutate_scaling\": [\n");
  for (std::size_t i = 0; i < mutate_results.size(); ++i) {
    const MutateRunResult& r = mutate_results[i];
    std::fprintf(out,
                 "    {\"write_fraction\": %.3f, \"clients\": %d, "
                 "\"queries\": %u, \"writes\": %llu, \"seconds\": %.4f, "
                 "\"qps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                 r.write_fraction, r.clients, r.queries,
                 static_cast<unsigned long long>(r.writes), r.seconds, r.qps,
                 r.p50_ms, r.p99_ms,
                 i + 1 == mutate_results.size() ? "" : ",");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"net_scaling\": [\n");
  for (std::size_t i = 0; i < net_results.size(); ++i) {
    const NetRunResult& r = net_results[i];
    std::fprintf(out,
                 "    {\"clients\": %d, \"queries\": %u, \"seconds\": %.4f, "
                 "\"qps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"rejected\": %llu}%s\n",
                 r.clients, r.queries, r.seconds, r.qps, r.p50_ms, r.p99_ms,
                 static_cast<unsigned long long>(r.rejected),
                 i + 1 == net_results.size() ? "" : ",");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"fault_scaling\": [\n");
  for (std::size_t i = 0; i < fault_results.size(); ++i) {
    const FaultRunResult& r = fault_results[i];
    std::fprintf(out,
                 "    {\"scenario\": \"%s\", \"replicas\": %d, "
                 "\"dead_replicas\": %d, \"slow_ms\": %u, \"queries\": %u, "
                 "\"seconds\": %.4f, \"qps\": %.1f, \"p50_ms\": %.3f, "
                 "\"p99_ms\": %.3f, \"failovers\": %llu, "
                 "\"transport_errors\": %llu}%s\n",
                 r.scenario.c_str(), r.replicas, r.dead_replicas, r.slow_ms,
                 r.queries, r.seconds, r.qps, r.p50_ms, r.p99_ms,
                 static_cast<unsigned long long>(r.failovers),
                 static_cast<unsigned long long>(r.transport_errors),
                 i + 1 == fault_results.size() ? "" : ",");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"acceptance\": {\n"
               "    \"clients\": %d,\n"
               "    \"unbatched_qps\": %.1f,\n"
               "    \"batched_qps\": %.1f,\n"
               "    \"batched_max_batch\": %u,\n"
               "    \"speedup\": %.3f,\n"
               "    \"pass\": %s\n"
               "  }\n}\n",
               top_clients, unbatched_qps, batched_qps, batched_at, speedup,
               speedup >= 2.0 ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
