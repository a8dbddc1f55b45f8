// Chaos suite for the fault-tolerant distributed serving path: NetRouter
// over real shard-owner RbcServer processes, with faults injected by the
// deterministic FaultProxy (tests/fault_proxy.hpp) and by killing/restarting
// the processes themselves.
//
// The invariants under test, per docs/ARCHITECTURE.md "Fault tolerance":
//   * replica failover — killing any single replica mid-load loses zero
//     queries, and every answer stays bit-identical to the in-process
//     sharded:<inner> reference;
//   * crash + restart — a restarted shard (fronted by the proxy's stable
//     port) is re-validated and serves again, closing the breaker;
//   * deadlines — a slow shard is abandoned when the budget expires;
//   * graceful degradation — with allow_partial, a dead/partitioned shard
//     yields coverage flags, never an exception, and the merged answer is
//     exact over the covered shards;
//   * transport abuse — mid-frame truncation and byte corruption are
//     survivable transport failures, not crashes or wrong answers.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "dist/net_router.hpp"
#include "fault_proxy.hpp"
#include "serve/net/server.hpp"
#include "shard/merge.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

constexpr index_t kDim = 8;
constexpr index_t kRows = 400;

/// Deterministic database shared bit-for-bit between this process and the
/// shard workers (same generator, same seed).
Matrix<float> test_database() {
  return testutil::clustered_matrix(kRows, kDim, 4, 123);
}

Matrix<float> test_queries(index_t nq = 16) {
  return testutil::clustered_matrix(nq, kDim, 4, 321);
}

IndexOptions shard_options(index_t num_shards) {
  IndexOptions options;
  options.rbc.seed = 7;
  options.num_shards = num_shards;
  return options;
}

void expect_same_knn(const KnnResult& a, const KnnResult& b,
                     const char* where) {
  ASSERT_EQ(a.ids.rows(), b.ids.rows()) << where;
  ASSERT_EQ(a.ids.cols(), b.ids.cols()) << where;
  for (index_t i = 0; i < a.ids.rows(); ++i)
    for (index_t j = 0; j < a.ids.cols(); ++j) {
      ASSERT_EQ(a.ids.at(i, j), b.ids.at(i, j))
          << where << ": query " << i << " slot " << j;
      ASSERT_EQ(a.dists.at(i, j), b.dists.at(i, j))
          << where << ": query " << i << " slot " << j;
    }
}

// ------------------------------------------------------ worker management --

/// One shard-owner process. Replicas of a shard are just two workers with
/// the same (shard, num_shards) arguments: the build is deterministic, so
/// they hold identical indexes.
struct Worker {
  pid_t pid = -1;
  std::string port_file;
  std::uint16_t port = 0;
};

std::uint16_t wait_for_port_file(const std::string& path) {
  for (int attempt = 0; attempt < 300; ++attempt) {
    std::ifstream is(path);
    int port = 0;
    if (is >> port && port > 0) return static_cast<std::uint16_t>(port);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return 0;
}

Worker spawn_worker(index_t shard, index_t num_shards,
                    const std::string& tag) {
  Worker w;
  w.port_file = ::testing::TempDir() + "fault_shard_" +
                std::to_string(getpid()) + "_" + tag + ".port";
  std::remove(w.port_file.c_str());
  const pid_t pid = fork();
  if (pid == 0) {
    const std::string s = std::to_string(shard);
    const std::string ns = std::to_string(num_shards);
    execl("/proc/self/exe", "/proc/self/exe", "--fault-shard-worker",
          s.c_str(), ns.c_str(), w.port_file.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }
  w.pid = pid;
  w.port = wait_for_port_file(w.port_file);
  return w;
}

void kill_worker(Worker& w, int sig = SIGKILL) {
  if (w.pid <= 0) return;
  kill(w.pid, sig);
  int status = 0;
  waitpid(w.pid, &status, 0);
  w.pid = -1;
  std::remove(w.port_file.c_str());
}

struct WorkerGuard {
  std::vector<Worker*> workers;
  ~WorkerGuard() {
    for (Worker* w : workers) kill_worker(*w);
  }
};

/// Fast-failing router options for tests: small breaker windows so a run
/// spends milliseconds, not seconds, in backoff.
dist::RouterOptions fast_options() {
  dist::RouterOptions options;
  options.breaker_failures = 2;
  options.breaker_base_ms = 5;
  options.breaker_max_ms = 50;
  options.max_failovers = 6;
  options.client.timeout_ms = 2'000;
  return options;
}

/// The in-process reference everything must be bit-identical to.
std::unique_ptr<Index> reference_index(index_t num_shards) {
  auto index = make_index("sharded:rbc-exact", shard_options(num_shards));
  index->build(test_database());
  return index;
}

/// Expected answer when only `covered` shards contribute: the same
/// merge_shard_topk the router runs, fed from locally built per-shard
/// indexes (identical to what the workers hold).
KnnResult expected_partial_knn(const Matrix<float>& queries, index_t k,
                               index_t num_shards,
                               const std::vector<bool>& covered) {
  const Matrix<float> database = test_database();
  const auto assignment = shard::partition_rows(database.rows(), num_shards);
  std::vector<KnnResult> per_shard;
  std::vector<index_t> ks;
  std::vector<const std::vector<index_t>*> maps;
  for (index_t s = 0; s < num_shards; ++s) {
    if (!covered[s]) continue;
    const std::vector<index_t>& mine = assignment[s];
    Matrix<float> rows(static_cast<index_t>(mine.size()), database.cols());
    for (index_t i = 0; i < rows.rows(); ++i)
      rows.copy_row_from(database, mine[i], i);
    auto index = make_index("rbc-exact", shard_options(num_shards));
    index->build(rows);
    const index_t shard_k = std::min<index_t>(k, rows.rows());
    SearchRequest request{.queries = &queries, .k = shard_k, .options = {}};
    per_shard.push_back(index->knn_search(request).knn);
    ks.push_back(shard_k);
    maps.push_back(&assignment[s]);
  }
  std::vector<shard::MergeInput> inputs;
  for (std::size_t i = 0; i < per_shard.size(); ++i)
    inputs.push_back({&per_shard[i], ks[i], maps[i]});
  return shard::merge_shard_topk(queries.rows(), k, inputs);
}

// ------------------------------------------------------------------ tests --

TEST(NetFaults, KillingAnyReplicaMidLoadLosesZeroQueries) {
  constexpr index_t kShards = 2;
  Worker s0a = spawn_worker(0, kShards, "k0a");
  Worker s0b = spawn_worker(0, kShards, "k0b");
  Worker s1a = spawn_worker(1, kShards, "k1a");
  Worker s1b = spawn_worker(1, kShards, "k1b");
  WorkerGuard guard{{&s0a, &s0b, &s1a, &s1b}};
  for (const Worker* w : guard.workers) ASSERT_NE(w->port, 0);

  const std::vector<std::vector<dist::Endpoint>> topology = {
      {{"127.0.0.1", s0a.port}, {"127.0.0.1", s0b.port}},
      {{"127.0.0.1", s1a.port}, {"127.0.0.1", s1b.port}}};
  dist::NetRouter router(topology, fast_options());

  const auto reference = reference_index(kShards);
  const Matrix<float> queries = test_queries();
  const index_t k = 10;
  SearchRequest request{.queries = &queries, .k = k, .options = {}};
  const SearchResponse expected = reference->knn_search(request);

  // 30 query blocks; the preferred replica of each shard is murdered
  // mid-run (SIGKILL: no drain, no goodbye). Every single block must still
  // come back, bit-identical — failover happens inside the call.
  for (int iter = 0; iter < 30; ++iter) {
    if (iter == 10) kill_worker(s0a);
    if (iter == 20) kill_worker(s1a);
    const KnnResult routed = router.knn(queries, k);
    expect_same_knn(expected.knn, routed,
                    ("iteration " + std::to_string(iter)).c_str());
  }

  const dist::RouterStats& stats = router.stats();
  EXPECT_GE(stats.transport_errors, 2u);  // one per murdered replica
  EXPECT_GE(stats.failovers, 2u);
  EXPECT_EQ(stats.queries, 30u * queries.rows());
}

TEST(NetFaults, CrashAndRestartThroughProxyRecoversAndClosesBreaker) {
  constexpr index_t kShards = 1;
  Worker worker = spawn_worker(0, kShards, "cr0");
  WorkerGuard guard{{&worker}};
  ASSERT_NE(worker.port, 0);

  rbc::testing::FaultProxy proxy("127.0.0.1", worker.port);
  dist::NetRouter router({{"127.0.0.1", proxy.port()}}, fast_options());

  const auto reference = reference_index(kShards);
  const Matrix<float> queries = test_queries();
  const index_t k = 5;
  SearchRequest request{.queries = &queries, .k = k, .options = {}};
  const SearchResponse expected = reference->knn_search(request);

  expect_same_knn(expected.knn, router.knn(queries, k), "before crash");

  // Crash: the process dies, live connections die with it.
  kill_worker(worker);
  proxy.drop_connections();
  EXPECT_THROW((void)router.knn(queries, k), std::runtime_error);
  EXPECT_GE(router.stats().transport_errors, 1u);
  EXPECT_GE(router.stats().breaker_opens, 1u);

  // Restart on a fresh port; the router's endpoint (the proxy) is stable.
  worker = spawn_worker(0, kShards, "cr1");
  ASSERT_NE(worker.port, 0);
  proxy.set_upstream(worker.port);

  // The breaker's half-open probe re-validates the replica and serves.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  expect_same_knn(expected.knn, router.knn(queries, k), "after restart");
  EXPECT_GE(router.stats().breaker_probes, 1u);
  EXPECT_GE(router.stats().reconnects, 1u);
}

TEST(NetFaults, SlowShardIsAbandonedOnDeadlineAndCoveredShardsStayExact) {
  constexpr index_t kShards = 2;
  Worker s0 = spawn_worker(0, kShards, "sl0");
  Worker s1 = spawn_worker(1, kShards, "sl1");
  WorkerGuard guard{{&s0, &s1}};
  ASSERT_NE(s0.port, 0);
  ASSERT_NE(s1.port, 0);

  rbc::testing::FaultProxy proxy("127.0.0.1", s1.port);
  dist::RouterOptions options = fast_options();
  options.allow_partial = true;
  const std::vector<std::vector<dist::Endpoint>> topology = {
      {{"127.0.0.1", s0.port}}, {{"127.0.0.1", proxy.port()}}};
  dist::NetRouter router(topology, options);

  const Matrix<float> queries = test_queries();
  const index_t k = 10;

  // Shard 1 turns into molasses: every response chunk waits 400ms, far past
  // the 120ms budget.
  proxy.set_plan({.mode = rbc::testing::FaultPlan::Mode::kDelay,
                  .delay_ms = 400});

  // Strict mode fails closed…
  EXPECT_THROW((void)router.knn(queries, k, /*deadline_ms=*/120),
               std::runtime_error);

  // …partial mode degrades: shard 0 exact, shard 1 flagged, no exception.
  const dist::PartialKnnResult partial =
      router.knn_partial(queries, k, /*deadline_ms=*/120);
  ASSERT_EQ(partial.shards.size(), 2u);
  EXPECT_TRUE(partial.shards[0].covered);
  EXPECT_FALSE(partial.shards[1].covered);
  EXPECT_FALSE(partial.shards[1].error.empty());
  EXPECT_EQ(partial.coverage(), (serve::net::Coverage{1, 2}));
  expect_same_knn(expected_partial_knn(queries, k, kShards, {true, false}),
                  partial.result, "partial merge over shard 0");
  EXPECT_GE(router.stats().deadline_exceeded, 1u);
  EXPECT_GE(router.stats().partial_answers, 1u);

  // Molasses drained: full coverage returns, bit-identical to the
  // in-process composite.
  proxy.set_plan({});
  proxy.drop_connections();  // the delayed connection may still be wedged
  const auto reference = reference_index(kShards);
  SearchRequest request{.queries = &queries, .k = k, .options = {}};
  const dist::PartialKnnResult full = router.knn_partial(queries, k);
  EXPECT_TRUE(full.complete());
  expect_same_knn(reference->knn_search(request).knn, full.result,
                  "recovered full coverage");
}

TEST(NetFaults, PartitionedShardYieldsCoverageFlagsNotException) {
  constexpr index_t kShards = 2;
  Worker s0 = spawn_worker(0, kShards, "bh0");
  Worker s1 = spawn_worker(1, kShards, "bh1");
  WorkerGuard guard{{&s0, &s1}};
  ASSERT_NE(s0.port, 0);
  ASSERT_NE(s1.port, 0);

  rbc::testing::FaultProxy proxy("127.0.0.1", s1.port);
  dist::RouterOptions options = fast_options();
  options.allow_partial = true;
  const std::vector<std::vector<dist::Endpoint>> topology = {
      {{"127.0.0.1", s0.port}}, {{"127.0.0.1", proxy.port()}}};
  dist::NetRouter router(topology, options);

  const Matrix<float> queries = test_queries();
  const index_t k = 8;
  const dist_t radius = 1.5f;

  // Total partition: bytes vanish in both directions, connections stay up.
  proxy.set_plan({.mode = rbc::testing::FaultPlan::Mode::kBlackhole});

  // Each call keeps its 150 ms deadline through the failover: the reconnect
  // to the blackholed shard and its INFO wait out the remaining budget, not
  // the 2 s client timeout.
  using Clock = std::chrono::steady_clock;
  const auto elapsed_ms = [](Clock::time_point since) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                                 since)
        .count();
  };
  auto start = Clock::now();
  const dist::PartialKnnResult knn =
      router.knn_partial(queries, k, /*deadline_ms=*/150);
  EXPECT_LT(elapsed_ms(start), 1'000);
  EXPECT_TRUE(knn.shards[0].covered);
  EXPECT_FALSE(knn.shards[1].covered);
  expect_same_knn(expected_partial_knn(queries, k, kShards, {true, false}),
                  knn.result, "blackholed knn");

  start = Clock::now();
  const dist::PartialRangeResult range =
      router.range_partial(queries, radius, /*deadline_ms=*/150);
  EXPECT_LT(elapsed_ms(start), 1'000);
  EXPECT_TRUE(range.shards[0].covered);
  EXPECT_FALSE(range.shards[1].covered);
  EXPECT_FALSE(range.complete());

  // Heal the partition: coverage returns without constructing anything new.
  proxy.set_plan({});
  proxy.drop_connections();
  const dist::PartialKnnResult healed = router.knn_partial(queries, k);
  EXPECT_TRUE(healed.complete());
  const auto reference = reference_index(kShards);
  SearchRequest request{.queries = &queries, .k = k, .options = {}};
  expect_same_knn(reference->knn_search(request).knn, healed.result,
                  "healed partition");
  EXPECT_EQ(reference->range_search(
                {.queries = &queries, .radius = radius, .options = {}})
                .ids,
            router.range(queries, radius));
}

TEST(NetFaults, TruncationAndCorruptionAreSurvivableTransportFaults) {
  constexpr index_t kShards = 1;
  Worker worker = spawn_worker(0, kShards, "tc0");
  WorkerGuard guard{{&worker}};
  ASSERT_NE(worker.port, 0);

  rbc::testing::FaultProxy proxy("127.0.0.1", worker.port);
  dist::NetRouter router({{"127.0.0.1", proxy.port()}}, fast_options());

  const auto reference = reference_index(kShards);
  const Matrix<float> queries = test_queries();
  const index_t k = 5;
  SearchRequest request{.queries = &queries, .k = k, .options = {}};
  const SearchResponse expected = reference->knn_search(request);

  // Mid-frame truncation: the response stream is cut after 40 bytes (inside
  // the first frame — a knn response here is kilobytes). The client must
  // fail cleanly, never hand garbage upward.
  proxy.set_plan({.mode = rbc::testing::FaultPlan::Mode::kTruncate,
                  .after_bytes = 40});
  proxy.drop_connections();  // existing connection re-established under plan
  EXPECT_THROW((void)router.knn(queries, k), std::runtime_error);
  EXPECT_GE(proxy.faults_injected(), 1u);

  // Byte corruption in the response header's magic: a ProtocolError-class
  // transport failure, survived the same way.
  proxy.set_plan({.mode = rbc::testing::FaultPlan::Mode::kCorrupt,
                  .after_bytes = 1});
  proxy.drop_connections();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));  // breaker
  EXPECT_THROW((void)router.knn(queries, k), std::runtime_error);

  // Faults cleared: exact service resumes on the same router.
  proxy.set_plan({});
  proxy.drop_connections();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  expect_same_knn(expected.knn, router.knn(queries, k), "after abuse");
  EXPECT_GE(router.stats().transport_errors, 2u);
}

TEST(NetFaults, SeededFaultScheduleKeepsEveryCoveredAnswerExact) {
  constexpr index_t kShards = 2;
  Worker s0 = spawn_worker(0, kShards, "sc0");
  Worker s1 = spawn_worker(1, kShards, "sc1");
  WorkerGuard guard{{&s0, &s1}};
  ASSERT_NE(s0.port, 0);
  ASSERT_NE(s1.port, 0);

  rbc::testing::FaultProxy proxy("127.0.0.1", s1.port);
  dist::RouterOptions options = fast_options();
  options.allow_partial = true;
  const std::vector<std::vector<dist::Endpoint>> topology = {
      {{"127.0.0.1", s0.port}}, {{"127.0.0.1", proxy.port()}}};
  dist::NetRouter router(topology, options);

  const auto reference = reference_index(kShards);
  const Matrix<float> queries = test_queries();
  const index_t k = 10;
  SearchRequest request{.queries = &queries, .k = k, .options = {}};
  const SearchResponse expected = reference->knn_search(request);
  const KnnResult expected_partial =
      expected_partial_knn(queries, k, kShards, {true, false});

  // Every new connection to shard 1 draws a fault from the seeded menu:
  // clean, reset mid-frame, truncated mid-frame, or slow. Replayable — the
  // same seed yields the same schedule every run.
  using rbc::testing::FaultPlan;
  proxy.set_schedule(
      {
          FaultPlan{},  // healthy
          FaultPlan{.mode = FaultPlan::Mode::kReset, .after_bytes = 60},
          FaultPlan{.mode = FaultPlan::Mode::kTruncate, .after_bytes = 80},
          FaultPlan{.mode = FaultPlan::Mode::kDelay, .delay_ms = 40},
      },
      /*seed=*/42);
  proxy.drop_connections();

  int complete = 0, partial = 0;
  for (int iter = 0; iter < 25; ++iter) {
    // A healthy connection would serve forever; periodically cut every
    // live connection so the router keeps drawing new (seeded) plans.
    if (iter > 0 && iter % 5 == 0) proxy.drop_connections();
    const dist::PartialKnnResult r =
        router.knn_partial(queries, k, /*deadline_ms=*/500);
    ASSERT_TRUE(r.shards[0].covered) << "un-faulted shard lost at " << iter;
    if (r.complete()) {
      complete += 1;
      expect_same_knn(expected.knn, r.result,
                      ("complete answer " + std::to_string(iter)).c_str());
    } else {
      partial += 1;
      expect_same_knn(expected_partial, r.result,
                      ("partial answer " + std::to_string(iter)).c_str());
    }
  }
  // The schedule mixes healthy and faulty connections; with failover
  // retries inside the budget, most answers complete. The run must have
  // seen real faults (deterministic given the seed).
  EXPECT_EQ(complete + partial, 25);
  EXPECT_GT(complete, 0);
  EXPECT_GE(proxy.faults_injected(), 1u);
  EXPECT_GE(router.stats().transport_errors, 1u);
  EXPECT_EQ(router.stats().queries,
            25u * static_cast<std::uint64_t>(queries.rows()));

  // And the stats ledger is coherent: every breaker probe follows an open.
  const dist::RouterStats& stats = router.stats();
  EXPECT_GE(stats.requests,
            25u * kShards);  // at least one attempt per shard per block
  if (stats.breaker_probes > 0) EXPECT_GE(stats.breaker_opens, 1u);
}

}  // namespace

// ------------------------------------------------------- shard worker mode --

namespace {
int g_worker_stop_fd = -1;
void worker_signal(int) {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(g_worker_stop_fd, &one, sizeof one);
}
}  // namespace

/// Shard-owner process: builds this shard's rows of the shared
/// deterministic database and serves them until SIGTERM (replicas are
/// simply two workers with the same arguments — deterministic builds make
/// them identical).
int run_fault_shard_worker(index_t shard, index_t num_shards,
                           const std::string& port_file) {
  const Matrix<float> database = test_database();
  const auto assignment = shard::partition_rows(database.rows(), num_shards);
  const std::vector<index_t>& mine = assignment[shard];
  Matrix<float> rows(static_cast<index_t>(mine.size()), database.cols());
  for (index_t i = 0; i < rows.rows(); ++i)
    rows.copy_row_from(database, mine[i], i);

  auto index = make_index("rbc-exact", shard_options(num_shards));
  index->build(rows);
  serve::net::RbcServer server(std::move(index));
  g_worker_stop_fd = server.stop_fd();
  std::signal(SIGTERM, worker_signal);

  const std::string tmp = port_file + ".tmp";
  {
    std::ofstream os(tmp);
    os << server.port() << "\n";
  }
  std::rename(tmp.c_str(), port_file.c_str());

  server.wait();
  server.stop();
  return 0;
}

}  // namespace rbc

int main(int argc, char** argv) {
  if (argc >= 5 && std::strcmp(argv[1], "--fault-shard-worker") == 0)
    return rbc::run_fault_shard_worker(
        static_cast<rbc::index_t>(std::atoi(argv[2])),
        static_cast<rbc::index_t>(std::atoi(argv[3])), argv[4]);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
