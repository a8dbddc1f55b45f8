// Serving demo: two modes over the same serving stack.
//
// In-process demo (default): N client threads firing single queries at a
// SearchService, which coalesces them into paper-style query blocks for the
// backend.
//
//   ./serve_demo [backend] [clients] [queries_per_client] [max_batch] [metric]
//   ./serve_demo rbc-exact 8 2000 256 cosine
//
// With metric "edit" the same demo serves a *string* workload: the database
// is a synthetic dictionary, each client submits typo'd words through
// submit_payload, and the work line reports edit-distance DP cells instead
// of vector distance evaluations — one serving stack, two data kinds.
//
//   ./serve_demo rbc-exact 8 2000 256 edit
//
// Each client plays an independent user: it submits one query at a time and
// waits for the answer (request/response, like a web frontend would). The
// service turns that anti-batch workload into large BF(Q, X) blocks — watch
// the batch-size histogram: with enough concurrent clients almost nothing
// executes as a singleton.
//
// Network server mode (--listen): stands up an RbcServer speaking the
// framed binary protocol, either over a saved index file or a freshly built
// synthetic one, and serves until SIGINT/SIGTERM — on which it drains
// gracefully (in-flight requests finish, new ones get kShuttingDown).
// Talk to it with examples/net_client.cpp, or run several as shard owners
// behind a rbc::dist::NetRouter.
//
//   ./serve_demo --listen 9172 --index index.rbc
//   ./serve_demo --listen 0 --backend rbc-exact --n 50000 --max-batch 256
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "cli_parse.hpp"
#include "common/rng.hpp"
#include "data/generators.hpp"
#include "metricspace/dataset.hpp"
#include "rbc/rbc.hpp"
#include "serve/net/server.hpp"
#include "serve/service.hpp"

namespace {

/// Synthetic dictionary + typo streams for the "edit" workload: stems with
/// morphological suffixes (clustered, like real vocabularies), corrupted by
/// 1-2 random edits per query.
std::vector<std::string> make_words(rbc::index_t size, std::uint64_t seed) {
  rbc::Rng rng(seed);
  const char* const kSuffixes[] = {"", "s", "ed", "ing", "er", "ly"};
  std::vector<std::string> words;
  words.reserve(size);
  while (words.size() < size) {
    std::string stem;
    const rbc::index_t syllables = 2 + rng.uniform_index(3);
    for (rbc::index_t s = 0; s < syllables; ++s) {
      stem += "bcdfghklmnprstvw"[rng.uniform_index(16)];
      stem += "aeiou"[rng.uniform_index(5)];
    }
    for (const char* suffix : kSuffixes) {
      if (words.size() >= size) break;
      words.push_back(stem + suffix);
    }
  }
  return words;
}

std::vector<std::string> make_typos(const std::vector<std::string>& words,
                                    rbc::index_t count, std::uint64_t seed) {
  rbc::Rng rng(seed);
  std::vector<std::string> typos;
  typos.reserve(count);
  for (rbc::index_t i = 0; i < count; ++i) {
    std::string w = words[rng.uniform_index(
        static_cast<rbc::index_t>(words.size()))];
    const auto pos = rng.uniform_index(static_cast<rbc::index_t>(w.size()));
    w[pos] = static_cast<char>('a' + rng.uniform_index(26));
    typos.push_back(std::move(w));
  }
  return typos;
}

// SIGINT/SIGTERM write 8 bytes to the server's stop eventfd — the only
// async-signal-safe way to request the graceful drain.
int g_stop_fd = -1;
void on_signal(int) {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(g_stop_fd, &one, sizeof one);
}

int run_server(int argc, char** argv) {
  using namespace rbc;

  std::uint16_t port = 0;
  std::string index_file, backend = "rbc-exact", metric = "l2";
  index_t n = 50'000;
  index_t max_batch = 256;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++a];
    };
    if (arg == "--listen") port = cli::parse_port_or_die(next(), "--listen");
    else if (arg == "--index") index_file = next();
    else if (arg == "--backend") backend = next();
    else if (arg == "--metric") metric = next();
    else if (arg == "--n") n = cli::parse_index_or_die(next(), "--n");
    else if (arg == "--max-batch")
      max_batch = cli::parse_index_or_die(next(), "--max-batch");
    else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    }
  }

  std::unique_ptr<Index> index;
  if (!index_file.empty()) {
    std::ifstream is(index_file, std::ios::binary);
    if (!is) {
      std::fprintf(stderr, "cannot open index file %s\n", index_file.c_str());
      return 1;
    }
    index = load_index(is);
  } else {
    Matrix<float> database = data::make_subspace_clusters(
        n, /*dim=*/32, /*clusters=*/30, /*intrinsic_d=*/3, /*noise=*/0.05f,
        /*seed=*/1);
    index = make_index(backend, {.metric = metric});
    index->build(database);
  }
  const IndexInfo info = index->info();

  serve::net::RbcServer server(std::move(index), {.port = port},
                               {.max_batch = max_batch});
  g_stop_fd = server.stop_fd();
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::printf("rbc_server: serving %s (%u points, %u dims, metric %s) on "
              "port %u — SIGINT/SIGTERM drains\n",
              info.backend.c_str(), info.size, info.dim, info.metric.c_str(),
              server.port());
  std::fflush(stdout);

  server.wait();
  const serve::net::NetServerStats stats = server.stats();
  server.stop();
  std::printf("rbc_server: drained. %llu connections, %llu requests "
              "(%llu rejected), %llu frames out\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.frames_out));
  return 0;
}

/// The "edit" workload: same client/service shape as the dense demo below,
/// but the database is a string dictionary and every query rides
/// submit_payload. The work line is per-metric (DP cells), not distance
/// evaluations.
int run_string_demo(const std::string& backend, int clients,
                    rbc::index_t per_client, rbc::index_t max_batch) {
  using namespace rbc;
  const index_t n = 20'000, k = 3;

  const std::vector<std::string> words = make_words(n, 1);
  std::vector<std::vector<std::string>> streams;
  streams.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c)
    streams.push_back(
        make_typos(words, per_client, 100 + static_cast<std::uint64_t>(c)));

  auto index = make_index(backend, {.metric = "edit"});
  index->build_payload(metricspace::make_string_dataset(words));
  const IndexInfo info = index->info();
  std::printf("serving %s over %u dictionary words (metric: edit, cost "
              "unit: %s)\n",
              backend.c_str(), n, info.cost_unit.c_str());

  serve::SearchService service(std::move(index), {.max_batch = max_batch});

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      for (const std::string& typo : streams[static_cast<std::size_t>(c)]) {
        serve::QueryResult r = service.submit_payload(typo, k).get();
        if (r.ids.empty()) std::abort();  // unreachable; keeps r observable
      }
    });
  for (auto& thread : threads) thread.join();
  service.drain();

  const serve::ServiceStats stats = service.stats();
  std::printf("\n%d clients x %u typo lookups, max_batch=%u\n", clients,
              per_client, service.options().max_batch);
  std::printf("  completed:   %llu queries in %.2fs  (%.0f queries/s)\n",
              static_cast<unsigned long long>(stats.completed),
              stats.wall_seconds, stats.throughput_qps);
  std::printf("  latency:     p50 %.2fms  p99 %.2fms  max %.2fms\n",
              stats.latency_p50_ms, stats.latency_p99_ms,
              stats.latency_max_ms);
  std::printf("  batches:     %llu dispatched, mean %.1f queries each\n",
              static_cast<unsigned long long>(stats.batches),
              stats.mean_batch());
  std::printf("  work:        %.0f %s/query, %.0f edit-distance "
              "evals/query\n",
              static_cast<double>(stats.metric_cost) /
                  static_cast<double>(stats.completed),
              info.cost_unit.c_str(),
              static_cast<double>(stats.dist_evals) /
                  static_cast<double>(stats.completed));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rbc;

  for (int a = 1; a < argc; ++a)
    if (std::strcmp(argv[a], "--listen") == 0) return run_server(argc, argv);

  const std::string backend = argc > 1 ? argv[1] : "rbc-exact";
  const int clients =
      argc > 2
          ? static_cast<int>(cli::parse_uint_or_die(argv[2], "clients", 1, 4096))
          : 8;
  const index_t per_client =
      argc > 3 ? cli::parse_index_or_die(argv[3], "queries_per_client") : 2'000;
  const index_t max_batch =
      argc > 4 ? cli::parse_index_or_die(argv[4], "max_batch") : 256;
  const std::string metric = argc > 5 ? argv[5] : "l2";
  if (metric == "edit")
    return run_string_demo(backend, clients, per_client, max_batch);
  const index_t n = 50'000, dim = 32, k = 5;

  // Database and one private query stream per client, all from the same
  // cluster model (the paper's in-distribution evaluation protocol).
  Matrix<float> database = data::make_subspace_clusters(
      n, dim, /*clusters=*/30, /*intrinsic_d=*/3, /*noise=*/0.05f, /*seed=*/1);
  std::vector<Matrix<float>> streams;
  streams.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c)
    streams.push_back(data::make_subspace_clusters(
        per_client, dim, 30, 3, 0.05f, /*seed=*/100 + static_cast<std::uint64_t>(c)));

  auto index = make_index(backend, {.metric = metric});
  index->build(database);
  const IndexInfo info = index->info();
  std::printf("serving %s over %u points in %u dims (metric: %s, "
              "kernels: %s)\n",
              backend.c_str(), n, dim, info.metric.c_str(),
              info.kernel_isa.empty() ? "n/a" : info.kernel_isa.c_str());

  serve::SearchService service(std::move(index), {.max_batch = max_batch});

  // The clients. Each one is strictly sequential — the batching is entirely
  // the service's doing.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      const Matrix<float>& stream = streams[static_cast<std::size_t>(c)];
      for (index_t qi = 0; qi < stream.rows(); ++qi) {
        serve::QueryResult r =
            service.submit({stream.row(qi), stream.cols()}, k).get();
        if (r.ids.empty()) std::abort();  // unreachable; keeps r observable
      }
    });
  for (auto& thread : threads) thread.join();
  service.drain();

  const serve::ServiceStats stats = service.stats();
  std::printf("\n%d clients x %u queries, max_batch=%u\n", clients,
              per_client, service.options().max_batch);
  std::printf("  completed:   %llu queries in %.2fs  (%.0f queries/s)\n",
              static_cast<unsigned long long>(stats.completed),
              stats.wall_seconds, stats.throughput_qps);
  std::printf("  latency:     p50 %.2fms  p99 %.2fms  max %.2fms\n",
              stats.latency_p50_ms, stats.latency_p99_ms,
              stats.latency_max_ms);
  std::printf("  batches:     %llu dispatched, mean %.1f queries each\n",
              static_cast<unsigned long long>(stats.batches),
              stats.mean_batch());
  std::printf("  work:        %.0f distance evals/query\n",
              static_cast<double>(stats.dist_evals) /
                  static_cast<double>(stats.completed));
  std::printf("  batch-size histogram (rows -> batches):\n");
  for (std::size_t b = 0; b < serve::ServiceStats::kHistBuckets; ++b) {
    if (stats.batch_hist[b] == 0) continue;
    const unsigned lo = 1u << b;
    std::printf("    %5u..%-5u %llu\n", lo, (lo << 1) - 1,
                static_cast<unsigned long long>(stats.batch_hist[b]));
  }
  return 0;
}
