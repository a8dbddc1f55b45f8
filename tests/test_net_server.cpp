// End-to-end tests of the network serving subsystem (serve/net/ +
// dist/net_router) over real loopback sockets:
//   * client answers are bit-identical to direct Index::knn_search;
//   * malformed frames (frames of retired wire versions included),
//     oversized frames and bad requests get error frames without killing
//     the server;
//   * RbcClient sends every call at the current wire version;
//   * admission control rejects knn and range frames with retry_after
//     under overload;
//   * stalled connections are closed by the read timeout;
//   * a kReloadRequest hot-swaps the index with zero downtime under load;
//   * graceful drain via the async-signal-safe stop_fd;
//   * a NetRouter over TWO real shard-owner server processes returns
//     bit-identical results (ids, dists, tie order) to the in-process
//     sharded:<inner> composite over the same partition.
//
// The multi-process test re-executes this binary with --net-shard-worker
// (fork + immediate execv of /proc/self/exe, which is safe from a threaded
// parent), so this TU defines its own main() instead of gtest_main's.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <mutex>
#include <netinet/in.h>
#include <optional>
#include <string>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "api/api.hpp"
#include "dist/net_router.hpp"
#include "metricspace/dataset.hpp"
#include "serve/net/client.hpp"
#include "serve/net/server.hpp"
#include "shard/sharded_index.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

using serve::SearchService;
using serve::net::ErrorCode;
using serve::net::FrameHeader;
using serve::net::InfoMsg;
using serve::net::RbcClient;
using serve::net::RbcServer;
using serve::net::RemoteError;
using serve::net::ServerOptions;

// ---------------------------------------------------------------- helpers --

constexpr index_t kDim = 8;

Matrix<float> test_database() {
  // Duplicated rows guarantee distance ties, so the parity checks cover the
  // (distance, id) tie-break path, not just the generic one.
  return testutil::with_duplicates(
      testutil::clustered_matrix(600, kDim, 5, 77), 60);
}

Matrix<float> test_queries(index_t nq = 32) {
  return testutil::clustered_matrix(nq, kDim, 5, 99);
}

/// Options shared by the in-process sharded reference and the shard-owner
/// worker processes: identical build inputs => identical built indices.
IndexOptions shard_options() {
  IndexOptions options;
  options.rbc.seed = 7;
  options.num_shards = 2;
  return options;
}

std::unique_ptr<Index> built_index(const std::string& backend) {
  auto index = make_index(backend, shard_options());
  index->build(test_database());
  return index;
}

void expect_same_knn(const KnnResult& a, const KnnResult& b) {
  ASSERT_EQ(a.ids.rows(), b.ids.rows());
  ASSERT_EQ(a.ids.cols(), b.ids.cols());
  for (index_t i = 0; i < a.ids.rows(); ++i)
    for (index_t j = 0; j < a.ids.cols(); ++j) {
      ASSERT_EQ(a.ids.at(i, j), b.ids.at(i, j)) << "query " << i << " slot "
                                                << j;
      ASSERT_EQ(a.dists.at(i, j), b.dists.at(i, j))
          << "query " << i << " slot " << j;
    }
}

/// Raw loopback socket for protocol-abuse tests (RbcClient refuses to send
/// malformed bytes).
int raw_connect(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval tv{5, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  return fd;
}

bool read_exact(int fd, std::uint8_t* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = recv(fd, out + got, n - got, 0);
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Reads one whole frame from a raw socket; nullopt if the peer closed or
/// the receive timed out first.
std::optional<Frame> read_frame(int fd) {
  std::uint8_t raw[serve::net::kHeaderSize];
  if (!read_exact(fd, raw, sizeof raw)) return std::nullopt;
  Frame frame;
  frame.header = *serve::net::parse_header({raw, sizeof raw});
  frame.payload.resize(frame.header.payload_len);
  if (!read_exact(fd, frame.payload.data(), frame.payload.size()))
    return std::nullopt;
  return frame;
}

/// True once the peer has closed the connection (recv sees end of stream).
bool peer_closed(int fd) {
  std::uint8_t byte = 0;
  return recv(fd, &byte, 1, 0) == 0;
}

/// An exact index whose searches take at least `delay_ms`: makes admission-
/// control overload deterministic to provoke.
class DelayIndex final : public Index {
 public:
  DelayIndex(std::unique_ptr<Index> inner, int delay_ms)
      : inner_(std::move(inner)), delay_ms_(delay_ms) {}

  void build(const Matrix<float>& X) override { inner_->build(X); }
  SearchResponse knn_search(const SearchRequest& request) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return inner_->knn_search(request);
  }
  RangeResponse range_search(const RangeRequest& request) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return inner_->range_search(request);
  }
  IndexInfo info() const override { return inner_->info(); }

 private:
  std::unique_ptr<Index> inner_;
  int delay_ms_;
};

/// An index whose searches throw something that is not a std::exception.
class ThrowsIntIndex final : public Index {
 public:
  explicit ThrowsIntIndex(std::unique_ptr<Index> inner)
      : inner_(std::move(inner)) {}

  void build(const Matrix<float>& X) override { inner_->build(X); }
  SearchResponse knn_search(const SearchRequest&) const override { throw 42; }
  RangeResponse range_search(const RangeRequest&) const override { throw 42; }
  IndexInfo info() const override { return inner_->info(); }

 private:
  std::unique_ptr<Index> inner_;
};

// ------------------------------------------------------------------ tests --

TEST(NetServer, KnnAndRangeMatchDirectSearchBitwise) {
  auto index = built_index("bruteforce");
  const Matrix<float> queries = test_queries();
  const index_t k = 10;

  SearchRequest request{.queries = &queries, .k = k, .options = {}};
  const SearchResponse direct = index->knn_search(request);
  const dist_t radius = direct.knn.dists.at(0, k - 1);
  RangeRequest range_request{
      .queries = &queries, .radius = radius, .options = {}};
  const RangeResponse direct_range = index->range_search(range_request);

  RbcServer server(std::move(index));
  RbcClient client("127.0.0.1", server.port());

  const KnnResult over_wire = client.knn(queries, k);
  expect_same_knn(direct.knn, over_wire);
  EXPECT_EQ(client.range(queries, radius), direct_range.ids);

  const InfoMsg info = client.info();
  EXPECT_EQ(info.backend, "bruteforce");
  EXPECT_EQ(info.size, test_database().rows());
  EXPECT_EQ(info.dim, kDim);
  EXPECT_EQ(info.conn_requests, 2u);  // the knn + the range frame
  EXPECT_GT(info.conn_bytes_in, 0u);
  EXPECT_GT(info.conn_bytes_out, 0u);
}

TEST(NetServer, PayloadKnnOverWireMatchesDirectSearchBitwise) {
  // A string dictionary under "edit", served over loopback: wire answers
  // must be bit-identical to direct knn_search_payload, INFO must carry the
  // cost tail, and a dense knn against the payload index must get a
  // clean kBadRequest without killing the connection.
  const std::vector<std::string> words = {"kitten", "sitting", "kitchen",
                                          "mitten", "sit",     "knitting",
                                          "fitting", "bitten"};
  auto data = metricspace::make_string_dataset(words);
  IndexOptions options;
  options.metric = "edit";
  auto index = make_index("rbc-exact", options);
  index->build_payload(data);

  const std::vector<std::string> queries = {"mitten", "sat", "splitting"};
  PayloadSearchRequest direct_request{
      .queries = &queries, .k = 3, .options = {}};
  const SearchResponse direct = index->knn_search_payload(direct_request);

  RbcServer server(std::move(index));
  RbcClient client("127.0.0.1", server.port());
  expect_same_knn(direct.knn, client.knn_payload(queries, 3));

  try {
    (void)client.knn(test_queries(1), 1);
    FAIL() << "dense knn on a payload index must be refused";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }

  const InfoMsg info = client.info();
  EXPECT_EQ(info.backend, "rbc-exact");
  EXPECT_EQ(info.metric, "edit");
  EXPECT_EQ(info.dim, 0u);
  EXPECT_EQ(info.size, words.size());
  EXPECT_EQ(info.cost_unit, "chars_compared");
  EXPECT_GT(info.metric_cost, 0u);

  // The reverse refusal: payload queries against a dense-built server.
  RbcServer dense_server(built_index("bruteforce"));
  RbcClient dense_client("127.0.0.1", dense_server.port());
  try {
    (void)dense_client.knn_payload(queries, 1);
    FAIL() << "payload knn on a dense index must be refused";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
  EXPECT_EQ(dense_client.info().cost_unit, "");  // dense: no payload unit
}

TEST(NetServer, RetiredVersionFramesAreRefusedAndTheServerKeepsServing) {
  // Knn frames of the retired layouts, headers built by hand: version 1 had
  // no deadline word, version 2 had today's request layout. Each gets one
  // MALFORMED_FRAME error stamped kNetVersion, then its connection closes;
  // a fresh connection is still served.
  auto index = built_index("bruteforce");
  const Matrix<float> queries = test_queries(4);
  const index_t k = 3;
  SearchRequest request{.queries = &queries, .k = k, .options = {}};
  const SearchResponse direct = index->knn_search(request);
  RbcServer server(std::move(index));

  constexpr std::size_t kHeader = serve::net::kHeaderSize;
  const std::vector<std::uint8_t> current =
      serve::net::encode_knn_request(1, queries, k);
  std::vector<std::uint8_t> v1 = current;
  v1.erase(v1.begin() + kHeader + 4, v1.begin() + kHeader + 8);
  const auto v1_len = static_cast<std::uint32_t>(v1.size() - kHeader);
  std::memcpy(v1.data() + 16, &v1_len, 4);
  v1[4] = 1;
  std::vector<std::uint8_t> v2 = current;
  v2[4] = 2;

  for (const std::vector<std::uint8_t>& frame : {v1, v2}) {
    const int fd = raw_connect(server.port());
    ASSERT_GT(send(fd, frame.data(), frame.size(), MSG_NOSIGNAL), 0);
    const std::optional<Frame> reply = read_frame(fd);
    ASSERT_TRUE(reply.has_value()) << "version " << int{frame[4]};
    EXPECT_EQ(reply->header.version, serve::net::kNetVersion);
    ASSERT_EQ(reply->header.op, serve::net::Op::kError);
    EXPECT_EQ(serve::net::decode_error(reply->payload).code,
              ErrorCode::kMalformedFrame);
    EXPECT_TRUE(peer_closed(fd)) << "version " << int{frame[4]};
    close(fd);
  }
  EXPECT_EQ(server.stats().protocol_errors, 2u);

  RbcClient client("127.0.0.1", server.port());
  expect_same_knn(direct.knn, client.knn(queries, k));
}

TEST(NetServer, ExpiredDeadlineIsShedWithDeadlineExceeded) {
  auto slow = std::make_unique<DelayIndex>(built_index("bruteforce"),
                                           /*delay_ms=*/100);
  RbcServer server(std::move(slow));
  const Matrix<float> queries = test_queries(2);

  // A 1ms budget against a 100ms index: the server must shed the reply. A
  // raw socket observes the verdict — RbcClient would (correctly) give up
  // on its own 1ms budget before the server's error frame arrives.
  const int fd = raw_connect(server.port());
  const std::vector<std::uint8_t> frame =
      serve::net::encode_knn_request(1, queries, 3, /*deadline_ms=*/1);
  ASSERT_GT(send(fd, frame.data(), frame.size(), MSG_NOSIGNAL), 0);
  const std::optional<Frame> reply = read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->header.op, serve::net::Op::kError);
  EXPECT_EQ(serve::net::decode_error(reply->payload).code,
            ErrorCode::kDeadlineExceeded);
  close(fd);
  EXPECT_GE(server.stats().deadline_exceeded, 1u);

  // A generous budget sails through, end to end via the client.
  RbcClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.knn(queries, 3, /*deadline_ms=*/60'000).ids.rows(), 2u);
}

TEST(NetServer, BackendThrowingANonStdExceptionGetsInternalErrorFrames) {
  RbcServer server(std::make_unique<ThrowsIntIndex>(built_index("bruteforce")));
  RbcClient client("127.0.0.1", server.port());
  const Matrix<float> queries = test_queries(2);
  for (const bool range : {false, true}) {
    try {
      if (range)
        (void)client.range(queries, 1.0f);
      else
        (void)client.knn(queries, 3);
      FAIL() << "expected RemoteError";
    } catch (const RemoteError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInternal);
    }
  }
  // Both requests were answered, so the graceful drain has nothing to wait
  // for.
  server.stop();
}

TEST(NetServer, BadRequestGetsErrorFrameAndConnectionSurvives) {
  RbcServer server(built_index("bruteforce"));
  RbcClient client("127.0.0.1", server.port());

  // k beyond the database: kBadRequest, connection stays usable.
  const Matrix<float> queries = test_queries(2);
  try {
    (void)client.knn(queries, 1'000'000);
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }

  // Wrong dimension: same deal.
  const Matrix<float> wrong_dim = testutil::random_matrix(2, kDim + 3, 5);
  try {
    (void)client.knn(wrong_dim, 3);
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }

  // A NaN or infinite query: knn is refused at submit and range by the
  // index, each with kBadRequest naming the row; the connection survives.
  const float inf = std::numeric_limits<float>::infinity();
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(), inf, -inf}) {
    Matrix<float> bad_q = queries.clone();
    bad_q.at(1, 0) = bad;
    const auto expect_bad_request = [&](const auto& call, const char* op) {
      try {
        call();
        ADD_FAILURE() << op << " accepted " << bad;
      } catch (const RemoteError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kBadRequest) << op;
        EXPECT_NE(std::string(e.what()).find("query row 1 holds a non-finite"),
                  std::string::npos)
            << op << ": " << e.what();
      }
    };
    expect_bad_request([&] { (void)client.knn(bad_q, 3); }, "knn");
    expect_bad_request([&] { (void)client.range(bad_q, 1.0f); }, "range");
  }

  // The same connection still answers a valid request.
  EXPECT_EQ(client.knn(queries, 3).ids.rows(), 2u);
}

TEST(NetServer, MalformedAndOversizedFramesGetErrorThenCloseNotCrash) {
  RbcServer server(built_index("bruteforce"),
                   {.max_payload = 1u << 20});

  {  // Garbage bytes: an error frame comes back, then the connection closes.
    const int fd = raw_connect(server.port());
    const char garbage[] = "this is definitely not an RBCN frame.......";
    ASSERT_GT(send(fd, garbage, sizeof garbage, MSG_NOSIGNAL), 0);
    std::uint8_t reply[512];
    const ssize_t n = recv(fd, reply, sizeof reply, 0);
    ASSERT_GE(n, static_cast<ssize_t>(serve::net::kHeaderSize));
    const auto header = serve::net::parse_header(
        {reply, static_cast<std::size_t>(n)});
    ASSERT_TRUE(header.has_value());
    EXPECT_EQ(header->op, serve::net::Op::kError);
    EXPECT_EQ(recv(fd, reply, sizeof reply, 0), 0);  // closed after flush
    close(fd);
  }

  {  // A header claiming a payload over max_payload: same error-then-close.
    std::vector<std::uint8_t> header =
        serve::net::encode_frame(serve::net::Op::kKnnRequest, 9, {});
    const std::uint32_t huge = 64u << 20;
    std::memcpy(header.data() + 16, &huge, 4);
    const int fd = raw_connect(server.port());
    ASSERT_GT(send(fd, header.data(), header.size(), MSG_NOSIGNAL), 0);
    std::uint8_t reply[512];
    const ssize_t n = recv(fd, reply, sizeof reply, 0);
    ASSERT_GE(n, static_cast<ssize_t>(serve::net::kHeaderSize));
    close(fd);
  }

  // A knn request whose payload contradicts its own counts (truncated rows).
  {
    const Matrix<float> queries = test_queries(4);
    std::vector<std::uint8_t> frame =
        serve::net::encode_knn_request(1, queries, 2);
    // Shrink the payload but fix up payload_len so the frame is "complete":
    // the decoder, not the framer, must catch the count mismatch.
    frame.resize(frame.size() - 24);
    const auto len =
        static_cast<std::uint32_t>(frame.size() - serve::net::kHeaderSize);
    std::memcpy(frame.data() + 16, &len, 4);
    const int fd = raw_connect(server.port());
    ASSERT_GT(send(fd, frame.data(), frame.size(), MSG_NOSIGNAL), 0);
    std::uint8_t reply[512];
    const ssize_t n = recv(fd, reply, sizeof reply, 0);
    ASSERT_GE(n, static_cast<ssize_t>(serve::net::kHeaderSize));
    const auto header = serve::net::parse_header(
        {reply, static_cast<std::size_t>(n)});
    ASSERT_TRUE(header.has_value());
    EXPECT_EQ(header->op, serve::net::Op::kError);
    close(fd);
  }

  // An INFO request carrying payload bytes: its payload is empty by
  // definition, so the bytes are trailing, as for any other decoder.
  {
    std::vector<std::uint8_t> frame = serve::net::encode_info_request(5);
    frame.insert(frame.end(), {0xDE, 0xAD});
    const std::uint32_t len = 2;
    std::memcpy(frame.data() + 16, &len, 4);
    const int fd = raw_connect(server.port());
    ASSERT_GT(send(fd, frame.data(), frame.size(), MSG_NOSIGNAL), 0);
    const std::optional<Frame> reply = read_frame(fd);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->header.op, serve::net::Op::kError);
    EXPECT_EQ(reply->header.request_id, 5u);
    EXPECT_EQ(serve::net::decode_error(reply->payload).code,
              ErrorCode::kMalformedFrame);
    EXPECT_TRUE(peer_closed(fd));
    close(fd);
  }

  // After all that abuse the server still serves.
  RbcClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.knn(test_queries(2), 3).ids.rows(), 2u);
  EXPECT_GE(server.stats().protocol_errors, 2u);
}

TEST(NetServer, ClientResetMidPipelineDoesNotCorruptServer) {
  // Regression: a fatal send error (peer RST -> ECONNRESET/EPIPE) while the
  // frame loop was still delivering replies used to close_conn() from inside
  // flush(), freeing the Connection the loop held by reference. Pipeline a
  // burst of requests and abort-close (SO_LINGER 0 sends RST) so the reset
  // races the replies; under ASan a regression is a hard failure.
  RbcServer server(built_index("bruteforce"));
  std::vector<std::uint8_t> burst;
  for (std::uint64_t id = 1; id <= 512; ++id) {
    const std::vector<std::uint8_t> frame =
        serve::net::encode_info_request(id);
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  for (int round = 0; round < 100; ++round) {
    const int fd = raw_connect(server.port());
    ASSERT_GT(send(fd, burst.data(), burst.size(), MSG_NOSIGNAL), 0);
    // Sweep the reset across the server's reply loop: busy-wait a different
    // sub-millisecond delay each round so some rounds reset before the
    // server reads, some while its frame loop is mid-burst replying (the
    // once-vulnerable window), some after.
    const auto delay = std::chrono::microseconds((round * 37) % 1200);
    const auto deadline = std::chrono::steady_clock::now() + delay;
    while (std::chrono::steady_clock::now() < deadline) {
    }
    const linger abort_on_close{1, 0};
    setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_on_close,
               sizeof abort_on_close);
    close(fd);
  }

  // The server survived every reset and still answers correctly.
  RbcClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.knn(test_queries(2), 3).ids.rows(), 2u);
}

TEST(NetServer, OverloadRejectsWithRetryAfterAndRetrySucceeds) {
  auto slow = std::make_unique<DelayIndex>(built_index("bruteforce"),
                                           /*delay_ms=*/150);
  RbcServer server(std::move(slow), {.retry_after_ms = 20},
                   {.max_batch = 1, .workers = 1, .max_queue = 1});

  const Matrix<float> one = test_queries(1);
  // Keep the single service slot busy for ~0.5s of wall clock. The occupant
  // can itself lose the slot to the prober below, so it honors the hint too.
  std::thread occupant([&] {
    RbcClient a("127.0.0.1", server.port());
    for (int i = 0; i < 3; ++i) {
      for (;;) {
        try {
          EXPECT_EQ(a.knn(one, 3).ids.rows(), 1u);
          break;
        } catch (const RemoteError& e) {
          ASSERT_EQ(e.code(), ErrorCode::kOverloaded);
          std::this_thread::sleep_for(
              std::chrono::milliseconds(e.retry_after_ms()));
        }
      }
    }
  });

  // Fire until one lands while the slot is occupied: with the occupant's
  // back-to-back 150ms searches and max_queue = 1, a rejection is certain
  // within a few attempts.
  RbcClient b("127.0.0.1", server.port());
  bool rejected = false;
  for (int attempt = 0; attempt < 100 && !rejected; ++attempt) {
    try {
      (void)b.knn(one, 3);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    } catch (const RemoteError& e) {
      ASSERT_EQ(e.code(), ErrorCode::kOverloaded);
      EXPECT_EQ(e.retry_after_ms(), 20u);
      rejected = true;
    }
  }
  occupant.join();
  EXPECT_TRUE(rejected);

  // Honoring the hint (the queue drains in bounded time) succeeds on the
  // same connection.
  for (int attempt = 0;; ++attempt) {
    try {
      EXPECT_EQ(b.knn(one, 3).ids.rows(), 1u);
      break;
    } catch (const RemoteError& e) {
      ASSERT_EQ(e.code(), ErrorCode::kOverloaded);
      ASSERT_LT(attempt, 100);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(e.retry_after_ms()));
    }
  }

  EXPECT_GE(server.stats().rejected, 1u);
  EXPECT_GE(server.service()->stats().rejected, 1u);
  const InfoMsg info = b.info();
  EXPECT_GE(info.conn_rejected, 1u);  // per-connection counter, over the wire
  EXPECT_GE(info.rejected, 1u);       // service-wide counter
}

TEST(NetServer, PipelinedRangeFramesBeyondTheQueueBoundAreRefused) {
  // Range requests pass the same max_queue admission as knn: a client
  // pipelining range frames at a busy server gets OVERLOADED with the
  // retry hint for every frame past the bound, instead of growing server
  // memory by one decoded query block per frame.
  auto index = built_index("bruteforce");
  const Matrix<float> one = test_queries(1);
  RangeRequest range_request{.queries = &one, .radius = 1.5f, .options = {}};
  const RangeResponse direct = index->range_search(range_request);
  RbcServer server(
      std::make_unique<DelayIndex>(std::move(index), /*delay_ms=*/200),
      {.retry_after_ms = 20}, {.workers = 1, .max_queue = 1});

  constexpr std::uint64_t kFrames = 8;
  std::vector<std::uint8_t> burst;
  for (std::uint64_t id = 1; id <= kFrames; ++id) {
    const std::vector<std::uint8_t> frame =
        serve::net::encode_range_request(id, one, range_request.radius);
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  const int fd = raw_connect(server.port());
  ASSERT_EQ(send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));

  std::uint64_t answered = 0, overloaded = 0;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    const std::optional<Frame> reply = read_frame(fd);
    ASSERT_TRUE(reply.has_value());
    if (reply->header.op == serve::net::Op::kError) {
      const auto error = serve::net::decode_error(reply->payload);
      EXPECT_EQ(error.code, ErrorCode::kOverloaded);
      EXPECT_EQ(error.retry_after_ms, 20u);
      overloaded += 1;
    } else {
      ASSERT_EQ(reply->header.op, serve::net::Op::kRangeResponse);
      EXPECT_EQ(serve::net::decode_range_response(reply->payload).ids,
                direct.ids);
      answered += 1;
    }
  }
  close(fd);
  EXPECT_GE(answered, 1u);
  EXPECT_GE(overloaded, 1u);
  EXPECT_EQ(answered + overloaded, kFrames);
  EXPECT_EQ(server.stats().rejected, overloaded);
  EXPECT_EQ(server.service()->stats().rejected, overloaded);
}

TEST(NetServer, StalledPartialFrameIsClosedByReadTimeout) {
  RbcServer server(built_index("bruteforce"), {.read_timeout_ms = 200});
  const int fd = raw_connect(server.port());
  // Half a header, then silence: a slow-loris connection must be reaped.
  const std::uint8_t half[10] = {0x4E, 0x43, 0x42, 0x52, 1, 1};
  ASSERT_GT(send(fd, half, sizeof half, MSG_NOSIGNAL), 0);
  std::uint8_t reply[64];
  EXPECT_EQ(recv(fd, reply, sizeof reply, 0), 0);  // server closed
  close(fd);
  EXPECT_GE(server.stats().timeouts, 1u);
}

TEST(NetServer, ConcurrentClientsAllGetCorrectAnswers) {
  auto index = built_index("bruteforce");
  const Matrix<float> queries = test_queries(24);
  const index_t k = 5;
  SearchRequest request{.queries = &queries, .k = k, .options = {}};
  const SearchResponse direct = index->knn_search(request);

  RbcServer server(std::move(index));
  constexpr int kClients = 6;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      try {
        RbcClient client("127.0.0.1", server.port());
        for (int iter = 0; iter < 25; ++iter) {
          const index_t qi = (c * 25 + iter) % queries.rows();
          Matrix<float> one(1, kDim);
          one.copy_row_from(queries, qi, 0);
          const KnnResult r = client.knn(one, k);
          for (index_t j = 0; j < k; ++j)
            if (r.ids.at(0, j) != direct.knn.ids.at(qi, j) ||
                r.dists.at(0, j) != direct.knn.dists.at(qi, j)) {
              failures[c] = "mismatch at query " + std::to_string(qi);
              return;
            }
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], "") << "client " << c;
  EXPECT_GE(server.stats().connections_accepted, kClients);
}

TEST(NetServer, ZeroDowntimeReloadUnderLoad) {
  // Two exact backends over the same database, saved to disk: the server
  // starts on bruteforce and hot-swaps to rbc-exact mid-traffic. Every
  // answer during the swap must stay correct and no request may fail.
  const Matrix<float> database = testutil::clustered_matrix(800, kDim, 5, 31);
  const std::string dir = ::testing::TempDir();
  const std::string file_a = dir + "net_reload_a.rbc";
  const std::string file_b = dir + "net_reload_b.rbc";
  {
    auto a = make_index("bruteforce", shard_options());
    a->build(database);
    std::ofstream os(file_a, std::ios::binary);
    a->save(os);
  }
  {
    auto b = make_index("rbc-exact", shard_options());
    b->build(database);
    std::ofstream os(file_b, std::ios::binary);
    b->save(os);
  }

  const Matrix<float> queries = test_queries(16);
  const index_t k = 5;
  auto reference = make_index("bruteforce", shard_options());
  reference->build(database);
  SearchRequest request{.queries = &queries, .k = k, .options = {}};
  const SearchResponse direct = reference->knn_search(request);

  std::ifstream is(file_a, std::ios::binary);
  RbcServer server(load_index(is));

  std::atomic<bool> stop{false};
  std::vector<std::string> failures(4);
  std::vector<std::thread> load;
  for (int c = 0; c < 4; ++c)
    load.emplace_back([&, c] {
      try {
        RbcClient client("127.0.0.1", server.port());
        while (!stop.load()) {
          const KnnResult r = client.knn(queries, k);
          for (index_t i = 0; i < queries.rows(); ++i)
            for (index_t j = 0; j < k; ++j)
              if (r.ids.at(i, j) != direct.knn.ids.at(i, j)) {
                failures[c] = "wrong answer during reload";
                return;
              }
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    RbcClient admin("127.0.0.1", server.port());
    admin.reload(file_b);
    EXPECT_EQ(admin.info().backend, "rbc-exact");  // the swap took
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  for (std::thread& t : load) t.join();
  for (int c = 0; c < 4; ++c) EXPECT_EQ(failures[c], "") << "client " << c;
  EXPECT_EQ(server.stats().reloads, 1u);

  // A reload from a bad path fails cleanly and keeps the current index.
  RbcClient client("127.0.0.1", server.port());
  EXPECT_THROW(client.reload(dir + "does_not_exist.rbc"), RemoteError);
  EXPECT_EQ(client.info().backend, "rbc-exact");
  EXPECT_EQ(client.knn(queries, k).ids.rows(), queries.rows());
}

TEST(NetServer, GracefulDrainViaStopFd) {
  RbcServer server(built_index("bruteforce"));
  const std::uint16_t port = server.port();
  {
    RbcClient client("127.0.0.1", port);
    EXPECT_EQ(client.info().dim, kDim);
  }
  // The async-signal-safe stop request (what a SIGTERM handler does).
  const std::uint64_t one = 1;
  ASSERT_EQ(write(server.stop_fd(), &one, sizeof one),
            static_cast<ssize_t>(sizeof one));
  server.wait();
  // The listener is gone: new connections are refused.
  EXPECT_THROW(RbcClient("127.0.0.1", port), std::runtime_error);
  server.stop();
}

// ------------------------------------------- multi-process scatter/gather --

pid_t spawn_shard_worker(index_t shard, index_t num_shards,
                         const std::string& port_file) {
  const pid_t pid = fork();
  if (pid == 0) {
    // Child: immediate execv of this binary in worker mode (the only safe
    // thing in a forked child of a threaded parent).
    const std::string s = std::to_string(shard);
    const std::string ns = std::to_string(num_shards);
    execl("/proc/self/exe", "/proc/self/exe", "--net-shard-worker", s.c_str(),
          ns.c_str(), port_file.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  return pid;
}

std::uint16_t wait_for_port_file(const std::string& path) {
  for (int attempt = 0; attempt < 300; ++attempt) {
    std::ifstream is(path);
    int port = 0;
    if (is >> port && port > 0) return static_cast<std::uint16_t>(port);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return 0;
}

TEST(NetRouterTest, TwoProcessScatterGatherIsBitIdenticalToShardedIndex) {
  constexpr index_t kShards = 2;
  const std::string dir = ::testing::TempDir();
  std::vector<pid_t> workers;
  std::vector<std::string> port_files;
  for (index_t s = 0; s < kShards; ++s) {
    port_files.push_back(dir + "net_shard_" + std::to_string(getpid()) + "_" +
                         std::to_string(s) + ".port");
    std::remove(port_files.back().c_str());
    workers.push_back(spawn_shard_worker(s, kShards, port_files.back()));
    ASSERT_GT(workers.back(), 0);
  }

  std::vector<dist::Endpoint> endpoints;
  for (const std::string& file : port_files) {
    const std::uint16_t port = wait_for_port_file(file);
    ASSERT_NE(port, 0) << "worker never published its port (" << file << ")";
    endpoints.push_back({"127.0.0.1", port});
  }

  // The in-process reference: the same partition, inner backend, options and
  // database — the merge code is literally shared, so results must be
  // bit-identical, ties included (the database has duplicated rows).
  auto reference = make_index("sharded:rbc-exact", shard_options());
  reference->build(test_database());

  dist::NetRouter router(endpoints);
  EXPECT_EQ(router.num_shards(), kShards);
  EXPECT_EQ(router.size(), test_database().rows());
  EXPECT_EQ(router.backend(), "rbc-exact");

  const Matrix<float> queries = test_queries(40);
  for (const index_t k : {index_t{1}, index_t{10}, index_t{64}}) {
    SearchRequest request{.queries = &queries, .k = k, .options = {}};
    const SearchResponse expected = reference->knn_search(request);
    const KnnResult routed = router.knn(queries, k);
    expect_same_knn(expected.knn, routed);
  }

  // Range scatter/gather parity over the same processes.
  const dist_t radius = 1.5f;
  RangeRequest range_request{
      .queries = &queries, .radius = radius, .options = {}};
  EXPECT_EQ(router.range(queries, radius),
            reference->range_search(range_request).ids);

  EXPECT_GT(router.stats().requests, 0u);

  // SIGTERM both workers: they drain gracefully and exit 0.
  for (const pid_t pid : workers) kill(pid, SIGTERM);
  for (const pid_t pid : workers) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status)) << "worker killed by signal";
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  for (const std::string& file : port_files) std::remove(file.c_str());
}

/// A shard server written against the raw socket API. It records the
/// version byte of every request it reads, answers INFO like a real
/// `rows`-row shard and RELOAD with success, and answers knn/range per
/// `mode`: honestly, or with responses whose shape or shard-local ids
/// violate the contract. The lying modes exercise NetRouter's trust
/// boundary — wire data from a buggy shard must raise ProtocolError, never
/// index global_ids_ or the merge inputs out of bounds.
class RawShard {
 public:
  enum class Mode {
    kHonest,
    kWrongRows,
    kWrongCols,
    kIdOutOfRange,
    kRangeIdOutOfRange
  };

  RawShard(Mode mode, index_t rows) : mode_(mode), rows_(rows) {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    listen(listen_fd_, 1);
    socklen_t len = sizeof addr;
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }

  ~RawShard() {
    shutdown(listen_fd_, SHUT_RDWR);  // wakes a still-pending accept
    thread_.join();
    close(listen_fd_);
  }

  RawShard(const RawShard&) = delete;
  RawShard& operator=(const RawShard&) = delete;

  std::uint16_t port() const { return port_; }

  /// The version byte of each request read so far, in arrival order.
  std::vector<std::uint8_t> versions() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return versions_;
  }

 private:
  void serve() {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    for (;;) {
      std::uint8_t raw[serve::net::kHeaderSize];
      if (!read_exact(fd, raw, sizeof raw)) break;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        versions_.push_back(raw[4]);
      }
      std::vector<std::uint8_t> reply;
      try {
        const auto header = serve::net::parse_header({raw, sizeof raw});
        std::vector<std::uint8_t> payload(header->payload_len);
        if (!read_exact(fd, payload.data(), payload.size())) break;
        reply = answer(*header, payload);
      } catch (const serve::net::ProtocolError&) {
        break;  // a frame this shard cannot read: hang up, as a server does
      }
      if (reply.empty()) break;
      std::size_t sent = 0;
      while (sent < reply.size()) {
        const ssize_t w =
            send(fd, reply.data() + sent, reply.size() - sent, MSG_NOSIGNAL);
        if (w <= 0) break;
        sent += static_cast<std::size_t>(w);
      }
    }
    close(fd);
  }

  std::vector<std::uint8_t> answer(const FrameHeader& header,
                                   std::span<const std::uint8_t> payload) {
    switch (header.op) {
      case serve::net::Op::kInfoRequest: {
        InfoMsg info;
        info.backend = "bruteforce";
        info.metric = "l2";
        info.size = rows_;
        info.dim = kDim;
        return serve::net::encode_info_response(header.request_id, info);
      }
      case serve::net::Op::kKnnRequest: {
        const auto request = serve::net::decode_knn_request(payload);
        const index_t nq = request.queries.rows();
        KnnResult result(mode_ == Mode::kWrongRows ? nq + 1 : nq,
                         mode_ == Mode::kWrongCols ? request.k + 1
                                                   : request.k);
        for (index_t i = 0; i < result.ids.rows(); ++i)
          for (index_t j = 0; j < result.ids.cols(); ++j) {
            // kIdOutOfRange: rows_ is one past the last valid local id.
            result.ids.at(i, j) = mode_ == Mode::kIdOutOfRange ? rows_ : j;
            result.dists.at(i, j) = 0.0f;
          }
        return serve::net::encode_knn_response(header.request_id, result,
                                               {1, 1});
      }
      case serve::net::Op::kRangeRequest: {
        const auto request = serve::net::decode_range_request(payload);
        std::vector<std::vector<index_t>> ids(request.queries.rows());
        if (mode_ == Mode::kRangeIdOutOfRange && !ids.empty())
          ids.front().push_back(rows_);
        return serve::net::encode_range_response(header.request_id, ids,
                                                 {1, 1});
      }
      case serve::net::Op::kReloadRequest:
        (void)serve::net::decode_reload_request(payload);
        return serve::net::encode_reload_response(header.request_id);
      default:
        return {};
    }
  }

  Mode mode_;
  index_t rows_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  mutable std::mutex mutex_;
  std::vector<std::uint8_t> versions_;
  std::thread thread_;
};

TEST(NetRouterTest, RejectsMalformedShardResponses) {
  const Matrix<float> queries = test_queries(3);
  for (const RawShard::Mode mode :
       {RawShard::Mode::kWrongRows, RawShard::Mode::kWrongCols,
        RawShard::Mode::kIdOutOfRange}) {
    RawShard shard(mode, /*rows=*/100);
    dist::NetRouter router({{"127.0.0.1", shard.port()}});
    EXPECT_THROW((void)router.knn(queries, 5), serve::net::ProtocolError);
  }
  {
    RawShard shard(RawShard::Mode::kRangeIdOutOfRange, /*rows=*/100);
    dist::NetRouter router({{"127.0.0.1", shard.port()}});
    EXPECT_THROW((void)router.range(queries, 1.0f),
                 serve::net::ProtocolError);
  }
}

TEST(NetClient, EveryCallSendsTheCurrentVersionWithOrWithoutADeadline) {
  RawShard shard(RawShard::Mode::kHonest, /*rows=*/100);
  RbcClient client("127.0.0.1", shard.port());
  const Matrix<float> queries = test_queries(3);
  EXPECT_EQ(client.knn(queries, 5).ids.rows(), 3u);
  EXPECT_EQ(client.knn(queries, 5, /*deadline_ms=*/60'000).ids.rows(), 3u);
  EXPECT_EQ(client.range(queries, 1.0f).size(), 3u);
  EXPECT_EQ(client.range(queries, 1.0f, /*deadline_ms=*/60'000).size(), 3u);
  EXPECT_EQ(client.info().size, 100u);
  client.reload("index.rbc");
  EXPECT_EQ(shard.versions(),
            std::vector<std::uint8_t>(6, serve::net::kNetVersion));
}

}  // namespace

// ------------------------------------------------------- shard worker mode --
// Outside the anonymous namespace: main() below (file scope) calls it.

namespace {
int g_worker_stop_fd = -1;
void worker_signal(int) {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n =
      write(g_worker_stop_fd, &one, sizeof one);
}
}  // namespace

/// Shard-owner process: builds THIS shard of the shared deterministic
/// database (the same rows ShardedIndex assigns it) and serves it until
/// SIGTERM.
int run_shard_worker(index_t shard, index_t num_shards,
                     const std::string& port_file) {
  const Matrix<float> database = test_database();
  const std::vector<std::vector<index_t>> assignment =
      shard::partition_rows(database.rows(), num_shards);
  const std::vector<index_t>& mine = assignment[shard];
  Matrix<float> rows(static_cast<index_t>(mine.size()), database.cols());
  for (index_t i = 0; i < rows.rows(); ++i)
    rows.copy_row_from(database, mine[i], i);

  auto index = make_index("rbc-exact", shard_options());
  index->build(rows);
  RbcServer server(std::move(index));
  g_worker_stop_fd = server.stop_fd();
  std::signal(SIGTERM, worker_signal);

  // Publish the bound port atomically (write-then-rename) so the parent
  // never reads a half-written file.
  const std::string tmp = port_file + ".tmp";
  {
    std::ofstream os(tmp);
    os << server.port() << "\n";
  }
  std::rename(tmp.c_str(), port_file.c_str());

  server.wait();  // until SIGTERM
  server.stop();
  return 0;
}

}  // namespace rbc

// Custom main: worker mode for the multi-process test, gtest otherwise.
int main(int argc, char** argv) {
  if (argc >= 5 && std::strcmp(argv[1], "--net-shard-worker") == 0)
    return rbc::run_shard_worker(
        static_cast<rbc::index_t>(std::atoi(argv[2])),
        static_cast<rbc::index_t>(std::atoi(argv[3])), argv[4]);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
