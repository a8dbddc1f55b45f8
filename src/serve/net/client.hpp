// RbcClient: blocking client for the RbcServer wire protocol.
//
// One client owns one TCP connection and is intentionally synchronous —
// request, wait, response — because the interesting concurrency lives on
// the server side (many clients' singleton requests coalesce into paper-
// style query blocks there). Concurrency on the client side is "run more
// clients" (see bench/serve_throughput.cpp's closed-loop sweep). A client
// is NOT thread-safe; give each thread its own.
//
//   rbc::serve::net::RbcClient client("127.0.0.1", port);
//   KnnResult r = client.knn(queries, /*k=*/5);
//
// Every blocking point is bounded: connect() is non-blocking + poll under
// options.timeout_ms (a blackholed endpoint fails the constructor instead
// of hanging in SYN retries), and each call's sends/receives share one
// budget — min(options.timeout_ms, the call's deadline_ms) — measured
// against a single absolute deadline, so a server that trickles bytes
// cannot stretch the wait past it.
//
// A nonzero deadline_ms additionally rides the wire: the server sheds the
// request and answers kDeadlineExceeded once the budget expires. Every call
// sends kNetVersion frames (serve/net/protocol.hpp), deadline or not.
//
// Server-reported failures surface as RemoteError carrying the protocol
// ErrorCode — notably kOverloaded with a retry_after_ms hint, which callers
// should honor (sleep, retry) rather than hammering a loaded server.
// Transport failures (connect/read/write/timeout) throw std::runtime_error.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/net/protocol.hpp"

namespace rbc::serve::net {

/// A server-side failure, decoded from an kError frame. code() and
/// retry_after_ms() let callers distinguish backpressure (retry later) from
/// real errors (give up).
class RemoteError : public std::runtime_error {
 public:
  RemoteError(ErrorCode code, std::uint32_t retry_after_ms,
              const std::string& message)
      : std::runtime_error(message), code_(code),
        retry_after_ms_(retry_after_ms) {}

  ErrorCode code() const { return code_; }
  std::uint32_t retry_after_ms() const { return retry_after_ms_; }

 private:
  ErrorCode code_;
  std::uint32_t retry_after_ms_;
};

struct ClientOptions {
  /// Budget for connect() and for each call's combined socket waits; any
  /// call stalling past it fails. 0 = no timeout.
  std::uint32_t timeout_ms = 30'000;
  std::uint32_t max_payload = kDefaultMaxPayload;
};

class RbcClient {
 public:
  /// Connects immediately, bounded by min(options.timeout_ms, budget_ms)
  /// (0 = options.timeout_ms alone); throws std::runtime_error on failure
  /// or timeout. `budget_ms` bounds this connect only.
  RbcClient(const std::string& host, std::uint16_t port,
            ClientOptions options = {}, std::uint32_t budget_ms = 0);
  ~RbcClient();

  RbcClient(const RbcClient&) = delete;
  RbcClient& operator=(const RbcClient&) = delete;
  RbcClient(RbcClient&& other) noexcept;
  RbcClient& operator=(RbcClient&&) = delete;

  /// k nearest neighbors of each query row, ascending (distance, id) —
  /// bit-identical to calling knn_search on the server's index directly
  /// (modulo the service's batching, which does not change answers).
  /// `deadline_ms` > 0 caps the wait AND travels to the server, which sheds
  /// the request past budget (RemoteError{kDeadlineExceeded}).
  KnnResult knn(const Matrix<float>& queries, index_t k,
                std::uint32_t deadline_ms = 0);

  /// Payload-query counterpart of knn() for servers whose index is
  /// payload-built (strings under "edit", 8-byte node ids under
  /// "graph-sp"). A dense-built server answers RemoteError{kBadRequest}.
  KnnResult knn_payload(const std::vector<std::string>& queries, index_t k,
                        std::uint32_t deadline_ms = 0);

  /// All database ids within `radius` of each query, ascending by id.
  std::vector<std::vector<index_t>> range(const Matrix<float>& queries,
                                          dist_t radius,
                                          std::uint32_t deadline_ms = 0);

  /// Index identity + serving counters, including this connection's own
  /// ConnCounters as the server sees them. `budget_ms` > 0 caps the wait
  /// like knn()'s deadline_ms, but stays local: INFO carries no deadline.
  InfoMsg info(std::uint32_t budget_ms = 0);

  /// Asks the server to hot-swap its index from `path` (a server-side
  /// filesystem path). Returns when the swap is complete.
  void reload(const std::string& path);

 private:
  // Writes one frame, then reads frames until the response for `request_id`
  // arrives and returns its payload; decodes kError into RemoteError.
  // `budget_ms` bounds the whole exchange (0 = options.timeout_ms alone
  // applies).
  std::vector<std::uint8_t> roundtrip(std::span<const std::uint8_t> frame,
                                      std::uint64_t request_id,
                                      Op expected_op, std::uint32_t budget_ms);
  // The call-level budget: min of the option timeout and the request
  // deadline (0 entries ignored), as an absolute poll deadline. Negative
  // steady_clock::time_point is the "unbounded" sentinel.
  std::chrono::steady_clock::time_point call_deadline(
      std::uint32_t budget_ms) const;
  void send_all(std::span<const std::uint8_t> bytes,
                std::chrono::steady_clock::time_point deadline);
  void recv_some(std::chrono::steady_clock::time_point deadline);
  // poll() for `events` until the deadline; throws on timeout/error.
  void wait_ready(short events,
                  std::chrono::steady_clock::time_point deadline,
                  const char* what);

  ClientOptions options_;
  int fd_ = -1;
  std::uint64_t next_request_id_ = 1;
  std::vector<std::uint8_t> in_;  // buffered unparsed bytes
};

}  // namespace rbc::serve::net
