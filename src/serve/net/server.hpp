// RbcServer: the network front door of the serving stack.
//
// An epoll-driven, single-event-loop TCP server speaking the framed binary
// protocol of serve/net/protocol.hpp. Decoded KNN requests feed straight
// into the owned SearchService via the non-blocking try_submit_batch seam,
// so many independent network clients become the large BF(Q, X) query
// blocks the paper's batching argument rewards — exactly like in-process
// submitters, but across process and machine boundaries.
//
//   auto index = rbc::load_index(file);
//   rbc::serve::net::RbcServer server(std::move(index), {.port = 9172});
//   ... server.port(), server.wait(), server.stop() ...
//
// Robustness properties (all tested in tests/test_net_server.cpp):
//   * Admission control: when the service's bounded queue is full a knn or
//     range request is answered with a kOverloaded error frame carrying a
//     retry_after_ms hint — the event loop never blocks on backpressure,
//     and pipelined frames cannot queue without bound.
//   * Malformed-frame hardening: undecodable bytes get an error frame and
//     the connection is closed; the server survives arbitrary garbage.
//   * Per-connection timeouts: a stalled partial frame (slow-loris) or a
//     stalled response flush closes the connection after
//     read_timeout_ms / write_timeout_ms.
//   * Deadline shedding: a request carrying a nonzero deadline_ms is answered
//     with kDeadlineExceeded once its budget expires — range work is shed
//     before execution, knn replies are shed at completion — so a client
//     that already timed out never costs encode/send work ("The Tail at
//     Scale" discipline: finishing a dead request helps nobody).
//   * Graceful drain: stop() — or a write to stop_fd(), which is
//     async-signal-safe and what SIGTERM handlers should use — closes the
//     listener, answers new data frames with kShuttingDown, finishes every
//     in-flight request, flushes outboxes, then drains the service.
//   * Zero-downtime reload: a kReloadRequest loads the index file on a
//     reload thread of its own, builds a fresh SearchService, atomically
//     swaps it in, and drains the old one — queries in flight on the old
//     snapshot finish normally; new arrivals land on the new one. Serving
//     never pauses. One reload runs at a time; a second request meanwhile
//     gets kOverloaded with retry_after_ms.
//
// Threading model: one event loop thread owns every socket and all
// connection state; the SearchService's `workers` threads run every knn,
// payload-knn and range request. The completion of each (see
// serve/service.hpp) encodes its reply on the worker — deadline shedding
// and error frames included — and posts it to the loop through a wakeup
// eventfd, which only the first reply into an empty queue writes: the rest
// of a batch rides that wakeup. So a wire knn crosses two thread hand-offs,
// loop -> worker -> loop. A running server holds the loop and the workers,
// plus the reload thread while a reload runs. Connection counters
// (serve/stats.hpp ConnCounters) are single-writer by construction.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/index.hpp"
#include "serve/net/protocol.hpp"
#include "serve/service.hpp"
#include "serve/stats.hpp"

namespace rbc::serve::net {

struct ServerOptions {
  std::string host = "127.0.0.1";  ///< bind address
  std::uint16_t port = 0;          ///< 0 = OS-assigned; read back via port()
  int backlog = 128;
  std::uint32_t max_payload = kDefaultMaxPayload;
  /// Close a connection whose partial frame makes no progress for this long.
  std::uint32_t read_timeout_ms = 30'000;
  /// Close a connection whose pending response bytes make no progress for
  /// this long.
  std::uint32_t write_timeout_ms = 30'000;
  /// Hint stamped into kOverloaded error frames.
  std::uint32_t retry_after_ms = 50;
  std::size_t max_connections = 1024;
};

/// Aggregate server counters (wire-level; the query-level counters live in
/// the SearchService's ServiceStats).
struct NetServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t timeouts = 0;         ///< connections closed by a timeout
  std::uint64_t protocol_errors = 0;  ///< malformed frames seen
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t requests = 0;  ///< data frames admitted to the service
  std::uint64_t rejected = 0;  ///< frames refused by admission control
  std::uint64_t reloads = 0;   ///< successful index reloads
  /// Requests shed because their deadline_ms budget expired before the
  /// reply could be sent (answered with kDeadlineExceeded).
  std::uint64_t deadline_exceeded = 0;
  /// accept4 failed with fd/buffer exhaustion (EMFILE/ENFILE/ENOBUFS/
  /// ENOMEM); the listener backs off briefly when this happens.
  std::uint64_t accept_failures = 0;
  std::size_t connections_open = 0;
};

class RbcServer {
 public:
  /// Takes ownership of a *built* index, wraps it in a SearchService with
  /// `service_options`, binds and listens, and starts the event loop.
  /// Throws std::system_error on socket failures and the SearchService's
  /// std::invalid_argument for a null/unbuilt index.
  explicit RbcServer(std::unique_ptr<Index> index, ServerOptions options = {},
                     ServiceOptions service_options = {});

  /// Equivalent to stop().
  ~RbcServer();

  RbcServer(const RbcServer&) = delete;
  RbcServer& operator=(const RbcServer&) = delete;

  /// The bound port (the OS-assigned one when options.port was 0).
  std::uint16_t port() const { return port_; }

  /// An eventfd; writing any 8-byte value requests a graceful drain.
  /// write() is async-signal-safe, so SIGTERM/SIGINT handlers may use this
  /// directly (see examples/serve_demo.cpp).
  int stop_fd() const { return stop_event_fd_; }

  /// Blocks until the event loop has fully drained and exited (either via
  /// stop() or a stop_fd() write). Does not itself request the stop.
  void wait();

  /// Requests a graceful drain and joins every thread. Idempotent and
  /// callable from any (non-signal) context.
  void stop();

  /// Wire-level counter snapshot. Thread-safe, callable any time.
  NetServerStats stats() const;

  /// The current service snapshot (swaps on reload). Never null.
  std::shared_ptr<SearchService> service() const;

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::vector<std::uint8_t> in;  // unparsed bytes; consumed from in_off
    std::size_t in_off = 0;
    std::deque<std::vector<std::uint8_t>> out;
    std::size_t out_off = 0;  // progress into out.front()
    bool want_write = false;  // EPOLLOUT currently registered
    bool closing = false;     // flush outbox, then close
    // Fatal socket error seen by flush(). flush() never destroys the
    // connection itself — frames up the stack may still hold it by
    // reference — so it sets this flag and the top-level call sites
    // (event loop / conn_readable / drain_replies) close via
    // should_close().
    bool dead = false;
    std::chrono::steady_clock::time_point read_progress;
    std::chrono::steady_clock::time_point write_progress;
    ConnCounters counters;
  };

  // The answer to an admitted request, produced off-loop (a service worker
  // or the reload thread) and routed back by conn id — the connection may be
  // gone by delivery time, in which case it's dropped.
  struct Reply {
    std::uint64_t conn_id = 0;
    std::vector<std::uint8_t> frame;
  };

  void event_loop();
  void accept_ready();
  void conn_readable(Connection& conn);
  void conn_writable(Connection& conn);
  // Handles one complete frame; returns false when the connection must
  // close (unrecoverable framing error).
  bool handle_frame(Connection& conn, const FrameHeader& header,
                    std::span<const std::uint8_t> payload);
  void send_reply(Connection& conn, std::vector<std::uint8_t> frame);
  void send_error(Connection& conn, std::uint64_t request_id, ErrorCode code,
                  const std::string& message);
  // Counts a refusal and answers kOverloaded with the retry_after_ms hint.
  void send_overloaded(Connection& conn, std::uint64_t request_id,
                       const std::string& why);
  // Offers a request to the current service via `submit` (SearchService& ->
  // Admission) and answers a refusal; an admitted request counts as in
  // flight until its reply is drained.
  template <class Submit>
  void admit(Connection& conn, std::uint64_t request_id, Submit submit);
  // Writes out as much of the outbox as the socket accepts. Never calls
  // close_conn(): on a fatal send error it marks the connection dead and
  // returns, leaving destruction to the top-level caller (see
  // Connection::dead).
  void flush(Connection& conn);
  // True when the connection must be destroyed: a fatal socket error, or a
  // flush-close whose outbox has fully drained.
  static bool should_close(const Connection& conn) {
    return conn.dead || (conn.closing && conn.out.empty());
  }
  void close_conn(std::uint64_t conn_id, bool timed_out);
  void sweep_timeouts();
  void drain_replies();
  void update_epoll(Connection& conn);

  // Off-loop helpers (service workers, the reload thread).
  void post_reply(std::uint64_t conn_id, std::vector<std::uint8_t> frame);
  void reload(std::uint64_t conn_id, std::uint64_t request_id,
              const std::string& path);
  InfoMsg make_info(const Connection& conn) const;

  // Deadline helpers: a request's deadline_ms (remaining budget at send
  // time, 0 = none) becomes an absolute steady_clock point at decode.
  using Deadline = std::optional<std::chrono::steady_clock::time_point>;
  static Deadline request_deadline(std::uint32_t deadline_ms) {
    if (deadline_ms == 0) return std::nullopt;
    return std::chrono::steady_clock::now() +
           std::chrono::milliseconds(deadline_ms);
  }
  // The completion of a knn or payload-knn request: encodes its reply (or
  // sheds it past the deadline) on the worker and posts it.
  Completion knn_completion(std::uint64_t conn_id, std::uint64_t request_id,
                            Deadline deadline);
  // Counts the shed and encodes the kDeadlineExceeded reply (thread-safe;
  // called from service workers).
  std::vector<std::uint8_t> deadline_error(std::uint64_t request_id);

  ServerOptions options_;
  ServiceOptions service_options_;
  std::uint16_t port_ = 0;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int stop_event_fd_ = -1;   // external stop requests (signal-safe)
  int wake_event_fd_ = -1;   // workers/reload -> loop reply notifications

  mutable std::mutex service_mutex_;
  std::shared_ptr<SearchService> service_;

  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  // epoll events carry the connection id in data.u64; ids 0..2 are reserved
  // as the listen/stop/wake sentinel tags, so real connections start above.
  std::uint64_t next_conn_id_ = 3;
  std::uint64_t in_flight_ = 0;  // admitted requests not yet answered
  bool draining_ = false;
  // Set when accept4 hit fd/buffer exhaustion: the listener is unregistered
  // from epoll (retrying immediately would busy-spin on the level-triggered
  // fd) and re-armed by the event loop once the deadline passes.
  bool accept_paused_ = false;
  std::chrono::steady_clock::time_point accept_paused_until_{};

  std::mutex replies_mutex_;
  std::vector<Reply> replies_;

  // Set by the loop when it starts a reload, cleared by the reload thread
  // just before it posts the reply.
  std::atomic<bool> reloading_{false};

  mutable std::mutex stats_mutex_;
  NetServerStats stats_;

  std::mutex lifecycle_mutex_;  // serializes stop() (incl. the destructor)
  bool loop_done_ = false;
  std::mutex done_mutex_;
  std::condition_variable done_cv_;

  std::thread loop_thread_;
  std::thread reload_thread_;  // joined by the next reload or by stop()
};

}  // namespace rbc::serve::net
