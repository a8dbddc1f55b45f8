#include "serve/net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "api/registry.hpp"

namespace rbc::serve::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(),
                          std::string("rbc::net::RbcServer: ") + what);
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw_errno("fcntl(O_NONBLOCK)");
}

// Called inside a catch block: the kInternal reply for the exception in
// flight. Any type is caught, so every admitted request gets its reply.
std::vector<std::uint8_t> internal_error(std::uint64_t request_id) {
  std::string what = "unknown error";
  try {
    throw;
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  return encode_error(request_id, {ErrorCode::kInternal, 0, what});
}

}  // namespace

RbcServer::RbcServer(std::unique_ptr<Index> index, ServerOptions options,
                     ServiceOptions service_options)
    : options_(options), service_options_(service_options) {
  service_ =
      std::make_shared<SearchService>(std::move(index), service_options_);

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    throw std::invalid_argument("rbc::net::RbcServer: bad bind address '" +
                                options_.host + "'");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    close(listen_fd_);
    errno = saved;
    throw_errno("bind");
  }
  if (listen(listen_fd_, options_.backlog) < 0) {
    const int saved = errno;
    close(listen_fd_);
    errno = saved;
    throw_errno("listen");
  }
  socklen_t len = sizeof addr;
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  stop_event_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  wake_event_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);

  // No threads are running yet, and a throwing constructor skips the
  // destructor — close whatever was created before propagating.
  auto fail = [this](const char* what) {
    const int saved = errno;
    for (int* fd : {&listen_fd_, &epoll_fd_, &stop_event_fd_, &wake_event_fd_})
      if (*fd >= 0) {
        close(*fd);
        *fd = -1;
      }
    errno = saved;
    throw_errno(what);
  };
  if (epoll_fd_ < 0 || stop_event_fd_ < 0 || wake_event_fd_ < 0)
    fail("epoll_create1/eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // listen fd sentinel
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0)
    fail("epoll_ctl(ADD listen fd)");
  ev.data.u64 = 1;  // stop eventfd sentinel
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, stop_event_fd_, &ev) < 0)
    fail("epoll_ctl(ADD stop eventfd)");
  ev.data.u64 = 2;  // wake eventfd sentinel
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_event_fd_, &ev) < 0)
    fail("epoll_ctl(ADD wake eventfd)");

  loop_thread_ = std::thread([this] { event_loop(); });
}

RbcServer::~RbcServer() {
  stop();
  // All threads are joined once stop() returns, so no signal handler race
  // remains within the object's lifetime: the eventfd can finally go.
  if (stop_event_fd_ >= 0) {
    close(stop_event_fd_);
    stop_event_fd_ = -1;
  }
}

std::shared_ptr<SearchService> RbcServer::service() const {
  std::lock_guard<std::mutex> lock(service_mutex_);
  return service_;
}

NetServerStats RbcServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void RbcServer::wait() {
  std::unique_lock<std::mutex> lock(done_mutex_);
  done_cv_.wait(lock, [this] { return loop_done_; });
}

void RbcServer::stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (loop_thread_.joinable()) {
    const std::uint64_t one = 1;
    // A full pipe is impossible for an eventfd counter; ignore the result
    // (the loop may already be exiting).
    [[maybe_unused]] ssize_t n = write(stop_event_fd_, &one, sizeof one);
    loop_thread_.join();
  }
  // A reload counts as in flight, so a drained loop has seen its reply and
  // this join returns at once.
  if (reload_thread_.joinable()) reload_thread_.join();
  if (listen_fd_ >= 0) { close(listen_fd_); listen_fd_ = -1; }
  if (epoll_fd_ >= 0) { close(epoll_fd_); epoll_fd_ = -1; }
  if (wake_event_fd_ >= 0) { close(wake_event_fd_); wake_event_fd_ = -1; }
  // stop_event_fd_ stays open until destruction: a signal handler may still
  // hold the fd value (writes to it are harmless once the loop exited). The
  // destructor closes it after this returns.
}

// ------------------------------------------------------------ event loop ---

void RbcServer::event_loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  bool stop_requested = false;

  for (;;) {
    // Exit once draining and nothing is left to deliver: no admitted
    // request is unanswered and every outbox has flushed (connections with
    // pending bytes are bounded by the write timeout).
    if (stop_requested && draining_) {
      bool outboxes_empty = true;
      for (const auto& [id, conn] : conns_)
        if (!conn->out.empty()) outboxes_empty = false;
      if (in_flight_ == 0 && outboxes_empty) break;
    }

    // Re-arm a listener paused by fd exhaustion once the backoff elapsed
    // (the 100ms epoll timeout bounds how long the pause can overshoot).
    if (accept_paused_ && listen_fd_ >= 0 &&
        std::chrono::steady_clock::now() >= accept_paused_until_) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = 0;
      if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0)
        accept_paused_ = false;
    }

    const int n = epoll_wait(epoll_fd_, events, kMaxEvents, /*timeout=*/100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable; shut down
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == 0) {
        accept_ready();
      } else if (tag == 1) {
        std::uint64_t drained = 0;
        [[maybe_unused]] ssize_t r =
            read(stop_event_fd_, &drained, sizeof drained);
        stop_requested = true;
        if (!draining_) {
          draining_ = true;
          // Close the front door; everything already accepted finishes.
          epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
          close(listen_fd_);
          listen_fd_ = -1;
        }
      } else if (tag == 2) {
        std::uint64_t drained = 0;
        [[maybe_unused]] ssize_t r =
            read(wake_event_fd_, &drained, sizeof drained);
        drain_replies();
      } else {
        auto it = conns_.find(tag);
        if (it == conns_.end()) continue;  // closed earlier this wakeup
        Connection& conn = *it->second;
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          close_conn(conn.id, /*timed_out=*/false);
          continue;
        }
        if (events[i].events & EPOLLOUT) conn_writable(conn);
        // conn_writable may close on fatal write errors — re-check.
        if (conns_.find(tag) == conns_.end()) continue;
        if (events[i].events & EPOLLIN) conn_readable(conn);
      }
    }
    drain_replies();
    sweep_timeouts();
  }

  // Drain leftovers: answer nothing further, drop pending replies, close
  // every connection, and let the service finish anything still queued.
  drain_replies();
  std::vector<std::uint64_t> open;
  open.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) open.push_back(id);
  for (std::uint64_t id : open) close_conn(id, /*timed_out=*/false);

  std::shared_ptr<SearchService> svc = service();
  svc->drain();
  svc->stop();

  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    loop_done_ = true;
  }
  done_cv_.notify_all();
}

void RbcServer::accept_ready() {
  for (;;) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // The peer aborted between queueing and accept: not our exhaustion,
      // keep draining the backlog.
      if (errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of fds/buffers: accepting cannot succeed until something
        // frees up, and the level-triggered listen fd would wake the loop
        // immediately again. Unregister it and let the event loop re-arm
        // after a short backoff.
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          stats_.accept_failures += 1;
        }
        epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        accept_paused_ = true;
        accept_paused_until_ =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
        return;
      }
      return;  // EAGAIN/EWOULDBLOCK: backlog drained
    }
    if (conns_.size() >= options_.max_connections) {
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->read_progress = conn->write_progress =
        std::chrono::steady_clock::now();

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      close(fd);
      continue;
    }
    conns_.emplace(conn->id, std::move(conn));
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.connections_accepted += 1;
    stats_.connections_open = conns_.size();
  }
}

void RbcServer::conn_readable(Connection& conn) {
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    const ssize_t n = recv(conn.fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      conn.in.insert(conn.in.end(), chunk, chunk + n);
      conn.read_progress = std::chrono::steady_clock::now();
      conn.counters.bytes_in += static_cast<std::uint64_t>(n);
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.bytes_in += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n == 0) {  // peer closed
      close_conn(conn.id, /*timed_out=*/false);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_conn(conn.id, /*timed_out=*/false);
    return;
  }

  // Extract complete frames. A framing error (bad magic/version/oversize)
  // is unrecoverable on a byte stream: answer with one error frame and
  // flush-close. A send failure inside handle_frame marks the connection
  // dead (never frees it — we hold `conn` across iterations), ending the
  // loop.
  while (!conn.closing && !conn.dead) {
    const std::span<const std::uint8_t> avail(conn.in.data() + conn.in_off,
                                              conn.in.size() - conn.in_off);
    FrameHeader header;
    try {
      const auto parsed = parse_header(avail, options_.max_payload);
      if (!parsed) break;  // need more bytes
      header = *parsed;
    } catch (const ProtocolError& e) {
      conn.counters.errors += 1;
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.protocol_errors += 1;
      }
      send_reply(conn,
                 encode_error(0, {ErrorCode::kMalformedFrame, 0, e.what()}));
      conn.closing = true;
      break;
    }
    if (avail.size() < kHeaderSize + header.payload_len) break;  // partial
    conn.in_off += kHeaderSize;
    const std::span<const std::uint8_t> payload(conn.in.data() + conn.in_off,
                                                header.payload_len);
    conn.in_off += header.payload_len;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.frames_in += 1;
    }
    if (!handle_frame(conn, header, payload)) {
      conn.closing = true;
      break;
    }
  }

  // Compact the consumed prefix once it dominates the buffer.
  if (conn.in_off == conn.in.size()) {
    conn.in.clear();
    conn.in_off = 0;
  } else if (conn.in_off > (1u << 20)) {
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<std::ptrdiff_t>(conn.in_off));
    conn.in_off = 0;
  }

  if (should_close(conn)) close_conn(conn.id, /*timed_out=*/false);
}

bool RbcServer::handle_frame(Connection& conn, const FrameHeader& header,
                             std::span<const std::uint8_t> payload) {
  const std::uint64_t id = header.request_id;
  const std::uint64_t conn_id = conn.id;
  const auto refuse_if_draining = [&] {
    if (draining_)
      send_error(conn, id, ErrorCode::kShuttingDown, "server draining");
    return draining_;
  };

  try {
    switch (header.op) {
      case Op::kKnnRequest: {
        KnnRequestMsg msg = decode_knn_request(payload);
        if (refuse_if_draining()) return true;
        const Deadline deadline = request_deadline(msg.deadline_ms);
        admit(conn, id, [&](SearchService& svc) {
          return svc.try_submit_batch(msg.queries, msg.k,
                                      knn_completion(conn_id, id, deadline));
        });
        return true;
      }

      case Op::kKnnPayloadRequest: {
        // Payload queries. The service's payload validator rejects this on
        // a dense-built index with invalid_argument -> kBadRequest below;
        // the admission/deadline/coverage handling mirrors kKnnRequest
        // exactly (the response is an ordinary kKnnResponse).
        KnnPayloadRequestMsg msg = decode_knn_payload_request(payload);
        if (refuse_if_draining()) return true;
        const Deadline deadline = request_deadline(msg.deadline_ms);
        admit(conn, id, [&](SearchService& svc) {
          return svc.try_submit_payload_batch(
              msg.queries, msg.k, knn_completion(conn_id, id, deadline));
        });
        return true;
      }

      case Op::kRangeRequest: {
        RangeRequestMsg decoded = decode_range_request(payload);
        if (refuse_if_draining()) return true;
        const Deadline deadline = request_deadline(decoded.deadline_ms);
        const index_t rows = decoded.queries.rows();
        // Range queries do not coalesce; each runs alone on a service
        // worker, under the same admission bound as knn. shared_ptr because
        // std::function needs a copyable target and Matrix is move-only.
        auto msg = std::make_shared<RangeRequestMsg>(std::move(decoded));
        const Task task = [this, conn_id, id, deadline,
                           msg](const Index& index) {
          std::vector<std::uint8_t> frame;
          try {
            // Shed before execution: unlike knn (already coalesced into a
            // batch), the range scan has not started — skipping it frees
            // the worker for requests that can still make their budget.
            if (deadline && std::chrono::steady_clock::now() > *deadline) {
              frame = deadline_error(id);
            } else {
              RangeRequest request{.queries = &msg->queries,
                                   .radius = msg->radius,
                                   .options = {}};
              frame = encode_range_response(
                  id, index.range_search(request).ids, {1, 1});
            }
          } catch (const std::invalid_argument& e) {
            frame = encode_error(id, {ErrorCode::kBadRequest, 0, e.what()});
          } catch (...) {
            frame = internal_error(id);
          }
          post_reply(conn_id, std::move(frame));
        };
        admit(conn, id, [&](SearchService& svc) {
          return svc.try_submit_task(rows, task);
        });
        return true;
      }

      case Op::kInfoRequest:
        decode_info_request(payload);
        send_reply(conn, encode_info_response(id, make_info(conn)));
        return true;

      case Op::kReloadRequest: {
        const std::string path = decode_reload_request(payload);
        if (reloading_.load()) {
          send_overloaded(conn, id, "reload already in progress");
          return true;
        }
        // The previous reload cleared reloading_ as its last step but one,
        // so this join waits at most for its reply post.
        if (reload_thread_.joinable()) reload_thread_.join();
        reloading_.store(true);
        try {
          reload_thread_ = std::thread(
              [this, conn_id, id, path] { reload(conn_id, id, path); });
        } catch (...) {
          reloading_.store(false);
          throw;
        }
        in_flight_ += 1;
        return true;
      }

      default:
        // A response opcode arriving at the server is a peer bug.
        send_error(conn, id, ErrorCode::kBadRequest,
                   "unexpected response opcode");
        return true;
    }
  } catch (const ProtocolError& e) {
    conn.counters.errors += 1;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.protocol_errors += 1;
    }
    send_reply(conn,
               encode_error(id, {ErrorCode::kMalformedFrame, 0, e.what()}));
    return false;  // undecodable payload: close after flush
  } catch (const std::invalid_argument& e) {
    // Well-formed frame, invalid request for this index (dim/k mismatch):
    // the connection survives.
    send_error(conn, id, ErrorCode::kBadRequest, e.what());
    return true;
  } catch (const std::exception& e) {
    send_error(conn, id, ErrorCode::kInternal, e.what());
    return true;
  }
}

template <class Submit>
void RbcServer::admit(Connection& conn, std::uint64_t request_id,
                      Submit submit) {
  Admission admission = submit(*service());
  // Only a reload stops a service while the loop runs, and it publishes
  // the successor first: a snapshot retired between service() and the
  // submit is retried once on the new one.
  if (admission == Admission::kStopped) admission = submit(*service());
  switch (admission) {
    case Admission::kAccepted:
      conn.counters.requests += 1;
      in_flight_ += 1;
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.requests += 1;
      }
      return;
    case Admission::kOverloaded:
      send_overloaded(conn, request_id, "admission queue full");
      return;
    case Admission::kStopped:
      send_error(conn, request_id, ErrorCode::kShuttingDown,
                 "service stopped");
      return;
  }
}

Completion RbcServer::knn_completion(std::uint64_t conn_id,
                                     std::uint64_t request_id,
                                     Deadline deadline) {
  return [this, conn_id, request_id, deadline](
             KnnResult result, std::exception_ptr error) {
    std::vector<std::uint8_t> frame;
    try {
      if (error) std::rethrow_exception(error);
      // Shed at completion: the batch already ran (a worker cannot
      // un-coalesce one member), but a peer past its budget has stopped
      // listening — tell it so instead of shipping a payload it will
      // discard.
      if (deadline && std::chrono::steady_clock::now() > *deadline)
        frame = deadline_error(request_id);
      else
        frame = encode_knn_response(request_id, result, {1, 1});
    } catch (...) {
      frame = internal_error(request_id);
    }
    post_reply(conn_id, std::move(frame));
  };
}

void RbcServer::reload(std::uint64_t conn_id, std::uint64_t request_id,
                       const std::string& path) {
  std::vector<std::uint8_t> frame;
  try {
    std::ifstream is(path, std::ios::binary);
    if (!is)
      throw std::runtime_error("cannot open index file '" + path + "'");
    auto fresh = std::make_shared<SearchService>(rbc::load_index(is),
                                                 service_options_);
    std::shared_ptr<SearchService> old;
    {
      std::lock_guard<std::mutex> lock(service_mutex_);
      old = std::move(service_);
      service_ = std::move(fresh);
    }
    // New arrivals already land on the fresh snapshot; finish whatever the
    // old one accepted (its workers post those replies), then let it die
    // with the last shared_ptr.
    old->drain();
    old->stop();
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.reloads += 1;
    }
    frame = encode_reload_response(request_id);
  } catch (...) {
    frame = internal_error(request_id);
  }
  // Before the reply: a client that reloads again on reading it must not
  // find the previous reload still marked running.
  reloading_.store(false);
  post_reply(conn_id, std::move(frame));
}

InfoMsg RbcServer::make_info(const Connection& conn) const {
  std::shared_ptr<SearchService> svc = service();
  const IndexInfo index_info = svc->index().info();
  const ServiceStats service_stats = svc->stats();
  InfoMsg info;
  info.backend = index_info.backend;
  info.metric = index_info.metric;
  info.size = index_info.size;
  info.dim = index_info.dim;
  info.completed = service_stats.completed;
  info.rejected = service_stats.rejected;
  info.p50_ms = service_stats.latency_p50_ms;
  info.p99_ms = service_stats.latency_p99_ms;
  info.conn_requests = conn.counters.requests;
  info.conn_rejected = conn.counters.rejected;
  info.conn_bytes_in = conn.counters.bytes_in;
  info.conn_bytes_out = conn.counters.bytes_out;
  info.cost_unit = index_info.cost_unit;
  info.metric_cost = service_stats.metric_cost;
  return info;
}

void RbcServer::send_error(Connection& conn, std::uint64_t request_id,
                           ErrorCode code, const std::string& message) {
  conn.counters.errors += 1;
  send_reply(conn, encode_error(request_id, {code, 0, message}));
}

void RbcServer::send_overloaded(Connection& conn, std::uint64_t request_id,
                                const std::string& why) {
  conn.counters.rejected += 1;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.rejected += 1;
  }
  send_reply(conn, encode_error(request_id, {ErrorCode::kOverloaded,
                                             options_.retry_after_ms, why}));
}

std::vector<std::uint8_t> RbcServer::deadline_error(std::uint64_t request_id) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.deadline_exceeded += 1;
  }
  return encode_error(request_id,
                      {ErrorCode::kDeadlineExceeded, 0,
                       "deadline_ms budget expired before the reply"});
}

void RbcServer::send_reply(Connection& conn,
                           std::vector<std::uint8_t> frame) {
  conn.out.push_back(std::move(frame));
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.frames_out += 1;
  }
  flush(conn);
}

void RbcServer::flush(Connection& conn) {
  while (!conn.out.empty()) {
    const std::vector<std::uint8_t>& front = conn.out.front();
    const ssize_t n = send(conn.fd, front.data() + conn.out_off,
                           front.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      conn.write_progress = std::chrono::steady_clock::now();
      conn.counters.bytes_out += static_cast<std::uint64_t>(n);
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.bytes_out += static_cast<std::uint64_t>(n);
      }
      if (conn.out_off == front.size()) {
        conn.out.pop_front();
        conn.out_off = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // Fatal send error (peer reset -> ECONNRESET/EPIPE, ...). Closing here
    // would free the Connection while handle_frame / conn_readable's frame
    // loop still hold it by reference; mark it dead instead and let the
    // top-level call sites destroy it via should_close().
    conn.dead = true;
    conn.out.clear();
    conn.out_off = 0;
    return;
  }
  update_epoll(conn);
}

void RbcServer::conn_writable(Connection& conn) {
  flush(conn);
  if (should_close(conn)) close_conn(conn.id, /*timed_out=*/false);
}

void RbcServer::update_epoll(Connection& conn) {
  const bool want = !conn.out.empty();
  if (want == conn.want_write) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.u64 = conn.id;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0)
    conn.want_write = want;
}

void RbcServer::close_conn(std::uint64_t conn_id, bool timed_out) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  const int fd = it->second->fd;
  conns_.erase(it);
  // Counted before the close: a peer that sees end of stream and then
  // reads stats() must find its connection counted.
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.connections_closed += 1;
    if (timed_out) stats_.timeouts += 1;
    stats_.connections_open = conns_.size();
  }
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  close(fd);
}

void RbcServer::sweep_timeouts() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> victims;
  for (const auto& [id, conn] : conns_) {
    const bool partial_frame = conn->in.size() > conn->in_off;
    if (partial_frame &&
        now - conn->read_progress >
            std::chrono::milliseconds(options_.read_timeout_ms))
      victims.push_back(id);
    else if (!conn->out.empty() &&
             now - conn->write_progress >
                 std::chrono::milliseconds(options_.write_timeout_ms))
      victims.push_back(id);
  }
  for (std::uint64_t id : victims) close_conn(id, /*timed_out=*/true);
}

void RbcServer::drain_replies() {
  std::vector<Reply> batch;
  {
    std::lock_guard<std::mutex> lock(replies_mutex_);
    batch.swap(replies_);
  }
  for (Reply& reply : batch) {
    in_flight_ -= 1;
    auto it = conns_.find(reply.conn_id);
    if (it == conns_.end()) continue;  // connection gone: drop the reply
    Connection& conn = *it->second;
    send_reply(conn, std::move(reply.frame));
    if (should_close(conn)) close_conn(conn.id, /*timed_out=*/false);
  }
}

void RbcServer::post_reply(std::uint64_t conn_id,
                           std::vector<std::uint8_t> frame) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(replies_mutex_);
    // Only the first reply into an empty queue wakes the loop: it drains
    // the whole queue, so the rest of a batch rides the same wakeup.
    wake = replies_.empty();
    replies_.push_back({conn_id, std::move(frame)});
  }
  if (!wake) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_event_fd_, &one, sizeof one);
}

}  // namespace rbc::serve::net
