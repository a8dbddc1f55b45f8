#include "serve/net/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace rbc::serve::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Sentinel for "no deadline": poll() blocks indefinitely.
constexpr Clock::time_point kNoDeadline = Clock::time_point::min();

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("rbc::net::RbcClient: " + what + " (" +
                           std::strerror(errno) + ")");
}

/// Remaining milliseconds until `deadline` as a poll() timeout argument:
/// -1 for unbounded, clamped at 0 once past due.
int poll_timeout(Clock::time_point deadline) {
  if (deadline == kNoDeadline) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return static_cast<int>(std::max<std::int64_t>(0, left.count()));
}

}  // namespace

RbcClient::RbcClient(const std::string& host, std::uint16_t port,
                     ClientOptions options, std::uint32_t budget_ms)
    : options_(options) {
  // Non-blocking from birth: connect() below returns EINPROGRESS and the
  // poll bounds the handshake by the call budget, so a blackholed endpoint
  // (filtered port, dead host) fails fast instead of riding out the
  // kernel's minutes-long SYN retry schedule. The socket then stays
  // non-blocking; all later waits go through poll() with per-call budgets.
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd_ < 0) fail("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd_);
    fd_ = -1;
    throw std::runtime_error("rbc::net::RbcClient: bad address '" + host +
                             "' (numeric IPv4 expected)");
  }

  const std::string where = host + ":" + std::to_string(port);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 &&
      errno != EINPROGRESS) {
    const int saved = errno;
    close(fd_);
    fd_ = -1;
    errno = saved;
    fail("connect to " + where);
  }
  try {
    wait_ready(POLLOUT, call_deadline(budget_ms),
               ("connect to " + where).c_str());
  } catch (...) {
    close(fd_);
    fd_ = -1;
    throw;
  }
  int soerr = 0;
  socklen_t len = sizeof soerr;
  if (getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &len) < 0 || soerr != 0) {
    close(fd_);
    fd_ = -1;
    errno = soerr != 0 ? soerr : errno;
    fail("connect to " + where);
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

RbcClient::~RbcClient() {
  if (fd_ >= 0) close(fd_);
}

RbcClient::RbcClient(RbcClient&& other) noexcept
    : options_(other.options_), fd_(other.fd_),
      next_request_id_(other.next_request_id_), in_(std::move(other.in_)) {
  other.fd_ = -1;
}

Clock::time_point RbcClient::call_deadline(std::uint32_t budget_ms) const {
  std::uint32_t ms = options_.timeout_ms;
  if (budget_ms > 0) ms = ms > 0 ? std::min(ms, budget_ms) : budget_ms;
  if (ms == 0) return kNoDeadline;
  return Clock::now() + std::chrono::milliseconds(ms);
}

void RbcClient::wait_ready(short events, Clock::time_point deadline,
                           const char* what) {
  for (;;) {
    pollfd pfd{fd_, events, 0};
    const int n = poll(&pfd, 1, poll_timeout(deadline));
    if (n > 0) {
      // POLLERR/POLLHUP fall through: the pending recv/send/getsockopt
      // reports the specific error.
      return;
    }
    if (n == 0)
      throw std::runtime_error(std::string("rbc::net::RbcClient: ") + what +
                               " timed out");
    if (errno == EINTR) continue;
    fail(what);
  }
}

void RbcClient::send_all(std::span<const std::uint8_t> bytes,
                         Clock::time_point deadline) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      wait_ready(POLLOUT, deadline, "send");
      continue;
    }
    fail("send");
  }
}

void RbcClient::recv_some(Clock::time_point deadline) {
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    const ssize_t n = recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      in_.insert(in_.end(), chunk, chunk + n);
      return;
    }
    if (n == 0)
      throw std::runtime_error(
          "rbc::net::RbcClient: server closed the connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      wait_ready(POLLIN, deadline, "recv");
      continue;
    }
    fail("recv");
  }
}

std::vector<std::uint8_t> RbcClient::roundtrip(
    std::span<const std::uint8_t> frame, std::uint64_t request_id,
    Op expected_op, std::uint32_t budget_ms) {
  const Clock::time_point deadline = call_deadline(budget_ms);
  send_all(frame, deadline);
  for (;;) {
    const auto header = parse_header(in_, options_.max_payload);
    if (!header || in_.size() < kHeaderSize + header->payload_len) {
      recv_some(deadline);
      continue;
    }
    const auto end =
        in_.begin() +
        static_cast<std::ptrdiff_t>(kHeaderSize + header->payload_len);
    std::vector<std::uint8_t> payload(in_.begin() + kHeaderSize, end);
    in_.erase(in_.begin(), end);
    // A synchronous client never has more than one request outstanding, so
    // a mismatched id means a server bug — fail loudly rather than hang.
    if (header->request_id != request_id)
      throw ProtocolError("rbc::net::RbcClient: response id " +
                          std::to_string(header->request_id) +
                          " does not match request id " +
                          std::to_string(request_id));
    if (header->op == Op::kError) {
      const ErrorMsg error = decode_error(payload);
      throw RemoteError(error.code, error.retry_after_ms, error.message);
    }
    if (header->op != expected_op)
      throw ProtocolError("rbc::net::RbcClient: unexpected response opcode " +
                          std::to_string(static_cast<int>(header->op)));
    return payload;
  }
}

KnnResult RbcClient::knn(const Matrix<float>& queries, index_t k,
                         std::uint32_t deadline_ms) {
  const std::uint64_t id = next_request_id_++;
  const std::vector<std::uint8_t> payload =
      roundtrip(encode_knn_request(id, queries, k, deadline_ms), id,
                Op::kKnnResponse, deadline_ms);
  return std::move(decode_knn_response(payload).result);
}

KnnResult RbcClient::knn_payload(const std::vector<std::string>& queries,
                                 index_t k, std::uint32_t deadline_ms) {
  const std::uint64_t id = next_request_id_++;
  const std::vector<std::uint8_t> payload =
      roundtrip(encode_knn_payload_request(id, queries, k, deadline_ms), id,
                Op::kKnnResponse, deadline_ms);
  return std::move(decode_knn_response(payload).result);
}

std::vector<std::vector<index_t>> RbcClient::range(
    const Matrix<float>& queries, dist_t radius, std::uint32_t deadline_ms) {
  const std::uint64_t id = next_request_id_++;
  const std::vector<std::uint8_t> payload =
      roundtrip(encode_range_request(id, queries, radius, deadline_ms), id,
                Op::kRangeResponse, deadline_ms);
  return std::move(decode_range_response(payload).ids);
}

InfoMsg RbcClient::info(std::uint32_t budget_ms) {
  const std::uint64_t id = next_request_id_++;
  return decode_info_response(
      roundtrip(encode_info_request(id), id, Op::kInfoResponse, budget_ms));
}

void RbcClient::reload(const std::string& path) {
  const std::uint64_t id = next_request_id_++;
  roundtrip(encode_reload_request(id, path), id, Op::kReloadResponse, 0);
}

}  // namespace rbc::serve::net
