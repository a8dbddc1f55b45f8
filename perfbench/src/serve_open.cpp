// serve-open: single-row queries over the wire to an in-process RbcServer,
// with the data in cache. A singleton's compute is a minority of its
// latency, so serve (admission, batch forming, handoffs) and net (decode,
// event loop, encode) dominate; kernel changes should barely move it.
//
// One generator thread speaks the wire protocol through the public
// protocol.hpp codecs over two pipelined connections (RbcClient allows one
// request in flight per connection, so it cannot drive an open loop).

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <stdexcept>

#include "bench.hpp"
#include "serve/net/protocol.hpp"
#include "serve/net/server.hpp"

namespace perfbench {

namespace {

namespace net = rbc::serve::net;

constexpr index_t kRows = 200'000;  // 43 MB of rows: in cache
constexpr index_t kPool = 20'000;
constexpr index_t kSample = 200;
// A quarter of the ~7.5-8.5k/s saturation: well below the tail knee, yet
// busy enough that a third of the batches hold more than one row.
constexpr double kOpenRate = 2000.0;  // queries/s
constexpr int kConnections = 2;
constexpr int kInFlight = 256;  // saturation window: batches fill
constexpr int kSubRuns = 3;
constexpr int kSaturationWindows = 5;  // per sub-run
constexpr double kWarmupS = 0.5;
constexpr double kGraceS = 10.0;
// Before an open-loop send the generator blocks in ppoll() until this long
// before the due time, then polls without blocking: a vCPU woken from sleep
// can start late, but a spinning generator takes a vCPU from the server.
constexpr auto kSpinLead = std::chrono::microseconds(200);

/// One request on the wire.
struct Request {
  Clock::time_point due;
  Clock::time_point sent;
  index_t row = 0;
  bool open_loop = false;  // an open-loop arrival past the warm-up
  bool done = false;
};

/// Pipelined wire client over a few non-blocking loopback connections,
/// driven by one thread through pump().
class WireLoad {
 public:
  using OnReply = std::function<void(std::uint64_t id, Clock::time_point at,
                                     const net::FrameHeader& h,
                                     std::span<const std::uint8_t> payload)>;

  WireLoad(std::uint16_t port, int connections) {
    try {
      for (int c = 0; c < connections; ++c) connect_one(port);
    } catch (...) {
      close_all();
      throw;
    }
  }
  ~WireLoad() { close_all(); }
  WireLoad(const WireLoad&) = delete;
  WireLoad& operator=(const WireLoad&) = delete;

  /// Queues one frame on connection (id % connections) and writes what the
  /// socket takes; `sent` is stamped once the frame's last byte is written.
  void send(std::uint64_t id, std::vector<std::uint8_t> frame,
            Clock::time_point& sent) {
    Conn& c = conns_[id % conns_.size()];
    c.queued += frame.size();
    c.out.push_back(std::move(frame));
    c.marks.push_back({c.queued, &sent});
    flush(c);
  }

  /// Waits until `until` for socket events, handling every complete reply.
  /// It blocks in ppoll() until `spin_lead` before `until`, then polls
  /// without blocking for the rest (kSpinLead), so sends leave on time.
  void pump(Clock::time_point until, const OnReply& on_reply,
            Clock::duration spin_lead = Clock::duration::zero()) {
    std::vector<pollfd> fds;
    for (const Conn& c : conns_)
      fds.push_back({c.fd,
                     static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                     0});
    const auto block = std::max(Clock::duration::zero(),
                                until - spin_lead - Clock::now());
    const auto secs = std::chrono::floor<std::chrono::seconds>(block);
    const timespec timeout{
        static_cast<time_t>(secs.count()),
        static_cast<long>(
            std::chrono::nanoseconds(block - secs).count())};
    int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    while (ready == 0 && Clock::now() < until)
      ready = ::poll(fds.data(), fds.size(), 0);
    if (ready <= 0) return;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL))
        throw std::runtime_error("server closed a connection");
      if (fds[i].revents & POLLOUT) flush(conns_[i]);
      if (fds[i].revents & POLLIN) read_replies(conns_[i], on_reply);
    }
  }

 private:
  struct Mark {
    std::uint64_t end = 0;  // stream offset just past the frame
    Clock::time_point* sent = nullptr;
  };
  struct Conn {
    int fd = -1;
    std::deque<std::vector<std::uint8_t>> out;
    std::size_t out_off = 0;
    std::uint64_t queued = 0;   // bytes ever queued
    std::uint64_t written = 0;  // bytes ever written
    std::deque<Mark> marks;
    std::vector<std::uint8_t> in;
    std::size_t in_off = 0;
  };

  void connect_one(std::uint16_t port) {
    conns_.emplace_back();
    Conn& c = conns_.back();
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c.fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
      throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }

  void close_all() {
    for (Conn& c : conns_)
      if (c.fd >= 0) ::close(c.fd);
    conns_.clear();
  }

  static void flush(Conn& c) {
    while (!c.out.empty()) {
      const auto& f = c.out.front();
      const ssize_t n = ::send(c.fd, f.data() + c.out_off, f.size() - c.out_off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EINTR) break;
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
      c.written += static_cast<std::uint64_t>(n);
      c.out_off += static_cast<std::size_t>(n);
      if (c.out_off == f.size()) {
        c.out.pop_front();
        c.out_off = 0;
      }
    }
    const auto now = Clock::now();
    while (!c.marks.empty() && c.marks.front().end <= c.written) {
      *c.marks.front().sent = now;
      c.marks.pop_front();
    }
  }

  static void read_replies(Conn& c, const OnReply& on_reply) {
    std::uint8_t buf[65536];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n == 0) throw std::runtime_error("server closed a connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EINTR) break;
        throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
      }
      c.in.insert(c.in.end(), buf, buf + n);
    }
    const auto now = Clock::now();
    for (;;) {
      const std::span<const std::uint8_t> rest(c.in.data() + c.in_off,
                                               c.in.size() - c.in_off);
      const std::optional<net::FrameHeader> h = net::parse_header(rest);
      if (!h || rest.size() < net::kHeaderSize + h->payload_len) break;
      on_reply(h->request_id, now, *h,
               rest.subspan(net::kHeaderSize, h->payload_len));
      c.in_off += net::kHeaderSize + h->payload_len;
    }
    c.in.erase(c.in.begin(),
               c.in.begin() + static_cast<std::ptrdiff_t>(c.in_off));
    c.in_off = 0;
  }

  std::vector<Conn> conns_;
};

/// Snapshots the service's counters at a phase boundary (traced run).
void count_service(Tracer& tracer, std::uint64_t span,
                   const rbc::serve::ServiceStats& s) {
  tracer.count(span, "serve.completed", static_cast<double>(s.completed));
  tracer.count(span, "serve.batches", static_cast<double>(s.batches));
  tracer.count(span, "serve.rejected", static_cast<double>(s.rejected));
}

/// What one sub-run measured on its own freshly built index and server.
struct SubRun {
  std::vector<double> latency_ms;    // open loop: due time -> reply
  std::vector<double> roundtrip_ms;  // open loop: sent -> reply
  std::map<std::string, double> layer;  // per-layer values of this sub-run
};

}  // namespace

void run_serve_open(const RunConfig& cfg, Result& result, Tracer& tracer,
                    Watchdog& watchdog) {
  const Inputs in = make_inputs(kRows, kPool, cfg.seed);
  const GroundTruth gt =
      ground_truth(in.rows, {}, slice_rows(in.queries, 0, kSample), tracer);
  std::vector<rbc::Matrix<float>> singles;
  for (index_t i = 0; i < kPool; ++i)
    singles.push_back(slice_rows(in.queries, i, 1));
  rbc::KnnResult sample_got(kSample, kK);
  std::vector<bool> sample_seen(kSample, false);

  // Each sub-run builds its own index and server (the set-up being
  // measured) and runs both phases against it; every metric is a median
  // over the sub-runs (or their windows), so neither one unlucky server
  // instance nor one burst of host interference sets the result.
  const double phase_s = cfg.seconds / (2.0 * kSubRuns);
  std::vector<double> setup_s, throughput;
  std::vector<SubRun> subs(kSubRuns);
  std::unique_ptr<net::RbcServer> server;
  for (int sub = 0; sub < kSubRuns; ++sub) {
    SubRun& sr = subs[sub];
    server.reset();
    {
      ScopedSpan setup(tracer, "phase.setup");
      const auto t0 = Clock::now();
      auto index = rbc::make_index("rbc-exact");
      index->build(in.rows);
      const auto t1 = Clock::now();
      server = std::make_unique<net::RbcServer>(std::move(index));
      const auto t2 = Clock::now();
      tracer.add("api.build", t0, t1, setup.id());
      tracer.add("net.server_start", t1, t2, setup.id());
      setup_s.push_back(s_between(t0, t2));
    }
    const std::shared_ptr<rbc::serve::SearchService> service =
        server->service();

    WireLoad load(server->port(), kConnections);
    std::deque<Request> requests;  // indexed by request id; stable addresses
    std::uint64_t outstanding = 0;
    std::vector<Clock::time_point> completions;  // every reply's arrival
    std::uint64_t phase_span = 0;

    auto issue = [&](Clock::time_point due, bool open_loop) {
      const std::uint64_t id = requests.size();
      requests.push_back(
          {due, {}, static_cast<index_t>(id % kPool), open_loop});
      ++outstanding;
      ++watchdog.unfinished;
      ++result.attempted;
      load.send(id, net::encode_knn_request(id, singles[id % kPool], kK),
                requests.back().sent);
    };
    auto on_reply = [&](std::uint64_t id, Clock::time_point at,
                        const net::FrameHeader& h,
                        std::span<const std::uint8_t> payload) {
      if (id >= requests.size() || requests[id].done) {
        result.invalidate("reply for an unknown request id");
        result.wrong = true;
        return;
      }
      Request& r = requests[id];
      r.done = true;
      --outstanding;
      --watchdog.unfinished;
      bool ok = false;
      try {
        if (h.op == net::Op::kKnnResponse) {
          const net::KnnResponseMsg m =
              net::decode_knn_response(payload, h.version);
          const rbc::KnnResult& k = m.result;
          ok = k.ids.rows() == 1 && k.ids.cols() == kK &&
               well_formed(k.ids.row(0), k.dists.row(0), kK, kRows);
          if (ok && r.row < kSample) {
            ok = matches(k.ids.row(0), k.dists.row(0), gt.knn, r.row);
            if (!sample_seen[r.row]) {
              sample_seen[r.row] = true;
              for (index_t j = 0; j < kK; ++j) {
                sample_got.ids.at(r.row, j) = k.ids.at(0, j);
                sample_got.dists.at(r.row, j) = k.dists.at(0, j);
              }
            }
          }
          if (!ok) result.wrong = true;
        } else if (h.op == net::Op::kError) {
          result.invalidate("error frame: " +
                            net::decode_error(payload).message);
        }
      } catch (const std::exception& e) {
        result.invalidate(std::string("bad reply: ") + e.what());
        result.wrong = true;
      }
      if (!ok) ++result.failed;
      completions.push_back(at);
      // The request span starts at the due time, so its self time (minus
      // the round trip) is how late the generator sent it.
      const std::uint64_t req_span = tracer.next_id();
      tracer.add("net.request", r.due, at, phase_span, id, req_span);
      tracer.add("net.roundtrip", r.sent, at, req_span, id);
      if (!r.open_loop) return;
      sr.latency_ms.push_back(ms_between(r.due, at));
      sr.roundtrip_ms.push_back(ms_between(r.sent, at));
    };
    auto drain = [&] {
      const auto give_up = after(Clock::now(), kGraceS);
      while (outstanding > 0 && Clock::now() < give_up)
        load.pump(
            std::min(give_up, Clock::now() + std::chrono::milliseconds(5)),
            on_reply);
      if (outstanding > 0)  // the server never answered: report, do not hang
        watchdog.expire("requests unanswered " +
                        std::to_string(static_cast<int>(kGraceS)) +
                        " s after their phase");
    };

    const rbc::serve::ServiceStats s0 = service->stats();
    const net::NetServerStats n0 = server->stats();

    // Open loop: Poisson arrivals at kOpenRate, latency from the due time.
    {
      ScopedSpan phase(tracer, "phase.open_loop");
      phase_span = phase.id();
      const std::vector<double> arrivals =
          poisson_arrivals(kOpenRate, kWarmupS + phase_s,
                           (cfg.seed ^ 0x6f70656eULL) +
                               static_cast<unsigned>(sub));
      const auto start = Clock::now() + std::chrono::milliseconds(1);
      for (std::size_t i = 0; i < arrivals.size();) {
        const auto now = Clock::now();
        while (i < arrivals.size() && after(start, arrivals[i]) <= now) {
          issue(after(start, arrivals[i]), arrivals[i] >= kWarmupS);
          ++i;
        }
        if (i < arrivals.size())
          load.pump(after(start, arrivals[i]), on_reply, kSpinLead);
      }
      drain();
    }
    Lateness late;
    for (const Request& r : requests)
      if (r.open_loop) late.record(r.due, r.sent);
    const rbc::serve::ServiceStats s1 = service->stats();
    count_service(tracer, phase_span, s1);
    const double open_batches = static_cast<double>(s1.batches - s0.batches);
    sr.layer["loadgen.late_p99_ms"] = late.p99_ms();
    sr.layer["loadgen.late_max_ms"] = late.max_ms();
    // The service's own percentiles cover its last 8,192 completions: this
    // open-loop phase alone.
    sr.layer["serve.latency_p50_ms"] = s1.latency_p50_ms;
    sr.layer["serve.latency_p99_ms"] = s1.latency_p99_ms;
    sr.layer["serve.max_queue_depth"] = static_cast<double>(s1.max_queue_depth);
    sr.layer["serve.singleton_batch_frac"] =
        open_batches > 0.0 ? static_cast<double>(s1.batch_hist[0] -
                                                 s0.batch_hist[0]) /
                                 open_batches
                           : 0.0;

    // Saturation: a fixed window of requests in flight, so batches fill.
    completions.clear();
    {
      ScopedSpan phase(tracer, "phase.saturation");
      phase_span = phase.id();
      const auto measure_from = after(Clock::now(), kWarmupS);
      const auto stop = after(measure_from, phase_s);
      for (int i = 0; i < kInFlight; ++i) issue(Clock::now(), false);
      rbc::serve::ServiceStats warm{};
      bool warmed = false;
      while (Clock::now() < stop) {
        const std::uint64_t before = outstanding;
        load.pump(std::min(stop, Clock::now() + std::chrono::milliseconds(5)),
                  on_reply);
        if (!warmed && Clock::now() >= measure_from) {
          warm = service->stats();
          warmed = true;
        }
        for (std::uint64_t i = outstanding; i < before; ++i)
          issue(Clock::now(), false);
      }
      const rbc::serve::ServiceStats s2 = service->stats();
      count_service(tracer, phase.id(), s2);
      drain();
      const double window_s = phase_s / kSaturationWindows;
      std::vector<double> counts(kSaturationWindows, 0.0);
      for (const Clock::time_point t : completions) {
        const double at = s_between(measure_from, t);
        if (at >= 0.0 && at < phase_s)
          counts[std::min(kSaturationWindows - 1,
                          static_cast<int>(at / window_s))] += 1.0;
      }
      for (const double c : counts) throughput.push_back(c / window_s);
      const double batches = static_cast<double>(s2.batches - warm.batches);
      sr.layer["serve.mean_batch"] =
          batches > 0.0
              ? static_cast<double>(s2.completed - warm.completed) / batches
              : 0.0;
      sr.layer["serve.rejected"] =
          static_cast<double>(s2.rejected - s0.rejected);
    }
    const net::NetServerStats n2 = server->stats();
    tracer.count(phase_span, "net.bytes_in",
                 static_cast<double>(n2.bytes_in));
    tracer.count(phase_span, "net.bytes_out",
                 static_cast<double>(n2.bytes_out));
    const double frames = static_cast<double>(n2.requests - n0.requests);
    sr.layer["net.bytes_in_per_query"] =
        static_cast<double>(n2.bytes_in - n0.bytes_in) / frames;
    sr.layer["net.bytes_out_per_query"] =
        static_cast<double>(n2.bytes_out - n0.bytes_out) / frames;
    sr.layer["net.protocol_errors"] =
        static_cast<double>(n2.protocol_errors - n0.protocol_errors);
    sr.layer["net.roundtrip_p50_ms"] = percentile(sr.roundtrip_ms, 50.0);
    sr.layer["net.roundtrip_p99_ms"] = percentile(sr.roundtrip_ms, 99.0);
  }

  result.set("setup_s", median(setup_s), setup_s.size());
  result.set("throughput_qps", median(throughput), throughput.size());
  std::vector<std::vector<double>> latency_windows;
  for (const SubRun& sr : subs)
    for (std::vector<double>& w : windows_of(sr.latency_ms))
      latency_windows.push_back(std::move(w));
  set_latency(result, "latency_p50_ms", "latency_p99_ms", latency_windows);
  for (const auto& [name, value] : subs.front().layer) {
    std::vector<double> per_sub;
    for (const SubRun& sr : subs) per_sub.push_back(sr.layer.at(name));
    result.set(name, median(per_sub), per_sub.size());
  }
  for (index_t i = 0; i < kSample; ++i)
    if (!sample_seen[i]) result.invalidate("sample query never answered");
  result.set("recall_at_10", recall(sample_got, gt.knn), kSample);

  // In-process probes on the last sub-run's served index.
  const std::shared_ptr<rbc::serve::SearchService> service = server->service();
  const rbc::Index& index = service->index();
  const rbc::IndexInfo info = index.info();
  result.set("index_bytes_per_row", static_cast<double>(info.memory_bytes) /
                                        static_cast<double>(info.size));
  (void)time_against_bruteforce(index, gt, result);
  probe_compute(index, in.queries, tracer, result);
  if (cfg.trace)
    record_rbc_counts(index, slice_rows(in.queries, 0, 1024), result);
  result.set("serve.self_ms_p50",
             result.get("serve.latency_p50_ms") -
                 1e-3 * result.get("api.knn_single_us_p50"));
  result.set("net.self_ms_p50", result.get("net.roundtrip_p50_ms") -
                                    result.get("serve.latency_p50_ms"));

  server->stop();
}

}  // namespace perfbench
