// NetRouter: fault-tolerant multi-process scatter/gather over shard-owner
// RbcServers.
//
// The in-process "sharded:<inner>" composite (shard/sharded_index.hpp) and
// the simulated DistributedRbc (dist/distributed_rbc.hpp) both answer the
// paper's §8 scale-out question inside one address space. NetRouter is the
// real thing: each shard of the database lives in its own server *process*
// (an RbcServer over a per-shard index), and the router fans each query
// block out over the wire, then merges the shards' top-k with the exact
// k-way merge of shard/merge.hpp — the very code path the in-process
// composite uses, so full-coverage answers are bit-identical to
// "sharded:<inner>" over the same partition, ties included (tested across
// real processes in tests/test_net_server.cpp).
//
// Topology (R replicas per shard, any one of which can answer for it):
//
//    clients ──> NetRouter ──scatter──> shard 0: replica A | replica B
//                   │       ──scatter──> shard 1: replica A | replica B
//                   │            ...
//                   └──gather: merge_shard_topk under global (distance, id)
//
// Fault tolerance (the full taxonomy and state machines are documented in
// docs/ARCHITECTURE.md "Fault tolerance"):
//   * Failover: a transport failure against one replica (connect refused,
//     reset, timeout, malformed frame) destroys that connection and moves
//     to the shard's next healthy replica; reconnection is attempted on
//     later use, and a reconnected replica's INFO is re-validated against
//     the topology before it serves again.
//   * Circuit breaker: per-endpoint; breaker_failures consecutive transport
//     failures open it for an exponentially growing window (deterministic
//     jitter, no shared randomness), after which a single half-open probe
//     either closes it or re-opens a doubled window. Open endpoints are
//     skipped on the hot path.
//   * Deadlines: knn/range take a deadline_ms budget; every attempt's
//     timeout is the *remaining* budget (propagated on the wire so servers
//     shed work past it), a reconnect's connect and INFO included, and
//     failover stops when the budget does.
//   * Graceful degradation (opt-in allow_partial): when every replica of a
//     shard is down within the deadline, knn_partial/range_partial return
//     the exact merge over the covered shards plus a per-shard coverage
//     report instead of throwing. The strict knn()/range() always throw on
//     uncovered shards — bit-identical answers stay the default contract.
//
// The global-id mapping is derived, not transmitted: shard s's servers must
// hold exactly the contiguous rows shard::partition_rows(total, S) assigns
// to s (ascending), which the router validates against each replica's INFO
// at connect time (sizes and dims must line up). Overload rejections from a
// shard are retried with the server's retry_after_ms hint.
//
// Not thread-safe: a router owns one connection per replica, and RbcClient
// is single-threaded. Run one router per routing thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/net/client.hpp"
#include "shard/sharded_index.hpp"  // partition_rows

namespace rbc::dist {

struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct RouterOptions {
  /// Retries per shard request on kOverloaded before giving up (each sleeps
  /// the server's retry_after_ms hint first, capped by the deadline).
  int max_retries = 8;
  /// Transport failovers per shard request before giving up — the bound
  /// that keeps a no-deadline request from rotating replicas forever.
  int max_failovers = 8;
  /// Consecutive transport failures that open an endpoint's breaker.
  int breaker_failures = 3;
  /// First open window; doubles per consecutive open up to breaker_max_ms,
  /// plus a deterministic per-endpoint jitter of up to 25%.
  std::uint32_t breaker_base_ms = 50;
  std::uint32_t breaker_max_ms = 2'000;
  /// Permit knn_partial/range_partial to answer from surviving shards when
  /// a shard has no live replica (see class comment). Off by default: the
  /// strict bit-identical contract stays opt-out-only.
  bool allow_partial = false;
  serve::net::ClientOptions client;
};

/// Wire-level counters of one router (lifetime totals).
struct RouterStats {
  std::uint64_t requests = 0;   ///< shard attempts sent (incl. retries)
  std::uint64_t retries = 0;    ///< kOverloaded answers that were retried
  std::uint64_t queries = 0;    ///< query rows answered
  std::uint64_t transport_errors = 0;  ///< failed attempts (connect/reset/
                                       ///< timeout/malformed frame)
  std::uint64_t failovers = 0;    ///< moved to another replica mid-request
  std::uint64_t reconnects = 0;   ///< connections re-established + revalidated
  std::uint64_t breaker_opens = 0;      ///< endpoint breakers tripped open
  std::uint64_t breaker_probes = 0;     ///< half-open probe attempts
  std::uint64_t deadline_exceeded = 0;  ///< shard requests abandoned on budget
  std::uint64_t partial_answers = 0;    ///< answers missing >= 1 shard
};

/// Why (and whether) shard s contributed to a partial answer.
struct ShardCoverage {
  bool covered = true;
  std::string error;  ///< last failure when !covered
};

struct PartialKnnResult {
  KnnResult result{0, 0};
  std::vector<ShardCoverage> shards;  ///< one entry per shard

  bool complete() const {
    for (const ShardCoverage& s : shards)
      if (!s.covered) return false;
    return true;
  }
  serve::net::Coverage coverage() const {
    serve::net::Coverage c{0, static_cast<std::uint32_t>(shards.size())};
    for (const ShardCoverage& s : shards) c.covered += s.covered ? 1 : 0;
    return c;
  }
};

struct PartialRangeResult {
  std::vector<std::vector<index_t>> ids;
  std::vector<ShardCoverage> shards;

  bool complete() const {
    for (const ShardCoverage& s : shards)
      if (!s.covered) return false;
    return true;
  }
};

class NetRouter {
 public:
  /// Connects to every shard's replicas and validates the topology (same
  /// dim and metric everywhere; shard sizes must match the derived
  /// partition). Every shard needs at least one live replica at
  /// construction; dead replicas start with their breaker open and are
  /// probed on use. Throws std::runtime_error on validation failure or a
  /// fully-dead shard.
  explicit NetRouter(const std::vector<std::vector<Endpoint>>& shard_replicas,
                     RouterOptions options = {});

  /// Single-replica convenience: one endpoint per shard.
  explicit NetRouter(const std::vector<Endpoint>& shards,
                     RouterOptions options = {});

  /// Exact k nearest neighbors of each query row over the union of all
  /// shards, ascending (distance, id) — bit-identical to an in-process
  /// sharded:<inner> over the same partition. `deadline_ms` > 0 bounds the
  /// whole call and rides the wire (0 = unbounded). Throws
  /// std::invalid_argument on a malformed request (wrong dim, k == 0 or >
  /// total size) and RemoteError/std::runtime_error when any shard stays
  /// unreachable (regardless of allow_partial — use knn_partial to
  /// degrade).
  KnnResult knn(const Matrix<float>& queries, index_t k,
                std::uint32_t deadline_ms = 0);

  /// All global ids within `radius` of each query, ascending by id.
  std::vector<std::vector<index_t>> range(const Matrix<float>& queries,
                                          dist_t radius,
                                          std::uint32_t deadline_ms = 0);

  /// Degraded variants (require options.allow_partial, else
  /// std::invalid_argument): shards whose every replica failed within the
  /// deadline are reported uncovered instead of throwing, and the merge
  /// runs over the covered shards — exact on what it covers.
  PartialKnnResult knn_partial(const Matrix<float>& queries, index_t k,
                               std::uint32_t deadline_ms = 0);
  PartialRangeResult range_partial(const Matrix<float>& queries, dist_t radius,
                                   std::uint32_t deadline_ms = 0);

  index_t num_shards() const { return static_cast<index_t>(shards_.size()); }
  index_t size() const { return size_; }
  index_t dim() const { return dim_; }
  const std::string& metric() const { return metric_; }
  const std::string& backend() const { return backend_; }
  const RouterStats& stats() const { return stats_; }

 private:
  using Clock = std::chrono::steady_clock;

  // One endpoint of one shard, with its connection and breaker state. All
  // mutation happens on the shard's scatter thread (one shard's replicas
  // are never touched by two threads at once) or between queries.
  struct Replica {
    Endpoint endpoint;
    std::unique_ptr<serve::net::RbcClient> client;  // null = disconnected
    bool validated = false;     // INFO checked against the topology
    int consecutive_failures = 0;
    int open_count = 0;         // consecutive breaker opens (backoff expo)
    Clock::time_point open_until{};  // breaker open before this instant
  };

  struct Shard {
    std::vector<Replica> replicas;
    std::size_t preferred = 0;  // last replica that answered (sticky)
  };

  // Scatter/gather over all shards with per-shard failover; the core of
  // both the strict (`partial` false: uncovered shards throw) and the
  // degraded (`partial` true: uncovered shards are reported) paths.
  PartialKnnResult scatter_knn(const Matrix<float>& queries, index_t k,
                               std::uint32_t deadline_ms, bool partial);
  PartialRangeResult scatter_range(const Matrix<float>& queries, dist_t radius,
                                   std::uint32_t deadline_ms, bool partial);

  // Runs `attempt(client, remaining_ms)` against shard s with overload
  // retries, replica failover, breaker bookkeeping, and the deadline
  // budget. Defined in the .cpp (used only there).
  template <class Fn>
  auto with_failover(std::size_t s, std::optional<Clock::time_point> deadline,
                     RouterStats& local, Fn&& attempt);

  // Connects (or reuses) replica r of shard s and re-validates its INFO
  // after a reconnect, both within `budget_ms` (0 = the client timeout
  // alone). Throws std::runtime_error on failure.
  serve::net::RbcClient& ensure_connected(std::size_t s, Replica& replica,
                                          RouterStats& local,
                                          std::uint32_t budget_ms);
  void record_failure(std::size_t s, Replica& replica, RouterStats& local);
  void record_success(Replica& replica);
  // Deterministic jitter for the breaker's open window: a hash of the
  // endpoint and its open count, no global RNG (CP.3 stance of
  // common/rng.hpp).
  std::uint32_t open_window_ms(const Replica& replica) const;

  void validate_topology(const std::vector<serve::net::InfoMsg>& infos);

  RouterOptions options_;
  std::vector<Shard> shards_;
  std::vector<std::vector<index_t>> global_ids_;  // per shard, ascending
  index_t size_ = 0;
  index_t dim_ = 0;
  std::string metric_;
  std::string backend_;  // inner backend name (from the shards' INFO)
  RouterStats stats_;
};

}  // namespace rbc::dist
