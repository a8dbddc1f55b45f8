// Per-service observability for the batched search service.
//
// The serving layer's whole reason to exist is a throughput/latency trade
// (paper §3: BF over a large query block has the structure of matrix-matrix
// multiply; singleton queries waste that structure). These counters make the
// trade visible: how large the coalesced batches actually were, how long
// queries waited end-to-end, and how deep the submission queue ran.
//
// Distance-evaluation work is accounted by the existing machine-independent
// facility in src/common/counters.hpp; a ServiceStats snapshot reports the
// delta since the service started, so benchmarks can put "work per query"
// next to wall-clock numbers exactly like the paper-figure harnesses do.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/types.hpp"

namespace rbc::serve {

/// Immutable snapshot of a SearchService's counters (see
/// SearchService::stats()). All values cover the service's lifetime up to the
/// snapshot moment; latency percentiles are computed over a bounded window of
/// the most recent completions (kLatencyWindow).
struct ServiceStats {
  /// Power-of-two batch-size histogram: bucket b counts dispatched batches
  /// with 2^b <= rows < 2^(b+1) (last bucket is open-ended). Bucket 0 is the
  /// singleton-batch count — a healthy batching service keeps it small.
  static constexpr std::size_t kHistBuckets = 12;  // 1 .. 2048+

  std::uint64_t submitted = 0;   ///< queries accepted by submit/submit_batch
  std::uint64_t completed = 0;   ///< queries answered with results
  std::uint64_t failed = 0;      ///< queries answered with the backend's error
  /// Queries refused by try_submit_* admission control (queue full or
  /// service stopped) — the network server's reject-with-retry-after path.
  /// Rejected queries are never counted as submitted.
  std::uint64_t rejected = 0;
  std::uint64_t batches = 0;     ///< backend requests run (batches and tasks)
  /// Completions and tasks that threw; each was caught on its worker, which
  /// kept serving.
  std::uint64_t callback_errors = 0;
  std::size_t queue_depth = 0;   ///< queries pending or in flight right now
  std::size_t max_queue_depth = 0;  ///< high-water mark of queue_depth

  std::array<std::uint64_t, kHistBuckets> batch_hist{};

  /// End-to-end latency (submit -> batch answered) over the most recent
  /// kLatencyWindow completions, milliseconds. Zero until first completion.
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;

  double wall_seconds = 0.0;     ///< service lifetime so far
  double throughput_qps = 0.0;   ///< completed / wall_seconds
  std::uint64_t dist_evals = 0;  ///< counters::total_dist_evals delta since
                                 ///< service start (process-wide facility:
                                 ///< includes any concurrent non-service
                                 ///< searches in the same process)
  /// counters::total_metric_cost delta since service start — the per-metric
  /// work of payload indexes (DP cells for "edit", relaxed edges for
  /// "graph-sp"; unit in IndexInfo::cost_unit). 0 for dense services, whose
  /// unit of work is the distance evaluation above.
  std::uint64_t metric_cost = 0;

  /// Mean rows per dispatched batch (0 before the first dispatch).
  double mean_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(completed + failed) /
                              static_cast<double>(batches);
  }
};

/// Thread-safe accumulator behind ServiceStats. Writers record at batch
/// granularity (one lock per dispatched batch, not per query), so the hot
/// path cost is negligible next to the backend search itself.
class StatsRecorder {
 public:
  /// Latency percentiles are computed over this many most-recent samples.
  static constexpr std::size_t kLatencyWindow = 8192;

  StatsRecorder();

  void record_submitted(std::size_t queries);
  /// Records queries turned away by admission control (ServiceStats::
  /// rejected).
  void record_rejected(std::size_t queries);
  /// Records one dispatched batch: its row count and, per query, the
  /// end-to-end latency. `failed` marks the whole batch as failed.
  void record_batch(std::size_t rows,
                    const std::vector<double>& latencies_ms, bool failed);
  void set_queue_depth(std::size_t depth);
  void record_callback_error();

  /// Consistent snapshot; percentiles are computed here (snapshot time), not
  /// on the hot path.
  ServiceStats snapshot() const;

 private:
  mutable std::mutex mutex_;
  ServiceStats base_;                  // counters (percentile fields unused)
  std::vector<double> latency_ring_;   // most recent latencies, ms
  std::size_t ring_next_ = 0;
  std::uint64_t dist_evals_start_ = 0;
  std::uint64_t metric_cost_start_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// Per-connection counters kept by the network server (serve/net/server.*)
/// and surfaced through the protocol's INFO op. Plain data, single-writer:
/// only the server's event loop mutates a connection's counters, and INFO
/// responses are encoded on that same thread, so no synchronization is
/// needed.
struct ConnCounters {
  std::uint64_t requests = 0;   ///< data frames admitted to the service
  std::uint64_t rejected = 0;   ///< frames refused by admission control
  std::uint64_t errors = 0;     ///< error frames sent (malformed/bad/internal)
  std::uint64_t bytes_in = 0;   ///< wire bytes read from this connection
  std::uint64_t bytes_out = 0;  ///< wire bytes written to this connection
};

}  // namespace rbc::serve
