#include "serve/stats.hpp"

#include <algorithm>
#include <bit>

#include "common/counters.hpp"

namespace rbc::serve {

namespace {

/// Percentile over an unsorted sample copy (nearest-rank). Snapshot-time
/// only, so the copy + nth_element cost is off the hot path.
double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

std::size_t hist_bucket(std::size_t rows) {
  if (rows == 0) return 0;
  const std::size_t b = static_cast<std::size_t>(std::bit_width(rows)) - 1;
  return std::min(b, ServiceStats::kHistBuckets - 1);
}

}  // namespace

StatsRecorder::StatsRecorder()
    : dist_evals_start_(counters::total_dist_evals()),
      metric_cost_start_(counters::total_metric_cost()),
      start_(std::chrono::steady_clock::now()) {
  latency_ring_.reserve(kLatencyWindow);
}

void StatsRecorder::record_submitted(std::size_t queries) {
  std::lock_guard<std::mutex> lock(mutex_);
  base_.submitted += queries;
}

void StatsRecorder::record_rejected(std::size_t queries) {
  std::lock_guard<std::mutex> lock(mutex_);
  base_.rejected += queries;
}

void StatsRecorder::record_batch(std::size_t rows,
                                 const std::vector<double>& latencies_ms,
                                 bool failed) {
  std::lock_guard<std::mutex> lock(mutex_);
  base_.batches += 1;
  base_.batch_hist[hist_bucket(rows)] += 1;
  (failed ? base_.failed : base_.completed) += rows;
  for (double ms : latencies_ms) {
    if (latency_ring_.size() < kLatencyWindow) {
      latency_ring_.push_back(ms);
    } else {
      latency_ring_[ring_next_] = ms;
      ring_next_ = (ring_next_ + 1) % kLatencyWindow;
    }
  }
}

void StatsRecorder::set_queue_depth(std::size_t depth) {
  std::lock_guard<std::mutex> lock(mutex_);
  base_.queue_depth = depth;
  base_.max_queue_depth = std::max(base_.max_queue_depth, depth);
}

void StatsRecorder::record_callback_error() {
  std::lock_guard<std::mutex> lock(mutex_);
  base_.callback_errors += 1;
}

ServiceStats StatsRecorder::snapshot() const {
  ServiceStats out;
  std::vector<double> window;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = base_;
    window = latency_ring_;
  }
  out.latency_p50_ms = percentile(window, 0.50);
  out.latency_p99_ms = percentile(window, 0.99);
  out.latency_max_ms =
      window.empty() ? 0.0 : *std::max_element(window.begin(), window.end());
  out.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
  out.throughput_qps = out.wall_seconds > 0.0
                           ? static_cast<double>(out.completed) /
                                 out.wall_seconds
                           : 0.0;
  out.dist_evals = counters::total_dist_evals() - dist_evals_start_;
  out.metric_cost = counters::total_metric_cost() - metric_cost_start_;
  return out;
}

}  // namespace rbc::serve
