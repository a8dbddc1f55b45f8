// Distributed RBC (paper §8): the database sharded over a set of simulated
// workers, served exactly, with the communication and balance quantities the
// paper lists as open questions made directly measurable.
//
// Architecture — the two-stage exact search of §5.2 split at its natural
// seam:
//   * the COORDINATOR keeps only the representatives (O(nr) rows): per query
//     it runs BF(q, R), computes the pruning bounds, and contacts exactly
//     the workers that own members of surviving ownership lists;
//   * each WORKER keeps its shard of the packed ownership lists (sorted by
//     distance-to-representative, so the Claim-2 early exit still applies)
//     and answers with its local top-k, which the coordinator merges.
//
// Sharding policies:
//   * kByRepresentative — whole ownership lists placed greedily
//     (largest-first onto the least-loaded worker): queries touch only the
//     workers owning surviving lists, the paper's §8 proposal;
//   * kRandomPoints — every point to a uniform random worker, the naive
//     baseline: every list is scattered, so nearly every worker is contacted
//     per query.
//
// Exactness contract: identical results to brute force under the
// (distance, id) order, ties included, for every worker count and policy
// (tested). All traffic flows through a metered in-process "network";
// meters are atomic, so concurrent const searches are safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "bruteforce/bf.hpp"
#include "common/matrix.hpp"
#include "distance/metrics.hpp"
#include "rbc/params.hpp"
#include "rbc/rbc_exact.hpp"  // the single-node search this distributes
#include "rbc/stats.hpp"

namespace rbc::dist {

/// Cumulative traffic counters (what a cluster's network monitor reports).
struct TrafficStats {
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
};

/// Atomic cluster-wide traffic meter: every simulated message is noted here,
/// including from concurrent searches.
class NetworkMeter {
 public:
  void note_message(std::uint64_t bytes) noexcept {
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    messages_.fetch_add(1, std::memory_order_relaxed);
  }
  void reset() noexcept {
    bytes_.store(0);
    messages_.store(0);
  }
  TrafficStats total() const noexcept {
    return {bytes_.load(std::memory_order_relaxed),
            messages_.load(std::memory_order_relaxed)};
  }

 private:
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> messages_{0};
};

/// How database points are placed on workers.
enum class Sharding : std::uint8_t {
  /// Whole ownership lists, greedily bin-packed largest-first (paper §8).
  kByRepresentative = 0,
  /// Each point to an independent uniform random worker (naive baseline).
  kRandomPoints = 1,
};

/// Per-search work and contact statistics (the distributed analogue of
/// SearchStats).
struct DistStats {
  std::uint64_t queries = 0;
  /// Coordinator-side distance evaluations against representatives.
  std::uint64_t rep_dist_evals = 0;
  /// Worker-side distance evaluations against list members (sum over
  /// workers).
  std::uint64_t list_dist_evals = 0;
  /// Total worker contacts (one request + one response each).
  std::uint64_t workers_contacted = 0;

  double workers_contacted_per_query() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(workers_contacted) /
                              static_cast<double>(queries);
  }

  void merge(const DistStats& other) {
    queries += other.queries;
    rep_dist_evals += other.rep_dist_evals;
    list_dist_evals += other.list_dist_evals;
    workers_contacted += other.workers_contacted;
  }
};

/// A coordinator plus W simulated workers serving exact k-NN over a sharded
/// database. Build ships every point to its worker (metered); search
/// contacts only the workers owning surviving lists. Not thread-safe
/// against concurrent build; concurrent const searches are safe.
class DistributedRbc {
 public:
  DistributedRbc() = default;

  /// Shards X over `workers` workers. Representatives, ownership lists and
  /// pruning bounds match RbcExactIndex built with the same params (same
  /// sampling; an explicit num_reps, since for 0 the exact index may draw
  /// 2 ceil(sqrt(n))), so the single-worker configuration degenerates to
  /// the single-node exact search.
  void build(const Matrix<float>& X, index_t workers, RbcParams params = {},
             Sharding sharding = Sharding::kByRepresentative);

  /// Exact k-NN for a batch of queries; parallel across queries. When
  /// `stats` is non-null, aggregated work/contact statistics are added.
  KnnResult search(const Matrix<float>& Q, index_t k,
                   DistStats* stats = nullptr) const;

  index_t num_workers() const {
    return static_cast<index_t>(workers_.size());
  }
  index_t num_reps() const { return reps_.rows(); }
  index_t dim() const { return dim_; }
  index_t size() const { return n_; }

  /// Points stored on worker w.
  index_t worker_points(index_t w) const {
    return static_cast<index_t>(workers_[w].packed_ids.size());
  }

  /// Cumulative list-member distance evaluations performed by worker w
  /// (reset at build).
  std::uint64_t worker_list_evals(index_t w) const {
    return workers_[w].list_evals->load(std::memory_order_relaxed);
  }

  /// The cluster's traffic meter (ingest + query traffic).
  const NetworkMeter& network() const { return network_; }

 private:
  /// One worker's shard: a CSR over (representative -> its local member
  /// portion), portions sorted by (distance to rep, id) like the
  /// single-node packed layout.
  struct Worker {
    std::vector<index_t> offsets;      // nr + 1
    std::vector<index_t> packed_ids;   // original db ids
    std::vector<dist_t> packed_dist;   // rho(x, owner rep)
    Matrix<float> packed;              // member rows, same order
    // Cumulative work meter; a pointer so Worker stays movable.
    std::unique_ptr<std::atomic<std::uint64_t>> list_evals;
  };

  /// Scans worker w's portions of the surviving lists for one query,
  /// merging into `out`. Returns distances computed.
  std::uint64_t scan_worker(const Worker& worker, const float* q,
                            const std::vector<index_t>& survivors,
                            const std::vector<dist_t>& rep_dists,
                            dist_t rep_bound, dist_t gamma1,
                            TopK& out) const;

  Euclidean metric_{};
  RbcParams params_{};
  Sharding sharding_ = Sharding::kByRepresentative;
  index_t n_ = 0;
  index_t dim_ = 0;
  PruneMargin margin_;  // the single-node index's, for every prune

  Matrix<float> reps_;            // nr x d coordinator-resident rows
  std::vector<index_t> rep_ids_;  // original ids of representatives
  std::vector<dist_t> psi_;       // list radii (coordinator-resident)
  std::vector<Worker> workers_;

  mutable NetworkMeter network_;
};

}  // namespace rbc::dist
