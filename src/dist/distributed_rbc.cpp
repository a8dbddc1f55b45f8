#include "dist/distributed_rbc.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

#include "bruteforce/kernel_scan.hpp"
#include "bruteforce/topk.hpp"
#include "common/counters.hpp"
#include "common/rng.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/runtime.hpp"
#include "rbc/sampling.hpp"

namespace rbc::dist {

namespace {

/// Simulated wire cost of shipping one point at ingest: the row payload plus
/// its id and its distance-to-representative (which the worker needs for the
/// sorted-list early exit).
std::uint64_t point_wire_bytes(index_t dim) {
  return static_cast<std::uint64_t>(dim) * sizeof(float) + sizeof(index_t) +
         sizeof(dist_t);
}

/// Fixed per-message envelope (routing + framing).
constexpr std::uint64_t kMessageHeaderBytes = 16;

}  // namespace

void DistributedRbc::build(const Matrix<float>& X, index_t workers,
                           RbcParams params, Sharding sharding) {
  assert(workers >= 1);
  params_ = params;
  sharding_ = sharding;
  n_ = X.rows();
  dim_ = X.cols();
  margin_ = PruneMargin(dim_);
  network_.reset();

  // Coordinator state: the same representative draw and ownership
  // assignment as RbcExactIndex with these params (same sampling, ties to
  // the lowest rep index), so a one-worker cluster degenerates to the
  // single-node exact search. num_reps == 0 draws ceil(sqrt(n)) here;
  // RbcExactIndex may draw twice that (params.hpp).
  rep_ids_ = choose_representatives(n_, params);
  const index_t nr = static_cast<index_t>(rep_ids_.size());
  reps_ = Matrix<float>(nr, dim_);
  for (index_t r = 0; r < nr; ++r) reps_.copy_row_from(X, rep_ids_[r], r);

  std::vector<index_t> owner(n_);
  std::vector<dist_t> owner_dist(n_);
  parallel_for(0, n_, [&](index_t x) {
    const float* px = X.row(x);
    dist_t best = kInfDist;
    index_t best_rep = 0;
    for (index_t r = 0; r < nr; ++r) {
      const dist_t d = metric_(px, reps_.row(r), dim_);
      if (d < best) {
        best = d;
        best_rep = r;
      }
    }
    owner[x] = best_rep;
    owner_dist[x] = best;
  });
  counters::add_dist_evals(static_cast<std::uint64_t>(n_) * nr);

  // Ownership lists sorted by (distance to rep, id) — the single-node
  // packed order, preserved inside every shard portion.
  std::vector<std::vector<std::pair<dist_t, index_t>>> lists(nr);
  for (index_t x = 0; x < n_; ++x)
    lists[owner[x]].emplace_back(owner_dist[x], x);
  psi_.assign(nr, dist_t{0});
  for (index_t r = 0; r < nr; ++r) {
    std::sort(lists[r].begin(), lists[r].end());
    if (!lists[r].empty()) psi_[r] = lists[r].back().first;
  }

  // Placement policy: point -> worker.
  std::vector<index_t> worker_of_point(n_);
  if (sharding == Sharding::kByRepresentative) {
    // Greedy largest-first bin packing of whole lists onto the least-loaded
    // worker: keeps per-worker point counts within a small factor unless a
    // single list dominates the database.
    std::vector<index_t> by_size(nr);
    std::iota(by_size.begin(), by_size.end(), index_t{0});
    std::sort(by_size.begin(), by_size.end(), [&](index_t a, index_t b) {
      return lists[a].size() != lists[b].size()
                 ? lists[a].size() > lists[b].size()
                 : a < b;
    });
    std::vector<std::uint64_t> load(workers, 0);
    for (const index_t r : by_size) {
      const index_t w = static_cast<index_t>(
          std::min_element(load.begin(), load.end()) - load.begin());
      load[w] += lists[r].size();
      for (const auto& [d, id] : lists[r]) worker_of_point[id] = w;
    }
  } else {
    // Uniform random placement — scatters every list over all workers.
    Rng rng(params.seed ^ 0xd157'5eedULL);
    for (index_t x = 0; x < n_; ++x)
      worker_of_point[x] = rng.uniform_index(workers);
  }

  // Materialize the shards: per worker a CSR over (rep -> local portion),
  // portions inheriting the sorted order. Ship everything (metered).
  workers_.clear();
  workers_.resize(workers);
  for (index_t w = 0; w < workers; ++w) {
    Worker& worker = workers_[w];
    worker.offsets.assign(nr + 1, 0);
    worker.list_evals = std::make_unique<std::atomic<std::uint64_t>>(0);
  }
  for (index_t r = 0; r < nr; ++r)
    for (const auto& [d, id] : lists[r])
      ++workers_[worker_of_point[id]].offsets[r + 1];
  for (index_t w = 0; w < workers; ++w) {
    Worker& worker = workers_[w];
    for (index_t r = 0; r < nr; ++r)
      worker.offsets[r + 1] += worker.offsets[r];
    const index_t count = worker.offsets[nr];
    worker.packed_ids.resize(count);
    worker.packed_dist.resize(count);
    worker.packed = Matrix<float>(count, dim_);
  }
  {
    std::vector<std::vector<index_t>> cursor(workers);
    for (index_t w = 0; w < workers; ++w)
      cursor[w].assign(workers_[w].offsets.begin(),
                       workers_[w].offsets.end() - 1);
    for (index_t r = 0; r < nr; ++r) {
      for (const auto& [d, id] : lists[r]) {
        const index_t w = worker_of_point[id];
        Worker& worker = workers_[w];
        const index_t slot = cursor[w][r]++;
        worker.packed_ids[slot] = id;
        worker.packed_dist[slot] = d;
        worker.packed.copy_row_from(X, id, slot);
      }
    }
  }
  for (index_t w = 0; w < workers; ++w)
    network_.note_message(kMessageHeaderBytes +
                          worker_points(w) * point_wire_bytes(dim_));
}

std::uint64_t DistributedRbc::scan_worker(
    const Worker& worker, const float* q, const std::vector<index_t>& survivors,
    const std::vector<dist_t>& rep_dists, dist_t rep_bound, dist_t gamma1,
    TopK& out) const {
  std::uint64_t computed = 0;
  for (const index_t r : survivors) {
    const index_t lo = worker.offsets[r], hi = worker.offsets[r + 1];
    if (lo == hi) continue;
    const dist_t dr = rep_dists[r];
    // Workers cannot see the coordinator's (or each other's) tightening
    // bound; min(rep_bound, local worst) is still an upper bound on the
    // true k-th NN distance, so every strict prune below is exact-safe.
    // Each clears the single-node index's rounding margin.
    const dist_t list_bound = std::min(rep_bound, out.worst());
    if (params_.use_overlap_rule &&
        margin_.overlap_prunes(dr, list_bound, psi_[r]))
      continue;
    if (params_.use_lemma_rule && margin_.lemma_prunes(dr, list_bound, gamma1))
      continue;
    if (hi - lo >= RbcExactIndex<>::kKernelMinSegment) {
      // Kernelized portion scan, same pattern as the single-node index:
      // freeze the early-exit / annulus window [dr - w, dr + w] from the
      // entry bound (binary search over the sorted portion distances), run
      // the window through the dispatched row-block kernel, re-measure
      // prefilter survivors with the scalar metric. Superset of the
      // adaptive scan => identical results.
      const dist_t w = margin_.widen(list_bound, dr, psi_[r]);
      const dist_t* pd = worker.packed_dist.data();
      index_t seg_hi = hi, seg_lo = lo;
      if (params_.use_early_exit)
        seg_hi = static_cast<index_t>(
            std::upper_bound(pd + lo, pd + hi, dr + w) - pd);
      if (params_.use_annulus_bound)
        seg_lo = static_cast<index_t>(
            std::lower_bound(pd + lo, pd + seg_hi, dr - w) - pd);
      kernel_scan_rows(
          q, worker.packed, seg_lo, seg_hi, metric_, out,
          [&worker](index_t p) { return worker.packed_ids[p]; });
      computed += seg_hi - seg_lo;
      continue;
    }
    for (index_t p = lo; p < hi; ++p) {
      const dist_t w =
          margin_.widen(std::min(rep_bound, out.worst()), dr, psi_[r]);
      // Claim-2 early exit: portions keep the sorted-by-rho(x,r) order.
      if (params_.use_early_exit && worker.packed_dist[p] > dr + w) break;
      if (params_.use_annulus_bound && worker.packed_dist[p] < dr - w)
        continue;
      out.push(metric_(q, worker.packed.row(p), dim_), worker.packed_ids[p]);
      ++computed;
    }
  }
  worker.list_evals->fetch_add(computed, std::memory_order_relaxed);
  counters::add_dist_evals(computed);
  return computed;
}

KnnResult DistributedRbc::search(const Matrix<float>& Q, index_t k,
                                 DistStats* stats) const {
  assert(Q.cols() == dim_);
  const index_t nr = reps_.rows();
  const index_t nw = num_workers();
  KnnResult result(Q.rows(), k);

  const int nt = max_threads();
  std::vector<DistStats> tstats(static_cast<std::size_t>(nt));
  struct Scratch {
    std::vector<dist_t> rep_dists;
    std::vector<index_t> survivors;
  };
  std::vector<Scratch> scratch(static_cast<std::size_t>(nt));

  parallel_for_dynamic(0, Q.rows(), [&](index_t qi) {
    const auto tid = static_cast<std::size_t>(thread_id());
    Scratch& s = scratch[tid];
    DistStats& local = tstats[tid];
    const float* q = Q.row(qi);

    // ---- coordinator stage 1: BF(q, R) ------------------------------
    s.rep_dists.resize(nr);
    TopK rep_top(k);
    dist_t gamma1 = kInfDist;
    for (index_t r = 0; r < nr; ++r) {
      const dist_t d = metric_(q, reps_.row(r), dim_);
      s.rep_dists[r] = d;
      rep_top.push(d, r);
      if (d < gamma1) gamma1 = d;
    }
    counters::add_dist_evals(nr);
    const dist_t rep_bound = rep_top.worst();
    local.queries += 1;
    local.rep_dist_evals += nr;

    // ---- coordinator stage 2: prune representatives -----------------
    s.survivors.clear();
    for (index_t r = 0; r < nr; ++r) {
      const dist_t dr = s.rep_dists[r];
      if (params_.use_overlap_rule &&
          margin_.overlap_prunes(dr, rep_bound, psi_[r]))
        continue;
      if (params_.use_lemma_rule && margin_.lemma_prunes(dr, rep_bound, gamma1))
        continue;
      s.survivors.push_back(r);
    }
    // Nearest representatives first, so every worker's local bound
    // tightens as early as possible.
    std::sort(s.survivors.begin(), s.survivors.end(),
              [&](index_t a, index_t b) {
                const dist_t da = s.rep_dists[a];
                const dist_t db = s.rep_dists[b];
                return da < db || (da == db && a < b);
              });

    // ---- stage 3: contact the workers owning surviving lists --------
    TopK merged(k);
    for (index_t w = 0; w < nw; ++w) {
      const Worker& worker = workers_[w];
      bool owns_survivor = false;
      for (const index_t r : s.survivors)
        if (worker.offsets[r + 1] > worker.offsets[r]) {
          owns_survivor = true;
          break;
        }
      if (!owns_survivor) continue;

      // Request: the query row plus the surviving (rep, distance) pairs.
      network_.note_message(
          kMessageHeaderBytes +
          static_cast<std::uint64_t>(dim_) * sizeof(float) +
          s.survivors.size() * (sizeof(index_t) + sizeof(dist_t)));
      TopK local_top(k);
      local.list_dist_evals += scan_worker(worker, q, s.survivors,
                                           s.rep_dists, rep_bound, gamma1,
                                           local_top);
      // Response: the worker's local top-k.
      network_.note_message(kMessageHeaderBytes +
                            static_cast<std::uint64_t>(k) *
                                (sizeof(dist_t) + sizeof(index_t)));
      merged.merge_from(local_top);
      local.workers_contacted += 1;
    }
    merged.extract_sorted(result.dists.row(qi), result.ids.row(qi));
  });

  if (stats != nullptr)
    for (const DistStats& s : tstats) stats->merge(s);
  return result;
}

}  // namespace rbc::dist
