// Random Ball Cover — exact search variant (paper §4, §5.2, §6.1).
//
// Build: every database point joins its nearest representative (paper §4:
// BF(X, R)); ownership lists partition the database, each list stored sorted
// by distance to its representative, with radius psi_r = max_{x in L_r}
// rho(x, r). From kNestedOwnersMinReps representatives on, the owners can
// come from the paper's own decomposition applied to the build: a 1-NN
// search of an exact RBC over R, with the same owners and distance bits as
// BF(X, R) at about sqrt(nr) representative distances plus the surviving
// list rows per point instead of nr (101 instead of 1,000 at 1M `cov`
// rows). A strided sample of rows measures that count first, and rows of
// high intrinsic dimension, where the search prunes little, stay on
// BF(X, R).
//
// Search (1-NN, generalized here to k-NN and range):
//   1. brute-force scan of the representatives -> distances rho(q, r), the
//      bound gamma (distance to nearest rep; for k-NN, gamma_k = k-th
//      smallest rep distance is the upper bound on the k-th NN distance);
//   2. prune representatives with rule (1) rho(q,r) > gamma + psi_r and
//      rule (2) rho(q,r) > 3 gamma (k-NN: rho(q,r) > 2 gamma_k + gamma_1);
//   3. brute-force scan of the surviving ownership lists, visiting closest
//      representatives first, with the Claim-2 sorted-list early exit.
//
// Parallelism: a batch with at least as many rows as threads runs one query
// per thread, handed out one row at a time (search_one); a smaller batch — a
// served one-row read — keeps stages 1 and 2 on the calling thread and deals
// its surviving lists to the whole team under a shared k-th bound
// (search_team). Inside an active OpenMP region every row runs serially.
// Query blocks (paper §3) pay in brute force, where every query of a block
// reads every row; under the pruning each query's surviving lists differ,
// and a bound that tightens per point (Claim 2) prunes more.
//
// Exactness contract: for every query the returned k-set equals the
// brute-force k-set under the (distance, id) order — ties included. All
// pruning comparisons are strict, so a point is only ever skipped when it is
// *strictly* worse than the k-th best (see comments at each prune site).
//
// The index owns a permuted copy of the database (rows grouped by owner,
// sorted by distance-to-owner), so the second-stage scan is a contiguous
// streaming pass — the memory layout the paper's GPU implementation uses.
//
// Like the paper's structure, a built index has no in-place insert or
// remove, so const searches share it across threads without locks. Insert
// and remove come from MutableIndex (mutate/mutable_index.hpp), which keeps
// a delta shard and tombstones beside an index like this one and rebuilds
// it on merge — affordable because the build is one BF(X, R), or less.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "bruteforce/bf.hpp"
#include "bruteforce/kernel_scan.hpp"
#include "bruteforce/topk.hpp"
#include "common/matrix.hpp"
#include "distance/dispatch.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/rows.hpp"
#include "parallel/runtime.hpp"
#include "rbc/params.hpp"
#include "rbc/sampling.hpp"
#include "rbc/stats.hpp"

namespace rbc {

template <DenseMetric M = Euclidean>
class RbcExactIndex {
  static_assert(M::is_true_metric,
                "RBC exact search prunes with the triangle inequality and "
                "therefore requires a true metric (use Euclidean, not "
                "SqEuclidean)");

 public:
  /// One query's stages 1 and 2 (plan_query): its representative
  /// distances, bounds and surviving lists. Reusable across queries so the
  /// hot path never allocates (Per.15).
  struct Scratch {
    std::vector<dist_t> rep_dists;
    std::vector<index_t> survivors;  // nearest representative first
    dist_t gamma1 = kInfDist;        // distance to the nearest representative
    dist_t rep_bound = kInfDist;     // k-th smallest representative distance
  };

  RbcExactIndex() = default;

  /// Representative count from which build() may find owners with an
  /// exact RBC over the representatives instead of BF(X, R). Measured on
  /// `cov` rows, n = nr^2, 4 threads, AVX-512, inner build included,
  /// medians of 7, rows in generator order / shuffled as perfbench draws
  /// them:
  ///   nr 224:   BF(X, R) 0.015 / 0.015 s, search 0.025-0.027 / 0.013 s;
  ///   nr 288:   0.031-0.032 / 0.028 s, search 0.028-0.030 / 0.028 s;
  ///   nr 304:   0.036-0.038 / 0.034-0.036 s, search 0.050-0.054 /
  ///             0.029-0.037 s;
  ///   nr 320:   0.042 / 0.037-0.043 s, search 0.036-0.039 / 0.025-0.033 s;
  ///   nr 1,000: 1.26 s, search 0.37 s (shuffled).
  /// Below 320 the faster path depends on the row order; from 320 on the
  /// search won every probe on `cov`. Its gain needs low intrinsic
  /// dimension: at nr 448 it took 97 evaluations per `cov` row, but 313
  /// per `bio` row and 453 per `robot` row, whose whole builds it made 2x
  /// and 3x slower. So the count is sampled first (kOwnerSampleRows).
  static constexpr index_t kNestedOwnersMinReps = 320;

  /// From kNestedOwnersMinReps representatives on, build() first finds the
  /// owners of a fixed strided sample of this many rows with the search
  /// and keeps them. The other rows take the search as well when the
  /// sample used at most nr / kSearchEvalCost evaluations per row, and
  /// BF(X, R) otherwise.
  static constexpr index_t kOwnerSampleRows = 1024;
  /// The cost of one owner-search evaluation in BF(X, R) evaluations: the
  /// search ran at about 3x the time per evaluation of the l2_lanes shape
  /// (1M `cov` rows, nr 1,000, 4 threads, AVX-512).
  static constexpr std::uint64_t kSearchEvalCost = 3;

  /// How build() found the owners of the rows outside the sample.
  enum class OwnerPath : std::uint8_t {
    kBruteForce,  ///< BF(X, R)
    kSearch,      ///< a 1-NN search of the exact RBC over R
  };

  /// Builds the index over X. X must outlive nothing — the index copies the
  /// rows it needs (representatives + permuted database).
  void build(const Matrix<float>& X, RbcParams params = {}, M metric = {}) {
    metric_ = metric;
    params_ = params;
    n_ = X.rows();
    dim_ = X.cols();

    rep_ids_ = choose_representatives(n_, params);
    const index_t nr = static_cast<index_t>(rep_ids_.size());

    reps_ = Matrix<float>(nr, dim_);
    for (index_t r = 0; r < nr; ++r) reps_.copy_row_from(X, rep_ids_[r], r);
    pack_rep_lanes();

    // The owner of every database point: its nearest representative, the
    // lowest index on ties, at the metric functor's bits (paper §4: "this
    // routine is simply a call to BF(X, R)").
    std::vector<index_t> owner(n_);
    std::vector<dist_t> owner_dist(n_);
    if (nr < kNestedOwnersMinReps) {
      owners_by_brute_force(X, {}, owner, owner_dist);
      owner_path_ = OwnerPath::kBruteForce;
    } else {
      owner_path_ = owners_by_search(X, owner, owner_dist);
    }

    // CSR layout: offsets_[r] .. offsets_[r+1] delimit L_r in the packed
    // arrays. Counting sort by owner, then per-list sort by (distance, id).
    offsets_.assign(nr + 1, 0);
    for (index_t x = 0; x < n_; ++x) ++offsets_[owner[x] + 1];
    for (index_t r = 0; r < nr; ++r) offsets_[r + 1] += offsets_[r];

    packed_ids_.resize(n_);
    packed_dist_.resize(n_);
    {
      std::vector<index_t> cursor(offsets_.begin(), offsets_.end() - 1);
      for (index_t x = 0; x < n_; ++x) {
        const index_t slot = cursor[owner[x]]++;
        packed_ids_[slot] = x;
        packed_dist_[slot] = owner_dist[x];
      }
    }

    parallel_for(0, nr, [&](index_t r) {
      const index_t lo = offsets_[r], hi = offsets_[r + 1];
      // Sort members by (distance to rep, id); enables the Claim-2 early
      // exit and makes the layout deterministic.
      std::vector<std::pair<dist_t, index_t>> items;
      items.reserve(hi - lo);
      for (index_t p = lo; p < hi; ++p)
        items.emplace_back(packed_dist_[p], packed_ids_[p]);
      std::sort(items.begin(), items.end());
      for (index_t p = lo; p < hi; ++p) {
        packed_dist_[p] = items[p - lo].first;
        packed_ids_[p] = items[p - lo].second;
      }
    });

    psi_.resize(nr);
    for (index_t r = 0; r < nr; ++r)
      psi_[r] = offsets_[r + 1] > offsets_[r] ? packed_dist_[offsets_[r + 1] - 1]
                                              : dist_t{0};

    packed_ = gather_rows(X, n_, [this](index_t p) { return packed_ids_[p]; });

    // Compressed scan tier: quantize the packed rows once at build (a
    // float32 request yields an inactive store). The float packed_ stays
    // resident — it is the re-measure source that keeps results
    // bit-identical (kernel_scan.hpp, quantized scans).
    qstore_ = quant::quantize(storage_req_, packed_);
  }

  // ----------------------------------------------------- compressed tier ---

  /// Requests a compressed row store ("fp16"/"int8") for the hot list
  /// scans; takes effect at the next build(). Euclidean only
  /// (quantized_metric) — callers gate before requesting.
  void set_storage(quant::Storage mode) { storage_req_ = mode; }

  /// The storage mode the scans currently read (kFloat32 when no store is
  /// active).
  quant::Storage storage() const {
    return qstore_.active() ? qstore_.mode : quant::Storage::kFloat32;
  }

  // ------------------------------------------------------------- queries ---

  /// List segments shorter than this stay on the adaptive scalar loop —
  /// below it, kernel-call setup outweighs the vector win.
  static constexpr index_t kKernelMinSegment = 16;

  /// k-NN for a batch of queries; parallel across queries, each thread
  /// taking one row at a time into search_one. A batch with fewer rows than
  /// threads, called from outside an active OpenMP region, runs on the
  /// whole team instead (see search_team) — same results, with work counts
  /// that depend on the schedule. Inside an active region the rows run
  /// serially. If `stats` is non-null the aggregated work statistics are
  /// added to it.
  KnnResult search(const Matrix<float>& Q, index_t k,
                   SearchStats* stats = nullptr) const {
    assert(Q.cols() == dim_);
    if (Q.rows() > 0 && Q.rows() < static_cast<index_t>(max_threads()) &&
        !in_parallel())
      return search_team(Q, k, stats);
    KnnResult result(Q.rows(), k);
    const int nt = max_threads();
    std::vector<Scratch> scratch(static_cast<std::size_t>(nt));
    std::vector<SearchStats> tstats(static_cast<std::size_t>(nt));
    std::vector<TopK> heaps(static_cast<std::size_t>(nt), TopK(k));

    // Chunk 1: a row costs what its surviving lists cost, and a batch of a
    // few times the team would otherwise run on one or two threads.
    parallel_for_dynamic(
        0, Q.rows(),
        [&](index_t qi) {
          const auto tid = static_cast<std::size_t>(thread_id());
          TopK& top = heaps[tid];
          top.reset();
          search_one(Q.row(qi), k, top, scratch[tid], &tstats[tid]);
          top.extract_sorted(result.dists.row(qi), result.ids.row(qi));
        },
        /*chunk=*/1);

    if (stats != nullptr)
      for (const SearchStats& s : tstats) stats->merge(s);
    return result;
  }

  /// k-NN for a single query into a caller-provided heap (hot path; no
  /// allocation beyond first use of the scratch).
  void search_one(const float* q, index_t k, TopK& out, Scratch& scratch,
                  SearchStats* stats = nullptr) const {
    // (1+eps)-approximation: the *candidate-driven* bound is shrunk by this
    // factor. A point pruned under the shrunken bound has distance
    // > worst/(1+eps), so any missed true j-th neighbor d_j satisfies
    // returned_j <= worst < (1+eps) * d_j. The representative-derived bound
    // is never shrunk: while the heap is filling, pruning stays exact-safe,
    // which guarantees the search always returns min(k, n) results no
    // matter how large eps is. inv == 1 is the exact algorithm.
    const float inv = 1.0f / (1.0f + params_.approx_eps);
    SearchStats local;
    plan_query(q, k, scratch, local);
    // ---- stage 3: BF(q, X[L_1 u ... u L_t]) ---------------------------
    for (const index_t r : scratch.survivors)
      scan_survivor(q, r, scratch, scratch.rep_bound, inv, out, local);
    if (stats != nullptr) stats->merge(local);
  }

  /// Scan of L_r for one query (scan_survivor's stage 3): the packed
  /// segment with the Claim-2 early exit and annulus bound. Segments of at
  /// least kKernelMinSegment rows under a kernel metric run the dispatched
  /// row-block kernel (scan_rep_list_kernel below); anything else takes the
  /// adaptive per-point loop.
  void scan_rep_list(const float* q, index_t r, dist_t dr, dist_t rep_bound,
                     float inv, TopK& out, SearchStats& local) const {
    const index_t lo = offsets_[r], hi = offsets_[r + 1];
    if constexpr (kernel_metric<M>) {
      if (hi - lo >= kKernelMinSegment) {
        scan_rep_list_kernel(q, r, dr, rep_bound, inv, out, local);
        return;
      }
    }
    std::uint64_t computed = 0;
    for (index_t p = lo; p < hi; ++p) {
      const dist_t b = std::min(rep_bound, out.worst() * inv);
      // Claim 2 / footnote 2: members are sorted by rho(x, r); once
      // rho(x,r) > rho(q,r) + b, the triangle inequality gives
      // rho(q,x) >= rho(x,r) - rho(q,r) > b for this and all later
      // members — stop scanning this list.
      if (params_.use_early_exit && packed_dist_[p] > dr + b) {
        local.points_skipped_early_exit += hi - p;
        break;
      }
      // Annulus lower bound (extension): rho(q,x) >= rho(q,r) - rho(x,r).
      if (params_.use_annulus_bound && packed_dist_[p] < dr - b) {
        ++local.points_skipped_annulus;
        continue;
      }
      out.push(metric_(q, packed_.row(p), dim_), packed_ids_[p]);
      ++computed;
    }
    counters::add_dist_evals(computed);
    local.list_dist_evals += computed;
  }

  /// Kernelized scan_rep_list: the early-exit / annulus window is frozen
  /// from the bound at entry (binary search over the sorted member
  /// distances), the window runs through the dispatched row-block kernel, and
  /// survivors of the margin-inflated heap bound are re-measured with the
  /// scalar metric. Identical results to the adaptive loop: freezing the
  /// bound only loosens the window (a candidate superset preserves the
  /// unique (distance, id) k-set), and the heap orders re-measured values
  /// only.
  void scan_rep_list_kernel(const float* q, index_t r, dist_t dr,
                            dist_t rep_bound, float inv, TopK& out,
                            SearchStats& local) const
    requires(kernel_metric<M>)
  {
    const index_t lo = offsets_[r], hi = offsets_[r + 1];
    const dist_t b = std::min(rep_bound, out.worst() * inv);
    const dist_t* pd = packed_dist_.data();
    index_t seg_hi = hi, seg_lo = lo;
    if (params_.use_early_exit) {
      seg_hi = static_cast<index_t>(
          std::upper_bound(pd + lo, pd + hi, dr + b) - pd);
      local.points_skipped_early_exit += hi - seg_hi;
    }
    if (params_.use_annulus_bound) {
      seg_lo = static_cast<index_t>(
          std::lower_bound(pd + lo, pd + seg_hi, dr - b) - pd);
      local.points_skipped_annulus += seg_lo - lo;
    }
    counters::add_dist_evals(seg_hi - seg_lo);
    local.list_dist_evals += seg_hi - seg_lo;

    const auto id_of = [this](index_t p) { return packed_ids_[p]; };
    // Compressed tier: the window scans fp16/int8 codes with the
    // error-inflated bound and re-measures survivors against the float
    // rows — identical results (see kernel_scan.hpp).
    if constexpr (quantized_metric<M>) {
      if (qstore_.active()) {
        quantized_scan_rows(q, packed_, qstore_, seg_lo, seg_hi, metric_,
                            out, id_of);
        return;
      }
    }
    kernel_scan_rows(q, packed_, seg_lo, seg_hi, metric_, out, id_of);
  }

  /// Exact range search: returns the ids of all points x with
  /// rho(q, x) <= radius, sorted ascending by id.
  std::vector<index_t> range_search(const float* q, dist_t radius) const {
    const index_t nr = reps_.rows();
    std::vector<dist_t> rep_dists(nr);
    rep_distances(q, rep_dists.data());
    counters::add_dist_evals(nr);
    std::vector<index_t> hits;
    for (index_t r = 0; r < nr; ++r) {
      const dist_t dr = rep_dists[r];
      // Every member of L_r is within psi_r of r, so the closest any member
      // can be to q is dr - psi_r.
      if (dr > radius + psi_[r]) continue;
      const index_t lo = offsets_[r], hi = offsets_[r + 1];
      std::uint64_t computed = 0;
      for (index_t p = lo; p < hi; ++p) {
        if (packed_dist_[p] > dr + radius) break;  // sorted-list early exit
        const dist_t d = metric_(q, packed_.row(p), dim_);
        ++computed;
        if (d <= radius) hits.push_back(packed_ids_[p]);
      }
      counters::add_dist_evals(computed);
    }
    std::sort(hits.begin(), hits.end());
    return hits;
  }

  // ------------------------------------------------------ introspection ---

  index_t size() const { return n_; }
  index_t dim() const { return dim_; }
  index_t num_reps() const { return reps_.rows(); }
  OwnerPath owner_path() const { return owner_path_; }
  const std::vector<index_t>& rep_ids() const { return rep_ids_; }
  dist_t psi(index_t r) const { return psi_[r]; }

  /// Original-database ids of the members of L_r (sorted by distance to r).
  std::span<const index_t> list_ids(index_t r) const {
    return {packed_ids_.data() + offsets_[r],
            static_cast<std::size_t>(offsets_[r + 1] - offsets_[r])};
  }
  /// Distances rho(x, r) matching list_ids(r).
  std::span<const dist_t> list_dists(index_t r) const {
    return {packed_dist_.data() + offsets_[r],
            static_cast<std::size_t>(offsets_[r + 1] - offsets_[r])};
  }

  /// The permuted copy of the database that stage 3 scans, lists end to
  /// end, and the original-database id of each of its rows: packed row p
  /// is row packed_ids()[p] of X.
  const Matrix<float>& packed_rows() const { return packed_; }
  std::span<const index_t> packed_ids() const { return packed_ids_; }

  /// Memory footprint of the index in bytes (excluding the caller's X).
  std::size_t memory_bytes() const {
    return packed_.size() * sizeof(float) + reps_.size() * sizeof(float) +
           packed_ids_.size() * sizeof(index_t) +
           packed_dist_.size() * sizeof(dist_t) +
           offsets_.size() * sizeof(index_t) + psi_.size() * sizeof(dist_t) +
           rep_ids_.size() * sizeof(index_t) +
           rep_lanes_.size() * sizeof(float) + qstore_.memory_bytes();
  }

 private:
  /// Stages 1 and 2 for one query, shared by search_one and search_team:
  /// BF(q, R), the bounds, and the representatives that survive rules 1 and
  /// 2, nearest first.
  void plan_query(const float* q, index_t k, Scratch& plan,
                  SearchStats& local) const {
    const index_t nr = reps_.rows();
    plan.rep_dists.resize(nr);

    // ---- stage 1: BF(q, R) -------------------------------------------
    // gamma_1 = distance to the nearest representative; rep_bound = k-th
    // smallest representative distance (an upper bound on the k-th NN
    // distance, since representatives are database points).
    rep_distances(q, plan.rep_dists.data());
    TopK rep_top(k);
    dist_t gamma1 = kInfDist;
    for (index_t r = 0; r < nr; ++r) {
      const dist_t d = plan.rep_dists[r];
      rep_top.push(d, r);
      if (d < gamma1) gamma1 = d;
    }
    counters::add_dist_evals(nr);
    const dist_t rep_bound = rep_top.worst();
    plan.gamma1 = gamma1;
    plan.rep_bound = rep_bound;
    ++local.queries;
    local.rep_dist_evals += nr;

    // ---- stage 2: prune representatives ------------------------------
    // All comparisons are strict: a representative (or point) is discarded
    // only when every member is *strictly* worse than the current k-th
    // best, so ties at the boundary are preserved and the result matches
    // brute force exactly.
    plan.survivors.clear();
    for (index_t r = 0; r < nr; ++r) {
      const dist_t dr = plan.rep_dists[r];
      if (params_.use_overlap_rule && dr > rep_bound + psi_[r]) {
        ++local.reps_pruned_overlap;  // rule (1)
        continue;
      }
      if (params_.use_lemma_rule && dr > 2 * rep_bound + gamma1) {
        ++local.reps_pruned_lemma;  // rule (2), k-NN form
        continue;
      }
      plan.survivors.push_back(r);
    }

    // Visit nearest representatives first so the bound tightens early.
    std::sort(plan.survivors.begin(), plan.survivors.end(),
              [&](index_t a, index_t b) {
                const dist_t da = plan.rep_dists[a];
                const dist_t db = plan.rep_dists[b];
                return da < db || (da == db && a < b);
              });
  }

  /// Stage 3 for one surviving list of a planned query: re-checks rules 1
  /// and 2 against the *current* bound min(cap, out.worst() * inv), which
  /// may have tightened since the filter pass, then scans L_r under it.
  /// `cap` is the plan's rep_bound, or on the team path also the row's
  /// shared bound; each is an upper bound on the true k-th NN distance.
  /// Returns false when the list was pruned.
  bool scan_survivor(const float* q, index_t r, const Scratch& plan,
                     dist_t cap, float inv, TopK& out,
                     SearchStats& local) const {
    const dist_t dr = plan.rep_dists[r];
    const dist_t bound = std::min(cap, out.worst() * inv);
    if (params_.use_overlap_rule && dr > bound + psi_[r]) {
      ++local.reps_pruned_overlap;
      return false;
    }
    if (params_.use_lemma_rule && dr > 2 * bound + plan.gamma1) {
      ++local.reps_pruned_lemma;
      return false;
    }
    ++local.reps_scanned;
    scan_rep_list(q, r, dr, cap, inv, out, local);
    return true;
  }

  /// k-NN for a batch with fewer rows than threads, on the whole team
  /// (search() takes it outside active OpenMP regions): the paper's stage 3
  /// is BF(q, X[L_1 u ... u L_t]), a brute force that parallelizes like any
  /// other. Stages 1 and 2 run on the calling thread; the rows' surviving
  /// lists then go to the team as (row, list) items, one at a time, nearest
  /// first. Each thread fills a heap of its own per row and, after each
  /// list, lowers the row's shared k-th bound to its heap's worst (a CAS-min,
  /// a no-op until that heap is full). Each list re-checks rules 1 and 2 and
  /// derives its scan window against min(rep_bound, shared * inv,
  /// own.worst() * inv).
  ///
  /// Results are IDENTICAL to search_one's, ties included, because the k
  /// best under the (distance, id) order of any candidate set that contains
  /// the true k-set are the true k-set. The items partition each row's
  /// candidates, so every bound is held by k distinct real candidates and
  /// is an upper bound on the true k-th distance; every prune is strict, so
  /// each true top-k row reaches some thread's heap and stays there, and the
  /// (distance, id) merge of the heaps is the brute-force k-set. With
  /// approx_eps > 0 the shared bound is candidate-derived, so it is shrunk
  /// by inv like out.worst() and the (1+eps) guarantee holds. Work counts
  /// depend on when a bound reaches the other threads, so they vary with
  /// the schedule.
  KnnResult search_team(const Matrix<float>& Q, index_t k,
                        SearchStats* stats) const {
    const index_t nq = Q.rows();
    const float inv = 1.0f / (1.0f + params_.approx_eps);
    SearchStats total;
    std::vector<Scratch> plans(nq);
    for (index_t qi = 0; qi < nq; ++qi)
      plan_query(Q.row(qi), k, plans[qi], total);

    // Rank by rank across the rows, so every row's nearest lists go first.
    struct Item {
      index_t row;
      index_t rep;
    };
    std::vector<Item> items;
    for (std::size_t rank = 0, dealt = 1; dealt > 0; ++rank) {
      dealt = 0;
      for (index_t qi = 0; qi < nq; ++qi) {
        if (rank >= plans[qi].survivors.size()) continue;
        items.push_back({qi, plans[qi].survivors[rank]});
        ++dealt;
      }
    }

    std::vector<std::atomic<dist_t>> shared(nq);
    for (std::atomic<dist_t>& bound : shared) bound = kInfDist;
    std::vector<TopK> merged;
    merged.reserve(nq);
    for (index_t qi = 0; qi < nq; ++qi) merged.emplace_back(k);
    const auto num_items = static_cast<std::int64_t>(items.size());
#pragma omp parallel if (num_items > 1)
    {
      std::vector<TopK> own;
      own.reserve(nq);
      for (index_t qi = 0; qi < nq; ++qi) own.emplace_back(k);
      SearchStats local;
#pragma omp for schedule(dynamic, 1) nowait
      for (std::int64_t i = 0; i < num_items; ++i) {
        const Item item = items[static_cast<std::size_t>(i)];
        std::atomic<dist_t>& bound = shared[item.row];
        TopK& top = own[item.row];
        const Scratch& plan = plans[item.row];
        if (!scan_survivor(Q.row(item.row), item.rep, plan,
                           std::min(plan.rep_bound, bound.load() * inv), inv,
                           top, local))
          continue;
        const dist_t worst = top.worst();  // +inf until the heap is full
        dist_t seen = bound.load();
        while (worst < seen && !bound.compare_exchange_weak(seen, worst)) {
        }
      }
#pragma omp critical(rbc_exact_search_team)
      {
        for (index_t qi = 0; qi < nq; ++qi) merged[qi].merge_from(own[qi]);
        total.merge(local);
      }
    }

    KnnResult result(nq, k);
    for (index_t qi = 0; qi < nq; ++qi)
      merged[qi].extract_sorted(result.dists.row(qi), result.ids.row(qi));
    if (stats != nullptr) stats->merge(total);
    return result;
  }

  /// The fixed strided sample of owners_by_search: rows 0, step, 2 step,
  /// ... (count rows). The default holds no row.
  struct OwnerSample {
    index_t step = 1;
    index_t count = 0;
    bool holds(index_t x) const { return x % step == 0 && x / step < count; }
  };

  /// BF(X, R) for the rows outside `sample`: every representative distance
  /// of every row, the recursion's base case. Parallel over X, one distance
  /// buffer per block of rows.
  void owners_by_brute_force(const Matrix<float>& X, OwnerSample sample,
                             std::vector<index_t>& owner,
                             std::vector<dist_t>& owner_dist) const {
    const index_t nr = reps_.rows();
    parallel_for_blocked(0, n_, 256, [&](index_t lo, index_t hi) {
      std::vector<dist_t> dists(nr);
      for (index_t x = lo; x < hi; ++x) {
        if (sample.holds(x)) continue;
        rep_distances(X.row(x), dists.data());
        dist_t best = kInfDist;
        index_t best_rep = 0;
        for (index_t r = 0; r < nr; ++r) {
          if (dists[r] < best) {  // ties resolve to the lowest rep index
            best = dists[r];
            best_rep = r;
          }
        }
        owner[x] = best_rep;
        owner_dist[x] = best;
      }
    });
    counters::add_dist_evals(static_cast<std::uint64_t>(n_ - sample.count) *
                             nr);
  }

  /// The same owners by the paper's own decomposition: 1-NN of each row in
  /// an exact RBC over R, written straight into owner and owner_dist. Its
  /// (distance, id) order returns the lowest-index nearest representative
  /// at the functor's bits, so owners and distances equal BF(X, R)'s. The
  /// strided sample runs first and counts its evaluations; past
  /// nr / kSearchEvalCost per row the other rows take BF(X, R) instead.
  /// Either way the sample keeps its owners. The inner index takes default
  /// params under the outer seed: exact, every rule on, float32. The outer
  /// approx_eps, prune flags, sampling and storage never reach it, since
  /// rule 2 (Lemma 1) needs exact owners.
  OwnerPath owners_by_search(const Matrix<float>& X,
                             std::vector<index_t>& owner,
                             std::vector<dist_t>& owner_dist) const {
    RbcExactIndex inner;
    RbcParams inner_params;
    inner_params.seed = params_.seed;
    inner.build(reps_, inner_params, metric_);
    // 1-NN of X row row(i) for each i in [lo, hi), skipping an i whose
    // row(i) is kInvalidIndex; returns the evaluations it counted.
    const auto search = [&](index_t lo, index_t hi, auto row) {
      Scratch scratch;
      TopK top(1);
      SearchStats stats;
      for (index_t i = lo; i < hi; ++i) {
        const index_t x = row(i);
        if (x == kInvalidIndex) continue;
        top.reset();
        inner.search_one(X.row(x), 1, top, scratch, &stats);
        top.extract_sorted(&owner_dist[x], &owner[x]);
      }
      return stats.rep_dist_evals + stats.list_dist_evals;
    };

    const index_t count = std::min(n_, kOwnerSampleRows);
    const OwnerSample sample{n_ / count, count};
    std::atomic<std::uint64_t> sample_evals{0};
    parallel_for_blocked(0, count, 64, [&](index_t lo, index_t hi) {
      sample_evals +=
          search(lo, hi, [&](index_t i) { return i * sample.step; });
    });
    if (count == n_) return OwnerPath::kSearch;  // the sample was every row
    if (sample_evals.load() * kSearchEvalCost >
        std::uint64_t{reps_.rows()} * count) {
      owners_by_brute_force(X, sample, owner, owner_dist);
      return OwnerPath::kBruteForce;
    }
    parallel_for_blocked(0, n_, 256, [&](index_t lo, index_t hi) {
      search(lo, hi, [&](index_t x) {
        return sample.holds(x) ? kInvalidIndex : x;
      });
    });
    return OwnerPath::kSearch;
  }

  /// Derives the lane-blocked copy of the representatives that
  /// rep_distances reads (Euclidean only; other metrics keep it empty).
  void pack_rep_lanes() {
    if constexpr (std::is_same_v<M, Euclidean>) {
      rep_lanes_ = AlignedBuffer<float>(
          dispatch::lanes_size(reps_.rows(), dim_), /*zero=*/true);
      dispatch::pack_lanes(reps_.data(), reps_.stride(), reps_.rows(), dim_,
                           rep_lanes_.data());
    }
  }

  /// BF(q, R): out[r] = metric_(q, rep r) for every representative, in the
  /// metric functor's exact bits. Euclidean runs the dispatched bit-exact
  /// l2_lanes shape over rep_lanes_ on a SIMD table; other metrics, and the
  /// scalar table (whose l2_lanes is this same loop, only strided, and
  /// slower), run the per-pair functor over the row-major copies.
  /// Callers account the nr distance evaluations.
  void rep_distances(const float* q, dist_t* out) const {
    const index_t nr = reps_.rows();
    if constexpr (std::is_same_v<M, Euclidean>) {
      if (dispatch::fast_kernel()) {
        dispatch::ops().l2_lanes(q, dim_, rep_lanes_.data(), nr, out);
        return;
      }
    }
    for (index_t r = 0; r < nr; ++r) out[r] = metric_(q, reps_.row(r), dim_);
  }

  M metric_{};
  RbcParams params_{};
  index_t n_ = 0;
  index_t dim_ = 0;
  OwnerPath owner_path_ = OwnerPath::kBruteForce;

  Matrix<float> reps_;              // nr x d copies of representative rows
  AlignedBuffer<float> rep_lanes_;  // reps_ lane-blocked (pack_rep_lanes)
  std::vector<index_t> rep_ids_;    // original ids of representatives
  std::vector<dist_t> psi_;         // list radii
  std::vector<index_t> offsets_;    // CSR: nr + 1
  Matrix<float> packed_;            // n x d rows grouped by owner
  std::vector<index_t> packed_ids_;  // original id of each packed row
  std::vector<dist_t> packed_dist_;  // rho(x, owner(x)), sorted per list

  // ---- compressed scan tier (see "compressed tier" section above) ----
  quant::Storage storage_req_ = quant::Storage::kFloat32;  // build request
  quant::QuantizedStore qstore_;  // active when built compressed
};

}  // namespace rbc
