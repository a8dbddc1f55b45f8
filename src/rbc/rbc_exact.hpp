// Random Ball Cover — exact search variant (paper §4, §5.2, §6.1).
//
// Build: every database point joins its nearest representative (paper §4:
// BF(X, R)); ownership lists partition the database, each list stored sorted
// by distance to its representative, with radius psi_r = max_{x in L_r}
// rho(x, r). Both of the paper's brute-force calls over R — BF(X, R) here and
// BF(q, R) in stage 1 — run through one two-level cover of R, the paper's
// decomposition applied to R itself: ceil(sqrt(nr)) inner representatives
// S drawn from R, every r in R in the list of its nearest s, each inner list
// sorted by rho(s, r) and scanned in runs of lane blocks. A 1-NN search
// through it gives each row the same owner and distance bits as BF(X, R) at
// about sqrt(nr) plus the surviving list rows per point instead of nr. A
// strided sample of rows measures that count first; rows of high intrinsic
// dimension, where the cover prunes little, stay on BF(X, R).
//
// nr: num_reps when given. For num_reps == 0 the build draws 2 ceil(sqrt(n))
// representatives and keeps them when the sample shows the cover prunes (at
// most nr / kDoubledRepsShare evaluations per sampled row); otherwise it
// redraws ceil(sqrt(n)), the paper's c-agnostic default, and finds every
// owner with BF(X, R). Counts decide, so the seed alone fixes the index on
// every ISA.
//
// Search (1-NN, generalized here to k-NN and range):
//   1. the k nearest representatives through the cover -> the bound gamma
//      (distance to the nearest rep; for k-NN, gamma_k = k-th smallest rep
//      distance is the upper bound on the k-th NN distance), bit-identical
//      to BF(q, R)'s;
//   2. prune representatives with rule (1) rho(q,r) > gamma + psi_r and
//      rule (2) rho(q,r) > 3 gamma (k-NN: rho(q,r) > 2 gamma_k + gamma_1).
//      Inner lists whose triangle bound rho(q,s) - rho(s,r) already passes
//      an enabled rule are skipped unevaluated; the others' members take
//      the rules exactly as BF(q, R) would, so the survivors, their
//      distances and their order equal the flat scan's;
//   3. brute-force scan of the surviving ownership lists, visiting closest
//      representatives first. Each sorted list is read only in its window
//      [rho(q,r) - w, rho(q,r) + w], w the current bound plus the margin:
//      Claim 2's early exit above it and the annulus below it.
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
// Every prune combines several rounded distances, so each must also clear
// a rounding margin (PruneMargin): rules 1 and 2, both ends of the Claim-2
// window, and the cover's and the range scan's prunes.
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

/// The rounding margin of the exact search's prunes. Each prune compares a
/// bound built from several rounded distances, each within a few ulps per
/// feature of the real value, so it must clear a margin relative to the
/// magnitudes involved (twice the kernel prefilter's tile_margin): then it
/// never drops a row that a functor scan's float comparison would keep, a
/// row tied with the k-th distance included.
class PruneMargin {
 public:
  PruneMargin() = default;
  explicit PruneMargin(index_t dim) : rel_(2 * dispatch::tile_margin(dim)) {}

  /// The half-width of the window of a list's members within t of q, for a
  /// list at dq = rho(q, center) whose members lie within `radius` of its
  /// center: no member whose distance to the center lies outside
  /// [dq - w, dq + w] is within t of q.
  dist_t widen(dist_t t, dist_t dq, dist_t radius) const {
    return t + rel_ * (dq + radius + t);
  }
  /// True when d exceeds `bound` by more than the margin of mag + bound,
  /// mag the magnitude of the distances that d is built from.
  bool beyond(dist_t d, dist_t bound, dist_t mag) const {
    return d > bound + rel_ * (mag + bound);
  }
  /// Rule (1): every member of a list at rho(q, r) = dr with radius psi is
  /// farther from q than `bound`.
  bool overlap_prunes(dist_t dr, dist_t bound, dist_t psi) const {
    return beyond(dr, bound + psi, dr);
  }
  /// Rule (2), k-NN form: rho(q, r) > 2 bound + gamma1.
  bool lemma_prunes(dist_t dr, dist_t bound, dist_t gamma1) const {
    return beyond(dr, 2 * bound + gamma1, dr);
  }

 private:
  float rel_ = 0.0f;
};

template <DenseMetric M = Euclidean>
class RbcExactIndex {
  static_assert(M::is_true_metric,
                "RBC exact search prunes with the triangle inequality and "
                "therefore requires a true metric (use Euclidean, not "
                "SqEuclidean)");

 public:
  /// One query's stages 1 and 2 (plan_query): its bounds and surviving
  /// lists, and the cover search's working state. Reusable across queries
  /// so the hot path never allocates (Per.15).
  struct Scratch {
    std::vector<dist_t> rep_dists;   // rho(q, r) by representative; survivors
    std::vector<index_t> survivors;  // nearest representative first
    dist_t gamma1 = kInfDist;        // distance to the nearest representative
    dist_t rep_bound = kInfDist;     // k-th smallest representative distance
    std::vector<dist_t> inner_dists;  // rho(q, s) per inner list
    std::vector<dist_t> slot_dists;   // rho(q, r) by cover slot, where scanned
    std::vector<std::pair<index_t, index_t>> scanned;  // stage 1's slots
    std::vector<std::pair<dist_t, index_t>> order;  // inner lists, nearest first
    TopK rep_top{1};                                // stage 1's k nearest
  };

  RbcExactIndex() = default;

  /// build() finds the owners of a fixed strided sample of this many rows
  /// through the cover and keeps them. The sample's evaluation count picks
  /// nr (when num_reps is 0) and the owner path of the other rows.
  static constexpr index_t kOwnerSampleRows = 1024;
  /// num_reps == 0 keeps 2 ceil(sqrt(n)) representatives when the sample
  /// used at most nr / kDoubledRepsShare evaluations per row; otherwise it
  /// redraws ceil(sqrt(n)) and every row takes BF(X, R), since the same
  /// count is then past kCoverMaxPercent of the new nr. Sampled
  /// shares at 2 ceil(sqrt(n)) (200k rows, nr 896; four row draws):
  /// `cov` 10-15%, `phy` 22-36%, `bio` 37-44%, `robot` 90%; 1M `cov` rows,
  /// nr 2,000: 7.7-8.6%. Doubling pays where stage 3 shrinks, on rows of
  /// low intrinsic dimension: per query at 200k rows, list evaluations
  /// fell 3,938 -> 2,566 on `cov`, but 6,665 -> 6,662 on `phy` and
  /// 3,995 -> 3,992 on `bio`, where the larger stage 1 made it slower.
  static constexpr std::uint64_t kDoubledRepsShare = 5;
  /// The other rows take the cover too when the sample used at most
  /// kCoverMaxPercent percent of nr evaluations per row, and BF(X, R)
  /// otherwise: the cover scans short runs of lane blocks, at 2-4x the
  /// time per evaluation of BF(X, R)'s long one. Owners per row, 200k
  /// rows, 1 thread, cover against BF(X, R), two row draws: `cov` at
  /// 11-15% of nr 896 0.7-1.4 against 3.7-4.8 us, `phy` at 27-36% 2.0-3.3
  /// against 4.5-5.0, `bio` at 38-46% 3.3-4.1 against 4.5-5.5; `phy` at
  /// 49-55% of nr 448 2.1-2.6 against 2.3-2.5, `bio` at 54-64% 2.4-2.9
  /// against 2.3-2.8, `robot` at 89-98% 1.7-5.0 against 1.1-3.2. The
  /// crossover drifts between 50% and 65% with the host; 40%, twice
  /// 1 / kDoubledRepsShare, also lets a redraw skip a second sample.
  static constexpr std::uint64_t kCoverMaxPercent = 40;

  /// How build() found the owners of the rows outside the sample (every
  /// row after a redraw).
  enum class OwnerPath : std::uint8_t {
    kBruteForce,  ///< BF(X, R)
    kCover,       ///< a 1-NN search through the cover of R
  };

  /// Builds the index over X. X must outlive nothing — the index copies the
  /// rows it needs (representatives + permuted database).
  void build(const Matrix<float>& X, RbcParams params = {}, M metric = {}) {
    metric_ = metric;
    params_ = params;
    n_ = X.rows();
    dim_ = X.cols();
    margin_ = PruneMargin(dim_);

    // The owner of every database point: its nearest representative, the
    // lowest index on ties, at the metric functor's bits (paper §4: "this
    // routine is simply a call to BF(X, R)").
    std::vector<index_t> owner(n_);
    std::vector<dist_t> owner_dist(n_);
    const index_t count = std::min(n_, kOwnerSampleRows);
    OwnerSample sample{count > 0 ? n_ / count : 1, count};
    const index_t root = RbcParams{}.resolve_num_reps(n_);
    RbcParams draw = params;
    if (params.num_reps == 0) draw.num_reps = std::min(n_, 2 * root);
    build_cover(X, draw);
    const std::uint64_t evals = owners_of_sample(X, sample, owner, owner_dist);
    const std::uint64_t sampled = std::uint64_t{num_reps()} * count;
    sample_share_ = count > 0 ? static_cast<double>(evals) /
                                    static_cast<double>(sampled)
                              : 0.0;
    bool brute = evals * 100 > kCoverMaxPercent * sampled;
    if (params.num_reps == 0 && draw.num_reps > root &&
        evals * kDoubledRepsShare > sampled) {
      // The same count, past nr / 5 at twice ceil(sqrt(n)), is past
      // kCoverMaxPercent of ceil(sqrt(n)): the redraw samples nothing and
      // every row takes BF(X, R).
      draw.num_reps = root;
      build_cover(X, draw);
      sample = {};
      brute = true;
    }
    const index_t nr = num_reps();
    owner_path_ = OwnerPath::kCover;
    if (sample.count < n_) {
      if (brute) {
        owners_by_brute_force(X, sample, owner, owner_dist);
        owner_path_ = OwnerPath::kBruteForce;
      } else {
        owners_by_cover(X, sample, owner, owner_dist);
      }
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
    slot_psi_.resize(nr);
    max_psi_.assign(num_inner(), dist_t{0});
    for (index_t j = 0; j < num_inner(); ++j)
      for (index_t s = list_lo_[j]; s < list_lo_[j + 1]; ++s) {
        slot_psi_[s] = psi_[slot_rep_[s]];
        max_psi_[j] = std::max(max_psi_[j], slot_psi_[s]);
      }

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

    parallel_for_dynamic(0, Q.rows(), [&](index_t qi) {
      const auto tid = static_cast<std::size_t>(thread_id());
      TopK& top = heaps[tid];
      top.reset();
      search_one(Q.row(qi), k, top, scratch[tid], &tstats[tid]);
      top.extract_sorted(result.dists.row(qi), result.ids.row(qi));
    });

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
      const dist_t w = margin_.widen(b, dr, psi_[r]);
      // Claim 2 / footnote 2: members are sorted by rho(x, r); once
      // rho(x,r) > rho(q,r) + b, the triangle inequality gives
      // rho(q,x) >= rho(x,r) - rho(q,r) > b for this and all later
      // members — stop scanning this list. w is b plus the margin.
      if (params_.use_early_exit && packed_dist_[p] > dr + w) {
        local.points_skipped_early_exit += hi - p;
        break;
      }
      // Annulus lower bound (extension): rho(q,x) >= rho(q,r) - rho(x,r).
      if (params_.use_annulus_bound && packed_dist_[p] < dr - w) {
        ++local.points_skipped_annulus;
        continue;
      }
      out.push(metric_(q, packed_.row(p), dim_), packed_ids_[p]);
      ++computed;
    }
    counters::add_dist_evals(computed);
    local.list_dist_evals += computed;
  }

  /// Kernelized scan_rep_list: the early-exit / annulus window
  /// [dr - w, dr + w] is frozen from the bound at entry, widened by the
  /// margin (binary search over the sorted member distances), the window
  /// runs through the dispatched row-block kernel, and survivors of the
  /// margin-inflated heap bound are re-measured with the scalar metric.
  /// Identical results to the adaptive loop: freezing the bound only
  /// loosens the window (a candidate superset preserves the unique
  /// (distance, id) k-set), and the heap orders re-measured values only.
  void scan_rep_list_kernel(const float* q, index_t r, dist_t dr,
                            dist_t rep_bound, float inv, TopK& out,
                            SearchStats& local) const
    requires(kernel_metric<M>)
  {
    const index_t lo = offsets_[r], hi = offsets_[r + 1];
    const dist_t w =
        margin_.widen(std::min(rep_bound, out.worst() * inv), dr, psi_[r]);
    const dist_t* pd = packed_dist_.data();
    index_t seg_hi = hi, seg_lo = lo;
    if (params_.use_early_exit) {
      seg_hi = static_cast<index_t>(
          std::upper_bound(pd + lo, pd + hi, dr + w) - pd);
      local.points_skipped_early_exit += hi - seg_hi;
    }
    if (params_.use_annulus_bound) {
      seg_lo = static_cast<index_t>(
          std::lower_bound(pd + lo, pd + seg_hi, dr - w) - pd);
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
  /// rho(q, x) <= radius, sorted ascending by id. Stage 1 runs through the
  /// cover: a representative's list can hold a hit only when rho(q, r) <=
  /// radius + psi_r, so an inner list is evaluated only where its triangle
  /// bound allows that for its largest psi.
  std::vector<index_t> range_search(const float* q, dist_t radius) const {
    const index_t ns = num_inner();
    std::vector<dist_t> inner(ns);
    std::vector<dist_t> slots(num_reps());
    inner_distances(q, inner.data());
    std::uint64_t evals = ns;
    std::vector<index_t> hits;
    for (index_t j = 0; j < ns; ++j) {
      const dist_t dq = inner[j], t = radius + max_psi_[j];
      const auto [a, e] =
          block_window(j, dq, margin_.widen(t, dq, radius_[j]));
      if (a == e) continue;
      eval_slots(q, a, e, slots.data());
      evals += e - a;
      for (index_t s = a; s < e; ++s) {
        // Every member of L_r is within psi_r of r, so the closest any
        // member can be to q is rho(q, r) - psi_r.
        if (slots[s] > radius + slot_psi_[s]) continue;
        scan_range_list(q, slot_rep_[s], slots[s], radius, hits);
      }
    }
    counters::add_dist_evals(evals);
    std::sort(hits.begin(), hits.end());
    return hits;
  }

  /// Stages 1 and 2 for one query, shared by search_one and search_team:
  /// the k nearest representatives through the cover give the bounds
  /// (gamma1, rep_bound), then every representative that survives rules 1
  /// and 2 lands in `plan.survivors`, nearest first, with its distance in
  /// `plan.rep_dists`. Both bounds, the survivors, their distances and
  /// their order are bit-identical to BF(q, R)'s followed by the rules;
  /// only the representative evaluations differ.
  void plan_query(const float* q, index_t k, Scratch& plan,
                  SearchStats& local) const {
    const index_t nr = num_reps(), ns = num_inner();
    plan.rep_dists.resize(nr);
    plan.slot_dists.resize(nr);
    plan.inner_dists.resize(ns);
    plan.order.resize(ns);
    plan.scanned.resize(ns);
    if (plan.rep_top.k() == k)
      plan.rep_top.reset();
    else
      plan.rep_top = TopK(k);
    inner_distances(q, plan.inner_dists.data());
    std::uint64_t evals = ns;

    // ---- stage 1: the k nearest representatives -----------------------
    // A k-NN search of R through the cover, nearest inner list first.
    // gamma_1 = distance to the nearest representative; rep_bound = k-th
    // smallest representative distance (an upper bound on the k-th NN
    // distance, since representatives are database points). The search is
    // exact, so both equal BF(q, R)'s bit for bit.
    dist_t inner_gamma = kInfDist;
    for (index_t j = 0; j < ns; ++j) {
      plan.order[j] = {plan.inner_dists[j], j};
      plan.scanned[j] = {list_lo_[j], list_lo_[j]};
      inner_gamma = std::min(inner_gamma, plan.inner_dists[j]);
    }
    std::sort(plan.order.begin(), plan.order.end());
    TopK& top = plan.rep_top;
    dist_t gamma1 = kInfDist;
    for (const auto& [dq, j] : plan.order) {
      const dist_t b = top.worst();
      // Lemma 1 over the cover: a list farther than 2 b + gamma_S holds no
      // representative within b, nor does any later (farther) list.
      if (margin_.beyond(dq, 2 * b + inner_gamma, dq)) break;
      // Rule 1 and Claim 2 over the cover: the members within b of q.
      const auto [a, e] =
          block_window(j, dq, margin_.widen(b, dq, radius_[j]));
      if (a == e) continue;
      eval_slots(q, a, e, plan.slot_dists.data());
      evals += e - a;
      plan.scanned[j] = {a, e};
      for (index_t s = a; s < e; ++s) {
        top.push(plan.slot_dists[s], slot_rep_[s]);
        gamma1 = std::min(gamma1, plan.slot_dists[s]);
      }
    }
    const dist_t rep_bound = top.worst();
    plan.gamma1 = gamma1;
    plan.rep_bound = rep_bound;

    // ---- stage 2: prune representatives ------------------------------
    // A representative (or point) is discarded only when a rule shows
    // every member *strictly* worse than the current k-th best, by more
    // than the rounding margin, so ties at the boundary are preserved and
    // the result matches brute force exactly. A member of inner list j lies
    // at least |rho(q, s) - rho(s, r)| from q; the members whose bound
    // already passes an enabled rule (rule 1 at the list's largest psi) are
    // pruned unevaluated, counted under that rule, and the rest take the
    // rules at their own distance, exactly as BF(q, R) would. The rules
    // keep a representative up to widen(t) from q, so the window widens t
    // twice: for the rules' margin, then for the triangle bound's rounding.
    const bool overlap = params_.use_overlap_rule;
    const bool lemma = params_.use_lemma_rule;
    const dist_t lemma_bound = 2 * rep_bound + gamma1;
    plan.survivors.clear();
    for (index_t j = 0; j < ns; ++j) {
      const dist_t overlap_bound = rep_bound + max_psi_[j];
      dist_t t = kInfDist;
      if (overlap) t = overlap_bound;
      if (lemma) t = std::min(t, lemma_bound);
      const dist_t dq = plan.inner_dists[j], radius = radius_[j];
      const auto [a, e] = block_window(
          j, dq, margin_.widen(margin_.widen(t, dq, radius), dq, radius));
      const index_t unseen = list_lo_[j + 1] - list_lo_[j] - (e - a);
      if (overlap && !(lemma && lemma_bound < overlap_bound))
        local.reps_pruned_overlap += unseen;
      else
        local.reps_pruned_lemma += unseen;
      // Evaluate the window less the slots stage 1 already holds.
      const auto [sa, se] = plan.scanned[j];
      if (a < std::min(sa, e)) {
        eval_slots(q, a, std::min(sa, e), plan.slot_dists.data());
        evals += std::min(sa, e) - a;
      }
      if (std::max(se, a) < e) {
        eval_slots(q, std::max(se, a), e, plan.slot_dists.data());
        evals += e - std::max(se, a);
      }
      for (index_t s = a; s < e; ++s) {
        const dist_t dr = plan.slot_dists[s];
        if (overlap && margin_.overlap_prunes(dr, rep_bound, slot_psi_[s])) {
          ++local.reps_pruned_overlap;  // rule (1)
          continue;
        }
        if (lemma && margin_.lemma_prunes(dr, rep_bound, gamma1)) {
          ++local.reps_pruned_lemma;  // rule (2), k-NN form
          continue;
        }
        plan.rep_dists[slot_rep_[s]] = dr;
        plan.survivors.push_back(slot_rep_[s]);
      }
    }
    counters::add_dist_evals(evals);
    ++local.queries;
    local.rep_dist_evals += evals;

    // Visit nearest representatives first so the bound tightens early.
    std::sort(plan.survivors.begin(), plan.survivors.end(),
              [&](index_t a, index_t b) {
                const dist_t da = plan.rep_dists[a];
                const dist_t db = plan.rep_dists[b];
                return da < db || (da == db && a < b);
              });
  }

  // ------------------------------------------------------ introspection ---

  index_t size() const { return n_; }
  index_t dim() const { return dim_; }
  index_t num_reps() const { return cover_rows_.rows(); }
  OwnerPath owner_path() const { return owner_path_; }
  /// The build's sampled evaluations per row as a share of the nr it
  /// sampled at (2 ceil(sqrt(n)) for num_reps == 0, even when it then
  /// redrew): the count that picked nr and the owner path.
  double owner_sample_share() const { return sample_share_; }
  const std::vector<index_t>& rep_ids() const { return rep_ids_; }
  dist_t psi(index_t r) const { return psi_[r]; }
  /// The rounding margin that every prune clears.
  const PruneMargin& margin() const { return margin_; }

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
    return packed_.size() * sizeof(float) +
           packed_ids_.size() * sizeof(index_t) +
           packed_dist_.size() * sizeof(dist_t) +
           offsets_.size() * sizeof(index_t) + psi_.size() * sizeof(dist_t) +
           rep_ids_.size() * sizeof(index_t) + qstore_.memory_bytes() +
           cover_rows_.size() * sizeof(float) + lanes_.size() * sizeof(float) +
           inner_rows_.size() * sizeof(float) +
           inner_lanes_.size() * sizeof(float) +
           list_lo_.size() * sizeof(index_t) +
           (radius_.size() + max_psi_.size()) * sizeof(dist_t) +
           slot_rep_.size() * sizeof(index_t) +
           (slot_dist_.size() + slot_psi_.size()) * sizeof(dist_t);
  }

 private:
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
    if (params_.use_overlap_rule &&
        margin_.overlap_prunes(dr, bound, psi_[r])) {
      ++local.reps_pruned_overlap;
      return false;
    }
    if (params_.use_lemma_rule &&
        margin_.lemma_prunes(dr, bound, plan.gamma1)) {
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

  /// The fixed strided sample of the owner search: rows 0, step, 2 step,
  /// ... (count rows). The default holds no row.
  struct OwnerSample {
    index_t step = 1;
    index_t count = 0;
    bool holds(index_t x) const { return x % step == 0 && x / step < count; }
  };

  /// The owners of the sample's rows through the cover. Returns the
  /// sample's evaluation count.
  std::uint64_t owners_of_sample(const Matrix<float>& X, OwnerSample sample,
                                 std::vector<index_t>& owner,
                                 std::vector<dist_t>& owner_dist) const {
    std::atomic<std::uint64_t> evals{0};
    parallel_for_blocked(0, sample.count, 64, [&](index_t lo, index_t hi) {
      evals += owners_through_cover(X, lo, hi, owner, owner_dist,
                                    [&](index_t i) { return i * sample.step; });
    });
    return evals.load();
  }

  /// The owners of the rows outside `sample` through the cover.
  void owners_by_cover(const Matrix<float>& X, OwnerSample sample,
                       std::vector<index_t>& owner,
                       std::vector<dist_t>& owner_dist) const {
    parallel_for_blocked(0, n_, 256, [&](index_t lo, index_t hi) {
      owners_through_cover(X, lo, hi, owner, owner_dist, [&](index_t x) {
        return sample.holds(x) ? kInvalidIndex : x;
      });
    });
  }

  /// 1-NN over R of X row row(i) for each i in [lo, hi), skipping an i
  /// whose row(i) is kInvalidIndex, written straight into owner and
  /// owner_dist. The nearest inner list goes first; rule 1 and Claim 2
  /// (block_window) and Lemma 1 (rule 2) skip lists and runs that cannot
  /// hold a representative within the best distance so far, with rounding
  /// margin, so the (distance, id) minimum — the lowest-index nearest
  /// representative at the functor's bits — equals BF(X, R)'s. Returns the
  /// evaluations it counted.
  template <class Row>
  std::uint64_t owners_through_cover(const Matrix<float>& X, index_t lo,
                                     index_t hi, std::vector<index_t>& owner,
                                     std::vector<dist_t>& owner_dist,
                                     Row row) const {
    const index_t ns = num_inner();
    std::vector<dist_t> inner(ns);
    std::vector<index_t> lists(ns);
    std::vector<dist_t> slots(num_reps());
    TopK top(1);
    std::uint64_t evals = 0;
    for (index_t i = lo; i < hi; ++i) {
      const index_t x = row(i);
      if (x == kInvalidIndex) continue;
      const float* q = X.row(x);
      inner_distances(q, inner.data());
      evals += ns;
      const index_t first = static_cast<index_t>(
          std::min_element(inner.begin(), inner.end()) - inner.begin());
      const dist_t gamma = inner[first];
      top.reset();
      const auto [fa, fe] = block_window(first, gamma, kInfDist);  // all
      evals += fe - fa;
      nearest_in_slots(q, fa, fe, slots.data(), top);
      // Every other list that the bound after it does not rule out (rule 1
      // at the list radius, Lemma 1), found in one branch-free pass; each is
      // re-checked below under the best so far.
      const dist_t bound = top.worst();
      index_t count = 0;
      for (index_t j = 0; j < ns; ++j) {
        const dist_t dq = inner[j];
        lists[count] = j;
        count += j != first &&
                 dq - margin_.widen(bound, dq, radius_[j]) <= radius_[j] &&
                 !margin_.beyond(dq, 2 * bound + gamma, dq);
      }
      for (index_t c = 0; c < count; ++c) {
        const index_t j = lists[c];
        const dist_t dq = inner[j], best = top.worst();
        if (margin_.beyond(dq, 2 * best + gamma, dq)) continue;  // Lemma 1
        const auto [a, e] =
            block_window(j, dq, margin_.widen(best, dq, radius_[j]));
        if (a == e) continue;
        evals += e - a;
        nearest_in_slots(q, a, e, slots.data(), top);
      }
      top.extract_sorted(&owner_dist[x], &owner[x]);
    }
    counters::add_dist_evals(evals);
    return evals;
  }

  /// Offers the representatives in slots [a, e) to the 1-NN heap `top` at
  /// the functor's bits: the lane shape, the metric's row-kernel prefilter
  /// plus a functor re-measure (kernel_scan_rows), or the functor loop.
  void nearest_in_slots(const float* q, index_t a, index_t e, dist_t* slots,
                        TopK& top) const {
    if (lanes_active()) {
      eval_slots(q, a, e, slots);
      for (index_t s = a; s < e; ++s)
        if (slots[s] <= top.worst()) top.push(slots[s], slot_rep_[s]);
      return;
    }
    if constexpr (kernel_metric<M>) {
      if (e - a >= kKernelMinSegment) {
        kernel_scan_rows(q, cover_rows_, a, e, metric_, top,
                         [this](index_t s) { return slot_rep_[s]; });
        return;
      }
    }
    for (index_t s = a; s < e; ++s)
      top.push(metric_(q, cover_rows_.row(s), dim_), slot_rep_[s]);
  }

  /// BF(X, R) for the rows outside `sample`: every representative distance
  /// of every row. Parallel over X, one distance buffer per block of rows.
  void owners_by_brute_force(const Matrix<float>& X, OwnerSample sample,
                             std::vector<index_t>& owner,
                             std::vector<dist_t>& owner_dist) const {
    const index_t nr = num_reps();
    parallel_for_blocked(0, n_, 256, [&](index_t lo, index_t hi) {
      std::vector<dist_t> dists(nr);
      for (index_t x = lo; x < hi; ++x) {
        if (sample.holds(x)) continue;
        eval_slots(X.row(x), 0, nr, dists.data());
        dist_t best = kInfDist;
        index_t best_rep = kInvalidIndex;
        for (index_t s = 0; s < nr; ++s) {
          const index_t r = slot_rep_[s];
          // Ties resolve to the lowest representative index.
          if (dists[s] < best || (dists[s] == best && r < best_rep)) {
            best = dists[s];
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

  /// Draws the representatives R under `draw` and builds their two-level
  /// cover: ceil(sqrt(nr)) inner representatives drawn from R under the
  /// index seed (default params, so the outer approx_eps, rules, sampling
  /// and storage never reach it), every representative in the list of its
  /// nearest one (BF(R, S), lowest index on ties), lists
  /// end to end in inner order, each sorted by (rho(s, r), r). The rows
  /// are copied in that order, row-major and lane-blocked; a list starts
  /// wherever the previous one ends, so BF(X, R) reads no padding lanes.
  void build_cover(const Matrix<float>& X, const RbcParams& draw) {
    rep_ids_ = choose_representatives(n_, draw);
    const index_t nr = static_cast<index_t>(rep_ids_.size());
    RbcParams inner_params;
    inner_params.seed = params_.seed;
    const std::vector<index_t> inner = choose_representatives(nr, inner_params);
    const index_t ns = static_cast<index_t>(inner.size());
    inner_rows_ = Matrix<float>(ns, dim_);
    for (index_t j = 0; j < ns; ++j)
      inner_rows_.copy_row_from(X, rep_ids_[inner[j]], j);
    inner_lanes_ = pack(inner_rows_);

    std::vector<index_t> own(nr);
    std::vector<dist_t> own_dist(nr);
    parallel_for_blocked(0, nr, 64, [&](index_t lo, index_t hi) {
      std::vector<dist_t> dists(ns);
      for (index_t r = lo; r < hi; ++r) {
        inner_distances(X.row(rep_ids_[r]), dists.data());
        const auto nearest = std::min_element(dists.begin(), dists.end());
        own[r] = static_cast<index_t>(nearest - dists.begin());
        own_dist[r] = *nearest;
      }
    });
    counters::add_dist_evals(std::uint64_t{nr} * ns);

    std::vector<std::pair<dist_t, index_t>> items(nr);
    list_lo_.assign(ns + 1, 0);
    for (index_t r = 0; r < nr; ++r) ++list_lo_[own[r] + 1];
    for (index_t j = 0; j < ns; ++j) list_lo_[j + 1] += list_lo_[j];
    {
      std::vector<index_t> cursor(list_lo_.begin(), list_lo_.end() - 1);
      for (index_t r = 0; r < nr; ++r) items[cursor[own[r]]++] = {own_dist[r], r};
    }
    slot_rep_.resize(nr);
    slot_dist_.resize(nr);
    radius_.assign(ns, dist_t{0});
    for (index_t j = 0; j < ns; ++j) {
      std::sort(items.begin() + list_lo_[j], items.begin() + list_lo_[j + 1]);
      for (index_t s = list_lo_[j]; s < list_lo_[j + 1]; ++s) {
        slot_dist_[s] = items[s].first;
        slot_rep_[s] = items[s].second;
        radius_[j] = slot_dist_[s];
      }
    }
    cover_rows_ = Matrix<float>(nr, dim_);
    for (index_t s = 0; s < nr; ++s)
      cover_rows_.copy_row_from(X, rep_ids_[slot_rep_[s]], s);
    lanes_ = pack(cover_rows_);
  }

  /// The lane-blocked copy of `rows` that the l2_lanes shape reads
  /// (Euclidean only; other metrics keep it empty).
  AlignedBuffer<float> pack(const Matrix<float>& rows) const {
    AlignedBuffer<float> lanes;
    if constexpr (std::is_same_v<M, Euclidean>) {
      lanes = AlignedBuffer<float>(dispatch::lanes_size(rows.rows(), dim_),
                                   /*zero=*/true);
      dispatch::pack_lanes(rows.data(), rows.stride(), rows.rows(), dim_,
                           lanes.data());
    }
    return lanes;
  }

  index_t num_inner() const { return inner_rows_.rows(); }

  /// True when representative distances run the dispatched bit-exact
  /// l2_lanes shape: Euclidean on a SIMD table. Other metrics, and the
  /// scalar table (whose l2_lanes is the functor loop, only strided, and
  /// slower), run the per-pair functor over the row-major copies.
  bool lanes_active() const {
    if constexpr (std::is_same_v<M, Euclidean>)
      return dispatch::fast_kernel();
    else
      return false;
  }

  /// out[j] = metric_(q, s_j) for every inner representative.
  void inner_distances(const float* q, dist_t* out) const {
    const index_t ns = num_inner();
    if (lanes_active()) {
      dispatch::ops().l2_lanes(q, dim_, inner_lanes_.data(), ns, out);
      return;
    }
    for (index_t j = 0; j < ns; ++j)
      out[j] = metric_(q, inner_rows_.row(j), dim_);
  }

  /// out[s] = metric_(q, representative in slot s) for s in [a, e), in the
  /// metric functor's exact bits. The lane shape starts at a's lane block,
  /// so it also writes the slots before a in that block (with their own
  /// exact distances). Callers account e - a evaluations.
  void eval_slots(const float* q, index_t a, index_t e, dist_t* out) const {
    if (lanes_active()) {
      const index_t a0 = a - a % dispatch::kLanes;
      dispatch::ops().l2_lanes(q, dim_, lanes_.data() + std::size_t{a0} * dim_,
                               e - a0, out + a0);
      return;
    }
    for (index_t s = a; s < e; ++s)
      out[s] = metric_(q, cover_rows_.row(s), dim_);
  }

  /// The slots of inner list j whose distance to s_j lies within w of dq
  /// = rho(q, s_j): by the triangle inequality no other member is within
  /// w - (rounding) of q. Widened to whole lane blocks inside the list, which
  /// the lane shape computes anyway; every ISA takes the same window, so
  /// work counts do not depend on the ISA. Empty when no member qualifies.
  std::pair<index_t, index_t> block_window(index_t j, dist_t dq,
                                           dist_t w) const {
    const index_t lo = list_lo_[j], hi = list_lo_[j + 1];
    const dist_t* sd = slot_dist_.data();
    // Most lists miss or cover the window whole: test its ends first.
    if (lo == hi || dq - w > radius_[j] || dq + w < sd[lo]) return {lo, lo};
    const auto a = dq - w <= sd[lo] ? lo
                                    : static_cast<index_t>(std::lower_bound(
                                          sd + lo, sd + hi, dq - w) - sd);
    const auto e = dq + w >= radius_[j]
                       ? hi
                       : static_cast<index_t>(
                             std::upper_bound(sd + a, sd + hi, dq + w) - sd);
    if (a == e) return {a, a};
    constexpr index_t kL = dispatch::kLanes;
    return {std::max(lo, a - a % kL), std::min(hi, e + (kL - e % kL) % kL)};
  }

  /// Range search's stage 3 for list L_r at rho(q, r) = dr: the window of
  /// members whose sorted distance to r lies within radius of dr (Claim 2
  /// and its annulus, with rounding margin), prefiltered by the metric's
  /// row kernel at the margin-inflated radius and re-measured with the
  /// functor, so the hits equal a functor scan's.
  void scan_range_list(const float* q, index_t r, dist_t dr, dist_t radius,
                       std::vector<index_t>& hits) const {
    const index_t lo = offsets_[r], hi = offsets_[r + 1];
    const dist_t w = margin_.widen(radius, dr, psi_[r]);
    const dist_t* pd = packed_dist_.data();
    const auto a =
        static_cast<index_t>(std::lower_bound(pd + lo, pd + hi, dr - w) - pd);
    const auto e =
        static_cast<index_t>(std::upper_bound(pd + a, pd + hi, dr + w) - pd);
    counters::add_dist_evals(e - a);
    const auto emit = [&](index_t p) { hits.push_back(packed_ids_[p]); };
    if constexpr (kernel_metric<M>) {
      if (e - a >= kKernelMinSegment) {
        kernel_range_rows(q, packed_, a, e, metric_, radius, emit);
        return;
      }
    }
    for (index_t p = a; p < e; ++p)
      if (metric_(q, packed_.row(p), dim_) <= radius) emit(p);
  }

  M metric_{};
  RbcParams params_{};
  index_t n_ = 0;
  index_t dim_ = 0;
  PruneMargin margin_;  // rounding margin of every prune
  OwnerPath owner_path_ = OwnerPath::kBruteForce;
  double sample_share_ = 0.0;

  std::vector<index_t> rep_ids_;  // original ids of representatives
  std::vector<dist_t> psi_;       // list radii
  std::vector<index_t> offsets_;  // CSR: nr + 1
  Matrix<float> packed_;          // n x d rows grouped by owner
  std::vector<index_t> packed_ids_;  // original id of each packed row
  std::vector<dist_t> packed_dist_;  // rho(x, owner(x)), sorted per list

  // ---- the cover of R (build_cover; derived at build, never saved) ----
  Matrix<float> inner_rows_;          // ns x d inner representatives S
  AlignedBuffer<float> inner_lanes_;  // inner_rows_ lane-blocked
  std::vector<index_t> list_lo_;      // inner list j: slots [lo[j], lo[j+1])
  std::vector<dist_t> radius_;        // per inner list: max rho(s, r)
  std::vector<dist_t> max_psi_;       // per inner list: max psi_r
  Matrix<float> cover_rows_;          // nr x d representatives by slot
  AlignedBuffer<float> lanes_;        // cover_rows_ lane-blocked
  std::vector<index_t> slot_rep_;     // representative index of each slot
  std::vector<dist_t> slot_dist_;     // rho(s, r), sorted per inner list
  std::vector<dist_t> slot_psi_;      // psi_r of each slot

  // ---- compressed scan tier (see "compressed tier" section above) ----
  quant::Storage storage_req_ = quant::Storage::kFloat32;  // build request
  quant::QuantizedStore qstore_;  // active when built compressed
};

}  // namespace rbc
