// Random Ball Cover — one-shot search variant (paper §4, §5.1, §6.2).
//
// Build: BF(R, X) gives each representative the s nearest database points as
// its (overlapping) ownership list; psi_r is the distance to the s-th.
//
// Search: BF(q, R) finds the nearest representative r*, then BF(q, X[L_r*])
// answers from that single list. "Almost absurdly simple" (§5.1) — and with
// nr = s = c sqrt(n ln 1/delta) it returns the true NN with probability
// >= 1 - delta (Theorem 2).
//
// Extensions beyond the paper (both off by default):
//  * k-NN: the final scan keeps a k-heap instead of a running min;
//  * multi-probe (params.num_probes > 1): scan the lists of the p nearest
//    representatives, deduplicating the overlap — trades time for recall.
#pragma once

#include <cassert>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bruteforce/bf.hpp"
#include "bruteforce/kernel_scan.hpp"
#include "bruteforce/topk.hpp"
#include "common/matrix.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/runtime.hpp"
#include "rbc/params.hpp"
#include "rbc/sampling.hpp"
#include "rbc/stats.hpp"

namespace rbc {

template <DenseMetric M = Euclidean>
class RbcOneShotIndex {
 public:
  /// Per-thread scratch (reused across queries; allocation-free hot path).
  struct Scratch {
    TopK probes{1};
    std::unordered_set<index_t> seen;
    std::vector<dist_t> probe_dists;
    std::vector<index_t> probe_reps;
  };

  RbcOneShotIndex() = default;

  /// Builds the index: samples representatives and runs BF(R, X) to collect
  /// each representative's s nearest database points.
  void build(const Matrix<float>& X, RbcParams params = {}, M metric = {}) {
    metric_ = metric;
    params_ = params;
    n_ = X.rows();
    dim_ = X.cols();
    s_ = params.resolve_points_per_rep(n_);

    rep_ids_ = choose_representatives(n_, params);
    const index_t nr = static_cast<index_t>(rep_ids_.size());

    reps_ = Matrix<float>(nr, dim_);
    for (index_t r = 0; r < nr; ++r) reps_.copy_row_from(X, rep_ids_[r], r);

    // BF(R, X) with k = s (paper §4: "this procedure is simply a call to
    // BF(R, X)"). One independent k-NN per representative, parallelized
    // across representatives.
    packed_ = Matrix<float>(nr * s_, dim_);
    packed_ids_.assign(static_cast<std::size_t>(nr) * s_, kInvalidIndex);
    packed_dist_.assign(static_cast<std::size_t>(nr) * s_, kInfDist);
    psi_.assign(nr, 0.0f);

    const int nt = max_threads();
    std::vector<TopK> heaps(static_cast<std::size_t>(nt), TopK(s_));
    parallel_for_dynamic(0, nr, [&](index_t r) {
      TopK& top = heaps[static_cast<std::size_t>(thread_id())];
      top.reset();
      bf_scan_rows(reps_.row(r), X, 0, n_, metric_, top);
      const std::size_t base = static_cast<std::size_t>(r) * s_;
      top.extract_sorted(packed_dist_.data() + base, packed_ids_.data() + base);
      // s_ <= n, so the list is always full; psi is the distance to the
      // furthest (s-th) member.
      psi_[r] = packed_dist_[base + s_ - 1];
      for (index_t j = 0; j < s_; ++j)
        packed_.copy_row_from(X, packed_ids_[base + j],
                              static_cast<index_t>(base + j));
    });

    // Compressed scan tier: quantize the packed lists once at build. The
    // one-shot tier is already probabilistic, so the quantized store is
    // used as a standalone approximate mode — stage 2 ranks by the
    // quantized distances directly, no float re-measure (kernel_scan.hpp,
    // quantized_scan_rows_approx).
    if (storage_req_ != quant::Storage::kFloat32)
      qstore_ = quant::quantize(storage_req_, packed_);
    else
      qstore_ = {};
  }

  // ----------------------------------------------------- compressed tier ---

  /// Requests a compressed row store ("fp16"/"int8") for the stage-2 list
  /// scans; takes effect at the next build(). Euclidean only
  /// (quantized_metric) — callers gate before requesting. Unlike the exact
  /// index, searches then rank by quantized distances (approximate).
  void set_storage(quant::Storage mode) { storage_req_ = mode; }

  quant::Storage storage() const {
    return qstore_.active() ? qstore_.mode : quant::Storage::kFloat32;
  }

  // ------------------------------------------------------------- queries ---

  /// k-NN for a batch of queries; parallel across queries.
  KnnResult search(const Matrix<float>& Q, index_t k,
                   SearchStats* stats = nullptr) const {
    assert(Q.cols() == dim_);
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

  /// k-NN for a single query. Results land in `out` (caller resets).
  void search_one(const float* q, index_t k, TopK& out, Scratch& scratch,
                  SearchStats* stats = nullptr) const {
    (void)k;  // capacity lives in `out`; parameter kept for API symmetry
    const index_t nr = reps_.rows();
    const index_t probes = std::min<index_t>(
        params_.num_probes == 0 ? 1 : params_.num_probes, nr);

    SearchStats local;
    local.queries = 1;

    // Stage 1: BF(q, R) — nearest `probes` representatives, through the
    // dispatched row-block kernel for kernel metrics (prefilter + scalar
    // re-measure => identical probe selection; see kernel_scan.hpp).
    if (scratch.probes.k() != probes) scratch.probes = TopK(probes);
    scratch.probes.reset();
    // InnerProduct is excluded: its kernel prefilter needs a norm-scaled
    // absolute slack this index does not cache (the functor loop stays
    // exact; see kernel_scan.hpp).
    if constexpr (kernel_metric<M> && !std::is_same_v<M, InnerProduct>) {
      kernel_scan_rows(q, reps_, 0, nr, metric_, scratch.probes);
      counters::add_dist_evals(nr);
    } else {
      bf_scan_rows(q, reps_, 0, nr, metric_, scratch.probes);
    }
    local.rep_dist_evals = nr;

    scratch.probe_dists.resize(probes);
    scratch.probe_reps.resize(probes);
    auto& probe_dists = scratch.probe_dists;
    auto& probe_reps = scratch.probe_reps;
    scratch.probes.extract_sorted(probe_dists.data(), probe_reps.data());

    // Stage 2: BF(q, X[L_r]) over the chosen list(s). The single-probe
    // case — the paper's algorithm — is a contiguous packed-row scan and
    // runs the dispatched row-block kernel; the multi-probe extension keeps
    // the per-point loop because its dedup accounting skips duplicate
    // evaluations entirely.
    const bool dedup = probes > 1;
    if (dedup) scratch.seen.clear();
    for (index_t pi = 0; pi < probes; ++pi) {
      const index_t r = probe_reps[pi];
      if (r == kInvalidIndex) break;
      ++local.reps_scanned;
      const std::size_t base = static_cast<std::size_t>(r) * s_;
      // Compressed tier, single probe: rank by the quantized distances
      // (approximate — this tier's contract is recall, not exactness; the
      // store shaves another 2x/4x off the already-sublinear scan's memory
      // traffic). Multi-probe keeps the float loop: its dedup must skip
      // duplicate ids before they reach the heap.
      if constexpr (quantized_metric<M>) {
        if (!dedup && qstore_.active()) {
          quantized_scan_rows_approx<M>(
              q, dim_, qstore_, static_cast<index_t>(base),
              static_cast<index_t>(base + s_), out,
              [this](index_t p) { return packed_ids_[p]; });
          counters::add_dist_evals(s_);
          local.list_dist_evals += s_;
          continue;
        }
      }
      if constexpr (kernel_metric<M> && !std::is_same_v<M, InnerProduct>) {
        if (!dedup) {
          kernel_scan_rows(
              q, packed_, static_cast<index_t>(base),
              static_cast<index_t>(base + s_), metric_, out,
              [this](index_t p) { return packed_ids_[p]; });
          counters::add_dist_evals(s_);
          local.list_dist_evals += s_;
          continue;
        }
      }
      std::uint64_t computed = 0;
      for (index_t j = 0; j < s_; ++j) {
        const index_t id = packed_ids_[base + j];
        if (dedup && !scratch.seen.insert(id).second) continue;
        out.push(metric_(q, packed_.row(static_cast<index_t>(base + j)), dim_),
                 id);
        ++computed;
      }
      counters::add_dist_evals(computed);
      local.list_dist_evals += computed;
    }

    if (stats != nullptr) stats->merge(local);
  }

  // ------------------------------------------------------ introspection ---

  index_t size() const { return n_; }
  index_t dim() const { return dim_; }
  index_t num_reps() const { return reps_.rows(); }
  index_t points_per_rep() const { return s_; }
  const std::vector<index_t>& rep_ids() const { return rep_ids_; }
  dist_t psi(index_t r) const { return psi_[r]; }

  /// Original ids of L_r, ascending by (distance to r, id).
  std::span<const index_t> list_ids(index_t r) const {
    return {packed_ids_.data() + static_cast<std::size_t>(r) * s_, s_};
  }
  std::span<const dist_t> list_dists(index_t r) const {
    return {packed_dist_.data() + static_cast<std::size_t>(r) * s_, s_};
  }

  /// Copies the representative rows and packed list rows into caller-owned
  /// matrices (nr x d and nr*s x d respectively). Used by accelerator
  /// backends (gpu::GpuRbcOneShot) to upload the index without reaching
  /// into its internals.
  void export_rows(Matrix<float>& reps_out, Matrix<float>& packed_out) const {
    assert(reps_out.rows() == reps_.rows() && reps_out.cols() == dim_);
    assert(packed_out.rows() == packed_.rows() && packed_out.cols() == dim_);
    for (index_t r = 0; r < reps_.rows(); ++r)
      reps_out.copy_row_from(reps_, r, r);
    for (index_t p = 0; p < packed_.rows(); ++p)
      packed_out.copy_row_from(packed_, p, p);
  }

  std::size_t memory_bytes() const {
    return packed_.size() * sizeof(float) + reps_.size() * sizeof(float) +
           packed_ids_.size() * sizeof(index_t) +
           packed_dist_.size() * sizeof(dist_t) + psi_.size() * sizeof(dist_t) +
           rep_ids_.size() * sizeof(index_t) + qstore_.memory_bytes();
  }

 private:
  M metric_{};
  RbcParams params_{};
  index_t n_ = 0;
  index_t dim_ = 0;
  index_t s_ = 0;  // points per representative

  Matrix<float> reps_;
  std::vector<index_t> rep_ids_;
  std::vector<dist_t> psi_;
  Matrix<float> packed_;             // (nr * s) x d; row r*s+j = j-th NN of rep r
  std::vector<index_t> packed_ids_;  // original ids, per-list ascending dist
  std::vector<dist_t> packed_dist_;  // rho(x, r) per packed row

  // ---- compressed scan tier (see "compressed tier" section above) ----
  quant::Storage storage_req_ = quant::Storage::kFloat32;
  quant::QuantizedStore qstore_;
};

}  // namespace rbc
