// Tunable parameters of the Random Ball Cover (paper §4-§6).
#pragma once

#include <cmath>
#include <cstdint>

#include "common/types.hpp"

namespace rbc {

/// How the random representative subset R is drawn (paper §4: "built by
/// choosing each element of the database independently at random with
/// probability nr/n").
enum class Sampling : std::uint8_t {
  /// Exactly num_reps distinct points, uniformly without replacement.
  /// The practical default: deterministic memory footprint.
  kExactCount,
  /// i.i.d. Bernoulli(nr/n) per point — the paper's model, matched by the
  /// theory; |R| is then only nr in expectation.
  kBernoulli,
};

/// Build- and search-time knobs shared by both RBC variants.
///
/// The "standard parameter setting" of the paper is nr = O(c^{3/2} sqrt(n))
/// for exact search (Theorem 1) and nr = s = c sqrt(n ln(1/delta)) for
/// one-shot (Theorem 2); num_reps == 0 defaults to ceil(sqrt(n)), the
/// c-agnostic baseline the experiments sweep around (Fig. 3, Appendix C).
/// The exact index (RbcExactIndex) reads num_reps == 0 its own way: it
/// draws 2 ceil(sqrt(n)) representatives and keeps them where its build's
/// sampled owner search shows they prune, and ceil(sqrt(n)) otherwise.
struct RbcParams {
  /// Expected number of representatives nr. 0 = auto: ceil(sqrt(n)), or
  /// for the exact index 2 ceil(sqrt(n)) where its sample shows it pays.
  index_t num_reps = 0;

  /// One-shot only: list length s (number of points owned per
  /// representative). 0 = auto (equal to the resolved num_reps, the paper's
  /// nr = s choice in §7.2).
  index_t points_per_rep = 0;

  /// Seed for representative selection; fixed seed => reproducible index.
  std::uint64_t seed = 0x5eed;

  Sampling sampling = Sampling::kExactCount;

  // ---- exact-search pruning controls (§5.2; ablation_pruning bench) ----

  /// Rule (1): discard r when rho(q,r) > gamma + psi_r (ball overlap test).
  bool use_overlap_rule = true;

  /// Rule (2): discard r when rho(q,r) > 3*gamma (Lemma 1). Generalized to
  /// k-NN as rho(q,r) > 2*gamma_k + gamma_1.
  bool use_lemma_rule = true;

  /// Claim 2 refinement: ownership lists are stored sorted by distance to
  /// their representative, and a list scan stops at the first member with
  /// rho(x,r) > rho(q,r) + gamma (no later member can improve).
  bool use_early_exit = true;

  /// Extension (not in the paper's algorithm, implied by the same triangle
  /// bound): skip an individual member without computing its distance when
  /// rho(x,r) < rho(q,r) - gamma, so a scan reads the two-sided window
  /// [rho(q,r) - w, rho(q,r) + w] of each sorted list. Every window end and
  /// every rule clears a relative rounding margin (w = gamma + m (rho(q,r)
  /// + psi_r + gamma), m = 2 tile_margin(d); PruneMargin in rbc_exact.hpp),
  /// so the skipped members are strictly worse than the k-th best, ties
  /// included. Set it false for the paper's one-sided rule set.
  bool use_annulus_bound = true;

  /// (1+eps)-approximate exact search (paper §5, footnote 1: the exact
  /// algorithm "can be easily modified so that it only guarantees an
  /// approximate nearest neighbor, which reduces search time").
  /// 0 = exact. With eps > 0 every pruning bound is tightened by 1/(1+eps);
  /// the returned j-th distance is guaranteed <= (1+eps) * the true j-th
  /// distance. Applies to the exact index's k-NN search only. Must satisfy
  /// approx_eps_valid (make_index rejects other values).
  float approx_eps = 0.0f;

  // ---- one-shot search controls ----

  /// Extension: scan the ownership lists of this many nearest
  /// representatives instead of just the single nearest (trades time for
  /// recall, like IVF nprobe). 1 = the paper's algorithm.
  index_t num_probes = 1;

  /// Resolves num_reps for a database of n points (ceil(sqrt(n)) for 0).
  index_t resolve_num_reps(index_t n) const;

  /// Resolves the one-shot list length s for a database of n points.
  index_t resolve_points_per_rep(index_t n) const;
};

/// True when `eps` is a usable RbcParams::approx_eps: finite and >= 0.
/// Below -1 the bound factor 1/(1+eps) is negative and prunes every list,
/// so every answer would come back empty.
inline bool approx_eps_valid(float eps) {
  return std::isfinite(eps) && eps >= 0.0f;
}

/// Theorem 2 parameter rule: nr = s = c * sqrt(n * ln(1/delta)); returns the
/// value clamped to [1, n]. Useful when an expansion-rate estimate is
/// available (see data/expansion_rate.hpp).
index_t oneshot_theory_params(index_t n, double c, double delta);

}  // namespace rbc
