// Cover Tree baseline (Beygelzimer, Kakade & Langford, ICML 2006) — the
// state-of-the-art sequential competitor the paper compares against (§7.4).
//
// This is a from-scratch "simplified / nearest-ancestor" cover tree:
//  * every node stores one database point and an integer level;
//  * covering invariant: every child c of x satisfies
//      rho(x, c) <= covdist(x) = 2^level(x),   level(c) < level(x);
//  * duplicate points (distance exactly 0) are folded into the node they
//    duplicate rather than growing a chain;
//  * after construction each node stores maxdist = the maximum distance from
//    its point to any descendant, which gives the query-time lower bound
//      rho(q, any descendant of c) >= rho(q, c) - maxdist(c).
//
// Queries are exact and deterministic under the library-wide (distance, id)
// order, so tests can require cover-tree results == brute force, ties
// included. Queries run on a single core, exactly how the paper benchmarks
// the cover tree ("we run the Cover Tree only on one core", §7.4).
#pragma once

#include <utility>
#include <vector>

#include "bruteforce/topk.hpp"
#include "common/matrix.hpp"
#include "distance/metrics.hpp"

namespace rbc {

template <DenseMetric M = Euclidean>
class CoverTree {
  static_assert(M::is_true_metric,
                "cover trees require a true metric (triangle inequality)");

 public:
  CoverTree() = default;

  /// Builds by sequential insertion. Keeps a non-owning pointer to X, which
  /// must outlive the tree.
  void build(const Matrix<float>& X, M metric = {});

  /// Exact k-NN of q under the (distance, id) order.
  void knn(const float* q, index_t k, TopK& out) const;

  /// Convenience 1-NN.
  std::pair<dist_t, index_t> nn(const float* q) const {
    TopK top(1);
    knn(q, 1, top);
    dist_t d;
    index_t id;
    top.extract_sorted(&d, &id);
    return {d, id};
  }

  index_t size() const { return size_; }
  bool empty() const { return nodes_.empty(); }
  int root_level() const { return empty() ? 0 : nodes_[root_].level; }

  /// Structural invariant check for tests: covering property and level
  /// monotonicity at every edge, and maxdist correctness.
  bool check_invariants() const;

  /// Number of nodes (== number of distinct points; duplicates fold).
  index_t num_nodes() const { return static_cast<index_t>(nodes_.size()); }

  /// Bytes the tree holds: its nodes with their child and duplicate lists
  /// (not the rows of X).
  std::size_t memory_bytes() const {
    std::size_t bytes = nodes_.capacity() * sizeof(Node);
    for (const Node& node : nodes_)
      bytes += (node.children.capacity() + node.duplicates.capacity()) *
               sizeof(index_t);
    return bytes;
  }

 private:
  struct Node {
    index_t point;                  // row in the database
    int level;                      // covdist = 2^level
    float maxdist;                  // max distance to any descendant point
    index_t parent;                 // node index, kInvalidIndex for root
    std::vector<index_t> children;  // node indices
    std::vector<index_t> duplicates;  // db rows identical to `point`
  };

  static dist_t covdist(int level) { return std::ldexp(1.0f, level); }

  void insert(index_t db_row);
  void compute_maxdist();
  void knn_descend(index_t node, dist_t dist_to_node, const float* q,
                   TopK& out) const;

  const Matrix<float>* db_ = nullptr;
  M metric_{};
  std::vector<Node> nodes_;
  index_t root_ = kInvalidIndex;
  index_t size_ = 0;
};

}  // namespace rbc

#include "baselines/covertree_impl.hpp"
