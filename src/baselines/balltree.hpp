// Metric ball tree baseline (Omohundro [23], Yianilos [31]) — the classic
// family the paper's §3 uses as its running example of a structure whose
// "interleaved series of distance computations, bound computations, and
// distance comparisons" parallelizes poorly. Implemented here as a second
// sequential baseline and correctness cross-check.
//
// Construction: pivot pair splitting — pick two far-apart database points,
// partition members by nearer pivot, recurse. Every node stores an actual
// database point as center plus the covering radius, so the structure works
// for any true metric. Queries are exact and deterministic under the
// library-wide (distance, id) order.
#pragma once

#include <utility>
#include <vector>

#include "bruteforce/topk.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "distance/metrics.hpp"

namespace rbc {

template <DenseMetric M = Euclidean>
class BallTree {
  static_assert(M::is_true_metric,
                "ball trees require a true metric (triangle inequality)");

 public:
  BallTree() = default;

  /// Builds over X (non-owning; X must outlive the tree).
  void build(const Matrix<float>& X, index_t leaf_size = 16, M metric = {},
             std::uint64_t seed = 0x5eed);

  /// Exact k-NN under the (distance, id) order.
  void knn(const float* q, index_t k, TopK& out) const;

  std::pair<dist_t, index_t> nn(const float* q) const {
    TopK top(1);
    knn(q, 1, top);
    dist_t d;
    index_t id;
    top.extract_sorted(&d, &id);
    return {d, id};
  }

  index_t size() const { return db_ == nullptr ? 0 : db_->rows(); }
  index_t num_nodes() const { return static_cast<index_t>(nodes_.size()); }

  /// Bytes the tree holds: its nodes and row order (not the rows of X).
  std::size_t memory_bytes() const {
    return nodes_.capacity() * sizeof(Node) +
           order_.capacity() * sizeof(index_t);
  }

  /// Structural invariants: every member of a node lies within its radius;
  /// children partition the parent's range.
  bool check_invariants() const;

 private:
  struct Node {
    index_t center;         // db row acting as the ball center
    dist_t radius;          // max distance from center to any member
    std::int32_t left = -1;  // < 0: leaf
    std::int32_t right = -1;
    index_t begin = 0;  // members: order_[begin, end)
    index_t end = 0;
    bool leaf() const { return left < 0; }
  };

  std::int32_t build_node(index_t begin, index_t end, index_t leaf_size,
                          Rng& rng);
  void knn_descend(std::int32_t node, dist_t dist_to_center, const float* q,
                   TopK& out) const;

  const Matrix<float>* db_ = nullptr;
  M metric_{};
  std::vector<Node> nodes_;
  std::vector<index_t> order_;
};

}  // namespace rbc

#include "baselines/balltree_impl.hpp"
