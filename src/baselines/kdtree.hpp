// kd-tree baseline. The paper notes (§7.1) that "in very low-dimensional
// spaces, basic data structures like kd-trees are extremely effective"; this
// implementation provides that reference point for the low-dimensional
// datasets (tiny4/tiny8) and a correctness cross-check for the test suite.
//
// Euclidean metric only (axis-aligned splitting planes bound L2 distances).
// Exact, deterministic under the (distance, id) order.
#pragma once

#include <utility>
#include <vector>

#include "bruteforce/topk.hpp"
#include "common/matrix.hpp"

namespace rbc {

class KdTree {
 public:
  KdTree() = default;

  /// Builds over X (non-owning; X must outlive the tree).
  /// `leaf_size` points or fewer form a leaf scanned linearly.
  void build(const Matrix<float>& X, index_t leaf_size = 16);

  /// Exact k-NN of q (Euclidean).
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

 private:
  struct Node {
    // Interior: split dimension/value and children. Leaf: child == -1 and
    // [begin, end) indexes into order_.
    int split_dim = -1;
    float split_val = 0.0f;
    std::int32_t left = -1;
    std::int32_t right = -1;
    index_t begin = 0;
    index_t end = 0;
    bool leaf() const { return left < 0; }
  };

  std::int32_t build_node(index_t begin, index_t end, index_t leaf_size);
  void knn_descend(std::int32_t node, const float* q, dist_t sq_plane_dist,
                   std::vector<float>& plane_dists, TopK& out) const;

  const Matrix<float>* db_ = nullptr;
  std::vector<Node> nodes_;
  std::vector<index_t> order_;  // permutation of db rows, partitioned
};

}  // namespace rbc
