// Tree-baseline backends ("kdtree", "balltree", "covertree") behind the
// unified interface. The three concrete trees are non-owning and answer one
// query at a time, so they share one adapter shape: own a copy of the
// database and batch the serial per-query knn() in parallel. A traits
// struct supplies what differs — the tree variant type, registry name,
// supported metric set, and which IndexOptions knobs the build consumes.
// make_index wraps each in MutableIndex, whose dense stream persists the
// rows and knobs; a load rebuilds the identical tree from them.
//
// Metrics: trees prune with the triangle inequality, so only true metrics
// qualify. The metric ball tree and cover tree are metric-generic templates
// and serve "l1" through their L1 instantiations; the kd-tree's
// axis-aligned split planes bound L2 distances specifically, so it stays
// "l2"-shaped. All three serve "cosine" as L2 over unit-normalized rows
// (the shared build/query transform of api/metrics.hpp) with distances
// converted back after search.
#include <span>
#include <variant>

#include "api/backends/backends.hpp"
#include "api/metrics.hpp"
#include "api/registry.hpp"
#include "baselines/balltree.hpp"
#include "baselines/covertree.hpp"
#include "baselines/kdtree.hpp"
#include "mutate/mutable_index.hpp"

namespace rbc::backends {

namespace {

template <class Traits>
class TreeBackend final : public Index {
 public:
  explicit TreeBackend(const IndexOptions& options)
      : kind_(metric::require(Traits::kName, options.metric,
                              Traits::supported())),
        options_(options) {
    // Tree traversals touch individual rows, not contiguous scan ranges —
    // no compressed tier here.
    quant::require(Traits::kName, options.storage,
                   {quant::Storage::kFloat32});
  }

  void build(const Matrix<float>& X) override {
    db_ = kind_ == metric::Kind::kCosine ? metric::normalized_clone(X)
                                         : X.clone();
    Traits::build(tree_, db_, options_, kind_);
    built_ = true;
  }

  SearchResponse knn_search(const SearchRequest& request) const override {
    validate_knn(request, db_.cols(), db_.rows(), built_, Traits::kName,
                 metric::name(kind_));
    const metric::QueryTransform qt(kind_, *request.queries);
    SearchResponse response;
    response.knn =
        batch_knn(qt.queries(), request.k, [&](const float* q, TopK& top) {
          std::visit([&](const auto& tree) { tree.knn(q, request.k, top); },
                     tree_);
        });
    qt.finish(response.knn.dists);
    if (request.options.collect_stats)
      response.stats.queries = request.queries->rows();
    return response;
  }

  IndexInfo info() const override {
    IndexInfo info;
    info.backend = Traits::kName;
    info.metric = metric::name(kind_);
    info.supported_metrics = metric::names(Traits::supported());
    info.size = db_.rows();
    info.dim = db_.cols();
    info.exact = true;
    info.supports_range = false;
    info.memory_bytes = db_.size() * sizeof(float);
    return info;
  }

 private:
  metric::Kind kind_;
  IndexOptions options_;
  Matrix<float> db_;
  typename Traits::Tree tree_;
  bool built_ = false;
};

struct KdTreeTraits {
  using Tree = std::variant<KdTree>;
  static constexpr const char* kName = "kdtree";
  // Axis-aligned split planes bound L2 distances only: no "l1".
  static std::span<const metric::Kind> supported() {
    static constexpr metric::Kind kSet[] = {metric::Kind::kL2,
                                            metric::Kind::kCosine};
    return kSet;
  }
  static void build(Tree& tree, const Matrix<float>& db,
                    const IndexOptions& options, metric::Kind) {
    tree.emplace<KdTree>().build(db, options.leaf_size);
  }
};

struct BallTreeTraits {
  using Tree = std::variant<BallTree<Euclidean>, BallTree<L1>>;
  static constexpr const char* kName = "balltree";
  static std::span<const metric::Kind> supported() {
    static constexpr metric::Kind kSet[] = {
        metric::Kind::kL2, metric::Kind::kL1, metric::Kind::kCosine};
    return kSet;
  }
  static void build(Tree& tree, const Matrix<float>& db,
                    const IndexOptions& options, metric::Kind kind) {
    if (kind == metric::Kind::kL1)
      tree.emplace<BallTree<L1>>().build(db, options.leaf_size, {},
                                         options.seed);
    else
      tree.emplace<BallTree<Euclidean>>().build(db, options.leaf_size, {},
                                                options.seed);
  }
};

struct CoverTreeTraits {
  using Tree = std::variant<CoverTree<Euclidean>, CoverTree<L1>>;
  static constexpr const char* kName = "covertree";
  static std::span<const metric::Kind> supported() {
    static constexpr metric::Kind kSet[] = {
        metric::Kind::kL2, metric::Kind::kL1, metric::Kind::kCosine};
    return kSet;
  }
  static void build(Tree& tree, const Matrix<float>& db,
                    const IndexOptions&, metric::Kind kind) {
    if (kind == metric::Kind::kL1)
      tree.emplace<CoverTree<L1>>().build(db);
    else
      tree.emplace<CoverTree<Euclidean>>().build(db);
  }
};

template <class Traits>
void register_tree() {
  // Wrapped in the mutable delta-shard adapter (mutate/mutable_index.hpp).
  register_backend(mutate::wrap(
      {.name = Traits::kName,
       .create = [](const IndexOptions& options) -> std::unique_ptr<Index> {
         return std::make_unique<TreeBackend<Traits>>(options);
       }}));
}

[[maybe_unused]] const bool auto_registered =
    (register_kdtree(), register_balltree(), register_covertree(), true);

}  // namespace

void register_kdtree() { register_tree<KdTreeTraits>(); }
void register_balltree() { register_tree<BallTreeTraits>(); }
void register_covertree() { register_tree<CoverTreeTraits>(); }

}  // namespace rbc::backends
