// "rbc-oneshot" backend: the paper's probabilistic one-shot Random Ball
// Cover behind the unified interface (exact = false: Theorem 2 recall, not a
// guarantee). Metric support mirrors rbc-exact — "l2"/"l1" pick the
// matching RbcOneShotIndex<M> instantiation, "cosine" is the Euclidean
// index over unit-normalized rows. make_index wraps it in MutableIndex,
// whose dense stream persists the rows and build knobs; a load rebuilds
// this index from them.
#include <variant>

#include "api/backends/backends.hpp"
#include "api/metrics.hpp"
#include "api/registry.hpp"
#include "distance/dispatch.hpp"
#include "metricspace/generic_backend.hpp"
#include "metricspace/space.hpp"
#include "mutate/mutable_index.hpp"
#include "rbc/rbc_oneshot.hpp"

namespace rbc::backends {

namespace {

class RbcOneShotBackend final : public Index {
 public:
  explicit RbcOneShotBackend(const IndexOptions& options)
      : kind_(metric::require(
            "rbc-oneshot", options.metric,
            {metric::Kind::kL2, metric::Kind::kL1, metric::Kind::kCosine})),
        storage_(require_scan_storage("rbc-oneshot", options.storage, kind_)),
        params_(options.rbc) {
    if (kind_ == metric::Kind::kL1) index_.emplace<RbcOneShotIndex<L1>>();
    // Quantized modes imply the Euclidean variant. One-shot search is
    // already approximate, so the quantized scan runs standalone — no
    // re-measure pass (see RbcOneShotIndex::search_one).
    if (storage_ != quant::Storage::kFloat32)
      std::get<RbcOneShotIndex<Euclidean>>(index_).set_storage(storage_);
  }

  void build(const Matrix<float>& X) override {
    if (kind_ == metric::Kind::kCosine) {
      std::get<RbcOneShotIndex<Euclidean>>(index_).build(
          metric::normalized_clone(X), params_);
    } else {
      std::visit([&](auto& index) { index.build(X, params_); }, index_);
    }
    built_ = true;
  }

  SearchResponse knn_search(const SearchRequest& request) const override {
    validate_knn(request, dim(), size(), built_, "rbc-oneshot",
                 metric::name(kind_));
    SearchResponse response;
    SearchStats* stats =
        request.options.collect_stats ? &response.stats : nullptr;
    const metric::QueryTransform q(kind_, *request.queries);
    response.knn = std::visit(
        [&](const auto& index) {
          return index.search(q.queries(), request.k, stats);
        },
        index_);
    q.finish(response.knn.dists);
    return response;
  }

  IndexInfo info() const override {
    IndexInfo info;
    info.backend = "rbc-oneshot";
    info.metric = metric::name(kind_);
    info.supported_metrics = metric::names(
        {metric::Kind::kL2, metric::Kind::kL1, metric::Kind::kCosine});
    info.storage = quant::name(live_storage());
    info.supported_storage = scan_storage_names(kind_);
    info.size = size();
    info.dim = dim();
    info.exact = false;  // probabilistic recall (paper Theorem 2)
    info.supports_range = false;
    info.memory_bytes =
        built_ ? std::visit(
                     [](const auto& index) { return index.memory_bytes(); },
                     index_)
               : 0;
    info.kernel_isa = dispatch::isa_name(dispatch::active_isa());
    // Metric-space names this host also serves (through the generic payload
    // dispatch in the factory lambda below).
    info.supported_spaces = metricspace::space_names();
    return info;
  }

 private:
  index_t size() const {
    return std::visit([](const auto& index) { return index.size(); }, index_);
  }
  index_t dim() const {
    return std::visit([](const auto& index) { return index.dim(); }, index_);
  }
  /// The storage mode actually backing scans (float32 for an empty build,
  /// where there are no codes to scan).
  quant::Storage live_storage() const {
    if (storage_ == quant::Storage::kFloat32) return storage_;
    const auto& index = std::get<RbcOneShotIndex<Euclidean>>(index_);
    return built_ && index.size() > 0 ? index.storage() : storage_;
  }

  metric::Kind kind_;
  quant::Storage storage_;
  RbcParams params_;
  std::variant<RbcOneShotIndex<Euclidean>, RbcOneShotIndex<L1>> index_;
  bool built_ = false;
};

[[maybe_unused]] const bool auto_registered = (register_rbc_oneshot(), true);

}  // namespace

void register_rbc_oneshot() {
  // Wrapped in the mutable delta-shard adapter (mutate/mutable_index.hpp).
  register_backend(mutate::wrap(
      {.name = "rbc-oneshot",
       .create = [](const IndexOptions& options) -> std::unique_ptr<Index> {
         // A metric-space name selects the generic payload variant of this
         // host algorithm (strings, graphs, user metrics); dense names
         // build the matrix-backed index as always.
         if (metricspace::space_registered(options.metric))
           return metricspace::make_generic(metricspace::Algo::kRbcOneShot,
                                            options);
         return std::make_unique<RbcOneShotBackend>(options);
       }}));
}

}  // namespace rbc::backends
