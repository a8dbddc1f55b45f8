// "rbc-exact" backend: the paper's exact Random Ball Cover behind the
// unified interface. The RBC prune rules are triangle-inequality arguments,
// so the backend serves exactly the true metrics: "l2" and "l1" map to the
// matching RbcExactIndex<M> instantiation, and "cosine" runs as
// RbcExactIndex<Euclidean> over unit-normalized rows (queries normalized
// per batch, distances converted back) — the pruning operates on a genuine
// metric space, so exactness is inherited rather than re-proved.
//
// make_index wraps it in MutableIndex, whose dense stream persists the rows
// and build knobs; a load rebuilds this index from them.
#include <variant>

#include "api/backends/backends.hpp"
#include "api/metrics.hpp"
#include "api/registry.hpp"
#include "distance/dispatch.hpp"
#include "metricspace/generic_backend.hpp"
#include "metricspace/space.hpp"
#include "mutate/mutable_index.hpp"
#include "rbc/rbc_exact.hpp"

namespace rbc::backends {

namespace {

class RbcExactBackend final : public Index {
 public:
  explicit RbcExactBackend(const IndexOptions& options)
      : kind_(metric::require(
            "rbc-exact", options.metric,
            {metric::Kind::kL2, metric::Kind::kL1, metric::Kind::kCosine})),
        storage_(require_scan_storage("rbc-exact", options.storage, kind_)),
        params_(options.rbc) {
    if (kind_ == metric::Kind::kL1) index_.emplace<RbcExactIndex<L1>>();
    // Quantized modes imply the Euclidean variant (require_scan_storage
    // rejects them for l1): the concrete index builds its code store next
    // to the packed rows.
    if (storage_ != quant::Storage::kFloat32)
      std::get<RbcExactIndex<Euclidean>>(index_).set_storage(storage_);
  }

  void build(const Matrix<float>& X) override {
    if (kind_ == metric::Kind::kCosine) {
      std::get<RbcExactIndex<Euclidean>>(index_).build(
          metric::normalized_clone(X), params_);
    } else {
      std::visit([&](auto& index) { index.build(X, params_); }, index_);
    }
    built_ = true;
  }

  SearchResponse knn_search(const SearchRequest& request) const override {
    validate_knn(request, dim(), size(), built_, "rbc-exact",
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

  RangeResponse range_search(const RangeRequest& request) const override {
    validate_range(request, dim(), built_, "rbc-exact", metric::name(kind_));
    // Cosine: normalized queries, radius mapped into normalized-L2 space.
    const metric::QueryTransform qt(kind_, *request.queries);
    const Matrix<float>& Q = qt.queries();
    const float radius = qt.radius(request.radius);
    RangeResponse response;
    response.ids.resize(Q.rows());
    std::visit(
        [&](const auto& index) {
          parallel_for_dynamic(0, Q.rows(), [&](index_t qi) {
            response.ids[qi] = index.range_search(Q.row(qi), radius);
          });
        },
        index_);
    if (request.options.collect_stats) response.stats.queries = Q.rows();
    return response;
  }

  IndexInfo info() const override {
    IndexInfo info;
    info.backend = "rbc-exact";
    info.metric = metric::name(kind_);
    info.supported_metrics = metric::names(
        {metric::Kind::kL2, metric::Kind::kL1, metric::Kind::kCosine});
    info.storage = quant::name(live_storage());
    info.supported_storage = scan_storage_names(kind_);
    info.size = size();
    info.dim = dim();
    // approx_eps > 0 switches the index to (1+eps)-approximate pruning.
    // Quantized storage keeps exactness: the compressed scan is a prefilter
    // whose survivors are re-measured against the float rows.
    info.exact = params_.approx_eps == 0.0f;
    info.supports_range = true;
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
  /// The storage mode backing scans: the concrete code store's mode, or
  /// the requested mode before a build and for an empty build, where there
  /// are no codes to scan.
  quant::Storage live_storage() const {
    if (storage_ == quant::Storage::kFloat32) return storage_;
    const auto& index = std::get<RbcExactIndex<Euclidean>>(index_);
    return built_ && index.size() > 0 ? index.storage() : storage_;
  }

  metric::Kind kind_;
  quant::Storage storage_;
  RbcParams params_;
  std::variant<RbcExactIndex<Euclidean>, RbcExactIndex<L1>> index_;
  bool built_ = false;
};

[[maybe_unused]] const bool auto_registered = (register_rbc_exact(), true);

}  // namespace

void register_rbc_exact() {
  // Wrapped in the mutable delta-shard adapter (mutate/mutable_index.hpp):
  // the paper's cheap construction is what makes rebuild-on-merge viable.
  register_backend(mutate::wrap(
      {.name = "rbc-exact",
       .create = [](const IndexOptions& options) -> std::unique_ptr<Index> {
         // A metric-space name selects the generic payload variant of this
         // host algorithm (strings, graphs, user metrics); dense names
         // build the matrix-backed index as always.
         if (metricspace::space_registered(options.metric))
           return metricspace::make_generic(metricspace::Algo::kRbcExact,
                                            options);
         return std::make_unique<RbcExactBackend>(options);
       }}));
}

}  // namespace rbc::backends
