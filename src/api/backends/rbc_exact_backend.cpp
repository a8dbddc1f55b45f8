// "rbc-exact" backend: the paper's exact Random Ball Cover behind the
// unified interface. The RBC prune rules are triangle-inequality arguments,
// so the backend serves exactly the true metrics: "l2" and "l1" map to the
// matching RbcExactIndex<M> instantiation, and "cosine" runs as
// RbcExactIndex<Euclidean> over unit-normalized rows (queries normalized
// per batch, distances converted back) — the pruning operates on a genuine
// metric space, so exactness is inherited rather than re-proved.
//
// Serialization wraps the concrete class's own format in a version-2
// header (magic, version, metric tag, nested concrete stream); version-1
// files — written before metrics were runtime-selectable — load as "l2".
#include <istream>
#include <ostream>
#include <variant>

#include "api/backends/backends.hpp"
#include "api/metrics.hpp"
#include "api/registry.hpp"
#include "distance/dispatch.hpp"
#include "metricspace/generic_backend.hpp"
#include "metricspace/space.hpp"
#include "mutate/mutable_index.hpp"
#include "rbc/rbc_exact.hpp"
#include "rbc/serialize_io.hpp"

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

  void save(std::ostream& os) const override {
    io::write_pod(os, io::kMagicExact);
    // The header advertises a code store only when one is live; a float32
    // index writes the plain version-2 layout.
    const quant::Storage live = live_storage();
    io::write_storage_header(os, metric::name(kind_), quant::name(live));
    std::visit([&](const auto& index) { index.save(os); }, index_);
    if (live != quant::Storage::kFloat32)
      io::write_quantized_store(
          os, std::get<RbcExactIndex<Euclidean>>(index_).quantized_store());
  }

  static std::unique_ptr<Index> load(std::istream& is) {
    const std::istream::pos_type start = is.tellg();
    io::expect_pod(is, io::kMagicExact, "rbc-exact magic");
    bool legacy = false;
    std::string storage_name;
    const std::string metric_name = io::read_metric_header(
        is, "rbc-exact header", &legacy, &storage_name);
    metric::Kind kind{};
    if (!metric::lookup(metric_name, kind) || kind == metric::Kind::kIp)
      throw std::runtime_error(
          "rbc::io: corrupt rbc-exact stream (bad metric tag '" +
          metric_name + "')");
    quant::Storage storage{};
    if (!quant::lookup(storage_name, storage))
      throw std::runtime_error(
          "rbc::io: corrupt rbc-exact stream (unknown storage tag '" +
          storage_name + "')");
    // Version-1 files are a bare concrete stream: rewind so the concrete
    // loader re-verifies its own (magic, version, metric) header.
    if (legacy) {
      is.seekg(start);
      if (!is)
        throw std::runtime_error(
            "rbc::load_index: stream must be seekable");
    }
    IndexOptions options;
    options.metric = metric_name;
    options.storage = storage_name;
    std::unique_ptr<RbcExactBackend> backend;
    try {
      backend = std::make_unique<RbcExactBackend>(options);
    } catch (const std::invalid_argument& e) {
      // e.g. a quantized tag on l1: file corruption, not a caller error.
      throw std::runtime_error(
          std::string("rbc::io: corrupt rbc-exact stream (") + e.what() +
          ")");
    }
    if (kind == metric::Kind::kL1)
      backend->index_ = RbcExactIndex<L1>::load(is);
    else
      backend->index_ = RbcExactIndex<Euclidean>::load(is);
    if (storage != quant::Storage::kFloat32)
      std::get<RbcExactIndex<Euclidean>>(backend->index_)
          .adopt_quantized_store(io::read_quantized_store(is));
    backend->params_ = std::visit(
        [](const auto& index) { return index.params(); }, backend->index_);
    backend->built_ = true;
    return backend;
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
    info.supports_save = true;
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
       },
       .magic = io::kMagicExact,
       .load = RbcExactBackend::load}));
}

}  // namespace rbc::backends
