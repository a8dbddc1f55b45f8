// "bruteforce" backend: BF(Q, X) as an Index. The reference answer every
// exact backend must match, and the baseline every speedup is measured
// against. Owns a copy of the database, which it lends to the mutable
// wrapper (stored_rows), and supports range search.
//
// The full metric matrix lives here: "l2" and "l1" scan directly through
// the dispatched kernels, "cosine" is L2 over unit-normalized rows (rows
// normalized once at build, queries per batch, distances converted back),
// and "ip" — which no pruning structure can serve — ranks by negated dot
// product. This is the only backend that accepts "ip".
#include <cmath>

#include "api/backends/backends.hpp"
#include "api/metrics.hpp"
#include "api/registry.hpp"
#include "bruteforce/bf.hpp"
#include "distance/dispatch.hpp"
#include "metricspace/generic_backend.hpp"
#include "metricspace/space.hpp"
#include "mutate/mutable_index.hpp"

namespace rbc::backends {

namespace {

class BruteForceBackend final : public Index {
 public:
  explicit BruteForceBackend(const IndexOptions& options)
      : kind_(metric::require(
            "bruteforce", options.metric,
            {metric::Kind::kL2, metric::Kind::kL1, metric::Kind::kCosine,
             metric::Kind::kIp})),
        storage_(require_scan_storage("bruteforce", options.storage, kind_)) {}

  void build(const Matrix<float>& X) override {
    db_ = X.clone();
    // Cosine = L2 on unit rows: the one-time build transform.
    if (kind_ == metric::Kind::kCosine) metric::normalize_rows(db_);
    // Row norms once at build: the GEMM-form corrections of bf_knn's tiles
    // and the ip prefilter's max-norm slack (an O(n d) pass that must not
    // be paid per search).
    norms_ = make_row_norms_cache(db_);
    // Compressed scan tier: codes built over the transform-space rows (the
    // space every scan and re-measure runs in).
    qstore_ = quant::quantize(storage_, db_);
    built_ = true;  // an empty database is a valid built state (k-NN against
                    // it is a request error: k > size for every k >= 1)
  }

  SearchResponse knn_search(const SearchRequest& request) const override {
    validate_knn(request, db_.cols(), db_.rows(), built_, "bruteforce",
                 metric::name(kind_));
    SearchResponse response;
    const metric::QueryTransform q(kind_, *request.queries);
    switch (kind_) {
      case metric::Kind::kL2:
      case metric::Kind::kCosine:
        // Quantized tier: the hot scan reads the fp16/int8 codes; survivors
        // of the error-inflated bound are re-measured against db_, so the
        // answer is bit-identical to the float path (kernel_scan.hpp).
        response.knn =
            qstore_.active()
                ? bf_knn_quantized(q.queries(), db_, qstore_, request.k,
                                   Euclidean{})
                : bf_knn(q.queries(), db_, request.k, Euclidean{}, &norms_);
        break;
      case metric::Kind::kL1:
        response.knn = bf_knn(q.queries(), db_, request.k, L1{});
        break;
      case metric::Kind::kIp:
        response.knn = bf_knn(q.queries(), db_, request.k, InnerProduct{},
                              &norms_);
        break;
    }
    q.finish(response.knn.dists);
    if (request.options.collect_stats) {
      response.stats.queries = request.queries->rows();
      response.stats.list_dist_evals =
          static_cast<std::uint64_t>(request.queries->rows()) * db_.rows();
    }
    return response;
  }

  RangeResponse range_search(const RangeRequest& request) const override {
    validate_range(request, db_.cols(), built_, "bruteforce",
                   metric::name(kind_));
    // Cosine: normalized queries against the (already normalized) rows,
    // with the radius mapped into the normalized-L2 space.
    const metric::QueryTransform qt(kind_, *request.queries);
    const Matrix<float>& Q = qt.queries();
    const float radius = qt.radius(request.radius);

    RangeResponse response;
    response.ids.resize(Q.rows());
    parallel_for_dynamic(0, Q.rows(), [&](index_t qi) {
      const float* q = Q.row(qi);
      for (index_t j = 0; j < db_.rows(); ++j) {
        float d = 0.0f;
        switch (kind_) {
          case metric::Kind::kL2:
          case metric::Kind::kCosine:
            d = Euclidean{}(q, db_.row(j), db_.cols());
            break;
          case metric::Kind::kL1:
            d = L1{}(q, db_.row(j), db_.cols());
            break;
          case metric::Kind::kIp:
            d = InnerProduct{}(q, db_.row(j), db_.cols());
            break;
        }
        if (d <= radius) response.ids[qi].push_back(j);
      }
    });
    counters::add_dist_evals(static_cast<std::uint64_t>(Q.rows()) *
                             db_.rows());
    if (request.options.collect_stats) {
      response.stats.queries = Q.rows();
      response.stats.list_dist_evals =
          static_cast<std::uint64_t>(Q.rows()) * db_.rows();
    }
    return response;
  }

  StoredRows stored_rows() const override {
    return built_ ? StoredRows{&db_, {}} : StoredRows{};
  }

  IndexInfo info() const override {
    IndexInfo info;
    info.backend = "bruteforce";
    info.metric = metric::name(kind_);
    info.supported_metrics =
        metric::names({metric::Kind::kL2, metric::Kind::kL1,
                       metric::Kind::kCosine, metric::Kind::kIp});
    info.storage = quant::name(storage_);
    info.supported_storage = scan_storage_names(kind_);
    info.size = db_.rows();
    info.dim = db_.cols();
    info.exact = true;
    info.supports_range = true;
    info.memory_bytes = db_.size() * sizeof(float) +
                        norms_.sq.size() * sizeof(float) +
                        qstore_.memory_bytes();
    info.kernel_isa = dispatch::isa_name(dispatch::active_isa());
    // Metric-space names this host also serves (through the generic payload
    // dispatch in the factory lambda below).
    info.supported_spaces = metricspace::space_names();
    return info;
  }

 private:
  metric::Kind kind_;
  quant::Storage storage_;
  Matrix<float> db_;
  quant::QuantizedStore qstore_;
  RowNormsCache norms_;
  bool built_ = false;
};

[[maybe_unused]] const bool auto_registered = (register_bruteforce(), true);

}  // namespace

void register_bruteforce() {
  // Wrapped in the mutable delta-shard adapter: make_index("bruteforce")
  // instances support insert()/remove() (mutate/mutable_index.hpp).
  register_backend(mutate::wrap(
      {.name = "bruteforce",
       .create = [](const IndexOptions& options) -> std::unique_ptr<Index> {
         // A metric-space name selects the generic payload variant of this
         // host algorithm (strings, graphs, user metrics); dense names
         // build the matrix-backed index as always.
         if (metricspace::space_registered(options.metric))
           return metricspace::make_generic(metricspace::Algo::kBruteForce,
                                            options);
         return std::make_unique<BruteForceBackend>(options);
       }}));
}

}  // namespace rbc::backends
