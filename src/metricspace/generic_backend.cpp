#include "metricspace/generic_backend.hpp"

#include <istream>
#include <limits>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "metricspace/dataset.hpp"
#include "metricspace/space.hpp"
#include "parallel/parallel_for.hpp"
#include "rbc/rbc_generic.hpp"
#include "rbc/serialize_io.hpp"

namespace rbc::metricspace {

namespace {

const char* host_name(Algo algo) {
  switch (algo) {
    case Algo::kBruteForce:
      return "bruteforce";
    case Algo::kRbcExact:
      return "rbc-exact";
    case Algo::kRbcOneShot:
      return "rbc-oneshot";
  }
  return "bruteforce";
}

/// Adapts a bound Space to the MetricSpace / BoundedMetricSpace concepts
/// the generic search templates (bf_generic.hpp, rbc_generic.hpp) are
/// written against. Database points are element indices; a query is its
/// payload bytes tagged with kInvalidIndex. Element-vs-element distances
/// (build-time representative assignments) go through Space::distance;
/// query-vs-element through query_distance / query_distance_bounded — the
/// metric is symmetric, so operand order does not matter.
class SpaceAdapter {
 public:
  struct ErasedPoint {
    std::string_view payload{};   // query bytes; unused for db elements
    index_t id = kInvalidIndex;   // db element index; kInvalidIndex = query
  };
  using Point = ErasedPoint;

  explicit SpaceAdapter(const Space& space) : space_(&space) {
    points_.resize(static_cast<std::size_t>(space.size()));
    for (index_t i = 0; i < space.size(); ++i)
      points_[static_cast<std::size_t>(i)] = {std::string_view{}, i};
  }

  index_t size() const { return static_cast<index_t>(points_.size()); }

  const Point& operator[](index_t i) const {
    return points_[static_cast<std::size_t>(i)];
  }

  double distance(const Point& a, const Point& b) const {
    if (a.id != kInvalidIndex && b.id != kInvalidIndex)
      return space_->distance(a.id, b.id);
    if (b.id != kInvalidIndex) return space_->query_distance(a.payload, b.id);
    return space_->query_distance(b.payload, a.id);
  }

  double distance_bounded(const Point& a, const Point& b, double band) const {
    if (a.id != kInvalidIndex && b.id != kInvalidIndex)
      return space_->distance(a.id, b.id);
    if (b.id != kInvalidIndex)
      return space_->query_distance_bounded(a.payload, b.id, band);
    return space_->query_distance_bounded(b.payload, a.id, band);
  }

 private:
  const Space* space_;
  std::vector<Point> points_;
};

static_assert(BoundedMetricSpace<SpaceAdapter>);

class GenericIndex final : public Index {
 public:
  GenericIndex(Algo algo, const IndexOptions& options)
      : algo_(algo), host_(host_name(algo)), params_(options.rbc) {
    const SpaceEntry* entry = find_space(options.metric);
    if (entry == nullptr)
      fail("unknown metric space '" + options.metric + "'");
    metric_ = entry->name;
    cost_unit_ = entry->cost_unit;
    // Payload datasets have no dense rows, so there is nothing for a
    // quantized code store to compress.
    if (options.storage != "float32")
      fail("storage '" + options.storage +
           "' is not supported with payload metric '" + metric_ +
           "' (supported: float32)");
    // The payload stream persists the knobs, and its reader refuses an
    // approx_eps that approx_eps_valid rejects: refuse it here too, so
    // every index that builds also loads.
    if (!approx_eps_valid(params_.approx_eps))
      fail("rbc.approx_eps must be finite and >= 0 (got " +
           std::to_string(params_.approx_eps) + ")");
  }

  void build(const Matrix<float>& /*X*/) override {
    fail("dense build() on payload metric '" + metric_ +
         "' (use build_payload)");
  }

  SearchResponse knn_search(const SearchRequest& /*request*/) const override {
    fail("dense knn_search() on payload metric '" + metric_ +
         "' (use knn_search_payload)");
  }

  void build_payload(const metricspace::DatasetHandle& data) override {
    std::unique_ptr<Space> space;
    try {
      space = bind_space(metric_, data);
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
    data_ = data;
    space_ = std::move(space);
    adapter_ = std::make_unique<SpaceAdapter>(*space_);
    const index_t n = adapter_->size();
    all_ids_.resize(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) all_ids_[static_cast<std::size_t>(i)] = i;
    // An empty dataset builds trivially: every k >= 1 search is rejected by
    // the shared validator (k > size), so the structures are never probed.
    if (n > 0) {
      if (algo_ == Algo::kRbcExact) exact_.build(*adapter_, params_);
      if (algo_ == Algo::kRbcOneShot) oneshot_.build(*adapter_, params_);
    }
    built_ = true;
  }

  SearchResponse knn_search_payload(
      const PayloadSearchRequest& request) const override {
    validate_knn_payload(request, size(), built_, host_.c_str(), metric_);
    const std::vector<std::string>& queries = *request.queries;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::string msg = space_->validate_query(queries[i]);
      if (!msg.empty())
        fail("query " + std::to_string(i) + ": " + msg);
    }

    const index_t nq = static_cast<index_t>(queries.size());
    SearchResponse response;
    response.knn = KnnResult(nq, request.k);
    std::mutex stats_mutex;
    parallel_for_dynamic(0, nq, [&](index_t qi) {
      SearchStats local;
      const SpaceAdapter::ErasedPoint qp{
          std::string_view(queries[static_cast<std::size_t>(qi)]),
          kInvalidIndex};
      std::vector<GenericNeighbor> nns;
      switch (algo_) {
        case Algo::kBruteForce:
          nns = generic_knn_subset_pruned(*adapter_, qp, all_ids_, request.k);
          local.queries = 1;
          local.list_dist_evals = all_ids_.size();
          break;
        case Algo::kRbcExact:
          nns = exact_.search(qp, request.k, &local);
          break;
        case Algo::kRbcOneShot:
          nns = oneshot_.search(qp, request.k, &local);
          break;
      }
      dist_t* drow = response.knn.dists.row(qi);
      index_t* irow = response.knn.ids.row(qi);
      for (index_t j = 0; j < request.k; ++j) {
        // One-shot may certify fewer than k candidates; pad like the dense
        // concrete classes do.
        if (static_cast<std::size_t>(j) < nns.size()) {
          drow[j] = static_cast<dist_t>(nns[static_cast<std::size_t>(j)].dist);
          irow[j] = nns[static_cast<std::size_t>(j)].id;
        } else {
          drow[j] = std::numeric_limits<dist_t>::infinity();
          irow[j] = kInvalidIndex;
        }
      }
      if (request.options.collect_stats) {
        std::lock_guard<std::mutex> lock(stats_mutex);
        response.stats.merge(local);
      }
    });
    return response;
  }

  void save(std::ostream& os) const override {
    if (!built_)
      throw std::runtime_error(
          "rbc::Index: cannot save an unbuilt payload index");
    io::write_header(os, io::kMagicPayload);
    io::write_string(os, host_);
    io::write_string(os, metric_);
    io::write_params(os, params_);
    data_->save(os);
  }

  IndexInfo info() const override {
    IndexInfo info;
    info.backend = host_;
    info.metric = metric_;
    // Payload instances reject the dense entry points outright, so they
    // advertise no dense metric/storage capability...
    info.supported_metrics.clear();
    info.size = size();
    info.dim = 0;
    info.exact = algo_ != Algo::kRbcOneShot;
    info.supports_save = true;
    info.memory_bytes =
        built_ ? data_->memory_bytes() +
                     all_ids_.size() * (sizeof(index_t) +
                                        sizeof(SpaceAdapter::ErasedPoint))
               : 0;
    info.payload = true;
    info.cost_unit = cost_unit_;
    // ...and the space registry is what they serve instead.
    info.supported_spaces = space_names();
    return info;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("rbc::Index[" + host_ + "]: " + what);
  }

  index_t size() const { return data_ ? data_->size() : 0; }

  Algo algo_;
  std::string host_;
  std::string metric_;
  std::string cost_unit_;
  RbcParams params_;
  DatasetHandle data_;
  std::unique_ptr<Space> space_;
  std::unique_ptr<SpaceAdapter> adapter_;
  std::vector<index_t> all_ids_;
  RbcGenericExact<SpaceAdapter> exact_;
  RbcGenericOneShot<SpaceAdapter> oneshot_;
  bool built_ = false;
};

}  // namespace

std::unique_ptr<Index> make_generic(Algo algo, const IndexOptions& options) {
  return std::make_unique<GenericIndex>(algo, options);
}

std::unique_ptr<Index> load_payload_index(std::istream& is) {
  io::read_header(is, io::kMagicPayload, "payload index");
  const std::string backend = io::read_string(is);
  Algo algo{};
  if (backend == "bruteforce")
    algo = Algo::kBruteForce;
  else if (backend == "rbc-exact")
    algo = Algo::kRbcExact;
  else if (backend == "rbc-oneshot")
    algo = Algo::kRbcOneShot;
  else
    throw std::runtime_error(
        "rbc::io: corrupt payload stream (unknown backend tag '" + backend +
        "')");
  const std::string metric = io::read_string(is);
  if (!space_registered(metric))
    throw std::runtime_error(
        "rbc::io: corrupt payload stream (unknown metric-space tag '" +
        metric + "')");
  IndexOptions options;
  options.metric = metric;
  options.rbc = io::read_params(is);
  const DatasetHandle data = load_dataset(is);
  auto index = std::make_unique<GenericIndex>(algo, options);
  try {
    // Rebuild deterministically from the stored params — the structures are
    // a pure function of (dataset, params), so persisting the dataset alone
    // keeps the format small and trivially forward-portable.
    index->build_payload(data);
  } catch (const std::invalid_argument& e) {
    // e.g. a kind/metric mismatch inside the stream: corruption, not a
    // caller error.
    throw std::runtime_error(std::string("rbc::io: corrupt payload stream (") +
                             e.what() + ")");
  }
  return index;
}

}  // namespace rbc::metricspace
