#include "api/index.hpp"

#include <stdexcept>
#include <string>
#include <string_view>

#include "parallel/rows.hpp"

namespace rbc {

RangeResponse Index::range_search(const RangeRequest& /*request*/) const {
  throw std::runtime_error("rbc::Index: backend '" + info().backend +
                           "' does not support range_search "
                           "(info().supports_range is false)");
}

void Index::save(std::ostream& /*os*/) const {
  throw std::runtime_error("rbc::Index: backend '" + info().backend +
                           "' does not support save "
                           "(info().supports_save is false)");
}

namespace {

[[noreturn]] void fail_mutation(const Index& index) {
  throw std::runtime_error("rbc::Index: backend '" + index.info().backend +
                           "' does not support mutation "
                           "(info().supports_mutation is false)");
}

}  // namespace

void Index::insert(const Matrix<float>& /*rows*/,
                   std::span<const index_t> /*ids*/) {
  fail_mutation(*this);
}

index_t Index::remove(std::span<const index_t> /*ids*/) {
  fail_mutation(*this);
}

void Index::compact() { fail_mutation(*this); }

void Index::build_with_ids(const Matrix<float>& /*X*/,
                           std::span<const index_t> /*ids*/) {
  fail_mutation(*this);
}

std::vector<index_t> Index::live_ids() const { fail_mutation(*this); }

StoredRows Index::stored_rows() const { return {}; }

namespace {

[[noreturn]] void fail_payload(const Index& index) {
  throw std::runtime_error("rbc::Index: backend '" + index.info().backend +
                           "' does not support payload datasets "
                           "(info().supported_spaces is empty)");
}

}  // namespace

void Index::build_payload(const metricspace::DatasetHandle& /*data*/) {
  fail_payload(*this);
}

SearchResponse Index::knn_search_payload(
    const PayloadSearchRequest& /*request*/) const {
  fail_payload(*this);
}

namespace {

[[noreturn]] void fail(const char* backend, const std::string& what) {
  throw std::invalid_argument(std::string("rbc::Index[") + backend +
                              "]: " + what);
}

// A query holding a NaN or an infinity is refused like a row at build
// (validate_rows): its distances are NaN, or under "ip" a mix of NaN and
// -inf, which no (distance, id) order ranks.
void validate_queries(const Matrix<float>* queries, index_t dim, bool built,
                      const char* backend) {
  if (!built) fail(backend, "search on an unbuilt index (call build first)");
  if (queries == nullptr) fail(backend, "request.queries is null");
  if (queries->cols() != dim)
    fail(backend, "query dimension " + std::to_string(queries->cols()) +
                      " != index dimension " + std::to_string(dim));
  const index_t bad = first_nonfinite_row(*queries);
  if (bad != kInvalidIndex)
    fail(backend, "query row " + std::to_string(bad) +
                      " holds a non-finite value (NaN or infinity)");
}

// The metric-assertion check of SearchOptions::metric, shared by every
// backend (keeping it here, not copied per backend, is what makes the
// mismatch message uniform).
void validate_metric(const SearchOptions& options, std::string_view metric,
                     const char* backend) {
  if (!options.metric.empty() && options.metric != metric)
    fail(backend, "request assumes metric '" + options.metric +
                      "' but the index was built with '" +
                      std::string(metric) + "'");
}

}  // namespace

void Index::validate_knn(const SearchRequest& request, index_t dim,
                         index_t size, bool built, const char* backend,
                         std::string_view metric) {
  validate_queries(request.queries, dim, built, backend);
  validate_metric(request.options, metric, backend);
  if (request.k == 0) fail(backend, "request.k must be >= 1");
  // k > n is a request error everywhere (not backend-specific padding or
  // UB): an index over n points cannot name more than n neighbors.
  if (request.k > size)
    fail(backend, "request.k = " + std::to_string(request.k) +
                      " exceeds database size " + std::to_string(size));
}

void Index::validate_rows(const Matrix<float>& rows, const char* backend) {
  const index_t bad = first_nonfinite_row(rows);
  if (bad != kInvalidIndex)
    fail(backend, "row " + std::to_string(bad) +
                      " holds a non-finite value (NaN or infinity)");
}

void Index::validate_knn_payload(const PayloadSearchRequest& request,
                                 index_t size, bool built,
                                 const char* backend,
                                 std::string_view metric) {
  if (!built) fail(backend, "search on an unbuilt index (call build first)");
  if (request.queries == nullptr) fail(backend, "request.queries is null");
  validate_metric(request.options, metric, backend);
  if (request.k == 0) fail(backend, "request.k must be >= 1");
  if (request.k > size)
    fail(backend, "request.k = " + std::to_string(request.k) +
                      " exceeds database size " + std::to_string(size));
}

void Index::validate_range(const RangeRequest& request, index_t dim,
                           bool built, const char* backend,
                           std::string_view metric) {
  validate_queries(request.queries, dim, built, backend);
  validate_metric(request.options, metric, backend);
  // Under "ip" the radius is a negated-dot threshold (hits satisfy
  // dot(q, x) >= -radius), so every useful similarity cutoff is a
  // *negative* radius — the non-negativity rule applies to real metrics
  // only.
  if (request.radius < 0 && metric != "ip")
    fail(backend, "request.radius must be >= 0");
}

}  // namespace rbc
