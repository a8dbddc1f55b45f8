// Request/response structs of the unified search API.
//
// Every backend answers the same query shapes through these types, so
// callers (benchmarks, examples, serving layers) are written once and run
// against any registered backend:
//
//   SearchRequest req{.queries = &Q, .k = 10};
//   req.options.collect_stats = true;
//   SearchResponse resp = index->knn_search(req);
//
// The structs replace the positional `search(Q, k, &stats)` signatures of
// the concrete classes: adding a knob is a new defaulted field, not a
// breaking signature change across seven backends.
#pragma once

#include <string>
#include <vector>

#include "bruteforce/bf.hpp"
#include "common/matrix.hpp"
#include "common/types.hpp"
#include "rbc/stats.hpp"

namespace rbc {

/// Per-call knobs shared by every search shape.
struct SearchOptions {
  /// Fill SearchResponse::stats with per-backend work counters. Off by
  /// default: stats aggregation costs a per-thread merge on the hot path.
  bool collect_stats = false;

  /// The metric this request assumes the index was built with (a registry
  /// name from api/metrics.hpp). Empty = no assertion. Non-empty and
  /// different from the index's built metric is a request error
  /// (std::invalid_argument, checked in the shared validator) — it lets a
  /// caller holding an arbitrary Index document, and have enforced, the
  /// metric its distances are interpreted under. The serve dispatcher
  /// stamps every coalesced batch with its index's metric.
  std::string metric;
};

/// A batched k-NN query. `queries` is borrowed and must stay alive for the
/// duration of the call; its column count must equal the index dimension.
/// `k` must satisfy 1 <= k <= index size, or knn_search throws
/// std::invalid_argument (see Index::knn_search for the full error
/// contract).
struct SearchRequest {
  const Matrix<float>* queries = nullptr;  // nq x d, borrowed
  index_t k = 1;
  SearchOptions options{};
};

/// A batched k-NN query over a payload-built index (metricspace/: strings,
/// graph nodes, user blobs). Each element of `queries` is one query's
/// payload bytes in the dataset's encoding (the string itself under
/// "edit"; the 8-byte little-endian node id under "graph-sp"). The same
/// error contract as SearchRequest applies — plus a payload-validity check
/// per metric space — through Index::knn_search_payload.
struct PayloadSearchRequest {
  const std::vector<std::string>* queries = nullptr;  // borrowed
  index_t k = 1;
  SearchOptions options{};
};

/// k-NN answers: row i of `knn` holds query i's neighbors in ascending
/// (distance, id) order. Rows are always fully populated: the unified API
/// rejects k > database size up front (std::invalid_argument; the concrete
/// classes, by contrast, pad short rows with (inf, kInvalidIndex)). `stats`
/// is populated when options.collect_stats was set; which counters a backend
/// fills is backend-specific (tree baselines report queries only).
struct SearchResponse {
  KnnResult knn;
  SearchStats stats{};
};

/// A batched range query: all points within `radius` of each query.
/// `radius` must be >= 0 for every real metric; under "ip" (where
/// "distance" is the negated dot product) it is a threshold on -dot —
/// pass radius = -t to select all points with dot(q, x) >= t, so negative
/// values are legal and are the useful case. A NaN radius is refused.
struct RangeRequest {
  const Matrix<float>* queries = nullptr;  // nq x d, borrowed
  dist_t radius = 0.0f;
  SearchOptions options{};
};

/// Range answers: ids[i] holds the ids of all database points within the
/// radius of query i, sorted ascending by id.
struct RangeResponse {
  std::vector<std::vector<index_t>> ids;
  SearchStats stats{};
};

}  // namespace rbc
