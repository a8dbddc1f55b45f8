// The unified index interface: one abstract contract that every search
// backend implements (paper framing: the brute-force primitive BF composes
// into many search strategies; this is the seam those strategies plug into).
//
//   auto index = rbc::make_index("rbc-exact", {.rbc = {.num_reps = 256}});
//   index->build(database);
//   SearchResponse r = index->knn_search({.queries = &Q, .k = 5});
//
// The type-erased layer is deliberately thin: the concrete templated classes
// (RbcExactIndex<M>, BallTree<M>, ...) remain the zero-overhead way to use a
// known backend with a non-default metric; this interface is the stable
// boundary for cross-backend code (benchmarks, tools, serving layers,
// sharding — see ROADMAP.md). The metric is a first-class runtime property
// of this layer: IndexOptions::metric selects it, backends declare the
// subset they support (IndexInfo::supported_metrics; see api/metrics.hpp),
// and unsupported pairs fail uniformly at make_index() time.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/search.hpp"
#include "common/types.hpp"
#include "rbc/params.hpp"

namespace rbc::metricspace {
// Payload dataset layer (metricspace/dataset.hpp) — forward-declared so
// the payload entry points below can name the handle without pulling the
// subsystem into every include of this header.
class Dataset;
using DatasetHandle = std::shared_ptr<const Dataset>;
}  // namespace rbc::metricspace

namespace rbc {

/// Build-time configuration for make_index(). One struct for every backend:
/// each backend reads the fields that apply to it and ignores the rest
/// (documented per field). Defaults reproduce each backend's stand-alone
/// defaults.
struct IndexOptions {
  /// Distance metric the index is built for — a registry name from
  /// api/metrics.hpp ("l2", "l1", "cosine", "ip"). Every backend supports
  /// "l2"; the supported set is declared in IndexInfo::supported_metrics,
  /// and make_index() throws std::invalid_argument (uniform message shape)
  /// for an unknown or unsupported name. "ip" is brute-force only; trees
  /// and RBC require true metrics ("cosine" is served as L2 over
  /// normalized rows, so their pruning stays correct).
  std::string metric = "l2";

  /// Row storage the dense scans read — a registry name from
  /// distance/quantized.hpp ("float32", "fp16", "int8"). "float32" (the
  /// default) is the uncompressed row matrix every backend supports.
  /// "fp16" / "int8" build a compressed code store at index time and run
  /// the hot scans over it (2x / 4x less memory traffic); exact backends
  /// (bruteforce, rbc-exact) re-measure every candidate against the float
  /// rows through an error-inflated bound, so their results stay
  /// bit-identical to float32, while rbc-oneshot ranks by the quantized
  /// distances directly (approximate — recall is reported, not exactness).
  /// Compressed storage requires the L2 metric family ("l2" / "cosine");
  /// the supported set is declared in IndexInfo::supported_storage, and
  /// unsupported (backend, storage) or (metric, storage) pairs fail at
  /// make_index() time with the uniform message shape.
  std::string storage = "float32";

  /// rbc-exact / rbc-oneshot / gpu-oneshot: representative count, pruning
  /// rules, approximation knobs.
  RbcParams rbc{};

  /// kdtree / balltree: points per leaf.
  index_t leaf_size = 16;

  /// balltree: pivot-pair sampling seed (rbc backends seed via rbc.seed).
  std::uint64_t seed = 0x5eed;

  /// gpu-bf / gpu-oneshot: kernel block width (power of two).
  std::uint32_t gpu_threads_per_block = 64;

  /// gpu-bf / gpu-oneshot: SIMT device worker pool size; 0 = all cores.
  int gpu_workers = 0;

  /// sharded:<inner>: number of row partitions the database is split into
  /// (>= 1). Shard s owns one block of consecutive rows
  /// (shard::partition_rows); a count larger than the database leaves the
  /// excess shards empty, and later inserts go to the least-full shard.
  index_t num_shards = 4;

  /// Mutation-capable backends: delta-shard row count that triggers a
  /// rebuild of the main structure (insert() buffers rows in a small
  /// brute-force delta; once it holds this many rows the main structure is
  /// rebuilt over main + delta − tombstones and swapped in atomically).
  index_t max_delta = 1024;

  /// Mutation-capable backends: run the merge on a background thread
  /// (searches keep answering from the pre-merge snapshot meanwhile). When
  /// false the merge runs inline inside the insert()/remove() call that
  /// crossed the threshold — deterministic timing, for tests.
  bool background_merge = true;
};

/// Static metadata and capabilities of a (built) index.
struct IndexInfo {
  std::string backend;        ///< registry name ("rbc-exact", "kdtree", ...)
  std::string metric = "l2";  ///< metric this instance was built with
  /// Metric names this backend accepts in IndexOptions::metric, in
  /// registry order (api/metrics.hpp). Sharded composites report the inner
  /// backend's set.
  std::vector<std::string> supported_metrics{"l2"};
  /// Row storage this instance scans ("float32" / "fp16" / "int8"; see
  /// IndexOptions::storage) and the names this backend accepts, in registry
  /// order (distance/quantized.hpp). Sharded composites report the inner
  /// backend's set.
  std::string storage = "float32";
  std::vector<std::string> supported_storage{"float32"};
  index_t size = 0;           ///< database points indexed
  index_t dim = 0;            ///< dimensionality
  bool exact = true;          ///< true NN guarantee vs probabilistic recall
  bool supports_range = false;  ///< range_search() implemented
  bool supports_save = false;   ///< save() / load_index() implemented
  std::size_t memory_bytes = 0;  ///< index-owned memory (0 if unknown)
  /// Runtime-dispatched SIMD ISA driving this backend's dense distance
  /// scans ("scalar" / "avx2" / "avx512"; see distance/dispatch.hpp).
  /// Empty for backends that do not use the dispatched kernel layer
  /// (trees, device backends).
  std::string kernel_isa;
  /// Row partitions answering each query: 1 for a plain backend; the
  /// built (non-empty) shard count for sharded:* backends, whose size /
  /// memory_bytes / exact fields aggregate over the inner indices.
  index_t shards = 1;
  /// insert() / remove() implemented (delta shard + tombstones + merge).
  bool supports_mutation = false;
  /// Mutation-capable backends: rows currently buffered in the delta shard
  /// (not yet merged into the main structure), and main-structure rows
  /// masked by a pending tombstone. Both drop to 0 after compact().
  index_t delta_rows = 0;
  index_t tombstones = 0;
  /// True when this instance is built over a payload dataset
  /// (metricspace/: strings, graph nodes, user blobs) instead of a dense
  /// row matrix. Payload indexes answer knn_search_payload and reject the
  /// dense entry points; dim stays 0.
  bool payload = false;
  /// Payload instances: the unit counters::add_metric_cost reports work in
  /// for this metric ("chars_compared", "edges_relaxed", ...). Empty for
  /// dense instances, whose work unit is the distance evaluation.
  std::string cost_unit;
  /// Metric-space names (metricspace/space.hpp registry) this backend can
  /// host through IndexOptions::metric, in registry order. Empty for
  /// backends without a payload path; disjoint from supported_metrics,
  /// which stays the dense registry subset.
  std::vector<std::string> supported_spaces;
};

/// The rows a built index scans, lent by Index::stored_rows() so that a
/// wrapper can read them back instead of holding a second copy. Both views
/// point into the index and stay valid while it lives and is not rebuilt.
struct StoredRows {
  /// The matrix the index holds, in the space it scans (unit-normalized
  /// under "cosine"); null when the index lends no rows.
  const Matrix<float>* rows = nullptr;
  /// When the rows are stored permuted, the build position of each stored
  /// row: stored row p is row positions[p] of the matrix given to build().
  /// Empty when the rows are stored in build order.
  std::span<const index_t> positions;
};

/// Abstract search index. Implementations own every byte they need to
/// answer queries (the database is copied at build — callers may discard
/// it), are immutable after build(), and answer concurrent const queries
/// safely.
class Index {
 public:
  virtual ~Index() = default;

  /// Builds (or rebuilds) the index over X using the IndexOptions captured
  /// at construction. X is copied; it need not outlive the call.
  virtual void build(const Matrix<float>& X) = 0;

  /// Batched k-NN. Throws std::invalid_argument on a malformed request —
  /// null queries, k == 0, k > info().size, query dimension != info().dim,
  /// a query row holding a NaN or an infinity, an unbuilt index, or a
  /// non-empty request.options.metric that differs from info().metric —
  /// with identical conditions and message shape
  /// ("rbc::Index[<backend>]: ...") across every backend, so callers can
  /// handle request errors without knowing which backend they hold. Device
  /// backends additionally reject k > gpu::kMaxK the same way.
  virtual SearchResponse knn_search(const SearchRequest& request) const = 0;

  /// Batched range search. Default: throws std::runtime_error — check
  /// info().supports_range before calling on an arbitrary backend.
  virtual RangeResponse range_search(const RangeRequest& request) const;

  /// Serializes the built index; rbc::load_index() restores it. Default:
  /// throws std::runtime_error (see info().supports_save).
  virtual void save(std::ostream& os) const;

  /// Streaming mutation (see info().supports_mutation; the default
  /// implementations throw std::runtime_error with the uniform
  /// unsupported-capability shape). Mutation-capable backends buffer
  /// inserted rows in a brute-force delta shard and mask removed ids with
  /// tombstones; past IndexOptions::max_delta buffered rows the main
  /// structure is rebuilt over the live set and swapped in atomically
  /// (shared_ptr snapshot), so concurrent const searches never block and
  /// always see a consistent live set. Mutators are serialized against
  /// each other by the implementation; searches may run concurrently.
  ///
  /// insert: adds rows.rows() points with caller-chosen ids. Throws
  /// std::invalid_argument on an unbuilt index, dimension mismatch,
  /// ids.size() != rows.rows(), duplicate ids within the batch, an id that
  /// is currently live, or kInvalidIndex as an id. Re-using the id of a
  /// *removed* point is allowed.
  virtual void insert(const Matrix<float>& rows, std::span<const index_t> ids);

  /// remove: tombstones each currently-live id in `ids`; unknown (never
  /// inserted or already removed) ids are ignored. Returns how many points
  /// were actually removed.
  virtual index_t remove(std::span<const index_t> ids);

  /// compact: blocks until every buffered mutation is merged into the main
  /// structure (delta_rows == tombstones == 0). No-op on a clean index.
  virtual void compact();

  /// build, but with caller-chosen global ids (strictly ascending, no
  /// kInvalidIndex) instead of 0..n-1 — the primitive mutation-capable
  /// composites rebuild from. Throws std::invalid_argument on violation.
  virtual void build_with_ids(const Matrix<float>& X,
                              std::span<const index_t> ids);

  /// Builds (or rebuilds) over a payload dataset — the non-vector
  /// counterpart of build(), live when info().supported_spaces names the
  /// instance's metric. The handle is shared, not copied. Default: throws
  /// std::runtime_error with the uniform unsupported-capability shape
  /// (check info().supported_spaces before calling on an arbitrary
  /// backend). Throws std::invalid_argument when the dataset's kind does
  /// not match the metric's declared kind.
  virtual void build_payload(const metricspace::DatasetHandle& data);

  /// Batched k-NN over a payload-built index. The error contract mirrors
  /// knn_search (null queries, k == 0, k > size, unbuilt index, metric
  /// assertion — identical std::invalid_argument shapes), plus a
  /// per-metric payload validity check (e.g. a graph query must be an
  /// 8-byte node id in range). Dense instances throw the
  /// unsupported-capability std::runtime_error.
  virtual SearchResponse knn_search_payload(
      const PayloadSearchRequest& request) const;

  /// Ascending ids of the currently-live points (size info().size).
  virtual std::vector<index_t> live_ids() const;

  /// Lends the rows this built index scans (see StoredRows), so that
  /// mutate::MutableIndex reads its main rows back from it for merges and
  /// save instead of holding a second copy. Default: lends nothing, and the
  /// wrapper keeps its own copy — the fallback for an index whose structure
  /// need not hold every row (rbc-oneshot's lists) and for user backends.
  virtual StoredRows stored_rows() const;

  /// Metadata and capability flags.
  virtual IndexInfo info() const = 0;

 protected:
  Index() = default;
  Index(const Index&) = default;
  Index& operator=(const Index&) = default;

  // Shared request validation for implementations (throw on violation).
  // `size`/`dim` are the built index's point count and dimensionality and
  // `metric` its built metric name; using this helper is what keeps the
  // error contract identical across backends — including the metric
  // assertion check (a request whose options.metric names a different
  // metric than the index was built with is a caller error, caught here
  // once instead of per backend). Both refuse a query row holding a NaN or
  // an infinity, naming the first, as validate_rows refuses such a row;
  // validate_range also refuses a NaN radius.
  static void validate_knn(const SearchRequest& request, index_t dim,
                           index_t size, bool built, const char* backend,
                           std::string_view metric);
  static void validate_range(const RangeRequest& request, index_t dim,
                             bool built, const char* backend,
                             std::string_view metric);
  // Row check for build and insert: throws naming the first row that holds
  // a NaN or an infinity. Distances to such a row are NaN, which no
  // (distance, id) order ranks, so it would break every sorted list and
  // heap it lands in. One parallel pass over the rows.
  static void validate_rows(const Matrix<float>& rows, const char* backend);
  // Payload counterpart of validate_knn: same conditions minus the
  // dimension check (payload elements have none).
  static void validate_knn_payload(const PayloadSearchRequest& request,
                                   index_t size, bool built,
                                   const char* backend,
                                   std::string_view metric);
};

}  // namespace rbc
