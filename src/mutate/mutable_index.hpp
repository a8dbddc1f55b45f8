// Streaming mutability for the unified index API: a delta-shard +
// tombstone + background-merge wrapper around any raw backend.
//
// The paper's construction-cost argument is what makes this design viable:
// RBC builds are "simply a call to BF(X, R)" (§4), cheap enough that the
// main structure can be *rebuilt* wholesale when enough writes accumulate,
// instead of being patched incrementally. The same pattern as the "Bigger
// Buffer k-d Trees" line of work: keep the optimized structure immutable,
// buffer mutations in a small brute-force delta, merge off the hot path.
//
//   writes  ──► delta shard (brute-force scanned, <= max_delta rows)
//   deletes ──► tombstones  (mask main-structure rows at merge time)
//   search  ──► snapshot {main, delta, tombs, dead}; inner top-k (again
//               top-(k + dead) only for rows it left short of live ids) +
//               delta top-k ──► shard::merge_topk_row (exact, ties incl.)
//   merge   ──► background thread rebuilds the raw structure over the live
//               set, swaps it in under the lock (shared_ptr snapshots), so
//               in-flight searches never block and never see a torn state.
//   rows    ──► the main rows live once, in the raw structure, which lends
//               them back in its own order (Index::stored_rows); merge and
//               save read them in id order through one inverse of that
//               permutation. Only a backend that lends none (rbc-oneshot,
//               user backends) leaves the wrapper an id-ordered copy.
//   save    ──► the dense stream (rbc/serialize_io.hpp): backend name, metric
//               and storage tags, build knobs, then main rows + ids, delta
//               rows + ids, tombstones. load() rebuilds the raw structure
//               from them, so one format serves every wrapped backend.
//
// Exactness: every returned (distance, id) pair is a scalar re-measured
// value, independent of which structure produced the candidate — so for
// exact raw backends, a mutated index answers bit-identically (ids, dists,
// tie order) to an index rebuilt from scratch over the same logical rows,
// at *every* point in the mutation schedule. The conformance suite's
// mutate-then-search matrix enforces this per backend x metric x shard
// count.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/index.hpp"
#include "api/metrics.hpp"
#include "api/registry.hpp"
#include "bruteforce/topk.hpp"
#include "common/matrix.hpp"

namespace rbc::mutate {

/// Wraps a raw backend registration with the mutable delta-shard adapter:
/// `create` builds a MutableIndex around the raw factory (transparent —
/// info().backend stays the raw name). The backend TUs in src/api/backends/
/// call this at registration time; their dense streams load through
/// MutableIndex::load, which rbc::load_index calls on io::kMagicDense.
BackendEntry wrap(BackendEntry raw);

/// The delta-shard adapter. Constructed unbuilt (like every backend);
/// mutation entry points appear after build()/build_with_ids().
///
/// Concurrency contract: const searches (knn/range/info/live_ids/save) may
/// run from any number of threads, concurrently with mutators and with the
/// background merge — they snapshot four shared_ptrs under a brief shared
/// lock and never wait on structure builds. Mutators (insert/remove/
/// compact/build) are serialized against each other internally.
class MutableIndex final : public Index {
 public:
  using Factory = std::function<std::unique_ptr<Index>(const IndexOptions&)>;

  /// `raw_name` / `create` are the wrapped backend's registry identity.
  MutableIndex(std::string raw_name, const IndexOptions& options,
               Factory create);
  ~MutableIndex() override;

  void build(const Matrix<float>& X) override;
  void build_with_ids(const Matrix<float>& X,
                      std::span<const index_t> ids) override;

  SearchResponse knn_search(const SearchRequest& request) const override;
  RangeResponse range_search(const RangeRequest& request) const override;

  void insert(const Matrix<float>& rows,
              std::span<const index_t> ids) override;
  index_t remove(std::span<const index_t> ids) override;
  void compact() override;
  std::vector<index_t> live_ids() const override;

  void save(std::ostream& os) const override;
  IndexInfo info() const override;

  /// Restores a dense stream written by save(). The stream must start at
  /// the magic. The backend it names is made through make_index, which must
  /// yield a MutableIndex. Corruption (an unknown or non-dense backend
  /// included) throws std::runtime_error.
  static std::unique_ptr<Index> load(std::istream& is);

 private:
  /// The immutable main structure: the raw inner index plus the ascending
  /// global ids of the transform-space rows it was built over (inner is
  /// null when the main set is empty — some raw backends do not build over
  /// zero rows). The inner index holds the rows and lends them back
  /// (Index::stored_rows); `rows` keeps an id-ordered copy only when it
  /// lends none.
  struct MainState {
    std::unique_ptr<Index> inner;
    std::vector<index_t> ids;
    Matrix<float> rows;  // empty unless the inner index lends no rows
  };
  /// The mutable write buffer, copy-on-write: ids ascending, rows in the
  /// matching order, already in transform space (normalized when cosine).
  struct DeltaState {
    std::vector<index_t> ids;
    Matrix<float> rows;
  };
  /// One consistent view of the index (what a search operates on).
  struct Snapshot {
    std::shared_ptr<const MainState> main;
    std::shared_ptr<const DeltaState> delta;
    std::shared_ptr<const std::vector<index_t>> tombs;
    /// The tombstones that mask main rows (tombs ∩ main ids), ascending.
    /// tombs may also hold ids only an in-flight merge's frozen set has.
    std::shared_ptr<const std::vector<index_t>> dead;
  };
  /// Everything a merge needs, captured at freeze time.
  struct MergeJob {
    Snapshot snap;
    std::vector<index_t> frozen;  ///< live ids at freeze = the new main set
  };

  Snapshot snapshot() const;
  void build_internal(const Matrix<float>& X, std::vector<index_t> ids);
  /// A main structure over `rows` (transform space, id order) and `ids`:
  /// builds the inner index, then keeps a copy of `rows` only if it lends
  /// none — moved from `movable` (rows itself, when the caller owns them)
  /// or else gathered.
  std::shared_ptr<MainState> make_main(const Matrix<float>& rows,
                                       std::vector<index_t> ids,
                                       Matrix<float>* movable) const;
  dist_t delta_distance(const float* a, const float* b, index_t d) const;
  /// BF(q, delta) into `top`: the bruteforce backend's prefilter plus exact
  /// re-measure for l2/cosine and l1, the functor loop for ip. Same heap
  /// as pushing delta_distance for every row.
  void scan_delta(const float* q, const DeltaState& delta, TopK& top) const;
  /// Freezes the current live set for a merge; caller holds the unique
  /// lock and checked !merging_. Sets merging_.
  MergeJob freeze_locked();
  /// Rebuilds the main structure over job.frozen and swaps it in,
  /// reconciling mutations that landed while the build ran. Clears
  /// merging_.
  void merge_once(const MergeJob& job);
  void join_merge_thread();
  /// Launches merge_once on the background thread (or inline when
  /// background_merge is false).
  void launch_merge(MergeJob job);

  std::string name_;
  IndexOptions options_;        // as given (metric = user metric)
  IndexOptions inner_options_;  // metric mapped (cosine -> l2)
  Factory create_;
  metric::Kind kind_ = metric::Kind::kL2;
  std::unique_ptr<Index> probe_;  // unbuilt raw instance: capability info

  mutable std::shared_mutex mutex_;  // guards everything below
  bool built_ = false;
  index_t dim_ = 0;
  std::shared_ptr<const MainState> main_;
  std::shared_ptr<const DeltaState> delta_;
  std::shared_ptr<const std::vector<index_t>> tombs_;
  std::shared_ptr<const std::vector<index_t>> dead_;  // Snapshot::dead
  bool merging_ = false;
  std::vector<index_t> frozen_ids_;  // the in-flight merge's new main set

  std::mutex thread_mutex_;  // guards merge_thread_ join/assign only
  std::thread merge_thread_;
};

}  // namespace rbc::mutate
