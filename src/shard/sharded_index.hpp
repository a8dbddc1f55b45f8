// Sharded parallel index: N inner indices over a row-partitioned database,
// answering as one rbc::Index.
//
// The paper's manycore argument is that RBC search decomposes into
// independent brute-force pieces; sharding applies the same decomposition
// one level up (cf. buffer k-d trees and NCAM in PAPERS.md): the database is
// split into `num_shards` contiguous row sets, any registered backend is
// built per shard (in parallel via src/parallel/), and a query fans out to
// every shard. Every search — k-NN, payload k-NN and range — runs one
// fan-out: one task per (live shard, block of query rows) pair, with
// ceil(nq / max_threads()) rows per block, so a batch smaller than the team
// (a served read of one or two rows) still runs one row per task and every
// thread has work; a lone live shard gets the whole batch and spreads it
// over the team itself. Each task fills its own rows — shard results never
// share mutable state, so the fan-out is lock-free by construction — and an
// exact k-way merge (or, for range, a per-row union) turns shard-local row
// ids into global ids by adding each shard's first global row, under the
// library-wide (distance, id) order (shard/merge.hpp). Because every
// inner backend re-measures candidates with the same scalar metric over the
// same row bytes, the merged answer is bit-identical (ids, distances, tie
// order) to the wrapped backend run unsharded, for every shard count and
// batch size.
//
//   auto index = rbc::make_index("sharded:rbc-exact", {.num_shards = 8});
//   index->build(database);               // 8 rbc-exact indices, built in
//   auto r = index->knn_search(request);  // parallel, searched fan-out/merge
//
// Factory names: "sharded:<inner>" for every registered inner backend —
// the shipped variants are pre-registered (see api/backends/), and
// make_index() resolves "sharded:<anything-registered>" generically, so a
// user-registered backend gets a sharded form for free.
//
// Capabilities mirror the inner backend: range_search unions per-shard hits;
// save/load round-trips through the sharded stream (io::kMagicSharded: a
// header, then each shard's own dense or payload stream) when the inner
// supports save; IndexInfo aggregates size / memory / exactness over the
// shards.
//
// Mutation: when the inner backend supports insert()/remove() (the mutable
// delta-shard adapter, mutate/mutable_index.hpp), the composite runs
// *id-native*: every shard — including initially empty ones, which is why
// all num_shards are instantiated up front — is built with its global row
// ids via build_with_ids, answers in global ids directly (first row 0), and
// the composite routes each insert batch to the least-full shard and
// each remove to the shard that owns the id. Searches stay exact: the
// per-shard live counts clamp k, and the same k-way merge applies.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "api/index.hpp"
#include "common/writer_priority_mutex.hpp"

namespace rbc::shard {

/// Upper bound on IndexOptions::num_shards: far beyond any useful
/// configuration, and small enough that a corrupt shard-count field in a
/// serialized file can never drive a giant shard-table allocation.
inline constexpr index_t kMaxShards = 1u << 20;

/// A shard's contiguous global rows [lo, hi).
struct RowRange {
  index_t lo = 0;
  index_t hi = 0;
  index_t size() const { return hi - lo; }
};

/// Shard s's rows of an (n, num_shards) split: [s*n/num_shards,
/// (s+1)*n/num_shards). Sizes differ by at most one row, and the split is a
/// pure function of (n, num_shards), so save/load and NetRouter re-derive
/// it. Shards whose range is empty (num_shards > n) are left out of a
/// positional build entirely.
inline RowRange partition_rows(index_t n, index_t num_shards, index_t s) {
  const std::uint64_t rows = n;  // s * n overflows 32 bits
  return {static_cast<index_t>(s * rows / num_shards),
          static_cast<index_t>((s + 1) * rows / num_shards)};
}

/// A row-partitioned composite over any registered inner backend. Validates
/// the inner name and shard parameters at construction; build() copies each
/// shard's rows and builds the inner indices in parallel.
///
/// Thread safety: const searches may run concurrently with each other and
/// with the inner shards' background merges; composite-level mutators
/// (insert/remove/build) exclude searches briefly while they reroute ids.
class ShardedIndex final : public Index {
 public:
  /// `inner` must name a registered backend ("rbc-exact", ...); `options`
  /// supplies both the shard count (num_shards) and the inner backend's own
  /// knobs, forwarded to every shard unchanged.
  ShardedIndex(std::string_view inner, const IndexOptions& options);

  void build(const Matrix<float>& X) override;
  void build_with_ids(const Matrix<float>& X,
                      std::span<const index_t> ids) override;
  SearchResponse knn_search(const SearchRequest& request) const override;
  RangeResponse range_search(const RangeRequest& request) const override;

  /// Payload (generic metric-space) composites: live when the inner backend
  /// resolved IndexOptions::metric to a payload space. Each shard is built
  /// over Dataset::subset of its contiguous rows, so the same first-row
  /// remap and k-way merge the dense path uses apply unchanged, and the
  /// composite stays bit-identical to the inner backend run unsharded.
  void build_payload(const metricspace::DatasetHandle& data) override;
  SearchResponse knn_search_payload(
      const PayloadSearchRequest& request) const override;

  void insert(const Matrix<float>& rows,
              std::span<const index_t> ids) override;
  index_t remove(std::span<const index_t> ids) override;
  void compact() override;
  std::vector<index_t> live_ids() const override;

  void save(std::ostream& os) const override;
  IndexInfo info() const override;

  /// Restores a stream written by save() (leading magic io::kMagicSharded).
  /// The inner backend is resolved by name from the registry, and each
  /// shard loads through rbc::load_index, so the stream must be seekable.
  static std::unique_ptr<Index> load(std::istream& is);

 private:
  struct Shard {
    std::unique_ptr<Index> index;
    /// Global row of local row 0: a positional shard holds the global rows
    /// [first_row, first_row + live). 0 in id-native (mutable) mode, where
    /// the shard answers global ids.
    index_t first_row = 0;
    index_t live = 0;  ///< rows this shard currently answers for
  };

  /// Each shard's rows of an n-row build: all num_shards ranges when
  /// id-native (empty ones absorb inserts later), else the non-empty ones.
  std::vector<RowRange> shard_ranges(index_t n) const;
  /// The one build path: splits the build rows over the shards, builds
  /// each shard on the team from `X`'s rows (dense) or `data`'s subset
  /// (payload, X == nullptr), and installs them. ids[i] is row i's global
  /// id, which id-native shards are built with; positional builds pass no
  /// ids, and each shard keeps its first row.
  void build_shards(const Matrix<float>* X,
                    const metricspace::DatasetHandle& data,
                    std::span<const index_t> ids);
  /// The one search fan-out: calls item(s, lo, hi) — live shard s answering
  /// query rows [lo, hi) — for every (live shard, row block) pair on the
  /// team, and returns the items' merged stats, each query counted once.
  template <class Item>
  SearchStats fan_out(index_t nq, Item&& item) const;
  /// knn_search's and knn_search_payload's shared half: fans out
  /// search(shard, lo, hi, k) with k clamped to each shard's live count,
  /// then merges the shards' rows exactly (merge_shard_topk).
  template <class Search>
  SearchResponse knn_fan_out(index_t nq, index_t k, bool collect_stats,
                             Search&& search) const;
  IndexInfo info_locked() const;
  [[noreturn]] void fail(const std::string& what) const;

  std::string inner_;
  std::string name_;  // "sharded:<inner>" (what info().backend reports)
  std::string metric_;  // the inner backend's built metric (validated there)
  IndexOptions options_;
  /// Unbuilt inner instance kept from the constructor's name validation;
  /// answers capability queries (info()) until the real shards exist.
  std::unique_ptr<Index> probe_;
  /// Inner backend supports mutation => the composite runs id-native and
  /// mutation entry points are live.
  bool mutable_mode_ = false;
  /// Inner backend resolved the metric to a payload space => the payload
  /// entry points are live and the dense ones are rejected.
  bool payload_ = false;

  /// Held by compact() for its whole run and taken by every writer before
  /// mutex_: a writer that arrives during a compaction waits here instead
  /// of queueing on mutex_, so searches keep running beside the compaction.
  std::mutex compact_mutex_;
  /// Guards everything below. Searches hold the shared side across their
  /// whole fan-out, so a waiting writer must keep new searches out or
  /// overlapping ones starve it (writer_priority_mutex.hpp).
  mutable WriterPriorityMutex mutex_;
  std::vector<Shard> shards_;  // id-native: all num_shards; legacy: non-empty
  /// id-native mode only: which shard owns each live id (insert routing,
  /// remove dispatch, duplicate-id detection).
  std::unordered_map<index_t, std::uint32_t> id_to_shard_;
  index_t size_ = 0;
  index_t dim_ = 0;
  bool built_ = false;
};

/// Factory behind the "sharded:<inner>" registry names: validates and
/// constructs an unbuilt ShardedIndex. Throws std::invalid_argument for an
/// unknown inner backend or malformed shard parameters.
std::unique_ptr<Index> make_sharded(std::string_view inner,
                                    const IndexOptions& options);

}  // namespace rbc::shard
