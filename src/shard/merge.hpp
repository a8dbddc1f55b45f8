// Exact k-way merge of per-shard top-k blocks and per-row union of range
// hits — the gather half of every scatter/gather composite in the library.
//
// Two layers share this code path bit-for-bit: ShardedIndex (in-process
// row-partitioned fan-out, shard/sharded_index.cpp) and NetRouter
// (multi-process scatter over shard-owner servers, dist/net_router.cpp).
// Keeping the merge in one place is what makes the distributed deployment's
// exactness claim checkable: a router over N server processes returns
// *identical* bytes to sharded:<inner> run in one process, because both feed
// the same per-shard top-k rows through this same cursor merge.
//
// Requirements on the inputs (the callers' contract):
//   * each shard's row holds its `k` nearest under ascending (distance, id)
//     order; an *approximate* shard may under-fill the row, padding the
//     tail with (kInfDist, kInvalidIndex) entries;
//   * a shard's ids become global ids by adding its first_row (a
//     positional shard holds the global rows from first_row on, in order;
//     an id-native shard answers global ids and passes 0), so each sorted
//     row stays sorted (padding ids are never remapped);
//   * for exact shards the k's sum to at least the output k (guaranteed
//     when k <= total database size, which the unified API validates).
// Under those, a cursor-per-shard merge is exact: ties break on the global
// id exactly as a single unsharded scan would. If every stream runs dry
// before the output fills (only possible when an approximate shard
// under-filled), the remaining slots carry the same padding convention the
// backends themselves use.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "bruteforce/bf.hpp"
#include "common/matrix.hpp"
#include "parallel/parallel_for.hpp"

namespace rbc::shard {

/// One sorted candidate stream's contribution to a single-row merge.
struct MergeCursorInput {
  const dist_t* dists = nullptr;  ///< k ascending (distance, id) entries
  const index_t* ids = nullptr;   ///< matching local (or global) ids
  index_t k = 0;                  ///< valid entries (no padding)
  /// Added to every id: a positional shard's first global row; 0 for ids
  /// that are already global.
  index_t first_row = 0;
};

/// Merges the streams' sorted rows into one k-entry output row under the
/// global (distance, id) order. The streams' k's must sum to >= k.
inline void merge_topk_row(index_t k,
                           std::span<const MergeCursorInput> streams,
                           dist_t* out_d, index_t* out_i) {
  std::vector<index_t> cursor(streams.size(), 0);
  for (index_t slot = 0; slot < k; ++slot) {
    std::size_t best_s = streams.size();
    dist_t best_d = kInfDist;
    index_t best_id = kInvalidIndex;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (cursor[s] >= streams[s].k) continue;
      const index_t local = streams[s].ids[cursor[s]];
      // Approximate shards pad under-filled rows with (kInfDist,
      // kInvalidIndex); the padding is a sorted tail, so the stream is
      // exhausted here — and must never be remapped.
      if (local == kInvalidIndex) continue;
      const dist_t d = streams[s].dists[cursor[s]];
      const index_t gid = local + streams[s].first_row;
      if (d < best_d || (d == best_d && gid < best_id)) {
        best_s = s;
        best_d = d;
        best_id = gid;
      }
    }
    if (best_s == streams.size()) {
      // Every stream ran dry before the row filled (an approximate shard
      // under-filled): carry the backends' own padding convention through.
      out_d[slot] = kInfDist;
      out_i[slot] = kInvalidIndex;
      continue;
    }
    ++cursor[best_s];
    out_d[slot] = best_d;
    out_i[slot] = best_id;
  }
}

/// One shard's contribution to the merge.
struct MergeInput {
  const KnnResult* knn = nullptr;  ///< nq rows of its shard's top-k
  index_t first_row = 0;           ///< as in MergeCursorInput
};

/// Merges the shards' top-k rows into one nq x k result under the global
/// (distance, id) order. Parallel across queries; each query's merge touches
/// only its own output row, so the loop is lock-free.
inline KnnResult merge_shard_topk(index_t nq, index_t k,
                                  std::span<const MergeInput> shards) {
  KnnResult out(nq, k);
  parallel_for_dynamic(0, nq, [&](index_t qi) {
    std::vector<MergeCursorInput> streams(shards.size());
    for (std::size_t s = 0; s < shards.size(); ++s)
      streams[s] = {.dists = shards[s].knn->dists.row(qi),
                    .ids = shards[s].knn->ids.row(qi),
                    .k = shards[s].knn->ids.cols(),
                    .first_row = shards[s].first_row};
    merge_topk_row(k, streams, out.dists.row(qi), out.ids.row(qi));
  });
  return out;
}

/// One shard's range hits.
struct RangeInput {
  const std::vector<std::vector<index_t>>* hits = nullptr;  ///< per query
  index_t first_row = 0;  ///< as in MergeCursorInput
};

/// Unions the shards' hits per query row, in global ids ascending.
inline std::vector<std::vector<index_t>> merge_shard_range(
    index_t nq, std::span<const RangeInput> shards) {
  std::vector<std::vector<index_t>> out(nq);
  parallel_for_dynamic(0, nq, [&](index_t qi) {
    for (const RangeInput& shard : shards)
      for (const index_t id : (*shard.hits)[qi])
        out[qi].push_back(id + shard.first_row);
    std::sort(out[qi].begin(), out[qi].end());
  });
  return out;
}

}  // namespace rbc::shard
