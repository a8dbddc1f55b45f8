#include "shard/sharded_index.hpp"

#include <algorithm>
#include <exception>
#include <istream>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "api/registry.hpp"
#include "metricspace/dataset.hpp"
#include "metricspace/space.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/runtime.hpp"
#include "rbc/serialize_io.hpp"
#include "shard/merge.hpp"

namespace rbc::shard {

Partition parse_partition(std::string_view name) {
  if (name == "contiguous") return Partition::kContiguous;
  if (name == "strided") return Partition::kStrided;
  throw std::invalid_argument(
      "rbc::ShardedIndex: unknown partition scheme '" + std::string(name) +
      "' (expected \"contiguous\" or \"strided\")");
}

const char* partition_name(Partition p) noexcept {
  return p == Partition::kContiguous ? "contiguous" : "strided";
}

std::vector<std::vector<index_t>> partition_rows(index_t n, index_t num_shards,
                                                 Partition partition) {
  std::vector<std::vector<index_t>> rows(num_shards);
  if (partition == Partition::kContiguous) {
    // Shard s owns [s*n/S, (s+1)*n/S): sizes differ by at most one row and
    // the mapping is a pure function of (n, S), so save/load re-derives it.
    for (index_t s = 0; s < num_shards; ++s) {
      const auto lo = static_cast<index_t>(
          static_cast<std::uint64_t>(s) * n / num_shards);
      const auto hi = static_cast<index_t>(
          static_cast<std::uint64_t>(s + 1) * n / num_shards);
      rows[s].reserve(hi - lo);
      for (index_t i = lo; i < hi; ++i) rows[s].push_back(i);
    }
  } else {
    for (index_t i = 0; i < n; ++i) rows[i % num_shards].push_back(i);
  }
  return rows;
}

ShardedIndex::ShardedIndex(std::string_view inner, const IndexOptions& options)
    : inner_(inner),
      name_("sharded:" + std::string(inner)),
      options_(options),
      partition_(parse_partition(options.partition)) {
  if (options.num_shards < 1 || options.num_shards > kMaxShards)
    throw std::invalid_argument(
        "rbc::ShardedIndex: num_shards must be in [1, " +
        std::to_string(kMaxShards) + "] (got " +
        std::to_string(options.num_shards) + ")");
  // Resolve the inner name eagerly so a typo (or an unsupported metric —
  // the inner backend enforces its own metric set) fails at make_index
  // time, not at build time; the instance is kept to answer capability
  // queries until build() creates the real shards.
  probe_ = make_index(inner_, options_);
  metric_ = probe_->info().metric;
  mutable_mode_ = probe_->info().supports_mutation;
  payload_ = probe_->info().payload;
}

void ShardedIndex::fail(const std::string& what) const {
  throw std::invalid_argument("rbc::Index[" + name_ + "]: " + what);
}

void ShardedIndex::build_shard(const Matrix<float>& X,
                               const std::vector<index_t>& rows,
                               Shard& shard) const {
  Matrix<float> part(static_cast<index_t>(rows.size()), X.cols());
  for (index_t local = 0; local < part.rows(); ++local)
    part.copy_row_from(X, rows[local], local);
  shard.index->build(part);
}

void ShardedIndex::build_shard_with_ids(const Matrix<float>& X,
                                        const std::vector<index_t>& positions,
                                        const std::vector<index_t>& ids,
                                        Shard& shard) const {
  Matrix<float> part(static_cast<index_t>(positions.size()), X.cols());
  for (index_t local = 0; local < part.rows(); ++local)
    part.copy_row_from(X, positions[local], local);
  shard.index->build_with_ids(part, ids);
}

void ShardedIndex::build_id_native(const Matrix<float>& X,
                                   const std::vector<index_t>& ids) {
  // Positions are partitioned exactly as the legacy path partitions rows;
  // each shard is built id-native over its positional slice of `ids`. All
  // num_shards shards exist — an initially empty shard (num_shards > n) is
  // built over zero rows so it can still absorb inserts later.
  const std::vector<std::vector<index_t>> assignment =
      partition_rows(X.rows(), options_.num_shards, partition_);

  std::vector<Shard> shards(options_.num_shards);
  std::vector<std::vector<index_t>> shard_ids(options_.num_shards);
  for (index_t s = 0; s < options_.num_shards; ++s) {
    shards[s].index = make_index(inner_, options_);
    shard_ids[s].reserve(assignment[s].size());
    for (index_t pos : assignment[s]) shard_ids[s].push_back(ids[pos]);
    shards[s].live = static_cast<index_t>(assignment[s].size());
  }

  parallel_for_dynamic(
      0, static_cast<std::int64_t>(shards.size()),
      [&](index_t s) {
        build_shard_with_ids(X, assignment[s], shard_ids[s], shards[s]);
      },
      /*chunk=*/1);

  std::unordered_map<index_t, std::uint32_t> owners;
  owners.reserve(ids.size());
  for (index_t s = 0; s < options_.num_shards; ++s)
    for (index_t id : shard_ids[s]) owners.emplace(id, s);

  std::lock_guard compacting(compact_mutex_);
  std::unique_lock lock(mutex_);
  shards_ = std::move(shards);
  id_to_shard_ = std::move(owners);
  size_ = X.rows();
  dim_ = X.cols();
  built_ = true;
}

void ShardedIndex::build(const Matrix<float>& X) {
  if (payload_)
    fail("dense build() on payload metric '" + metric_ +
         "' (use build_payload)");
  // Before the fan-out: a shard's own rejection would be thrown inside the
  // OpenMP region below, where it terminates the process.
  validate_rows(X, name_.c_str());
  if (mutable_mode_) {
    // build(X) is build_with_ids with the identity labelling.
    std::vector<index_t> ids(X.rows());
    for (index_t i = 0; i < X.rows(); ++i) ids[i] = i;
    build_id_native(X, ids);
    return;
  }

  std::vector<std::vector<index_t>> assignment =
      partition_rows(X.rows(), options_.num_shards, partition_);

  std::vector<Shard> shards;
  shards.reserve(assignment.size());
  for (std::vector<index_t>& rows : assignment) {
    if (rows.empty()) continue;  // num_shards > n: excess shards stay unbuilt
    Shard shard;
    shard.index = make_index(inner_, options_);
    shard.global_ids = std::move(rows);
    shard.live = static_cast<index_t>(shard.global_ids.size());
    shards.push_back(std::move(shard));
  }

  // Shard builds are independent; the loop parallelizes across them while
  // each inner build's own OpenMP loops run within the worker it landed on
  // (nested regions serialize, so cores split across shards cleanly).
  parallel_for_dynamic(
      0, static_cast<std::int64_t>(shards.size()),
      [&](index_t s) { build_shard(X, shards[s].global_ids, shards[s]); },
      /*chunk=*/1);

  std::lock_guard compacting(compact_mutex_);
  std::unique_lock lock(mutex_);
  shards_ = std::move(shards);
  id_to_shard_.clear();
  size_ = X.rows();
  dim_ = X.cols();
  built_ = true;
}

void ShardedIndex::build_with_ids(const Matrix<float>& X,
                                  std::span<const index_t> ids) {
  if (!mutable_mode_) return Index::build_with_ids(X, ids);  // uniform error
  if (ids.size() != static_cast<std::size_t>(X.rows()))
    fail("build_with_ids id count " + std::to_string(ids.size()) +
         " != row count " + std::to_string(X.rows()));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == kInvalidIndex)
      fail("build_with_ids ids contain the reserved invalid id");
    if (i > 0 && ids[i] <= ids[i - 1])
      fail("build_with_ids ids must be strictly ascending");
  }
  validate_rows(X, name_.c_str());  // before the fan-out, as in build()
  build_id_native(X, std::vector<index_t>(ids.begin(), ids.end()));
}

void ShardedIndex::build_payload(const metricspace::DatasetHandle& data) {
  if (!payload_) return Index::build_payload(data);  // uniform unsupported
  if (data == nullptr) fail("dataset handle is null");
  // Kind-check before the fan-out: the per-shard builds below run inside an
  // OpenMP region, where an inner backend's mismatch exception would
  // terminate the process instead of reaching the caller.
  if (const metricspace::SpaceEntry* entry = metricspace::find_space(metric_);
      entry != nullptr && data->kind() != entry->dataset_kind)
    fail("metric '" + metric_ + "' requires a '" + entry->dataset_kind +
         "' dataset, got '" + std::string(data->kind()) + "'");

  // The legacy (immutable) layout, over dataset subsets instead of row
  // copies: shard s's element j is global element global_ids[j], and
  // subset() preserves ascending order, so the merge remap below is the
  // same monotone map the dense path relies on.
  std::vector<std::vector<index_t>> assignment =
      partition_rows(data->size(), options_.num_shards, partition_);

  std::vector<Shard> shards;
  shards.reserve(assignment.size());
  for (std::vector<index_t>& rows : assignment) {
    if (rows.empty()) continue;  // num_shards > n: excess shards stay unbuilt
    Shard shard;
    shard.index = make_index(inner_, options_);
    shard.global_ids = std::move(rows);
    shard.live = static_cast<index_t>(shard.global_ids.size());
    shards.push_back(std::move(shard));
  }

  parallel_for_dynamic(
      0, static_cast<std::int64_t>(shards.size()),
      [&](index_t s) {
        shards[s].index->build_payload(data->subset(shards[s].global_ids));
      },
      /*chunk=*/1);

  std::lock_guard compacting(compact_mutex_);
  std::unique_lock lock(mutex_);
  shards_ = std::move(shards);
  id_to_shard_.clear();
  size_ = data->size();
  dim_ = 0;
  built_ = true;
}

SearchResponse ShardedIndex::knn_search_payload(
    const PayloadSearchRequest& request) const {
  if (!payload_) return Index::knn_search_payload(request);  // unsupported
  std::shared_lock lock(mutex_);
  validate_knn_payload(request, size_, built_, name_.c_str(), metric_);
  const index_t nq = static_cast<index_t>(request.queries->size());
  const index_t k = request.k;

  // Fan-out / exact k-way merge, exactly as the dense path below: k is
  // clamped to each shard's live count so every returned row is fully
  // populated, and shard-local ids remap to global ids monotonically.
  std::vector<SearchResponse> fanout(shards_.size());
  std::vector<index_t> shard_k(shards_.size(), 0);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].live == 0) continue;
    PayloadSearchRequest sub = request;
    shard_k[s] = std::min<index_t>(k, shards_[s].live);
    sub.k = shard_k[s];
    fanout[s] = shards_[s].index->knn_search_payload(sub);
  }

  std::vector<MergeInput> inputs;
  inputs.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shard_k[s] == 0) continue;
    inputs.push_back({&fanout[s].knn, shard_k[s], &shards_[s].global_ids});
  }
  SearchResponse response;
  response.knn = merge_shard_topk(nq, k, inputs);

  if (request.options.collect_stats) {
    for (const SearchResponse& r : fanout) response.stats.merge(r.stats);
    response.stats.queries = nq;  // each query answered once, not once/shard
  }
  return response;
}

SearchResponse ShardedIndex::knn_search(const SearchRequest& request) const {
  if (payload_)
    fail("dense knn_search() on payload metric '" + metric_ +
         "' (use knn_search_payload)");
  std::shared_lock lock(mutex_);
  validate_knn(request, dim_, size_, built_, name_.c_str(), metric_);
  const Matrix<float>& Q = *request.queries;
  const index_t nq = Q.rows();
  const index_t k = request.k;

  // Fan-out: every live shard answers the query block, with k clamped to
  // its live row count so every returned row is fully populated — no
  // padding reaches the merge. Shards with zero live rows (drained by
  // remove(), or excess shards awaiting inserts) are skipped: they have
  // nothing to contribute and k >= 1 would fail their validation. Each
  // (query, shard) pair fills its own top-k (inner backends never share
  // state), so the fan-out is lock-free whichever way it is scheduled.
  std::vector<SearchResponse> fanout(shards_.size());
  std::vector<index_t> shard_k(shards_.size(), 0);
  std::vector<std::size_t> live;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].live == 0) continue;
    shard_k[s] = std::min<index_t>(k, shards_[s].live);
    live.push_back(s);
  }
  if (live.size() > 1 && nq < static_cast<index_t>(max_threads())) {
    knn_rows_fanout(request, live, shard_k, fanout);
  } else {
    // Shard after shard, each searching the whole block with the team's
    // query-level parallelism.
    for (const std::size_t s : live) {
      SearchRequest sub = request;
      sub.k = shard_k[s];
      fanout[s] = shards_[s].index->knn_search(sub);
    }
  }

  // Exact k-way merge under the global (distance, id) order — shared with
  // the multi-process NetRouter (see shard/merge.hpp for the exactness
  // argument). In id-native (mutable) mode the shards already answer in
  // global ids (identity remap); otherwise shard-local ids map to global
  // ids monotonically (both partition schemes assign ascending local ->
  // ascending global). validate_knn guarantees k <= live size, so the
  // merge preconditions hold either way.
  std::vector<MergeInput> inputs;
  inputs.reserve(live.size());
  for (const std::size_t s : live)
    inputs.push_back({&fanout[s].knn, shard_k[s],
                      mutable_mode_ ? nullptr : &shards_[s].global_ids});
  SearchResponse response;
  response.knn = merge_shard_topk(nq, k, inputs);

  if (request.options.collect_stats) {
    for (const SearchResponse& r : fanout) response.stats.merge(r.stats);
    response.stats.queries = nq;  // each query answered once, not once/shard
  }
  return response;
}

void ShardedIndex::knn_rows_fanout(const SearchRequest& request,
                                   const std::vector<std::size_t>& live,
                                   const std::vector<index_t>& shard_k,
                                   std::vector<SearchResponse>& fanout) const {
  // Fewer rows than threads: the per-query loop inside one shard's search
  // would leave threads idle (and its chunk of 8 puts up to 8 rows on one
  // thread), so the team splits (shard, row) pairs instead. Each pair is a
  // one-row search on its shard; the inner backend's own OpenMP loops nest
  // inside this region and run serially, as in the parallel shard builds.
  const Matrix<float>& Q = *request.queries;
  const index_t nq = Q.rows();
  std::vector<Matrix<float>> rows(nq);
  for (index_t qi = 0; qi < nq; ++qi) {
    rows[qi] = Matrix<float>(1, Q.cols());
    rows[qi].copy_row_from(Q, qi, 0);
  }
  for (const std::size_t s : live) fanout[s].knn = KnnResult(nq, shard_k[s]);

  const std::size_t pairs = live.size() * nq;
  std::vector<SearchStats> stats(pairs);
  // An exception escaping an OpenMP region terminates the process: each
  // pair parks its own, and the first (in pair order) is rethrown below.
  std::vector<std::exception_ptr> errors(pairs);
  parallel_for_dynamic(
      0, static_cast<std::int64_t>(pairs),
      [&](index_t p) {
        const std::size_t s = live[p / nq];
        const index_t qi = p % nq;
        try {
          SearchRequest sub = request;
          sub.queries = &rows[qi];
          sub.k = shard_k[s];
          const SearchResponse r = shards_[s].index->knn_search(sub);
          std::copy_n(r.knn.dists.row(0), shard_k[s],
                      fanout[s].knn.dists.row(qi));
          std::copy_n(r.knn.ids.row(0), shard_k[s], fanout[s].knn.ids.row(qi));
          stats[p] = r.stats;
        } catch (...) {
          errors[p] = std::current_exception();
        }
      },
      /*chunk=*/1);
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  for (std::size_t p = 0; p < pairs; ++p)
    fanout[live[p / nq]].stats.merge(stats[p]);
}

RangeResponse ShardedIndex::range_search(const RangeRequest& request) const {
  // Capability comes from the probe (not info()): this thread may not
  // re-enter the shared lock it is about to take.
  if (!probe_->info().supports_range)
    return Index::range_search(request);  // uniform unsupported error
  std::shared_lock lock(mutex_);
  validate_range(request, dim_, built_, name_.c_str(), metric_);
  const index_t nq = request.queries->rows();

  std::vector<RangeResponse> fanout(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].live == 0) continue;
    fanout[s] = shards_[s].index->range_search(request);
  }

  RangeResponse response;
  response.ids.resize(nq);
  parallel_for_dynamic(0, nq, [&](index_t qi) {
    std::vector<index_t>& hits = response.ids[qi];
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s].live == 0) continue;
      for (index_t local : fanout[s].ids[qi])
        hits.push_back(mutable_mode_ ? local : shards_[s].global_ids[local]);
    }
    std::sort(hits.begin(), hits.end());
  });

  if (request.options.collect_stats) {
    for (const RangeResponse& r : fanout) response.stats.merge(r.stats);
    response.stats.queries = nq;
  }
  return response;
}

void ShardedIndex::insert(const Matrix<float>& rows,
                          std::span<const index_t> ids) {
  if (!mutable_mode_) return Index::insert(rows, ids);  // uniform error
  std::lock_guard compacting(compact_mutex_);
  std::unique_lock lock(mutex_);
  if (!built_) fail("insert on an unbuilt index (call build first)");
  if (rows.cols() != dim_)
    fail("insert row dimension " + std::to_string(rows.cols()) +
         " != index dimension " + std::to_string(dim_));
  if (ids.size() != static_cast<std::size_t>(rows.rows()))
    fail("insert id count " + std::to_string(ids.size()) +
         " != row count " + std::to_string(rows.rows()));
  if (ids.empty()) return;

  // Validate the whole batch before touching any shard, so a rejected
  // insert leaves the composite unchanged. Cross-shard liveness lives in
  // the routing map; in-batch duplicates are caught on a sorted copy.
  std::vector<index_t> sorted(ids.begin(), ids.end());
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] == kInvalidIndex)
      fail("insert ids contain the reserved invalid id");
    if (i > 0 && sorted[i] == sorted[i - 1])
      fail("insert ids contain duplicate id " + std::to_string(sorted[i]));
    if (id_to_shard_.count(sorted[i]) != 0)
      fail("insert id " + std::to_string(sorted[i]) +
           " is already live (remove it first)");
  }
  validate_rows(rows, name_.c_str());

  // Route the whole batch to the least-full shard (ties: lowest index) —
  // one inner insert, and sustained insertion keeps the shards balanced.
  std::uint32_t target = 0;
  for (std::uint32_t s = 1; s < shards_.size(); ++s)
    if (shards_[s].live < shards_[target].live) target = s;
  shards_[target].index->insert(rows, ids);

  for (index_t id : ids) id_to_shard_.emplace(id, target);
  shards_[target].live += static_cast<index_t>(ids.size());
  size_ += static_cast<index_t>(ids.size());
}

index_t ShardedIndex::remove(std::span<const index_t> ids) {
  if (!mutable_mode_) return Index::remove(ids);  // uniform error
  std::lock_guard compacting(compact_mutex_);
  std::unique_lock lock(mutex_);
  if (!built_) fail("remove on an unbuilt index (call build first)");

  // Dedupe the request (removing an id twice in one call removes it once),
  // then dispatch each live id to the shard that owns it.
  std::vector<index_t> sorted(ids.begin(), ids.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  std::vector<std::vector<index_t>> groups(shards_.size());
  for (index_t id : sorted) {
    const auto it = id_to_shard_.find(id);
    if (it == id_to_shard_.end()) continue;  // not live: ignored, not counted
    groups[it->second].push_back(id);
  }

  index_t total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (groups[s].empty()) continue;
    const index_t removed = shards_[s].index->remove(groups[s]);
    for (index_t id : groups[s]) id_to_shard_.erase(id);
    shards_[s].live -= removed;
    total += removed;
  }
  size_ -= total;
  return total;
}

void ShardedIndex::compact() {
  if (!mutable_mode_) return Index::compact();  // uniform error
  // Shared lock: compaction changes no live set and no routing, only each
  // shard's internal layout — searches keep running alongside it. Writers
  // wait on compact_mutex_ meanwhile, so none queues on mutex_ and holds
  // new searches back until the compaction ends.
  std::lock_guard compacting(compact_mutex_);
  std::shared_lock lock(mutex_);
  if (!built_) fail("compact on an unbuilt index (call build first)");
  for (const Shard& shard : shards_) shard.index->compact();
}

std::vector<index_t> ShardedIndex::live_ids() const {
  if (!mutable_mode_) return Index::live_ids();  // uniform error
  std::shared_lock lock(mutex_);
  std::vector<index_t> ids;
  ids.reserve(size_);
  for (const Shard& shard : shards_) {
    const std::vector<index_t> shard_ids = shard.index->live_ids();
    ids.insert(ids.end(), shard_ids.begin(), shard_ids.end());
  }
  std::sort(ids.begin(), ids.end());  // shard id sets are disjoint
  return ids;
}

void ShardedIndex::save(std::ostream& os) const {
  std::shared_lock lock(mutex_);
  if (!built_)
    throw std::runtime_error("rbc::ShardedIndex: save on an unbuilt index");
  if (!probe_->info().supports_save)
    return Index::save(os);  // uniform unsupported error
  io::write_header(os, io::kMagicSharded);
  io::write_string(os, metric_);
  io::write_string(os, inner_);
  io::write_string(os, partition_name(partition_));
  io::write_pod(os, options_.num_shards);
  io::write_pod(os, size_);
  io::write_pod(os, dim_);
  io::write_pod(os, static_cast<std::uint64_t>(shards_.size()));
  // Positional (immutable) shards store no ids — the row assignment is a
  // pure function of (size, num_shards, partition) that load() re-derives.
  // Id-native shards persist their own id sets inside the nested dense
  // streams, so arbitrary post-mutation assignments round-trip.
  for (const Shard& shard : shards_) shard.index->save(os);
}

std::unique_ptr<Index> ShardedIndex::load(std::istream& is) {
  io::read_header(is, io::kMagicSharded, "sharded index");
  // The inner backend re-validates the metric tag below.
  const std::string metric = io::read_string(is);
  const std::string inner = io::read_string(is);
  const std::string partition = io::read_string(is);

  IndexOptions options;
  options.metric = metric;
  options.partition = partition;
  io::read_pod(is, options.num_shards);

  // A garbage inner/partition string is a corrupt *file*, not a caller
  // error: surface it as the runtime_error every load path throws.
  std::unique_ptr<ShardedIndex> index;
  try {
    index = std::make_unique<ShardedIndex>(inner, options);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(
        std::string("rbc::ShardedIndex: corrupt stream (") + e.what() + ")");
  }
  io::read_pod(is, index->size_);
  // A corrupt row count must fail here, before the partition tables (the
  // global-id remap alone is 4 bytes/row) are allocated for it. Every
  // shipped inner format stores well over a byte per indexed row, so the
  // remaining stream length is a sound plausibility floor.
  io::require_bytes(is, index->size_, "sharded row count");
  io::read_pod(is, index->dim_);
  std::uint64_t stored = 0;
  io::read_pod(is, stored);

  // Id-native (mutable) saves persist all num_shards shards, empty ones
  // included; positional saves (a payload or user inner, which does not
  // mutate) persist exactly the min(num_shards, n) non-empty shards.
  // Anything else is corrupt. The 8 bytes of stream per shard — every
  // inner format's magic + version — is another floor.
  const std::uint64_t expected =
      index->mutable_mode_
          ? options.num_shards
          : std::min<std::uint64_t>(options.num_shards, index->size_);
  if (stored != expected)
    throw std::runtime_error(
        "rbc::ShardedIndex: corrupt stream (stored shard count " +
        std::to_string(stored) + " != " + std::to_string(expected) + ")");
  io::require_bytes(is, stored * 8, "sharded shard table");

  std::vector<Shard> shards(stored);
  for (Shard& shard : shards) {
    shard.index = load_index(is);  // magic-dispatched to the inner backend
    const IndexInfo si = shard.index->info();
    if (si.backend != inner)
      throw std::runtime_error(
          "rbc::ShardedIndex: corrupt stream (shard backend '" + si.backend +
          "' != declared inner '" + inner + "')");
    if (si.metric != metric)
      throw std::runtime_error(
          "rbc::ShardedIndex: corrupt stream (shard metric '" + si.metric +
          "' != declared metric '" + metric + "')");
    if (si.supports_mutation != index->mutable_mode_)
      throw std::runtime_error(
          "rbc::ShardedIndex: corrupt stream (a shard's mutability "
          "disagrees with the inner backend's)");
  }

  if (index->mutable_mode_) {
    // Id-native shards carry their own id sets: rebuild the routing map
    // from them instead of deriving a positional assignment (which a
    // mutated index no longer follows).
    for (std::uint32_t s = 0; s < shards.size(); ++s) {
      const std::vector<index_t> ids = shards[s].index->live_ids();
      if (shards[s].index->info().dim != index->dim_)
        throw std::runtime_error(
            "rbc::ShardedIndex: corrupt stream (shard dimension mismatch)");
      shards[s].live = static_cast<index_t>(ids.size());
      for (index_t id : ids)
        if (!index->id_to_shard_.emplace(id, s).second)
          throw std::runtime_error(
              "rbc::ShardedIndex: corrupt stream (id " + std::to_string(id) +
              " live in more than one shard)");
    }
    if (index->id_to_shard_.size() != index->size_)
      throw std::runtime_error(
          "rbc::ShardedIndex: corrupt stream (live id count " +
          std::to_string(index->id_to_shard_.size()) +
          " != stored row count " + std::to_string(index->size_) + ")");
  } else {
    // Positional shards: re-derive the assignment and keep the remap
    // tables.
    std::vector<std::vector<index_t>> assignment = partition_rows(
        index->size_, options.num_shards, index->partition_);
    std::size_t next = 0;
    for (std::vector<index_t>& rows : assignment) {
      if (rows.empty()) continue;
      Shard& shard = shards[next++];
      if (shard.index->info().size != rows.size())
        throw std::runtime_error(
            "rbc::ShardedIndex: corrupt stream (shard size mismatch)");
      shard.live = static_cast<index_t>(rows.size());
      shard.global_ids = std::move(rows);
    }
  }

  index->shards_ = std::move(shards);
  index->built_ = true;
  return index;
}

IndexInfo ShardedIndex::info() const {
  std::shared_lock lock(mutex_);
  return info_locked();
}

IndexInfo ShardedIndex::info_locked() const {
  // Capability flags come from the constructor's probe instance until the
  // real shards exist.
  IndexInfo inner_info = shards_.empty() ? probe_->info()
                                         : shards_.front().index->info();
  IndexInfo info;
  info.backend = name_;
  info.metric = inner_info.metric;
  info.supported_metrics = inner_info.supported_metrics;
  info.storage = inner_info.storage;
  info.supported_storage = inner_info.supported_storage;
  info.size = size_;
  info.dim = dim_;
  info.supports_range = inner_info.supports_range;
  info.supports_save = inner_info.supports_save;
  info.supports_mutation = mutable_mode_;
  info.kernel_isa = inner_info.kernel_isa;
  info.exact = true;
  info.memory_bytes = 0;
  // Shard count reports the shards actually answering queries: in id-native
  // mode the composite holds all num_shards slots but empty ones are
  // search-invisible, so only live > 0 shards count — matching the legacy
  // min(num_shards, n) convention on a freshly built index.
  index_t answering = 0;
  for (const Shard& shard : shards_) {
    if (shard.live > 0) ++answering;
    const IndexInfo si = shard.index->info();
    info.exact = info.exact && si.exact;
    info.delta_rows += si.delta_rows;
    info.tombstones += si.tombstones;
    info.memory_bytes +=
        si.memory_bytes + shard.global_ids.size() * sizeof(index_t);
  }
  info.shards = answering;
  info.memory_bytes +=
      id_to_shard_.size() * sizeof(std::pair<index_t, std::uint32_t>);
  if (shards_.empty()) info.exact = inner_info.exact;
  // Payload composites mirror the inner payload capability surface.
  info.payload = inner_info.payload;
  info.cost_unit = inner_info.cost_unit;
  info.supported_spaces = inner_info.supported_spaces;
  return info;
}

std::unique_ptr<Index> make_sharded(std::string_view inner,
                                    const IndexOptions& options) {
  return std::make_unique<ShardedIndex>(inner, options);
}

}  // namespace rbc::shard
