#include "shard/sharded_index.hpp"

#include <algorithm>
#include <exception>
#include <istream>
#include <mutex>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "api/registry.hpp"
#include "metricspace/dataset.hpp"
#include "metricspace/space.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/rows.hpp"
#include "parallel/runtime.hpp"
#include "rbc/serialize_io.hpp"
#include "shard/merge.hpp"

namespace rbc::shard {

namespace {

/// Calls body(i) for every i in [0, count) on the team. An exception
/// escaping an OpenMP region terminates the process, so each item parks its
/// own, and the first in item order is rethrown after the region. A single
/// item runs outside any region: inside even a one-thread region its own
/// parallel loops would nest, and a nested team starts fresh threads on
/// every call.
template <class Body>
void for_each_item(std::size_t count, Body&& body) {
  if (count == 1) {
    body(0);
    return;
  }
  std::vector<std::exception_ptr> errors(count);
  parallel_for_dynamic(0, static_cast<std::int64_t>(count), [&](index_t i) {
    try {
      body(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
}

/// Query rows [lo, hi) of Q, as one matrix. A serial copy: it runs inside
/// the fan-out's region, and a block holds a few rows.
Matrix<float> row_block(const Matrix<float>& Q, index_t lo, index_t hi) {
  Matrix<float> rows = Matrix<float>::uninitialized(hi - lo, Q.cols());
  for (index_t i = lo; i < hi; ++i) rows.set_row(i - lo, Q.row(i));
  return rows;
}

}  // namespace

std::vector<std::vector<index_t>> partition_rows(index_t n,
                                                 index_t num_shards) {
  // Sizes differ by at most one row, and the mapping is a pure function of
  // (n, num_shards), so save/load and NetRouter re-derive it.
  std::vector<std::vector<index_t>> rows(num_shards);
  for (index_t s = 0; s < num_shards; ++s) {
    const auto lo = static_cast<index_t>(
        static_cast<std::uint64_t>(s) * n / num_shards);
    const auto hi = static_cast<index_t>(
        static_cast<std::uint64_t>(s + 1) * n / num_shards);
    rows[s].reserve(hi - lo);
    for (index_t i = lo; i < hi; ++i) rows[s].push_back(i);
  }
  return rows;
}

ShardedIndex::ShardedIndex(std::string_view inner, const IndexOptions& options)
    : inner_(inner), name_("sharded:" + std::string(inner)), options_(options) {
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

void ShardedIndex::build_shards(const Matrix<float>* X,
                                const metricspace::DatasetHandle& data,
                                std::span<const index_t> ids) {
  // Id-native shards all exist — an initially empty one (num_shards > n)
  // is built over zero rows so it can still absorb inserts later; a
  // positional composite leaves its excess shards out.
  std::vector<std::vector<index_t>> rows =
      partition_rows(static_cast<index_t>(ids.size()), options_.num_shards);
  if (!mutable_mode_)
    std::erase_if(rows, [](const auto& set) { return set.empty(); });

  std::vector<Shard> shards(rows.size());
  std::vector<std::vector<index_t>> labels(rows.size());
  for (std::size_t s = 0; s < rows.size(); ++s) {
    shards[s].index = make_index(inner_, options_);
    shards[s].live = static_cast<index_t>(rows[s].size());
    labels[s].reserve(rows[s].size());
    for (const index_t row : rows[s]) labels[s].push_back(ids[row]);
  }

  // Shard builds are independent; each inner build's own OpenMP loops run
  // within the worker it landed on (nested regions serialize, so cores
  // split across shards cleanly). Payload shards build over dataset subsets,
  // whose ascending order keeps the merge's monotone remap.
  for_each_item(shards.size(), [&](index_t s) {
    Index& index = *shards[s].index;
    if (X == nullptr) {
      index.build_payload(data->subset(rows[s]));
      return;
    }
    const Matrix<float> part = gather_rows(
        *X, shards[s].live, [&](index_t i) { return rows[s][i]; });
    if (mutable_mode_)
      index.build_with_ids(part, labels[s]);
    else
      index.build(part);
  });

  // Positional shards keep their labels as the local -> global remap;
  // id-native shards answer in global ids, routed through the owner map.
  std::unordered_map<index_t, std::uint32_t> owners;
  if (mutable_mode_) owners.reserve(ids.size());
  for (std::uint32_t s = 0; s < shards.size(); ++s) {
    if (mutable_mode_)
      for (const index_t id : labels[s]) owners.emplace(id, s);
    else
      shards[s].global_ids = std::move(labels[s]);
  }

  std::lock_guard compacting(compact_mutex_);
  std::unique_lock lock(mutex_);
  shards_ = std::move(shards);
  id_to_shard_ = std::move(owners);
  size_ = static_cast<index_t>(ids.size());
  dim_ = X == nullptr ? 0 : X->cols();
  built_ = true;
}

void ShardedIndex::build(const Matrix<float>& X) {
  if (payload_)
    fail("dense build() on payload metric '" + metric_ +
         "' (use build_payload)");
  // Before the fan-out, so a rejected build names the composite and builds
  // no shard.
  validate_rows(X, name_.c_str());
  std::vector<index_t> ids(X.rows());
  std::iota(ids.begin(), ids.end(), index_t{0});
  build_shards(&X, nullptr, ids);
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
  build_shards(&X, nullptr, ids);
}

void ShardedIndex::build_payload(const metricspace::DatasetHandle& data) {
  if (!payload_) return Index::build_payload(data);  // uniform unsupported
  if (data == nullptr) fail("dataset handle is null");
  // Kind-check before the fan-out, so the mismatch names the composite.
  if (const metricspace::SpaceEntry* entry = metricspace::find_space(metric_);
      entry != nullptr && data->kind() != entry->dataset_kind)
    fail("metric '" + metric_ + "' requires a '" + entry->dataset_kind +
         "' dataset, got '" + std::string(data->kind()) + "'");
  std::vector<index_t> ids(data->size());
  std::iota(ids.begin(), ids.end(), index_t{0});
  build_shards(nullptr, data, ids);
}

template <class Item>
SearchStats ShardedIndex::fan_out(index_t nq, Item&& item) const {
  // Shards with zero live rows (drained by remove(), or excess shards
  // awaiting inserts) are skipped: they have nothing to contribute, and
  // k >= 1 would fail their validation.
  std::vector<std::size_t> live;
  for (std::size_t s = 0; s < shards_.size(); ++s)
    if (shards_[s].live > 0) live.push_back(s);
  // One block per thread and shard; a batch smaller than the team runs one
  // row per item. The inner backends' own OpenMP loops nest inside this
  // region and run serially. A lone live shard takes the whole batch as one
  // item, which runs on the calling thread (for_each_item) and spreads its
  // rows over the team by the inner backend's own schedule.
  const auto team = static_cast<index_t>(max_threads());
  const index_t block =
      std::max<index_t>(1, live.size() == 1 ? nq : (nq + team - 1) / team);
  const index_t blocks = (nq + block - 1) / block;
  std::vector<SearchStats> stats(live.size() * blocks);
  for_each_item(stats.size(), [&](index_t p) {
    const index_t lo = static_cast<index_t>(p / live.size()) * block;
    stats[p] = item(live[p % live.size()], lo, std::min(nq, lo + block));
  });
  SearchStats total;
  for (const SearchStats& s : stats) total.merge(s);
  total.queries = nq;  // each query answered once, not once per item
  return total;
}

template <class Search>
SearchResponse ShardedIndex::knn_fan_out(index_t nq, index_t k,
                                         bool collect_stats,
                                         Search&& search) const {
  // k is clamped to each shard's live count so every returned row is fully
  // populated — no padding reaches the merge.
  std::vector<KnnResult> parts(shards_.size());
  std::vector<MergeInput> inputs;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].live == 0) continue;
    const index_t shard_k = std::min(k, shards_[s].live);
    parts[s] = KnnResult(nq, shard_k);
    inputs.push_back({&parts[s], shard_k,
                      mutable_mode_ ? nullptr : &shards_[s].global_ids});
  }
  const SearchStats stats = fan_out(nq, [&](std::size_t s, index_t lo,
                                            index_t hi) {
    KnnResult& part = parts[s];
    const SearchResponse r =
        search(*shards_[s].index, lo, hi, part.dists.cols());
    for (index_t i = lo; i < hi; ++i) {
      std::copy_n(r.knn.dists.row(i - lo), part.dists.cols(),
                  part.dists.row(i));
      std::copy_n(r.knn.ids.row(i - lo), part.ids.cols(), part.ids.row(i));
    }
    return r.stats;
  });

  // Exact k-way merge under the global (distance, id) order — shared with
  // the multi-process NetRouter (see shard/merge.hpp for the exactness
  // argument). Id-native shards already answer in global ids (identity
  // remap); positional shards' local ids map to global ids monotonically.
  SearchResponse response;
  response.knn = merge_shard_topk(nq, k, inputs);
  if (collect_stats) response.stats = stats;
  return response;
}

SearchResponse ShardedIndex::knn_search(const SearchRequest& request) const {
  if (payload_)
    fail("dense knn_search() on payload metric '" + metric_ +
         "' (use knn_search_payload)");
  std::shared_lock lock(mutex_);
  validate_knn(request, dim_, size_, built_, name_.c_str(), metric_);
  const Matrix<float>& Q = *request.queries;
  return knn_fan_out(
      Q.rows(), request.k, request.options.collect_stats,
      [&](const Index& shard, index_t lo, index_t hi, index_t k) {
        const Matrix<float> rows = row_block(Q, lo, hi);
        SearchRequest sub = request;
        sub.queries = &rows;
        sub.k = k;
        return shard.knn_search(sub);
      });
}

SearchResponse ShardedIndex::knn_search_payload(
    const PayloadSearchRequest& request) const {
  if (!payload_) return Index::knn_search_payload(request);  // unsupported
  std::shared_lock lock(mutex_);
  validate_knn_payload(request, size_, built_, name_.c_str(), metric_);
  const std::vector<std::string>& queries = *request.queries;
  return knn_fan_out(
      static_cast<index_t>(queries.size()), request.k,
      request.options.collect_stats,
      [&](const Index& shard, index_t lo, index_t hi, index_t k) {
        const std::vector<std::string> rows(queries.begin() + lo,
                                            queries.begin() + hi);
        PayloadSearchRequest sub = request;
        sub.queries = &rows;
        sub.k = k;
        try {
          return shard.knn_search_payload(sub);
        } catch (const std::invalid_argument& e) {
          // Shards check each query's payload, numbering the block's
          // queries from 0: name the block's place in the batch.
          throw std::invalid_argument(
              std::string(e.what()) + " (queries [" + std::to_string(lo) +
              ", " + std::to_string(hi) + ") of the batch)");
        }
      });
}

RangeResponse ShardedIndex::range_search(const RangeRequest& request) const {
  // Capability comes from the probe (not info()): this thread may not
  // re-enter the shared lock it is about to take.
  if (!probe_->info().supports_range)
    return Index::range_search(request);  // uniform unsupported error
  std::shared_lock lock(mutex_);
  validate_range(request, dim_, built_, name_.c_str(), metric_);
  const Matrix<float>& Q = *request.queries;
  const index_t nq = Q.rows();

  // hits[s][qi]: shard s's hits for query qi, in global ids.
  std::vector<std::vector<std::vector<index_t>>> hits(
      shards_.size(), std::vector<std::vector<index_t>>(nq));
  const SearchStats stats = fan_out(nq, [&](std::size_t s, index_t lo,
                                            index_t hi) {
    const Matrix<float> rows = row_block(Q, lo, hi);
    RangeRequest sub = request;
    sub.queries = &rows;
    RangeResponse r = shards_[s].index->range_search(sub);
    for (index_t i = lo; i < hi; ++i) {
      hits[s][i] = std::move(r.ids[i - lo]);
      if (!mutable_mode_)
        for (index_t& id : hits[s][i]) id = shards_[s].global_ids[id];
    }
    return r.stats;
  });

  RangeResponse response;
  response.ids.resize(nq);
  parallel_for_dynamic(0, nq, [&](index_t qi) {
    std::vector<index_t>& out = response.ids[qi];
    for (const auto& shard_hits : hits)
      out.insert(out.end(), shard_hits[qi].begin(), shard_hits[qi].end());
    std::sort(out.begin(), out.end());
  });
  if (request.options.collect_stats) response.stats = stats;
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
  io::write_string(os, "contiguous");  // the one partition scheme
  io::write_pod(os, options_.num_shards);
  io::write_pod(os, size_);
  io::write_pod(os, dim_);
  io::write_pod(os, static_cast<std::uint64_t>(shards_.size()));
  // Positional (immutable) shards store no ids — the row assignment is a
  // pure function of (size, num_shards) that load() re-derives.
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
  if (partition != "contiguous")
    throw std::runtime_error(
        "rbc::ShardedIndex: corrupt stream (unknown partition scheme '" +
        partition + "')");

  IndexOptions options;
  options.metric = metric;
  io::read_pod(is, options.num_shards);

  // A garbage inner string is a corrupt *file*, not a caller error:
  // surface it as the runtime_error every load path throws.
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
    std::vector<std::vector<index_t>> assignment =
        partition_rows(index->size_, options.num_shards);
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
