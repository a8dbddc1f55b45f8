#include "mutate/mutable_index.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <istream>
#include <iterator>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "bruteforce/kernel_scan.hpp"
#include "bruteforce/topk.hpp"
#include "distance/metrics.hpp"
#include "metricspace/space.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/rows.hpp"
#include "rbc/serialize_io.hpp"
#include "shard/merge.hpp"

namespace rbc::mutate {

namespace {

// Same message shape as the shared validators in api/index.cpp — mutation
// request errors must be indistinguishable from search request errors.
[[noreturn]] void fail(const std::string& backend, const std::string& what) {
  throw std::invalid_argument("rbc::Index[" + backend + "]: " + what);
}

[[noreturn]] void corrupt(const std::string& what) {
  throw std::runtime_error("rbc::io: corrupt dense stream: " + what);
}

bool contains(const std::vector<index_t>& sorted, index_t id) {
  return std::binary_search(sorted.begin(), sorted.end(), id);
}

/// Position of `id` in the ascending vector, or kInvalidIndex.
index_t position_of(const std::vector<index_t>& sorted, index_t id) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), id);
  if (it == sorted.end() || *it != id) return kInvalidIndex;
  return static_cast<index_t>(it - sorted.begin());
}

/// The ascending union of two disjoint ascending id sets, as a fresh
/// snapshot vector (copy-on-write: the old one may still be searched).
std::shared_ptr<const std::vector<index_t>> merged(
    const std::vector<index_t>& a, const std::vector<index_t>& b) {
  auto out = std::make_shared<std::vector<index_t>>(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), out->begin());
  return out;
}

/// The main rows in id order, wherever they live: lent by the inner index
/// (Index::stored_rows), read through one O(n) inverse of its permutation,
/// or the wrapper's own copy when the inner lends none.
class MainRows {
 public:
  MainRows(const Index* inner, const Matrix<float>& own) : rows_(&own) {
    const StoredRows lent = inner != nullptr ? inner->stored_rows()
                                             : StoredRows{};
    if (lent.rows == nullptr) return;
    rows_ = lent.rows;
    slot_.resize(lent.positions.size());
    for (std::size_t p = 0; p < lent.positions.size(); ++p)
      slot_[lent.positions[p]] = static_cast<index_t>(p);
  }

  /// The row of the i-th smallest main id.
  const float* row(index_t i) const {
    return rows_->row(slot_.empty() ? i : slot_[i]);
  }

 private:
  const Matrix<float>* rows_;
  std::vector<index_t> slot_;  // id-order position -> stored row, if permuted
};

void check_ascending_unique(const std::vector<index_t>& ids,
                            const char* what) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == kInvalidIndex) corrupt(std::string(what) + " id is the reserved invalid value");
    if (i > 0 && ids[i] <= ids[i - 1])
      corrupt(std::string(what) + " ids are not strictly ascending");
  }
}

}  // namespace

// ------------------------------------------------------------ registration

BackendEntry wrap(BackendEntry raw) {
  const std::string name = raw.name;
  const auto create = raw.create;

  BackendEntry wrapped = std::move(raw);
  wrapped.create =
      [name, create](const IndexOptions& options) -> std::unique_ptr<Index> {
    // A metric-space name (metricspace/space.hpp) routes to the generic
    // payload backend inside the raw factory; that path does not mutate
    // (and the delta-shard machinery is row-matrix-shaped anyway), so the
    // mutable wrapper steps aside instead of failing its dense-metric
    // probe.
    if (metricspace::space_registered(options.metric)) return create(options);
    return std::make_unique<MutableIndex>(name, options, create);
  };
  return wrapped;
}

// ------------------------------------------------------- construction/build

MutableIndex::MutableIndex(std::string raw_name, const IndexOptions& options,
                           Factory create)
    : name_(std::move(raw_name)),
      options_(options),
      inner_options_(options),
      create_(std::move(create)) {
  // Below -1 an approx_eps empties every rbc-exact answer (params.hpp), and
  // the dense stream, which persists the knobs of every wrapped backend,
  // refuses any value approx_eps_valid rejects: refuse it at make time, so
  // every index that builds also loads.
  if (!approx_eps_valid(options_.rbc.approx_eps))
    fail(name_, "rbc.approx_eps must be finite and >= 0 (got " +
                    std::to_string(options_.rbc.approx_eps) + ")");
  // The probe validates the (backend, metric) pair with the raw backend's
  // own uniform error, and answers capability queries before build.
  probe_ = create_(options_);
  if (!metric::lookup(options_.metric, kind_))
    fail(name_, "unsupported metric '" + options_.metric + "'");
  // Cosine is served as L2 over unit-normalized rows (api/metrics.hpp);
  // this adapter owns the transform, so the inner structure is built as a
  // plain L2 index over rows that are normalized exactly once.
  if (kind_ == metric::Kind::kCosine) inner_options_.metric = "l2";
}

MutableIndex::~MutableIndex() { join_merge_thread(); }

void MutableIndex::join_merge_thread() {
  std::lock_guard<std::mutex> guard(thread_mutex_);
  if (merge_thread_.joinable()) merge_thread_.join();
}

void MutableIndex::build(const Matrix<float>& X) {
  std::vector<index_t> ids(static_cast<std::size_t>(X.rows()));
  std::iota(ids.begin(), ids.end(), index_t{0});
  build_internal(X, std::move(ids));
}

void MutableIndex::build_with_ids(const Matrix<float>& X,
                                  std::span<const index_t> ids) {
  if (ids.size() != static_cast<std::size_t>(X.rows()))
    fail(name_, "build_with_ids id count " + std::to_string(ids.size()) +
                    " != row count " + std::to_string(X.rows()));
  std::vector<index_t> v(ids.begin(), ids.end());
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] == kInvalidIndex)
      fail(name_, "build_with_ids ids contain the reserved invalid id");
    if (i > 0 && v[i] <= v[i - 1])
      fail(name_, "build_with_ids ids must be strictly ascending");
  }
  build_internal(X, std::move(v));
}

void MutableIndex::build_internal(const Matrix<float>& X,
                                  std::vector<index_t> ids) {
  validate_rows(X, name_.c_str());
  join_merge_thread();  // a rebuild obsoletes any in-flight merge
  // The inner index copies what it keeps, straight from the caller's rows;
  // cosine rows enter transform space first, in a temporary.
  Matrix<float> normalized;
  const bool cosine = kind_ == metric::Kind::kCosine;
  if (cosine) {
    normalized = gather_rows(X, X.rows(), [](index_t i) { return i; });
    metric::normalize_rows(normalized);
  }
  auto main = make_main(cosine ? normalized : X, std::move(ids),
                        cosine ? &normalized : nullptr);

  std::unique_lock lock(mutex_);
  built_ = true;
  dim_ = X.cols();
  main_ = std::move(main);
  delta_ = std::make_shared<DeltaState>();
  tombs_ = std::make_shared<std::vector<index_t>>();
  dead_ = tombs_;
  merging_ = false;
  frozen_ids_.clear();
}

std::shared_ptr<MutableIndex::MainState> MutableIndex::make_main(
    const Matrix<float>& rows, std::vector<index_t> ids,
    Matrix<float>* movable) const {
  auto main = std::make_shared<MainState>();
  if (rows.rows() > 0) {
    main->inner = create_(inner_options_);
    main->inner->build(rows);
    if (main->inner->stored_rows().rows == nullptr)
      main->rows = movable != nullptr
                       ? std::move(*movable)
                       : gather_rows(rows, rows.rows(),
                                     [](index_t i) { return i; });
  }
  main->ids = std::move(ids);
  return main;
}

MutableIndex::Snapshot MutableIndex::snapshot() const {
  std::shared_lock lock(mutex_);
  return {main_, delta_, tombs_, dead_};
}

dist_t MutableIndex::delta_distance(const float* a, const float* b,
                                    index_t d) const {
  switch (kind_) {
    case metric::Kind::kL1:
      return L1{}(a, b, d);
    case metric::Kind::kIp:
      return InnerProduct{}(a, b, d);
    default:
      // l2, and cosine (delta rows are pre-normalized; the merged result is
      // converted by QueryTransform::finish like every inner distance).
      return Euclidean{}(a, b, d);
  }
}

void MutableIndex::scan_delta(const float* q, const DeltaState& delta,
                              TopK& top) const {
  const index_t n = static_cast<index_t>(delta.ids.size());
  const auto id_of = [&delta](index_t j) { return delta.ids[j]; };
  switch (kind_) {
    case metric::Kind::kL1:
      kernel_scan_rows(q, delta.rows, 0, n, L1{}, top, id_of);
      return;
    case metric::Kind::kIp:
      // The negated-dot prefilter needs a row-norm slack (kernel_scan.hpp)
      // the delta keeps no cache for; ip stays on the functor loop.
      for (index_t j = 0; j < n; ++j)
        top.push(InnerProduct{}(q, delta.rows.row(j), delta.rows.cols()),
                 delta.ids[j]);
      return;
    default:
      // l2, and cosine over the pre-normalized delta rows.
      kernel_scan_rows(q, delta.rows, 0, n, Euclidean{}, top, id_of);
      return;
  }
}

// ------------------------------------------------------------------ search

SearchResponse MutableIndex::knn_search(const SearchRequest& request) const {
  Snapshot s;
  index_t dim = 0;
  bool built = false;
  {
    std::shared_lock lock(mutex_);
    built = built_;
    dim = dim_;
    s = {main_, delta_, tombs_, dead_};
  }
  if (!built)  // always throws (uniform unbuilt-index message)
    validate_knn(request, dim, 0, false, name_.c_str(), options_.metric);

  const std::vector<index_t>& main_ids = s.main->ids;
  const std::vector<index_t>& dead = *s.dead;
  const index_t main_n = static_cast<index_t>(main_ids.size());
  const index_t dead_n = static_cast<index_t>(dead.size());
  const index_t main_live = main_n - dead_n;
  const index_t delta_n = static_cast<index_t>(s.delta->ids.size());
  validate_knn(request, dim, main_live + delta_n, true, name_.c_str(),
               options_.metric);

  const index_t nq = request.queries->rows();
  const index_t k = request.k;
  metric::QueryTransform qt(kind_, *request.queries);
  const Matrix<float>& tq = qt.queries();

  // Main stream. An inner answer is the (distance, id) prefix over every
  // main row, dead ones included, so when the top-k already holds
  // min(k, main_live) live rows they are exactly the rows a deeper search
  // would keep. Only rows left short (tombstones ranked into the top, or an
  // approximate inner padded) are searched again at k + |dead|: even if
  // every dead row ranks first, k live main candidates remain (clamped to
  // the structure size).
  const bool have_inner = s.main->inner != nullptr && main_live > 0;
  const index_t k_first = std::min(k, main_n);
  const index_t k_retry = std::min<index_t>(k + dead_n, main_n);
  const auto search_inner = [&](const Matrix<float>& queries, index_t kk) {
    SearchRequest inner_request;
    inner_request.queries = &queries;
    inner_request.k = kk;
    inner_request.options.collect_stats = request.options.collect_stats;
    return s.main->inner->knn_search(inner_request);
  };
  const auto is_live = [&](index_t local) {
    // Approximate inners (rbc-oneshot) pad under-filled rows with
    // kInvalidIndex at +inf: padding is never a live row.
    return local != kInvalidIndex && !contains(dead, main_ids[local]);
  };
  SearchResponse first;
  SearchResponse retry;
  std::vector<index_t> retry_row(nq, kInvalidIndex);  // query -> retry row
  if (have_inner) {
    first = search_inner(tq, k_first);
    if (k_retry > k_first) {
      const index_t want = std::min(k, main_live);
      std::vector<index_t> short_rows;
      for (index_t qi = 0; qi < nq; ++qi) {
        const index_t* ids = first.knn.ids.row(qi);
        const auto live = std::count_if(ids, ids + k_first, is_live);
        if (static_cast<index_t>(live) >= want) continue;
        retry_row[qi] = static_cast<index_t>(short_rows.size());
        short_rows.push_back(qi);
      }
      if (!short_rows.empty()) {
        // One sub-block of the transformed queries (normalized under cosine).
        Matrix<float> again(static_cast<index_t>(short_rows.size()),
                            tq.cols());
        for (index_t i = 0; i < again.rows(); ++i)
          again.copy_row_from(tq, short_rows[i], i);
        retry = search_inner(again, k_retry);
      }
    }
  }

  SearchResponse response;
  response.knn = KnnResult(nq, k);
  parallel_for_dynamic(0, nq, [&](index_t qi) {
    // Drop tombstoned rows, remap local -> global. The remap is monotone
    // (ids_ ascending), so the stream stays sorted under the global
    // (distance, id) order.
    std::vector<dist_t> main_d;
    std::vector<index_t> main_i;
    if (have_inner) {
      main_d.reserve(k);
      main_i.reserve(k);
      const bool retried = retry_row[qi] != kInvalidIndex;
      const KnnResult& inner = retried ? retry.knn : first.knn;
      const index_t row = retried ? retry_row[qi] : qi;
      const index_t k_inner = retried ? k_retry : k_first;
      const dist_t* dists = inner.dists.row(row);
      const index_t* ids = inner.ids.row(row);
      for (index_t j = 0;
           j < k_inner && static_cast<index_t>(main_i.size()) < k; ++j) {
        if (!is_live(ids[j])) continue;
        main_d.push_back(dists[j]);
        main_i.push_back(main_ids[ids[j]]);
      }
    }
    // Delta stream: brute-force top-k over the write buffer.
    const index_t k_delta = std::min(k, delta_n);
    std::vector<dist_t> delta_d(k_delta);
    std::vector<index_t> delta_i(k_delta);
    if (k_delta > 0) {
      TopK top(k_delta);
      scan_delta(tq.row(qi), *s.delta, top);
      top.extract_sorted(delta_d.data(), delta_i.data());
    }
    const std::array<shard::MergeCursorInput, 2> streams{{
        {.dists = main_d.data(),
         .ids = main_i.data(),
         .k = static_cast<index_t>(main_i.size())},
        {.dists = delta_d.data(),
         .ids = delta_i.data(),
         .k = k_delta},
    }};
    shard::merge_topk_row(k, streams, response.knn.dists.row(qi),
                          response.knn.ids.row(qi));
  });
  qt.finish(response.knn.dists);

  if (request.options.collect_stats) {
    response.stats = first.stats;
    response.stats.merge(retry.stats);
    response.stats.queries = nq;
    response.stats.list_dist_evals +=
        static_cast<std::uint64_t>(nq) * static_cast<std::uint64_t>(delta_n);
  }
  return response;
}

RangeResponse MutableIndex::range_search(const RangeRequest& request) const {
  if (!probe_->info().supports_range)
    return Index::range_search(request);  // uniform unsupported-capability throw

  Snapshot s;
  index_t dim = 0;
  bool built = false;
  {
    std::shared_lock lock(mutex_);
    built = built_;
    dim = dim_;
    s = {main_, delta_, tombs_, dead_};
  }
  validate_range(request, dim, built, name_.c_str(), options_.metric);

  const std::vector<index_t>& main_ids = s.main->ids;
  const std::vector<index_t>& dead = *s.dead;
  const index_t main_live =
      static_cast<index_t>(main_ids.size() - dead.size());
  const index_t delta_n = static_cast<index_t>(s.delta->ids.size());

  const index_t nq = request.queries->rows();
  metric::QueryTransform qt(kind_, *request.queries);
  const Matrix<float>& tq = qt.queries();
  const dist_t radius = qt.radius(request.radius);

  RangeResponse inner_resp;
  const bool have_inner = s.main->inner != nullptr && main_live > 0;
  if (have_inner) {
    RangeRequest inner_request;
    inner_request.queries = &tq;
    inner_request.radius = radius;
    inner_request.options.collect_stats = request.options.collect_stats;
    inner_resp = s.main->inner->range_search(inner_request);
  }

  RangeResponse response;
  response.ids.resize(nq);
  parallel_for_dynamic(0, nq, [&](index_t qi) {
    std::vector<index_t> main_hits;  // ascending: monotone remap of a sorted row
    if (have_inner) {
      for (const index_t local : inner_resp.ids[qi]) {
        const index_t gid = main_ids[local];
        if (!contains(dead, gid)) main_hits.push_back(gid);
      }
    }
    std::vector<index_t> delta_hits;
    const float* q = tq.row(qi);
    for (index_t j = 0; j < delta_n; ++j)
      if (delta_distance(q, s.delta->rows.row(j), dim) <= radius)
        delta_hits.push_back(s.delta->ids[j]);
    // Disjoint (delta ids never live in main) and both ascending.
    response.ids[qi].resize(main_hits.size() + delta_hits.size());
    std::merge(main_hits.begin(), main_hits.end(), delta_hits.begin(),
               delta_hits.end(), response.ids[qi].begin());
  });

  if (request.options.collect_stats) {
    response.stats = inner_resp.stats;
    response.stats.queries = nq;
    response.stats.list_dist_evals +=
        static_cast<std::uint64_t>(nq) * static_cast<std::uint64_t>(delta_n);
  }
  return response;
}

// ---------------------------------------------------------------- mutation

void MutableIndex::insert(const Matrix<float>& rows,
                          std::span<const index_t> ids) {
  MergeJob job;
  bool trigger = false;
  {
    std::unique_lock lock(mutex_);
    if (!built_) fail(name_, "insert on an unbuilt index (call build first)");
    if (rows.cols() != dim_)
      fail(name_, "insert row dimension " + std::to_string(rows.cols()) +
                      " != index dimension " + std::to_string(dim_));
    if (ids.size() != static_cast<std::size_t>(rows.rows()))
      fail(name_, "insert id count " + std::to_string(ids.size()) +
                      " != row count " + std::to_string(rows.rows()));
    if (rows.rows() == 0) return;
    validate_rows(rows, name_.c_str());

    // (id, caller-row) pairs sorted by id: validates the batch and drives
    // the sorted merge into the new delta below.
    std::vector<std::pair<index_t, index_t>> batch(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
      batch[i] = {ids[i], static_cast<index_t>(i)};
    std::sort(batch.begin(), batch.end());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const index_t id = batch[i].first;
      if (id == kInvalidIndex)
        fail(name_, "insert ids contain the reserved invalid id");
      if (i > 0 && id == batch[i - 1].first)
        fail(name_, "insert ids contain duplicate id " + std::to_string(id));
      const bool in_delta = contains(delta_->ids, id);
      const bool in_main_live =
          contains(main_->ids, id) && !contains(*tombs_, id);
      if (in_delta || in_main_live)
        fail(name_, "insert id " + std::to_string(id) +
                        " is already live (remove it first)");
    }

    // Copy-on-write: a fresh DeltaState sorted by id. Rows enter transform
    // space here — normalized exactly once under cosine, never again.
    const DeltaState& old = *delta_;
    const index_t old_n = static_cast<index_t>(old.ids.size());
    const index_t add_n = static_cast<index_t>(batch.size());
    auto next = std::make_shared<DeltaState>();
    next->ids.reserve(old_n + add_n);
    next->rows = Matrix<float>(old_n + add_n, dim_);
    index_t a = 0;
    index_t b = 0;
    for (index_t out = 0; out < old_n + add_n; ++out) {
      const bool take_old =
          b >= add_n || (a < old_n && old.ids[a] < batch[b].first);
      if (take_old) {
        next->ids.push_back(old.ids[a]);
        next->rows.copy_row_from(old.rows, a, out);
        ++a;
      } else {
        next->ids.push_back(batch[b].first);
        next->rows.copy_row_from(rows, batch[b].second, out);
        if (kind_ == metric::Kind::kCosine)
          metric::normalize(next->rows.row(out), dim_);
        ++b;
      }
    }
    delta_ = std::move(next);

    if (!merging_ &&
        static_cast<index_t>(delta_->ids.size()) >= options_.max_delta) {
      job = freeze_locked();
      trigger = true;
    }
  }
  if (trigger) launch_merge(std::move(job));
}

index_t MutableIndex::remove(std::span<const index_t> ids) {
  std::unique_lock lock(mutex_);
  if (!built_) fail(name_, "remove on an unbuilt index (call build first)");

  // Dedupe the request: removing an id twice in one call is one removal.
  std::vector<index_t> request(ids.begin(), ids.end());
  std::sort(request.begin(), request.end());
  request.erase(std::unique(request.begin(), request.end()), request.end());

  std::vector<index_t> drop_delta;  // delta positions to drop (ascending)
  std::vector<index_t> new_tombs;   // ids to tombstone (ascending)
  std::vector<index_t> new_dead;    // the new tombstones masking main rows
  index_t count = 0;
  for (const index_t id : request) {
    if (id == kInvalidIndex) continue;  // never live
    const index_t delta_pos = position_of(delta_->ids, id);
    const bool in_delta = delta_pos != kInvalidIndex;
    const bool in_main = contains(main_->ids, id);
    const bool tombed = contains(*tombs_, id);
    if (!in_delta && !(in_main && !tombed)) continue;  // not live: ignored
    ++count;
    if (in_delta) drop_delta.push_back(delta_pos);
    // Tombstone when dropping the delta row alone cannot mask the id: it
    // lives in the current main structure, or in the frozen set an
    // in-flight merge is building the next main from.
    if (!tombed && (in_main || (merging_ && contains(frozen_ids_, id)))) {
      new_tombs.push_back(id);
      if (in_main) new_dead.push_back(id);
    }
  }
  if (count == 0) return 0;

  if (!new_tombs.empty()) tombs_ = merged(*tombs_, new_tombs);
  if (!new_dead.empty()) dead_ = merged(*dead_, new_dead);
  if (!drop_delta.empty()) {
    const DeltaState& old = *delta_;
    auto next = std::make_shared<DeltaState>();
    const index_t keep_n =
        static_cast<index_t>(old.ids.size() - drop_delta.size());
    next->ids.reserve(keep_n);
    next->rows = Matrix<float>(keep_n, dim_);
    index_t out = 0;
    for (index_t j = 0; j < static_cast<index_t>(old.ids.size()); ++j) {
      if (contains(drop_delta, j)) continue;
      next->ids.push_back(old.ids[j]);
      next->rows.copy_row_from(old.rows, j, out);
      ++out;
    }
    delta_ = std::move(next);
  }
  return count;
}

MutableIndex::MergeJob MutableIndex::freeze_locked() {
  MergeJob job;
  job.snap = {main_, delta_, tombs_, dead_};
  std::vector<index_t> main_live;
  std::set_difference(main_->ids.begin(), main_->ids.end(), tombs_->begin(),
                      tombs_->end(), std::back_inserter(main_live));
  job.frozen.resize(main_live.size() + delta_->ids.size());
  std::merge(main_live.begin(), main_live.end(), delta_->ids.begin(),
             delta_->ids.end(), job.frozen.begin());
  merging_ = true;
  frozen_ids_ = job.frozen;
  return job;
}

void MutableIndex::launch_merge(MergeJob job) {
  if (!options_.background_merge) {
    merge_once(job);
    return;
  }
  std::lock_guard<std::mutex> guard(thread_mutex_);
  if (merge_thread_.joinable()) merge_thread_.join();  // previous merge done
  merge_thread_ =
      std::thread([this, job = std::move(job)] { merge_once(job); });
}

void MutableIndex::merge_once(const MergeJob& job) {
  const std::vector<index_t>& frozen = job.frozen;
  const index_t n = static_cast<index_t>(frozen.size());
  const MainState& old_main = *job.snap.main;
  const DeltaState& old_delta = *job.snap.delta;

  // The next main set, sorted by global id — exactly the row order a
  // scratch build_with_ids over the live set would see, which is what makes
  // a merged index bit-comparable to a rebuilt one (even for the seeded
  // probabilistic one-shot structure). The old main's rows are read back
  // from its inner index; this snapshot keeps that index alive.
  const MainRows old_rows(old_main.inner.get(), old_main.rows);
  Matrix<float> rows(n, dim_);
  for (index_t i = 0; i < n; ++i) {
    const index_t id = frozen[i];
    // Delta wins: an id in both holds a dead main copy (delta∩main ⊆ tombs).
    const index_t dpos = position_of(old_delta.ids, id);
    if (dpos != kInvalidIndex) {
      rows.copy_row_from(old_delta.rows, dpos, i);
    } else {
      rows.set_row(i, old_rows.row(position_of(old_main.ids, id)));
    }
  }
  // The build is the expensive part: it runs outside every lock.
  auto next_main = make_main(rows, frozen, &rows);

  std::unique_lock lock(mutex_);
  // Reconcile mutations that landed while the structure was building:
  // tombstones against the new main set persist (rows removed mid-merge stay
  // masked); delta entries the new main absorbed — same id, not
  // re-tombstoned — drop out; everything else (fresh inserts, removed-then-
  // reinserted rows) stays buffered.
  auto next_tombs = std::make_shared<std::vector<index_t>>();
  std::set_intersection(tombs_->begin(), tombs_->end(), frozen.begin(),
                        frozen.end(), std::back_inserter(*next_tombs));
  const DeltaState& cur = *delta_;
  std::vector<index_t> keep;
  for (index_t j = 0; j < static_cast<index_t>(cur.ids.size()); ++j) {
    const index_t id = cur.ids[j];
    if (!contains(frozen, id) || contains(*next_tombs, id)) keep.push_back(j);
  }
  auto next_delta = std::make_shared<DeltaState>();
  next_delta->ids.reserve(keep.size());
  next_delta->rows = Matrix<float>(static_cast<index_t>(keep.size()), dim_);
  for (index_t o = 0; o < static_cast<index_t>(keep.size()); ++o) {
    next_delta->ids.push_back(cur.ids[keep[o]]);
    next_delta->rows.copy_row_from(cur.rows, keep[o], o);
  }
  main_ = std::move(next_main);
  delta_ = std::move(next_delta);
  tombs_ = std::move(next_tombs);
  dead_ = tombs_;  // every surviving tombstone masks a row of the new main
  merging_ = false;
  frozen_ids_.clear();
}

void MutableIndex::compact() {
  for (;;) {
    join_merge_thread();
    MergeJob job;
    {
      std::unique_lock lock(mutex_);
      if (!built_)
        fail(name_, "compact on an unbuilt index (call build first)");
      if (merging_) {
        // An inline merge (background_merge == false) may be running on
        // another mutator's thread with nothing to join; yield, re-check.
        lock.unlock();
        std::this_thread::yield();
        continue;
      }
      if (delta_->ids.empty() && tombs_->empty()) return;
      job = freeze_locked();
    }
    merge_once(job);  // synchronous by design, even with background_merge
  }
}

std::vector<index_t> MutableIndex::live_ids() const {
  Snapshot s;
  bool built = false;
  {
    std::shared_lock lock(mutex_);
    built = built_;
    s = {main_, delta_, tombs_, dead_};
  }
  if (!built) return {};
  std::vector<index_t> main_live;
  std::set_difference(s.main->ids.begin(), s.main->ids.end(),
                      s.tombs->begin(), s.tombs->end(),
                      std::back_inserter(main_live));
  std::vector<index_t> live(main_live.size() + s.delta->ids.size());
  std::merge(main_live.begin(), main_live.end(), s.delta->ids.begin(),
             s.delta->ids.end(), live.begin());
  return live;
}

// --------------------------------------------------------------- metadata

IndexInfo MutableIndex::info() const {
  Snapshot s;
  bool built = false;
  index_t dim = 0;
  {
    std::shared_lock lock(mutex_);
    built = built_;
    dim = dim_;
    s = {main_, delta_, tombs_, dead_};
  }
  IndexInfo out = built && s.main->inner != nullptr ? s.main->inner->info()
                                                    : probe_->info();
  out.backend = name_;
  out.metric = options_.metric;  // the inner may run the mapped (l2) metric
  out.supports_mutation = true;
  out.supports_save = true;
  if (built) {
    out.size = static_cast<index_t>(s.main->ids.size() - s.dead->size() +
                                    s.delta->ids.size());
    out.dim = dim;
    out.delta_rows = static_cast<index_t>(s.delta->ids.size());
    out.tombstones = static_cast<index_t>(s.dead->size());
    out.memory_bytes += s.main->rows.size() * sizeof(float) +
                        s.main->ids.size() * sizeof(index_t) +
                        s.delta->rows.size() * sizeof(float) +
                        s.delta->ids.size() * sizeof(index_t) +
                        s.tombs->size() * sizeof(index_t);
  }
  return out;
}

// ------------------------------------------------------------ persistence

void MutableIndex::save(std::ostream& os) const {
  Snapshot s;
  bool built = false;
  index_t dim = 0;
  {
    std::shared_lock lock(mutex_);
    built = built_;
    dim = dim_;
    s = {main_, delta_, tombs_, dead_};
  }
  if (!built) fail(name_, "save on an unbuilt index (call build first)");

  io::write_header(os, io::kMagicDense);
  io::write_string(os, name_);
  io::write_string(os, options_.metric);
  io::write_string(os, options_.storage);
  // Knobs: everything needed to rebuild the raw structure (and its code
  // store) deterministically at load time, then the write buffer's, so a
  // restored index merges when the saved one would.
  io::write_params(os, options_.rbc);
  io::write_pod(os, options_.leaf_size);
  io::write_pod(os, options_.seed);
  io::write_pod(os, options_.max_delta);
  io::write_pod(os, static_cast<std::uint8_t>(options_.background_merge));
  io::write_pod(os, dim);
  // State: transform-space rows with explicit global ids. Only tombstones
  // that mask main rows are persisted (a transient merge-frozen extra means
  // nothing to a fresh load).
  const MainRows main_rows(s.main->inner.get(), s.main->rows);
  io::write_vec(os, s.main->ids);
  io::write_rows(os, static_cast<index_t>(s.main->ids.size()), dim,
                 [&main_rows](index_t i) { return main_rows.row(i); });
  io::write_vec(os, s.delta->ids);
  io::write_matrix(os, s.delta->rows);
  io::write_vec(os, *s.dead);
}

std::unique_ptr<Index> MutableIndex::load(std::istream& is) {
  io::read_header(is, io::kMagicDense, "dense index");
  const std::string backend = io::read_string(is);
  IndexOptions options;
  options.metric = io::read_string(is);
  options.storage = io::read_string(is);
  options.rbc = io::read_params(is);
  io::read_pod(is, options.leaf_size);
  io::read_pod(is, options.seed);
  io::read_pod(is, options.max_delta);
  std::uint8_t background_merge = 0;
  io::read_pod(is, background_merge);
  if (background_merge > 1)  // copied into the bool it would be UB
    corrupt("background_merge byte " + std::to_string(background_merge));
  options.background_merge = background_merge == 1;
  // The named backend validates the metric and storage tags. An unknown
  // name, a pair it cannot serve, or a backend that make_index does not
  // wrap in this class is a corrupt stream, not a caller error.
  std::unique_ptr<Index> made;
  try {
    made = make_index(backend, options);
  } catch (const std::invalid_argument& e) {
    corrupt(e.what());
  }
  auto* index = dynamic_cast<MutableIndex*>(made.get());
  if (index == nullptr)
    corrupt("backend '" + backend + "' does not write dense streams");
  index_t dim = 0;
  io::read_pod(is, dim);

  std::vector<index_t> main_ids;
  io::read_vec(is, main_ids);
  Matrix<float> main_rows = io::read_matrix(is);
  std::vector<index_t> delta_ids;
  io::read_vec(is, delta_ids);
  Matrix<float> delta_rows = io::read_matrix(is);
  std::vector<index_t> tombs;
  io::read_vec(is, tombs);

  if (main_ids.size() != static_cast<std::size_t>(main_rows.rows()))
    corrupt("main id/row count mismatch");
  if (delta_ids.size() != static_cast<std::size_t>(delta_rows.rows()))
    corrupt("delta id/row count mismatch");
  if (main_rows.rows() > 0 && main_rows.cols() != dim)
    corrupt("main row dimension mismatch");
  if (delta_rows.rows() > 0 && delta_rows.cols() != dim)
    corrupt("delta row dimension mismatch");
  for (const auto& [rows, what] :
       {std::pair{&main_rows, "main"}, std::pair{&delta_rows, "delta"}}) {
    const index_t bad = first_nonfinite_row(*rows);
    if (bad != kInvalidIndex)
      corrupt(std::string(what) + " row " + std::to_string(bad) +
              " holds a non-finite value");
  }
  check_ascending_unique(main_ids, "main");
  check_ascending_unique(delta_ids, "delta");
  check_ascending_unique(tombs, "tombstone");
  if (!std::includes(main_ids.begin(), main_ids.end(), tombs.begin(),
                     tombs.end()))
    corrupt("tombstone for an id not in the main structure");
  for (const index_t id : delta_ids)
    if (contains(main_ids, id) && !contains(tombs, id))
      corrupt("id live in both the delta shard and the main structure");

  // Deterministic: same rows, same knobs, same seed.
  auto main = index->make_main(main_rows, std::move(main_ids), &main_rows);
  auto delta = std::make_shared<DeltaState>();
  delta->ids = std::move(delta_ids);
  delta->rows = std::move(delta_rows);

  index->built_ = true;
  index->dim_ = dim;
  index->main_ = std::move(main);
  index->delta_ = std::move(delta);
  index->tombs_ = std::make_shared<std::vector<index_t>>(std::move(tombs));
  index->dead_ = index->tombs_;  // checked above: every tombstone masks main
  return made;
}

}  // namespace rbc::mutate
