#include "serve/service.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "parallel/rows.hpp"

namespace rbc::serve {

SearchService::SearchService(std::unique_ptr<Index> index,
                             ServiceOptions options)
    : index_(std::move(index)), options_(options) {
  if (!index_)
    throw std::invalid_argument("rbc::serve::SearchService: index is null");
  const IndexInfo info = index_->info();
  dim_ = info.dim;
  db_size_ = info.size;
  metric_ = info.metric;
  payload_ = info.payload;
  if (dim_ == 0 && !payload_)
    throw std::invalid_argument(
        "rbc::serve::SearchService: index is unbuilt (info().dim == 0); "
        "build it before constructing the service");
  if (options_.max_batch < 1) options_.max_batch = 1;
  if (options_.workers < 1) options_.workers = 1;
  if (options_.max_queue < 1) options_.max_queue = 1;

  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

SearchService::~SearchService() { stop(); }

void SearchService::validate_submission(const float* rows, index_t nq,
                                        index_t cols, std::size_t stride,
                                        index_t k) const {
  // Same contract as Index::knn_search, but raised synchronously at submit
  // time: a malformed submission is a caller bug, not a backend condition,
  // so it should not cost a queue round-trip to discover. A job refused
  // here never joins a coalesced batch, so its co-riders never see it.
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("rbc::serve::SearchService: " + what);
  };
  if (payload_ && nq > 0)
    fail("index is payload-built (use submit_payload / "
         "submit_payload_batch)");
  if (cols != dim_ && nq > 0)
    fail("query dimension " + std::to_string(cols) + " != index dimension " +
         std::to_string(dim_));
  if (k == 0) fail("k must be >= 1");
  const index_t db_size = db_size_.load(std::memory_order_relaxed);
  if (k > db_size)
    fail("k = " + std::to_string(k) + " exceeds database size " +
         std::to_string(db_size));
  for (index_t i = 0; i < nq; ++i)
    if (has_nonfinite(rows + i * stride, cols))
      fail("query row " + std::to_string(i) +
           " holds a non-finite value (NaN or infinity)");
}

void SearchService::validate_payload_submission(index_t nq, index_t k) const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("rbc::serve::SearchService: " + what);
  };
  if (!payload_ && nq > 0)
    fail("index is dense-built (use submit / submit_batch)");
  if (k == 0) fail("k must be >= 1");
  const index_t db_size = db_size_.load(std::memory_order_relaxed);
  if (k > db_size)
    fail("k = " + std::to_string(k) + " exceeds database size " +
         std::to_string(db_size));
}

void SearchService::insert(const Matrix<float>& rows,
                           std::span<const index_t> ids) {
  std::lock_guard<std::mutex> lock(mutate_mutex_);
  index_->insert(rows, ids);  // the index's own locking orders this
                              // against in-flight worker searches
  db_size_.store(index_->info().size, std::memory_order_relaxed);
}

index_t SearchService::remove(std::span<const index_t> ids) {
  std::lock_guard<std::mutex> lock(mutate_mutex_);
  const index_t removed = index_->remove(ids);
  db_size_.store(index_->info().size, std::memory_order_relaxed);
  return removed;
}

void SearchService::compact() {
  std::lock_guard<std::mutex> lock(mutate_mutex_);
  index_->compact();
}

namespace {

// The completion behind a future-returning submit: the whole block, or the
// only row of a single-query job.
template <class Result>
Completion fulfil(std::shared_ptr<std::promise<Result>> promise) {
  return [promise](KnnResult result, std::exception_ptr error) {
    if (error) {
      promise->set_exception(error);
    } else if constexpr (std::is_same_v<Result, QueryResult>) {
      const index_t k = result.ids.cols();
      QueryResult single;
      single.ids.assign(result.ids.row(0), result.ids.row(0) + k);
      single.dists.assign(result.dists.row(0), result.dists.row(0) + k);
      promise->set_value(std::move(single));
    } else {
      promise->set_value(std::move(result));
    }
  };
}

}  // namespace

SearchService::Job SearchService::dense_job(const Matrix<float>& queries,
                                            index_t k) const {
  Job job;
  job.data.resize(static_cast<std::size_t>(queries.rows()) * dim_);
  for (index_t i = 0; i < queries.rows(); ++i)
    std::memcpy(job.data.data() + static_cast<std::size_t>(i) * dim_,
                queries.row(i), sizeof(float) * dim_);
  job.nq = queries.rows();
  job.k = k;
  return job;
}

SearchService::Job SearchService::payload_job(
    const std::vector<std::string>& queries, index_t k) const {
  Job job;
  job.payloads = queries;
  job.nq = static_cast<index_t>(queries.size());
  job.k = k;
  return job;
}

template <class Result>
std::future<Result> SearchService::submit_for_future(Job job) {
  auto promise = std::make_shared<std::promise<Result>>();
  std::future<Result> future = promise->get_future();
  job.done = fulfil(std::move(promise));
  if (enqueue(job, /*block=*/true) == Admission::kStopped)
    throw std::runtime_error("rbc::serve::SearchService: submit after stop()");
  return future;
}

std::future<QueryResult> SearchService::submit(std::span<const float> query,
                                               index_t k) {
  const auto cols = static_cast<index_t>(query.size());
  validate_submission(query.data(), 1, cols, cols, k);
  Job job;
  job.data.assign(query.begin(), query.end());
  job.nq = 1;
  job.k = k;
  return submit_for_future<QueryResult>(std::move(job));
}

std::future<KnnResult> SearchService::submit_batch(
    const Matrix<float>& queries, index_t k) {
  validate_submission(queries.data(), queries.rows(), queries.cols(),
                      queries.stride(), k);
  return submit_for_future<KnnResult>(dense_job(queries, k));
}

Admission SearchService::try_submit_batch(const Matrix<float>& queries,
                                          index_t k, Completion done) {
  validate_submission(queries.data(), queries.rows(), queries.cols(),
                      queries.stride(), k);
  Job job = dense_job(queries, k);
  job.done = std::move(done);
  return enqueue(job, /*block=*/false);
}

std::future<QueryResult> SearchService::submit_payload(std::string_view query,
                                                       index_t k) {
  validate_payload_submission(1, k);
  Job job;
  job.payloads.emplace_back(query);
  job.nq = 1;
  job.k = k;
  return submit_for_future<QueryResult>(std::move(job));
}

std::future<KnnResult> SearchService::submit_payload_batch(
    const std::vector<std::string>& queries, index_t k) {
  validate_payload_submission(static_cast<index_t>(queries.size()), k);
  return submit_for_future<KnnResult>(payload_job(queries, k));
}

Admission SearchService::try_submit_payload_batch(
    const std::vector<std::string>& queries, index_t k, Completion done) {
  validate_payload_submission(static_cast<index_t>(queries.size()), k);
  Job job = payload_job(queries, k);
  job.done = std::move(done);
  return enqueue(job, /*block=*/false);
}

Admission SearchService::try_submit_task(index_t rows, Task task) {
  Job job;
  // At least one row, so drain() and the admission bound see the task.
  job.nq = std::max<index_t>(rows, 1);
  job.task = std::move(task);
  return enqueue(job, /*block=*/false);
}

Admission SearchService::enqueue(Job& job, bool block) {
  if (job.nq == 0) {  // only a zero-row knn block: nothing to search
    job.done(KnnResult(0, job.k), nullptr);
    return Admission::kAccepted;
  }
  const std::size_t rows = job.nq;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Backpressure; an oversized block is admitted alone rather than being
    // unserveable. The non-blocking form answers at once instead of parking
    // the caller: the server turns kOverloaded into a retry-after reply.
    const auto fits = [&] {
      return outstanding_ == 0 || outstanding_ + rows <= options_.max_queue;
    };
    if (block) cv_done_.wait(lock, [&] { return stopping_ || fits(); });
    const Admission admission = stopping_ ? Admission::kStopped
                                : fits()  ? Admission::kAccepted
                                          : Admission::kOverloaded;
    if (admission != Admission::kAccepted) {
      if (!block) recorder_.record_rejected(rows);
      return admission;
    }
    job.enqueued = std::chrono::steady_clock::now();
    outstanding_ += rows;
    pending_.push_back(std::move(job));
    recorder_.record_submitted(rows);
    recorder_.set_queue_depth(outstanding_);
  }
  cv_pending_.notify_one();
  return Admission::kAccepted;
}

void SearchService::worker_loop() {
  for (;;) {
    Batch batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_pending_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stopping_, and every accepted job ran
      batch = take_batch_locked();
      // What is left (another k, or past max_batch) is another idle
      // worker's to take now, not after this batch.
      if (!pending_.empty()) cv_pending_.notify_one();
    }

    execute(batch);

    {
      std::lock_guard<std::mutex> lock(mutex_);
      outstanding_ -= batch.rows;
      recorder_.set_queue_depth(outstanding_);
    }
    cv_done_.notify_all();
  }
}

SearchService::Batch SearchService::take_batch_locked() {
  // FIFO over jobs of the front job's k, never splitting a job, never past
  // max_batch rows (except a lone oversized block). A task goes alone.
  Batch batch;
  batch.k = pending_.front().k;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->k != batch.k) {
      ++it;
      continue;
    }
    if (!batch.jobs.empty() && batch.rows + it->nq > options_.max_batch)
      break;
    batch.rows += it->nq;
    batch.jobs.push_back(std::move(*it));
    it = pending_.erase(it);
    if (batch.k == 0 || batch.rows >= options_.max_batch) break;
  }
  return batch;
}

template <class F>
void SearchService::run_guarded(F&& f) {
  try {
    f();
  } catch (...) {
    recorder_.record_callback_error();
  }
}

void SearchService::execute(Batch& batch) {
  const auto since_enqueued_ms = [](const Job& job) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - job.enqueued)
        .count();
  };
  if (batch.k == 0) {
    Job& job = batch.jobs.front();
    run_guarded([&] { job.task(*index_); });
    recorder_.record_batch(batch.rows, {since_enqueued_ms(job)},
                           /*failed=*/false);
    return;
  }

  // Assemble the coalesced query block. A service's jobs are all one kind
  // (the index is either dense- or payload-built), so the batch is too:
  // payload jobs concatenate into one string vector, dense jobs into one
  // Matrix (which zero-initializes padding lanes, so a plain per-row memcpy
  // of the logical columns is enough).
  Matrix<float> block(payload_ ? 0 : batch.rows, dim_);
  std::vector<std::string> payload_block;
  index_t row = 0;
  if (payload_) {
    payload_block.reserve(batch.rows);
    for (Job& job : batch.jobs)
      for (std::string& q : job.payloads) payload_block.push_back(std::move(q));
  } else {
    for (const Job& job : batch.jobs) {
      for (index_t i = 0; i < job.nq; ++i, ++row)
        std::memcpy(block.row(row),
                    job.data.data() + static_cast<std::size_t>(i) * dim_,
                    sizeof(float) * dim_);
    }
  }

  // Stamp the batch with the index's metric: the shared validator then
  // enforces end-to-end that the service and backend agree on what the
  // returned distances mean.
  SearchRequest request{.queries = &block, .k = batch.k, .options = {}};
  request.options.metric = metric_;
  PayloadSearchRequest payload_request{
      .queries = &payload_block, .k = batch.k, .options = {}};
  payload_request.options.metric = metric_;

  SearchResponse response;
  std::exception_ptr error;
  try {
    response = payload_ ? index_->knn_search_payload(payload_request)
                        : index_->knn_search(request);
  } catch (...) {
    error = std::current_exception();
  }

  // Stats are recorded BEFORE any completion runs: a completion, or a
  // client joining on its future and then reading stats(), must see its
  // query counted.
  std::vector<double> latencies_ms;
  latencies_ms.reserve(batch.jobs.size());
  for (const Job& job : batch.jobs)
    latencies_ms.push_back(since_enqueued_ms(job));
  recorder_.record_batch(batch.rows, latencies_ms, /*failed=*/error != nullptr);

  row = 0;
  for (Job& job : batch.jobs) {
    KnnResult result;
    if (!error) {
      result = KnnResult(job.nq, batch.k);
      for (index_t i = 0; i < job.nq; ++i) {
        result.ids.copy_row_from(response.knn.ids, row + i, i);
        result.dists.copy_row_from(response.knn.dists, row + i, i);
      }
    }
    run_guarded([&] { job.done(std::move(result), error); });
    row += job.nq;
  }
}

void SearchService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [&] { return outstanding_ == 0; });
}

void SearchService::stop() {
  // Serializes concurrent stop() calls (including the destructor's) so the
  // thread joins below run exactly once.
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  cv_pending_.notify_all();
  cv_done_.notify_all();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
  workers_.clear();
}

}  // namespace rbc::serve
