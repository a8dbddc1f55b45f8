// Batched concurrent search service — the serving layer of the library.
//
// The paper's central observation (§3) is that nearest-neighbor search
// becomes hardware-friendly when many queries are processed together:
// BF(Q, X) over a large query block has "virtually the same structure as
// matrix-matrix multiply", while one query at a time degenerates to
// bandwidth-bound vector work. A live service, however, receives queries one
// at a time from many independent callers. SearchService closes that gap: it
// owns any rbc::Index, accepts asynchronous submissions from any number of
// client threads, and each worker that frees up coalesces whatever is
// pending into one SearchRequest (at most max_batch rows), so under load the
// backend sees paper-style query blocks.
//
//   auto index = rbc::make_index("rbc-exact");
//   index->build(database);
//   rbc::serve::SearchService service(std::move(index), {.max_batch = 256});
//
//   // any thread, any time:
//   std::future<rbc::serve::QueryResult> f = service.submit(query_span, k);
//   ...
//   rbc::serve::QueryResult r = f.get();   // ids/dists, ascending
//
// Threading model: submitters enqueue under a mutex and return at once.
// `workers` threads each loop: an idle worker takes the front job's k and
// every pending job with that k (FIFO, never splitting a job, up to
// max_batch rows), runs Index::knn_search on the block, records stats, and
// completes each job. An idle worker dispatches at once — nothing waits for
// co-riders — so jobs coalesce exactly while every worker is busy, which is
// when waiting costs nothing (the Index contract — immutable after build,
// concurrent const queries safe — is what makes several workers sound).
// Intra-batch parallelism belongs to the backend (src/parallel/ OpenMP
// loops); the worker pool provides inter-batch concurrency, so keep
// `workers` small for CPU backends that already use every core.
//
// Completion contract: every accepted job carries a Completion, which its
// worker calls exactly once, outside the service lock and after stats()
// counts the job, with either the job's rows or the backend's exception.
// drain() and stop() return only after the completions of the jobs they
// wait for have returned. A completion that throws neither ends its worker
// nor vanishes: the worker catches it and counts it in
// stats().callback_errors. Completions run on a worker, so they must not
// block on the service (drain(), stop(), a blocking submit) or destroy it.
// The future-returning submit* calls are thin wrappers whose completion
// fulfils a promise.
//
// See docs/ARCHITECTURE.md for the full request lifecycle and
// bench/serve_throughput.cpp for the measured batched-vs-singleton win.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/index.hpp"
#include "serve/stats.hpp"

namespace rbc::serve {

/// Tuning knobs of a SearchService. Defaults favor throughput on a CPU
/// backend whose own OpenMP loops use every core.
struct ServiceOptions {
  /// Maximum query rows a worker coalesces into one backend SearchRequest.
  /// 1 disables batching (every submission dispatches alone — the baseline
  /// bench/serve_throughput.cpp measures against). A single submit_batch
  /// larger than max_batch is never split: it dispatches as one oversized
  /// request.
  index_t max_batch = 256;

  /// Batch-executor threads. Values < 1 clamp to 1. More workers overlap
  /// independent batches; for backends that parallelize internally, 1–2 is
  /// usually right.
  int workers = 1;

  /// Backpressure bound: submit()/submit_batch() block while more than this
  /// many query rows are pending or in flight. Bounds service memory under
  /// overload instead of growing the queue without limit.
  std::size_t max_queue = 65536;
};

/// Answer to a single-query submission: the query's k neighbors in
/// ascending (distance, id) order.
struct QueryResult {
  std::vector<index_t> ids;
  std::vector<dist_t> dists;
};

/// Outcome of a non-blocking submission attempt (the try_submit_* calls).
enum class Admission : std::uint8_t {
  kAccepted = 0,    ///< job queued; its completion will run exactly once
  kOverloaded = 1,  ///< queue full — caller should retry later
  kStopped = 2,     ///< service stopped — no further submissions possible
};

/// How a knn job ends, called exactly once on the worker that ran it (see
/// the completion contract above): either `error` is null and `result` holds
/// the job's nq x k rows in ascending (distance, id) order, or `error` holds
/// the backend's exception and `result` is empty.
using Completion =
    std::function<void(KnnResult result, std::exception_ptr error)>;

/// Work that runs on a worker against the owned index without joining a knn
/// batch (the network server's range requests).
using Task = std::function<void(const Index& index)>;

/// A search service over one built index. Construction spawns the worker
/// threads; destruction (or stop()) drains every accepted query and joins
/// them. All public methods are thread-safe.
class SearchService {
 public:
  /// Takes ownership of a *built* index. Throws std::invalid_argument if
  /// `index` is null or unbuilt (info().dim == 0 and not payload-built).
  explicit SearchService(std::unique_ptr<Index> index,
                         ServiceOptions options = {});

  /// Equivalent to stop(): drains accepted queries, joins threads.
  ~SearchService();

  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  /// Submits one query (dim floats, copied before returning). The future
  /// yields the k nearest neighbors, or rethrows the backend's error.
  /// Throws std::invalid_argument immediately on a malformed submission
  /// (wrong dimension, k == 0, k > database size, a NaN or infinite value —
  /// the same contract as Index::knn_search) and std::runtime_error after
  /// stop().
  /// Blocks while the queue holds more than options.max_queue rows.
  std::future<QueryResult> submit(std::span<const float> query, index_t k);

  /// Submits a query block (rows copied before returning; `queries` need not
  /// outlive the call). The block is never split across backend requests,
  /// but may be coalesced with other pending submissions of the same k.
  /// Error contract matches submit(). A zero-row block completes
  /// immediately with an empty result.
  std::future<KnnResult> submit_batch(const Matrix<float>& queries, index_t k);

  /// Non-blocking, admission-controlled form of submit_batch for callers
  /// that must never block (the network server's event loop). Instead of
  /// waiting out backpressure it returns kOverloaded — recording the
  /// rejection in stats().rejected — when admitting the block would push
  /// pending + in-flight rows past options.max_queue, and kStopped after
  /// stop(); `done` is then dropped uncalled. On kAccepted, `done` runs once
  /// on a worker. Malformed submissions throw std::invalid_argument exactly
  /// like submit_batch; a zero-row block is accepted and `done` runs at once
  /// on the calling thread with an empty result.
  Admission try_submit_batch(const Matrix<float>& queries, index_t k,
                             Completion done);

  /// Payload counterparts of submit / submit_batch / try_submit_batch, live
  /// when the owned index is payload-built (info().payload; strings under
  /// "edit", 8-byte node ids under "graph-sp", ...). Payloads are copied
  /// before returning; batching, backpressure, admission control, and the
  /// error contract are identical to the dense paths — including synchronous
  /// std::invalid_argument on k == 0 / k > database size, and on calling
  /// these on a dense service (or the dense entry points on a payload one).
  /// Per-metric payload validity (e.g. a graph node id out of range) is the
  /// backend's check and surfaces through the future or completion.
  std::future<QueryResult> submit_payload(std::string_view query, index_t k);
  std::future<KnnResult> submit_payload_batch(
      const std::vector<std::string>& queries, index_t k);
  Admission try_submit_payload_batch(const std::vector<std::string>& queries,
                                     index_t k, Completion done);

  /// Runs `task` once on a worker, alone (never coalesced), under the same
  /// non-blocking admission as try_submit_batch: it counts max(rows, 1)
  /// against options.max_queue while pending or running, and in stats()
  /// like a batch of that many queries once it returns. A task that throws
  /// is caught and counted in stats().callback_errors, like a completion.
  Admission try_submit_task(index_t rows, Task task);

  /// Forwards an insert to the owned index (Index::insert contract: new
  /// unique ids, rows copied). Mutation-capable backends apply it without
  /// blocking in-flight searches — a search dispatched before the insert
  /// answers over the old snapshot, one dispatched after sees the new rows.
  /// Throws the index's own error for incapable backends or invalid batches;
  /// the admission bound (k vs database size) tracks the new size.
  /// Thread-safe against searches and against other mutators.
  void insert(const Matrix<float>& rows, std::span<const index_t> ids);

  /// Forwards a remove to the owned index; returns how many ids were live.
  /// After the call, submissions validate k against the shrunken size
  /// (a search already in flight may still race the shrink and fail with
  /// the backend's k-exceeds-size error through its future).
  index_t remove(std::span<const index_t> ids);

  /// Forwards Index::compact(): blocks until the index has no pending
  /// delta rows or tombstones. Searches keep being served meanwhile.
  void compact();

  /// Blocks until every query accepted so far has completed and its
  /// completion has returned. Submissions from other threads may keep
  /// arriving; drain() returns once the queue is momentarily empty.
  void drain();

  /// Stops accepting new submissions (further submits throw
  /// std::runtime_error; the try_submit_* calls return kStopped), completes
  /// everything already accepted, and joins the workers. Idempotent, and
  /// race-free against concurrent submitters — the server's drain path
  /// (drain(), then stop(), while connections may still be submitting)
  /// relies on this contract: a submission racing with stop() either lands
  /// before the cutoff and completes normally, or observes the stop and
  /// fails with the clean "submit after stop()" error — never an assert, a
  /// lost completion, or a torn queue.
  void stop();

  /// Counter snapshot (see serve/stats.hpp). Cheap; callable any time.
  ServiceStats stats() const { return recorder_.snapshot(); }

  /// The owned index (for ground-truth comparison and info()).
  const Index& index() const { return *index_; }

  /// Metric of the owned index ("l2", "l1", "cosine", "ip") — what the
  /// distances in every QueryResult mean. Stamped onto each dispatched
  /// batch, so a metric disagreement fails loudly instead of silently
  /// misranking.
  const std::string& metric() const { return metric_; }

  const ServiceOptions& options() const { return options_; }

 private:
  // One submission: a packed row block (dense), a payload list, or a task,
  // plus how it completes. A service's knn jobs are all one kind — the
  // index is either dense- or payload-built — so batches never mix.
  struct Job {
    std::vector<float> data;  // nq * dim, tightly packed row-major (dense)
    std::vector<std::string> payloads;  // nq payload strings (payload mode)
    index_t nq = 0;
    index_t k = 0;  // 0 marks a task: valid knn jobs have k >= 1
    std::chrono::steady_clock::time_point enqueued;
    Completion done;  // knn jobs
    Task task;        // tasks
  };

  struct Batch {
    std::vector<Job> jobs;
    index_t rows = 0;
    index_t k = 0;
  };

  Job dense_job(const Matrix<float>& queries, index_t k) const;
  Job payload_job(const std::vector<std::string>& queries, index_t k) const;
  // Wraps `job` so its completion fulfils the returned future, and queues it
  // under backpressure; throws std::runtime_error after stop().
  template <class Result>
  std::future<Result> submit_for_future(Job job);
  // Queues `job`. With `block`, waits out backpressure; otherwise answers
  // kOverloaded at once (recording the refusal). A zero-row knn job
  // completes on the calling thread without queueing.
  Admission enqueue(Job& job, bool block);
  void worker_loop();
  // Removes the next batch from pending_ (which must be non-empty).
  Batch take_batch_locked();
  void execute(Batch& batch);
  // Runs a caller-supplied completion or task; an exception escaping it is
  // counted instead of ending the worker.
  template <class F>
  void run_guarded(F&& f);
  // Throws std::invalid_argument unless nq rows of `cols` floats, row i at
  // rows + i * stride, form a valid k-NN submission of k.
  void validate_submission(const float* rows, index_t nq, index_t cols,
                           std::size_t stride, index_t k) const;
  void validate_payload_submission(index_t nq, index_t k) const;

  std::unique_ptr<Index> index_;
  ServiceOptions options_;
  index_t dim_ = 0;
  bool payload_ = false;  // payload-built index: payload entry points live
  /// Live row count, refreshed by the mutation entry points; atomic because
  /// validate_submission reads it without taking the queue mutex.
  std::atomic<index_t> db_size_{0};
  std::string metric_;  // index metric, stamped onto every dispatched batch

  /// Serializes the mutation entry points with each other (the index's own
  /// locks already serialize them against searches), so the db_size_
  /// refresh can't interleave across two mutators.
  std::mutex mutate_mutex_;

  std::mutex stop_mutex_;  // serializes stop() (see service.cpp)
  mutable std::mutex mutex_;
  std::condition_variable cv_pending_;  // idle workers <- submitters
  std::condition_variable cv_done_;     // drain()/backpressure <- workers
  std::deque<Job> pending_;
  std::size_t outstanding_ = 0;  // rows accepted, completion not yet returned
  bool stopping_ = false;

  StatsRecorder recorder_;
  std::vector<std::thread> workers_;
};

}  // namespace rbc::serve
