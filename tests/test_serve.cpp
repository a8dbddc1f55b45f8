// The batched search service: submissions from many threads match the
// single-threaded ground truth, workers coalesce behind a busy worker up to
// max_batch, errors propagate (synchronously for malformed submissions,
// through the future or completion for backend failures), every accepted
// job completes exactly once, and shutdown/drain complete every accepted
// query under in-flight load.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

using serve::QueryResult;
using serve::SearchService;
using serve::ServiceOptions;
using serve::ServiceStats;

std::unique_ptr<Index> built_index(const char* backend,
                                   const Matrix<float>& X) {
  auto index = make_index(backend, {.rbc = {.seed = 7}});
  index->build(X);
  return index;
}

/// Test double: forwards to brute force after an optional sleep, or after
/// `gate` opens, recording the row count of every request it sees — makes
/// batch formation observable and lets tests hold a worker busy
/// deterministically.
class SlowRecordingIndex final : public Index {
 public:
  SlowRecordingIndex(int sleep_ms, std::vector<index_t>* sizes,
                     std::mutex* mutex, std::shared_future<void> gate = {})
      : sleep_ms_(sleep_ms), sizes_(sizes), mutex_(mutex),
        gate_(std::move(gate)) {}

  void build(const Matrix<float>& X) override { inner_->build(X); }

  SearchResponse knn_search(const SearchRequest& request) const override {
    {
      std::lock_guard<std::mutex> lock(*mutex_);
      sizes_->push_back(request.queries->rows());
    }
    if (gate_.valid()) gate_.wait();
    if (sleep_ms_ > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    return inner_->knn_search(request);
  }

  IndexInfo info() const override {
    IndexInfo info = inner_->info();
    info.backend = "slow-recording";
    return info;
  }

 private:
  std::unique_ptr<Index> inner_ = make_index("bruteforce");
  int sleep_ms_;
  std::vector<index_t>* sizes_;
  std::mutex* mutex_;
  std::shared_future<void> gate_;
};

/// Blocks until the recording index has seen `n` requests.
void wait_for_requests(const std::vector<index_t>& sizes, std::mutex& mutex,
                       std::size_t n) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (sizes.size() >= n) return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// A completion that fulfils the returned future, as the future-returning
/// submits do internally.
std::pair<serve::Completion, std::future<KnnResult>> completion_and_future() {
  auto promise = std::make_shared<std::promise<KnnResult>>();
  std::future<KnnResult> future = promise->get_future();
  serve::Completion done = [promise](KnnResult result,
                                     std::exception_ptr error) {
    if (error)
      promise->set_exception(error);
    else
      promise->set_value(std::move(result));
  };
  return {std::move(done), std::move(future)};
}

class ThrowingIndex final : public Index {
 public:
  void build(const Matrix<float>& X) override { inner_->build(X); }
  SearchResponse knn_search(const SearchRequest&) const override {
    throw std::runtime_error("backend exploded");
  }
  IndexInfo info() const override { return inner_->info(); }

 private:
  std::unique_ptr<Index> inner_ = make_index("bruteforce");
};

TEST(ServeConstruction, RejectsNullAndUnbuiltIndexes) {
  EXPECT_THROW(SearchService(nullptr), std::invalid_argument);
  EXPECT_THROW(SearchService(make_index("rbc-exact")), std::invalid_argument);
}

TEST(ServeConcurrency, ManySubmitterThreadsMatchGroundTruth) {
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(2'200, 10, 6, 30),
                           2'000);
  const index_t k = 4;
  const KnnResult reference = testutil::naive_knn(Q, X, k);

  SearchService service(built_index("rbc-exact", X),
                        {.max_batch = 64, .workers = 2});

  constexpr int kThreads = 8;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      // Each thread submits every query singly and checks against the
      // serial reference (exact backend: identical ids and distances).
      std::vector<std::future<QueryResult>> futures;
      futures.reserve(Q.rows());
      for (index_t qi = 0; qi < Q.rows(); ++qi)
        futures.push_back(service.submit({Q.row(qi), Q.cols()}, k));
      for (index_t qi = 0; qi < Q.rows(); ++qi) {
        const QueryResult r = futures[qi].get();
        for (index_t j = 0; j < k; ++j)
          if (r.ids[j] != reference.ids.at(qi, j) ||
              r.dists[j] != reference.dists.at(qi, j)) {
            failures[static_cast<std::size_t>(t)] =
                "thread " + std::to_string(t) + " query " +
                std::to_string(qi) + " diverged";
            return;
          }
      }
    });
  for (auto& thread : threads) thread.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kThreads) * Q.rows());
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.failed, 0u);
  // 1600 concurrent singleton submissions must have coalesced.
  EXPECT_LT(stats.batches, stats.submitted);
  EXPECT_GT(stats.dist_evals, 0u);
}

TEST(ServeBatching, SubmitBatchMatchesGroundTruthAndMixedKCoalescesSafely) {
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(1'060, 8, 5, 31),
                           1'000);
  const KnnResult ref1 = testutil::naive_knn(Q, X, 1);
  const KnnResult ref3 = testutil::naive_knn(Q, X, 3);

  SearchService service(built_index("bruteforce", X),
                        {.max_batch = 32, .workers = 2});

  // Interleave block submissions of different k: the dispatcher may only
  // coalesce same-k jobs, never mix them into one request.
  std::vector<std::future<KnnResult>> f1, f3;
  for (int round = 0; round < 10; ++round) {
    f1.push_back(service.submit_batch(Q, 1));
    f3.push_back(service.submit_batch(Q, 3));
  }
  for (auto& f : f1) EXPECT_TRUE(testutil::knn_equal(ref1, f.get()));
  for (auto& f : f3) EXPECT_TRUE(testutil::knn_equal(ref3, f.get()));
}

TEST(ServeBatching, RespectsMaxBatchAndCoalescesUnderBusyWorker) {
  const Matrix<float> X = testutil::clustered_matrix(300, 6, 4, 32);
  const Matrix<float> Q = testutil::random_matrix(33, 6, 33);

  std::vector<index_t> sizes;
  std::mutex mutex;
  std::promise<void> release;
  auto slow = std::make_unique<SlowRecordingIndex>(
      /*sleep_ms=*/0, &sizes, &mutex, release.get_future().share());
  slow->build(X);
  SearchService service(std::move(slow), {.max_batch = 16, .workers = 1});

  // The idle worker dispatches the first query alone, at once, and the gate
  // holds it in the backend: once the index has seen that batch, the only
  // worker is known to be busy...
  auto first = service.submit({Q.row(0), Q.cols()}, 1);
  wait_for_requests(sizes, mutex, 1);
  // ...so these 32 all queue behind it and must come out as exactly two
  // full max_batch-sized requests.
  std::vector<std::future<QueryResult>> futures;
  for (index_t qi = 1; qi < Q.rows(); ++qi)
    futures.push_back(service.submit({Q.row(qi), Q.cols()}, 1));
  release.set_value();
  (void)first.get();
  for (auto& f : futures) (void)f.get();

  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(sizes, (std::vector<index_t>{1, 16, 16}));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.batch_hist[0], 1u);  // the singleton
  EXPECT_EQ(stats.batch_hist[4], 2u);  // two 16-row batches
}

TEST(ServeBatching, OversizedBlockIsNeverSplit) {
  const Matrix<float> X = testutil::clustered_matrix(200, 5, 3, 34);
  const Matrix<float> Q = testutil::random_matrix(50, 5, 35);

  std::vector<index_t> sizes;
  std::mutex mutex;
  auto slow =
      std::make_unique<SlowRecordingIndex>(/*sleep_ms=*/0, &sizes, &mutex);
  slow->build(X);
  SearchService service(std::move(slow), {.max_batch = 8, .workers = 1});

  EXPECT_TRUE(testutil::knn_equal(testutil::naive_knn(Q, X, 2),
                                  service.submit_batch(Q, 2).get()));
  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(sizes.size(), 1u);
  EXPECT_EQ(sizes[0], Q.rows());
}

TEST(ServeErrors, MalformedSubmissionsThrowSynchronously) {
  const Matrix<float> X = testutil::random_matrix(40, 6, 36);
  const Matrix<float> wrong_dim = testutil::random_matrix(3, 4, 37);
  SearchService service(built_index("bruteforce", X));

  const std::vector<float> q(6, 0.0f);
  EXPECT_THROW((void)service.submit({q.data(), 4}, 1), std::invalid_argument);
  EXPECT_THROW((void)service.submit({q.data(), 6}, 0), std::invalid_argument);
  EXPECT_THROW((void)service.submit({q.data(), 6}, X.rows() + 1),
               std::invalid_argument);
  EXPECT_THROW((void)service.submit_batch(wrong_dim, 1),
               std::invalid_argument);

  // A non-finite query is refused at submit, naming its row, so it never
  // joins a coalesced batch: nothing is submitted and no completion runs.
  const float inf = std::numeric_limits<float>::infinity();
  std::atomic<int> calls{0};
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(), inf, -inf}) {
    std::vector<float> bad_q = q;
    bad_q[3] = bad;
    Matrix<float> batch = testutil::random_matrix(3, 6, 38);
    batch.at(1, 2) = bad;
    const auto expect_refused = [&](const auto& call, const char* row) {
      try {
        call();
        ADD_FAILURE() << "accepted " << bad << " in " << row;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(std::string(row) +
                                             " holds a non-finite value"),
                  std::string::npos)
            << e.what();
      }
    };
    expect_refused([&] { (void)service.submit({bad_q.data(), 6}, 1); },
                   "query row 0");
    expect_refused([&] { (void)service.submit_batch(batch, 1); },
                   "query row 1");
    expect_refused(
        [&] {
          (void)service.try_submit_batch(
              batch, 1, [&](KnnResult, std::exception_ptr) { ++calls; });
        },
        "query row 1");
  }
  service.drain();
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(service.stats().submitted, 0u);
}

TEST(ServeErrors, BackendFailurePropagatesThroughTheFuture) {
  const Matrix<float> X = testutil::random_matrix(40, 6, 38);
  auto throwing = std::make_unique<ThrowingIndex>();
  throwing->build(X);
  SearchService service(std::move(throwing));

  const std::vector<float> q(6, 0.0f);
  auto future = service.submit({q.data(), 6}, 1);
  EXPECT_THROW((void)future.get(), std::runtime_error);
  service.drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(ServeShutdown, StopDrainsInFlightLoadAndRejectsLateSubmissions) {
  const Matrix<float> X = testutil::clustered_matrix(400, 7, 4, 39);
  const Matrix<float> Q = testutil::random_matrix(64, 7, 40);
  const KnnResult reference = testutil::naive_knn(Q, X, 2);

  std::vector<index_t> sizes;
  std::mutex mutex;
  auto slow =
      std::make_unique<SlowRecordingIndex>(/*sleep_ms=*/5, &sizes, &mutex);
  slow->build(X);
  SearchService service(std::move(slow), {.max_batch = 4, .workers = 2});

  std::vector<std::future<QueryResult>> futures;
  for (index_t qi = 0; qi < Q.rows(); ++qi)
    futures.push_back(service.submit({Q.row(qi), Q.cols()}, 2));

  // Stop while most of those 16+ batches are still queued or in flight:
  // every accepted future must still complete, with correct answers.
  service.stop();
  for (index_t qi = 0; qi < Q.rows(); ++qi) {
    const QueryResult r = futures[qi].get();
    EXPECT_EQ(r.ids[0], reference.ids.at(qi, 0)) << "query " << qi;
  }
  EXPECT_EQ(service.stats().completed, static_cast<std::uint64_t>(Q.rows()));
  EXPECT_EQ(service.stats().queue_depth, 0u);

  const std::vector<float> q(7, 0.0f);
  EXPECT_THROW((void)service.submit({q.data(), 7}, 1), std::runtime_error);
  service.stop();  // idempotent
}

TEST(ServeShutdown, DrainWaitsForOutstandingWork) {
  const Matrix<float> X = testutil::clustered_matrix(400, 7, 4, 41);
  const Matrix<float> Q = testutil::random_matrix(32, 7, 42);

  std::vector<index_t> sizes;
  std::mutex mutex;
  auto slow =
      std::make_unique<SlowRecordingIndex>(/*sleep_ms=*/10, &sizes, &mutex);
  slow->build(X);
  SearchService service(std::move(slow), {.max_batch = 8, .workers = 1});

  std::vector<std::future<QueryResult>> futures;
  for (index_t qi = 0; qi < Q.rows(); ++qi)
    futures.push_back(service.submit({Q.row(qi), Q.cols()}, 1));
  service.drain();

  // After drain, every future is immediately ready.
  for (auto& f : futures)
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  EXPECT_EQ(service.stats().queue_depth, 0u);
  EXPECT_EQ(service.stats().completed, static_cast<std::uint64_t>(Q.rows()));
}

TEST(ServeShutdown, SubmissionsRacingWithStopEitherCompleteOrFailCleanly) {
  // The network server's drain path calls drain() + stop() while client
  // connections may still be submitting. Hammer that race: every submission
  // must either complete with a correct-shaped answer or fail with the
  // clean "submit after stop()" error / kStopped admission — never an
  // assert, a lost future, or a hang.
  const Matrix<float> X = testutil::clustered_matrix(300, 6, 4, 57);
  Matrix<float> one_query = testutil::random_matrix(1, 6, 58);

  for (int round = 0; round < 8; ++round) {
    auto service = std::make_unique<SearchService>(
        built_index("bruteforce", X),
        ServiceOptions{.max_batch = 16, .workers = 2});

    std::atomic<bool> go{false}, done{false};
    std::atomic<int> completed{0}, refused{0};
    std::vector<std::string> failures(4);
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t)
      submitters.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        while (!done.load()) {
          try {
            if (t % 2 == 0) {
              QueryResult r =
                  service->submit({one_query.row(0), 6}, 3).get();
              if (r.ids.size() != 3) failures[t] = "short result";
              completed.fetch_add(1);
            } else {
              auto [done, f] = completion_and_future();
              const serve::Admission admission =
                  service->try_submit_batch(one_query, 3, std::move(done));
              if (admission == serve::Admission::kAccepted) {
                if (f.get().ids.cols() != 3) failures[t] = "short result";
                completed.fetch_add(1);
              } else {
                // kStopped (or kOverloaded) is the documented clean refusal.
                refused.fetch_add(1);
                if (admission == serve::Admission::kStopped) return;
              }
            }
          } catch (const std::runtime_error& e) {
            // The documented late-submission error; anything else is a bug.
            if (std::string(e.what()).find("submit after stop()") ==
                std::string::npos)
              failures[t] = e.what();
            return;
          }
        }
      });

    go.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(2 + round));
    service->drain();
    service->stop();
    done.store(true);
    for (std::thread& t : submitters) t.join();
    for (const std::string& f : failures) EXPECT_EQ(f, "");
    service.reset();  // destructor after stop(): also clean
  }
}

TEST(ServeAdmission, TrySubmitRejectsOverloadWithoutBlocking) {
  const Matrix<float> X = testutil::clustered_matrix(200, 6, 4, 61);
  std::vector<index_t> sizes;
  std::mutex mutex;
  auto slow =
      std::make_unique<SlowRecordingIndex>(/*sleep_ms=*/100, &sizes, &mutex);
  slow->build(X);
  SearchService service(std::move(slow),
                        {.max_batch = 1, .workers = 1, .max_queue = 1});

  Matrix<float> q = testutil::random_matrix(1, 6, 62);
  auto [first_done, first] = completion_and_future();
  ASSERT_EQ(service.try_submit_batch(q, 2, std::move(first_done)),
            serve::Admission::kAccepted);

  // The slot is taken: the non-blocking path answers kOverloaded im-
  // mediately (well under the 100ms the in-flight search needs), and the
  // refused completion is dropped uncalled.
  std::atomic<int> refused_calls{0};
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(service.try_submit_batch(
                q, 2, [&](KnnResult, std::exception_ptr) { ++refused_calls; }),
            serve::Admission::kOverloaded);
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(90));

  EXPECT_EQ(first.get().ids.rows(), 1u);
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(service.stats().completed, 1u);

  // Admission reopens once the queue drains; after stop() it's kStopped.
  service.drain();
  auto [third_done, third] = completion_and_future();
  EXPECT_EQ(service.try_submit_batch(q, 2, std::move(third_done)),
            serve::Admission::kAccepted);
  EXPECT_EQ(third.get().ids.rows(), 1u);
  service.stop();
  EXPECT_EQ(service.try_submit_batch(
                q, 2, [&](KnnResult, std::exception_ptr) { ++refused_calls; }),
            serve::Admission::kStopped);
  EXPECT_EQ(refused_calls.load(), 0);
}

TEST(ServeCompletion, EachAcceptedJobCompletesOnceAfterStatsBeforeDrainOrStop) {
  // The completion contract, on success and on backend failure: exactly one
  // call per accepted job; stats() already counts the job inside its
  // completion; every completion has returned when drain() or stop() does.
  const Matrix<float> X = testutil::clustered_matrix(300, 6, 4, 63);
  const Matrix<float> Q = testutil::random_matrix(24, 6, 64);
  const KnnResult reference = testutil::naive_knn(Q, X, 2);

  for (const bool backend_fails : {false, true}) {
    SCOPED_TRACE(backend_fails ? "failing backend" : "healthy backend");
    std::unique_ptr<Index> index;
    if (backend_fails) {
      index = std::make_unique<ThrowingIndex>();
      index->build(X);
    } else {
      index = built_index("bruteforce", X);
    }
    SearchService service(std::move(index), {.max_batch = 4, .workers = 2});

    std::vector<std::atomic<int>> calls(Q.rows());
    std::atomic<int> entered{0}, returned{0}, broken{0};
    const auto submit_rows = [&](index_t begin, index_t end) {
      for (index_t qi = begin; qi < end; ++qi) {
        Matrix<float> one(1, Q.cols());
        one.copy_row_from(Q, qi, 0);
        const auto admission = service.try_submit_batch(
            one, 2, [&, qi](KnnResult result, std::exception_ptr error) {
              const auto seen = static_cast<std::uint64_t>(++entered);
              calls[qi].fetch_add(1);
              const ServiceStats stats = service.stats();
              if (stats.completed + stats.failed < seen) ++broken;
              const bool answered =
                  backend_fails
                      ? error != nullptr && result.ids.rows() == 0
                      : error == nullptr &&
                            result.ids.at(0, 0) == reference.ids.at(qi, 0);
              if (!answered) ++broken;
              // A slow completion: drain()/stop() must still outwait it.
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
              ++returned;
            });
        EXPECT_EQ(admission, serve::Admission::kAccepted);
      }
    };

    submit_rows(0, Q.rows() / 2);
    service.drain();
    EXPECT_EQ(returned.load(), static_cast<int>(Q.rows() / 2));
    submit_rows(Q.rows() / 2, Q.rows());
    service.stop();
    EXPECT_EQ(returned.load(), static_cast<int>(Q.rows()));
    for (const std::atomic<int>& c : calls) EXPECT_EQ(c.load(), 1);
    EXPECT_EQ(broken.load(), 0);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(backend_fails ? stats.failed : stats.completed,
              static_cast<std::uint64_t>(Q.rows()));
    EXPECT_EQ(stats.callback_errors, 0u);
  }
}

TEST(ServeCompletion, ThrowingCallbackIsCountedAndTheWorkerKeepsServing) {
  const Matrix<float> X = testutil::clustered_matrix(200, 6, 4, 65);
  Matrix<float> q = testutil::random_matrix(1, 6, 66);
  SearchService service(built_index("bruteforce", X), {.workers = 1});

  EXPECT_EQ(service.try_submit_batch(q, 2,
                                     [](KnnResult, std::exception_ptr) {
                                       throw std::runtime_error("caller bug");
                                     }),
            serve::Admission::kAccepted);
  EXPECT_EQ(service.try_submit_task(
                1, [](const Index&) { throw std::logic_error("task bug"); }),
            serve::Admission::kAccepted);
  service.drain();
  EXPECT_EQ(service.stats().callback_errors, 2u);

  // The only worker survived both: later submissions are still answered.
  EXPECT_EQ(service.submit_batch(q, 2).get().ids.rows(), 1u);
  std::atomic<bool> ran{false};
  EXPECT_EQ(service.try_submit_task(1, [&](const Index& index) {
              ran = index.info().size == X.rows();
            }),
            serve::Admission::kAccepted);
  service.stop();
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(service.stats().callback_errors, 2u);
}

TEST(ServeStats, SnapshotReportsLatencyAndThroughput) {
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(1'032, 8, 5, 43),
                           1'000);
  SearchService service(built_index("rbc-exact", X),
                        {.max_batch = 128});

  for (int round = 0; round < 4; ++round)
    (void)service.submit_batch(Q, 3).get();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 4u * Q.rows());
  EXPECT_GT(stats.latency_p50_ms, 0.0);
  EXPECT_GE(stats.latency_p99_ms, stats.latency_p50_ms);
  EXPECT_GE(stats.latency_max_ms, stats.latency_p99_ms);
  EXPECT_GT(stats.throughput_qps, 0.0);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.mean_batch(), 1.0);
  EXPECT_GE(stats.max_queue_depth, Q.rows());
}

}  // namespace
}  // namespace rbc
