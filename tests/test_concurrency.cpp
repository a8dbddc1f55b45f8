// Thread-safety of const query paths: a built index is immutable, so any
// number of threads may search it concurrently; results must match the
// serial reference exactly. (CP.2: no data races — the test runs under the
// same build the sanitizer CI would use.)
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/writer_priority_mutex.hpp"
#include "dist/distributed_rbc.hpp"
#include "rbc/rbc.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

TEST(Concurrency, ParallelExactSearchesMatchSerial) {
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(2'064, 10, 6, 1),
                           2'000);
  RbcExactIndex<> index;
  index.build(X, {.seed = 2});

  const KnnResult reference = index.search(Q, 3);

  constexpr int kThreads = 8;
  std::vector<KnnResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      // Each thread runs its own single-query loop with private scratch.
      KnnResult mine(Q.rows(), 3);
      RbcExactIndex<>::Scratch scratch;
      TopK top(3);
      for (index_t qi = 0; qi < Q.rows(); ++qi) {
        top.reset();
        index.search_one(Q.row(qi), 3, top, scratch);
        top.extract_sorted(mine.dists.row(qi), mine.ids.row(qi));
      }
      results[static_cast<std::size_t>(t)] = std::move(mine);
    });
  for (auto& thread : threads) thread.join();

  for (const KnnResult& r : results)
    EXPECT_TRUE(testutil::knn_equal(reference, r));
}

TEST(Concurrency, ParallelOneShotSearchesMatchSerial) {
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(1'050, 8, 5, 3),
                           1'000);
  RbcOneShotIndex<> index;
  index.build(X, {.num_reps = 40, .points_per_rep = 40, .seed = 4});

  const KnnResult reference = index.search(Q, 2);

  std::vector<std::thread> threads;
  std::vector<KnnResult> results(6);
  for (int t = 0; t < 6; ++t)
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] = index.search(Q, 2);
    });
  for (auto& thread : threads) thread.join();
  for (const KnnResult& r : results)
    EXPECT_TRUE(testutil::knn_equal(reference, r));
}

TEST(Concurrency, ConcurrentRangeSearches) {
  const Matrix<float> X = testutil::clustered_matrix(1'000, 8, 5, 5);
  const Matrix<float> Q = testutil::random_matrix(32, 8, 6, -6.0f, 6.0f);
  RbcExactIndex<> index;
  index.build(X, {.seed = 7});

  std::vector<std::vector<index_t>> reference(Q.rows());
  for (index_t qi = 0; qi < Q.rows(); ++qi)
    reference[qi] = index.range_search(Q.row(qi), 2.0f);

  std::vector<std::thread> threads;
  // char, not bool: std::vector<bool> packs neighbouring flags into one
  // word, so four threads writing their own flag would race.
  std::vector<char> ok(4, 0);
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      bool all_equal = true;
      for (index_t qi = 0; qi < Q.rows(); ++qi)
        if (index.range_search(Q.row(qi), 2.0f) != reference[qi])
          all_equal = false;
      ok[static_cast<std::size_t>(t)] = all_equal;
    });
  for (auto& thread : threads) thread.join();
  for (const char flag : ok) EXPECT_TRUE(flag);
}

TEST(Concurrency, DistributedSearchFromMultipleThreads) {
  const auto [X, Q] =
      testutil::split_rows(testutil::clustered_matrix(1'040, 9, 6, 8),
                           1'000);
  dist::DistributedRbc cluster;
  cluster.build(X, 4, {.seed = 9});

  const KnnResult reference = testutil::naive_knn(Q, X, 2);
  std::vector<std::thread> threads;
  std::vector<KnnResult> results(4);
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] = cluster.search(Q, 2);
    });
  for (auto& thread : threads) thread.join();
  for (const KnnResult& r : results)
    EXPECT_TRUE(testutil::knn_equal(reference, r));
}

// The lock ShardedIndex guards its routing state with: once a writer
// queues, no reader arriving after it gets in until the writer is done, so
// overlapping searches cannot hold a writer off indefinitely (with
// std::shared_mutex they can). No sleeps: the test waits until
// try_lock_shared() reports the writer queued, and every assertion holds
// under any scheduling.
TEST(Concurrency, WriterPriorityMutexQueuesNewReadersBehindAWaitingWriter) {
  using namespace std::chrono_literals;
  WriterPriorityMutex mutex;
  std::atomic<int> step{0};
  int writer_saw = -1, late_reader_saw = -1;

  std::shared_lock first_reader(mutex);
  EXPECT_FALSE(mutex.try_lock()) << "a writer got in beside a reader";
  std::thread writer([&] {
    std::unique_lock lock(mutex);
    writer_saw = step.fetch_add(1);
  });
  // New readers get in until the writer has queued, and none after. A
  // reader-preferring lock keeps admitting them until the deadline.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  bool queued = false;
  while (!queued && std::chrono::steady_clock::now() < deadline) {
    queued = !mutex.try_lock_shared();
    if (!queued) {
      mutex.unlock_shared();
      std::this_thread::yield();
    }
  }
  std::thread late_reader([&] {
    std::shared_lock lock(mutex);
    late_reader_saw = step.fetch_add(1);
  });
  EXPECT_EQ(step.load(), 0) << "someone entered while a reader held the lock";
  first_reader.unlock();
  writer.join();
  late_reader.join();
  EXPECT_TRUE(queued) << "new readers still got in beside a waiting writer";
  EXPECT_EQ(writer_saw, 0) << "the late reader overtook the queued writer";
  EXPECT_EQ(late_reader_saw, 1);

  // Readers still share the lock with each other.
  {
    std::shared_lock a(mutex);
    EXPECT_TRUE(mutex.try_lock_shared());
    mutex.unlock_shared();
    std::thread other([&] { std::shared_lock b(mutex); });
    other.join();
  }
  // A writer holding the lock keeps everyone else out.
  ASSERT_TRUE(mutex.try_lock());
  EXPECT_FALSE(mutex.try_lock());
  EXPECT_FALSE(mutex.try_lock_shared());
  mutex.unlock();
  EXPECT_TRUE(mutex.try_lock_shared());
  mutex.unlock_shared();
}

}  // namespace
}  // namespace rbc
