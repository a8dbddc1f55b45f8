// Concurrency stress for the streaming-mutability subsystem: reader threads
// search continuously while writer threads insert and remove rows and the
// adapter's background merge thread rebuilds and swaps snapshots under
// them. Runs under ASan/UBSan and TSan in CI (.github/workflows/ci.yml).
//
// The torn-result oracle is a watermark protocol over deterministic row
// content. Every id's row is a pure function of the id (row_of), so a
// reader can verify, for each returned (id, dist), that the distance is
// bit-identical to recomputing it against row_of(id) — a torn snapshot
// (delta swapped mid-merge, tombstones half-applied, a row read while
// rewritten) would pair an id with bytes that are not its row. Liveness is
// checked against watermarks: the writer publishes an id to `inserted_floor`
// BEFORE inserting and to `removed_floor` only AFTER the remove returns, so
// any id a concurrent search may legally answer lies in the window the
// reader captures around its search. Queries must never block on the
// background merge: the test asserts forward progress (every reader
// completes thousands of searches while merges run) via the 300 s ctest
// timeout on a deadlock.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "common/env.hpp"
#include "distance/metrics.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

constexpr index_t kDim = 8;

// Deterministic row content: id -> row, so readers can re-derive the bytes
// behind any returned id without sharing state with the writers.
void fill_row_of(index_t id, float* out) {
  std::uint32_t state = id * 2654435761u + 12345u;
  for (index_t j = 0; j < kDim; ++j) {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    out[j] = static_cast<float>(state % 1000u) / 250.0f;
  }
}

Matrix<float> rows_for(const std::vector<index_t>& ids) {
  Matrix<float> rows(static_cast<index_t>(ids.size()), kDim);
  for (index_t i = 0; i < rows.rows(); ++i) fill_row_of(ids[i], rows.row(i));
  return rows;
}

void run_stress(const std::string& backend) {
  SCOPED_TRACE(backend);
  constexpr index_t kBase = 256;      // ids [0, kBase) never removed
  constexpr index_t kChurnLo = 1000;  // writer churns ids [kChurnLo, ...)
  // Instrumented builds (TSan ~10-20x) scale the writer down via the env
  // knob; the interleaving coverage comes from the race windows, not the
  // batch count.
  const int kWriterBatches =
      static_cast<int>(env_or("RBC_MUTATE_STRESS_BATCHES", std::int64_t{200}));
  constexpr index_t kBatch = 8;

  IndexOptions options;
  options.rbc.seed = 7;
  options.num_shards = 3;  // for the sharded variant: churn across shards
  options.max_delta = 16;  // small threshold: many background merges
  options.background_merge = true;

  auto index = make_index(backend, options);
  {
    std::vector<index_t> base_ids(kBase);
    for (index_t i = 0; i < kBase; ++i) base_ids[i] = i;
    index->build(rows_for(base_ids));
  }

  // Watermarks: churn ids in [kChurnLo, inserted_floor) have had insert()
  // called; those in [kChurnLo, removed_floor) have had remove() return.
  // A concurrent search may answer churn id x iff x < inserted_floor
  // (captured after the search) and x >= removed_floor (captured before):
  // anything else was either never inserted or provably dead beforehand.
  std::atomic<index_t> inserted_floor{kChurnLo};
  std::atomic<index_t> removed_floor{kChurnLo};
  std::atomic<bool> writers_done{false};
  std::atomic<int> torn_results{0};

  std::thread writer([&] {
    index_t ins = kChurnLo;  // next id to insert
    index_t rem = kChurnLo;  // next id to remove (the oldest live churn id)
    for (int b = 0; b < kWriterBatches; ++b) {
      std::vector<index_t> batch(kBatch);
      for (index_t i = 0; i < kBatch; ++i) batch[i] = ins + i;
      inserted_floor.store(ins + kBatch, std::memory_order_seq_cst);
      index->insert(rows_for(batch), batch);
      ins += kBatch;
      // Remove the oldest live churn ids, so the removed set stays a
      // contiguous prefix [kChurnLo, rem) — the invariant the readers'
      // liveness window relies on. Half the insert rate: the live set
      // keeps growing through delta rows, tombstones, and merges.
      std::vector<index_t> drop(kBatch / 2);
      for (index_t i = 0; i < kBatch / 2; ++i) drop[i] = rem + i;
      const index_t removed = index->remove(drop);
      EXPECT_EQ(removed, kBatch / 2);
      rem += kBatch / 2;
      removed_floor.store(rem, std::memory_order_seq_cst);
    }
    writers_done.store(true, std::memory_order_seq_cst);
  });

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  std::vector<int> searches(kReaders, 0);
  readers.reserve(kReaders);
  // Sharded readers alternate four-row blocks with one-row ones, so the
  // composite's (shard, row block) fan-out races the writer at both sizes.
  const bool sharded = backend.rfind("sharded:", 0) == 0;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      const Matrix<float> block = testutil::random_matrix(4, kDim, 400 + t);
      std::vector<Matrix<float>> singles;
      for (index_t qi = 0; qi < block.rows(); ++qi) {
        singles.emplace_back(1, kDim);
        singles.back().copy_row_from(block, qi, 0);
      }
      const index_t k = 6;
      std::vector<float> row(kDim);
      while (!writers_done.load(std::memory_order_seq_cst) ||
             searches[t] < 50) {
        const Matrix<float>& Q =
            sharded && searches[t] % 2 == 1
                ? singles[static_cast<std::size_t>(searches[t] / 2) % 4]
                : block;
        const index_t removed_before =
            removed_floor.load(std::memory_order_seq_cst);
        const KnnResult r = index->knn_search({.queries = &Q, .k = k}).knn;
        const index_t inserted_after =
            inserted_floor.load(std::memory_order_seq_cst);
        for (index_t qi = 0; qi < Q.rows(); ++qi) {
          for (index_t j = 0; j < k; ++j) {
            const index_t id = r.ids.at(qi, j);
            const dist_t d = r.dists.at(qi, j);
            // Liveness window.
            const bool base_id = id < kBase;
            const bool churn_id = id >= kChurnLo && id < inserted_after &&
                                  id >= removed_before;
            if (!base_id && !churn_id) {
              ++torn_results;
              continue;
            }
            // Content integrity: the distance must be bit-identical to the
            // recomputation against the id's deterministic row.
            fill_row_of(id, row.data());
            const dist_t expected = Euclidean{}(Q.row(qi), row.data(), kDim);
            if (d != expected) ++torn_results;
            // Order integrity.
            if (j > 0 && d < r.dists.at(qi, j - 1)) ++torn_results;
          }
        }
        ++searches[t];
      }
    });
  }

  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(torn_results.load(), 0)
      << backend << " returned torn results under concurrent mutation";
  for (int t = 0; t < kReaders; ++t)
    EXPECT_GE(searches[t], 50)
        << backend << " reader " << t << " was starved";

  // After the dust settles the index must be consistent: compact joins the
  // last merge and the live set matches the watermark bookkeeping.
  index->compact();
  const IndexInfo info = index->info();
  EXPECT_EQ(info.delta_rows, 0u);
  EXPECT_EQ(info.tombstones, 0u);
  const index_t churned = inserted_floor.load() - kChurnLo;
  const index_t removed = removed_floor.load() - kChurnLo;
  EXPECT_EQ(info.size, kBase + churned - removed);
}

TEST(MutateStress, BruteForceReadersNeverSeeTornResults) {
  run_stress("bruteforce");
}

TEST(MutateStress, RbcExactReadersNeverSeeTornResults) {
  run_stress("rbc-exact");
}

TEST(MutateStress, ShardedBruteForceReadersNeverSeeTornResults) {
  run_stress("sharded:bruteforce");
}

}  // namespace
}  // namespace rbc
