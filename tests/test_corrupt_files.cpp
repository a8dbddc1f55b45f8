// Corrupt-file regression tests for rbc::load_index's magic dispatch: a
// truncated, bit-flipped, or length-corrupted stream must fail with a clear
// std::runtime_error — never UB, an abort, or a garbage-length allocation.
// Covers every serializable registered backend (including the sharded
// composite, whose loader recurses through load_index per shard).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "metricspace/dataset.hpp"
#include "rbc/rbc_exact.hpp"
#include "rbc/serialize_io.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

/// Serialized bytes of a small built index for the given backend, or empty
/// when the backend does not support save.
std::string saved_bytes(const std::string& backend) {
  auto index = make_index(backend, {.rbc = {.seed = 51}, .num_shards = 3});
  index->build(testutil::clustered_matrix(120, 6, 4, 52));
  if (!index->info().supports_save) return {};
  std::stringstream stream;
  index->save(stream);
  return stream.str();
}

TEST(CorruptFiles, TruncationAtEveryRegionThrowsCleanly) {
  for (const std::string& backend : registered_backends()) {
    const std::string bytes = saved_bytes(backend);
    if (bytes.empty()) continue;
    // Cut inside the magic, the header, and the payload, plus one byte
    // short of complete — each must throw std::runtime_error (and only
    // that), leaving no UB for the driver to hit.
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{2}, std::size_t{7}, bytes.size() / 3,
          bytes.size() / 2, bytes.size() - 1}) {
      SCOPED_TRACE(backend + " truncated to " + std::to_string(cut) +
                   " of " + std::to_string(bytes.size()) + " bytes");
      std::stringstream stream(bytes.substr(0, cut));
      EXPECT_THROW((void)load_index(stream), std::runtime_error);
    }
    // The untruncated bytes still load (the cuts failed for the right
    // reason).
    std::stringstream intact(bytes);
    EXPECT_NO_THROW((void)load_index(intact)) << backend;
  }
}

TEST(CorruptFiles, UnknownMagicIsRejectedWithAClearError) {
  std::stringstream garbage("definitely not an rbc index file");
  try {
    (void)load_index(garbage);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << "error should mention the magic: " << e.what();
  }

  std::stringstream empty;
  EXPECT_THROW((void)load_index(empty), std::runtime_error);

  std::stringstream two_bytes("ab");
  EXPECT_THROW((void)load_index(two_bytes), std::runtime_error);
}

TEST(CorruptFiles, GarbageLengthFieldFailsBeforeAllocating) {
  // A valid magic followed by an absurd matrix header: the loader must
  // reject the claimed size against the actual stream length instead of
  // attempting a multi-gigabyte (or overflowing) allocation.
  std::stringstream stream;
  io::write_pod(stream, io::kMagicBruteForce);
  io::write_pod(stream, io::kFormatVersion);
  io::write_pod(stream, index_t{0xFFFFFFFFu});  // rows
  io::write_pod(stream, index_t{0xFFFFFFFFu});  // cols
  EXPECT_THROW((void)load_index(stream), std::runtime_error);
}

TEST(CorruptFiles, ShardedStreamWithGarbageHeaderCountsFailsBeforeAllocating) {
  // Bit-flipped num_shards / row-count fields must be rejected against the
  // actual stream length, not fed to the partition-table allocation.
  {
    std::stringstream stream;
    io::write_pod(stream, io::kMagicSharded);
    io::write_pod(stream, io::kFormatVersion);
    io::write_string(stream, "bruteforce");
    io::write_string(stream, "contiguous");
    io::write_pod(stream, index_t{0x7FFFFFFFu});  // num_shards
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
  {
    std::stringstream stream;
    io::write_pod(stream, io::kMagicSharded);
    io::write_pod(stream, io::kFormatVersion);
    io::write_string(stream, "bruteforce");
    io::write_string(stream, "contiguous");
    io::write_pod(stream, index_t{2});            // num_shards
    io::write_pod(stream, index_t{0xFFFFFFFFu});  // rows
    io::write_pod(stream, index_t{4});            // dim
    io::write_pod(stream, std::uint64_t{2});      // stored shard count
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
}

TEST(CorruptFiles, ShardedStreamWithCorruptInnerNameThrows) {
  // A sharded header whose inner-backend name is garbage is a corrupt
  // file, reported as runtime_error (not the factory's invalid_argument).
  std::stringstream stream;
  io::write_pod(stream, io::kMagicSharded);
  io::write_pod(stream, io::kFormatVersion);
  io::write_string(stream, "no-such-backend");
  io::write_string(stream, "contiguous");
  io::write_pod(stream, index_t{2});  // num_shards
  EXPECT_THROW((void)load_index(stream), std::runtime_error);
}

TEST(CorruptFiles, UnknownMetricTagIsRejectedAsCorruption) {
  // A version-2 header whose metric tag is not in the registry is file
  // corruption: std::runtime_error (never the factory's invalid_argument,
  // which is reserved for caller errors).
  {
    std::stringstream stream;
    io::write_pod(stream, io::kMagicBruteForce);
    io::write_metric_header(stream, "no-such-metric");
    io::write_pod(stream, index_t{1});  // rows
    io::write_pod(stream, index_t{1});  // cols
    io::write_pod(stream, 1.0f);
    try {
      (void)load_index(stream);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("metric"), std::string::npos)
          << "error should mention the metric tag: " << e.what();
    }
  }
  {
    // Tree formats share the header helper; kdtree declares l2/cosine only,
    // so a stored "l1" tag is corruption for it too.
    std::stringstream stream;
    io::write_pod(stream, io::kMagicKdTree);
    io::write_metric_header(stream, "l1");
    io::write_pod(stream, index_t{16});  // leaf_size
    io::write_pod(stream, index_t{1});   // rows
    io::write_pod(stream, index_t{1});   // cols
    io::write_pod(stream, 1.0f);
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
  {
    // Sharded header with a garbage metric tag.
    std::stringstream stream;
    io::write_pod(stream, io::kMagicSharded);
    io::write_metric_header(stream, "no-such-metric");
    io::write_string(stream, "bruteforce");
    io::write_string(stream, "contiguous");
    io::write_pod(stream, index_t{2});
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
  {
    // An unknown (version 6 — one past the mutable-storage v5) header is
    // rejected, not misparsed as some future format.
    std::stringstream stream;
    io::write_pod(stream, io::kMagicBruteForce);
    io::write_pod(stream, std::uint32_t{6});
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
}

TEST(CorruptFiles, QuantizedIndexesRoundTripThroughSaveAndLoad) {
  // Compressed-storage indexes persist their storage tag (format v5 through
  // make_index's mutable wrapper, v4 for raw streams) and their code store;
  // a reloaded index answers identically and reports the same storage.
  const Matrix<float> X = testutil::clustered_matrix(120, 6, 4, 70);
  const Matrix<float> Q = testutil::random_matrix(5, 6, 71);
  for (const std::string backend :
       {"bruteforce", "rbc-exact", "rbc-oneshot", "sharded:rbc-exact"}) {
    for (const std::string storage : {"fp16", "int8"}) {
      SCOPED_TRACE(backend + " / " + storage);
      IndexOptions options{.rbc = {.seed = 72}, .num_shards = 3};
      options.storage = storage;
      auto index = make_index(backend, options);
      index->build(X);
      std::stringstream stream;
      index->save(stream);
      const auto restored = load_index(stream);
      EXPECT_EQ(restored->info().storage, storage);
      EXPECT_EQ(restored->info().size, X.rows());
      EXPECT_TRUE(testutil::knn_equal(
          index->knn_search({.queries = &Q, .k = 4}).knn,
          restored->knn_search({.queries = &Q, .k = 4}).knn));
    }
  }
  // Cosine composes with storage through the same normalized-rows path.
  {
    IndexOptions options{.metric = "cosine"};
    options.storage = "int8";
    auto index = make_index("bruteforce", options);
    index->build(X);
    std::stringstream stream;
    index->save(stream);
    const auto restored = load_index(stream);
    EXPECT_EQ(restored->info().metric, "cosine");
    EXPECT_EQ(restored->info().storage, "int8");
    EXPECT_TRUE(testutil::knn_equal(
        index->knn_search({.queries = &Q, .k = 3}).knn,
        restored->knn_search({.queries = &Q, .k = 3}).knn));
  }
}

/// A hand-written raw (non-mutable) version-4 bruteforce stream: magic,
/// v4 header (metric + storage tags), float matrix, quantized store —
/// exactly the layout the raw backend's save() emits.
std::string raw_v4_bruteforce_bytes(const Matrix<float>& X,
                                    quant::Storage mode) {
  std::stringstream stream;
  io::write_pod(stream, io::kMagicBruteForce);
  io::write_storage_header(stream, "l2", quant::name(mode));
  io::write_matrix(stream, X);
  io::write_quantized_store(stream, quant::quantize(mode, X));
  return stream.str();
}

TEST(CorruptFiles, RawVersion4StreamsLoadAndRejectTruncatedStores) {
  const Matrix<float> X = testutil::clustered_matrix(80, 5, 3, 73);
  const Matrix<float> Q = testutil::random_matrix(4, 5, 74);
  auto fresh = make_index("bruteforce");
  fresh->build(X);
  const KnnResult expected = fresh->knn_search({.queries = &Q, .k = 3}).knn;

  for (const quant::Storage mode :
       {quant::Storage::kFp16, quant::Storage::kInt8}) {
    const std::string bytes = raw_v4_bruteforce_bytes(X, mode);
    SCOPED_TRACE(quant::name(mode));
    // The intact stream loads, reports its storage, and (exact re-measure)
    // answers bit-identically to the float32 index.
    std::stringstream intact(bytes);
    const auto index = load_index(intact);
    EXPECT_EQ(index->info().storage, quant::name(mode));
    EXPECT_TRUE(testutil::knn_equal(
        expected, index->knn_search({.queries = &Q, .k = 3}).knn));

    // Every cut inside the appended quantized-store region — the bytes a
    // crash mid-save would truncate — throws cleanly.
    std::stringstream prefix_stream;
    io::write_pod(prefix_stream, io::kMagicBruteForce);
    io::write_storage_header(prefix_stream, "l2", quant::name(mode));
    io::write_matrix(prefix_stream, X);
    const std::size_t prefix = prefix_stream.str().size();
    ASSERT_GT(bytes.size(), prefix);
    const std::size_t tail = bytes.size() - prefix;
    for (const std::size_t cut :
         {prefix, prefix + tail / 4, prefix + tail / 2, bytes.size() - 1}) {
      SCOPED_TRACE("truncated to " + std::to_string(cut) + " of " +
                   std::to_string(bytes.size()) + " bytes");
      std::stringstream stream(bytes.substr(0, cut));
      EXPECT_THROW((void)load_index(stream), std::runtime_error);
    }
  }
}

TEST(CorruptFiles, CorruptStorageTagsAndStoreFieldsAreRejected) {
  const Matrix<float> X = testutil::clustered_matrix(40, 4, 3, 75);
  // Raw v4 header carrying an unregistered storage tag: corruption
  // (runtime_error naming the tag), never the factory's invalid_argument.
  {
    std::stringstream stream;
    io::write_pod(stream, io::kMagicBruteForce);
    io::write_pod(stream, io::kFormatVersionStorage);
    io::write_string(stream, "l2");
    io::write_string(stream, "int4");
    io::write_matrix(stream, X);
    try {
      (void)load_index(stream);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("storage"), std::string::npos)
          << "error should mention the storage tag: " << e.what();
    }
  }
  // Mutable v5 header with an unknown storage tag.
  {
    std::stringstream stream;
    io::write_pod(stream, io::kMagicBruteForce);
    io::write_pod(stream, io::kFormatVersionMutableStorage);
    io::write_string(stream, "l2");
    io::write_string(stream, "int4");
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
  // A store whose mode byte is garbage fails in read_quantized_store.
  {
    std::string bytes = raw_v4_bruteforce_bytes(X, quant::Storage::kInt8);
    std::stringstream prefix;
    io::write_pod(prefix, io::kMagicBruteForce);
    io::write_storage_header(prefix, "l2", "int8");
    io::write_matrix(prefix, X);
    bytes[prefix.str().size()] = 0x7F;  // first byte of the store's mode
    std::stringstream stream(bytes);
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
  // A store whose shape disagrees with the matrix (one row short) is
  // rejected instead of silently scanning the wrong geometry.
  {
    const Matrix<float> X_short = testutil::clustered_matrix(39, 4, 3, 75);
    std::stringstream stream;
    io::write_pod(stream, io::kMagicBruteForce);
    io::write_storage_header(stream, "l2", "int8");
    io::write_matrix(stream, X);
    io::write_quantized_store(stream,
                              quant::quantize(quant::Storage::kInt8, X_short));
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
}

TEST(CorruptFiles, TruncatedMutableDeltaAndTombstoneSectionsThrowCleanly) {
  // Version-3 streams append the delta rows, delta ids, and tombstone list
  // after the main section. Save the same logical index twice — once
  // compacted (clean tail) and once with a live delta + tombstones — so
  // every cut between the two lengths provably lands inside the mutation
  // sections, the exact bytes a crash mid-append would truncate.
  const Matrix<float> X = testutil::clustered_matrix(40, 6, 4, 55);
  IndexOptions options{.rbc = {.seed = 56}};
  options.max_delta = 64;  // keep the delta unmerged across save
  options.background_merge = false;

  auto index = make_index("bruteforce", options);
  index->build(X);
  Matrix<float> extra = testutil::random_matrix(5, 6, 57);
  index->insert(extra, std::vector<index_t>{100, 101, 102, 103, 104});
  EXPECT_EQ(index->remove(std::vector<index_t>{3, 17, 102}), 3u);
  ASSERT_GT(index->info().delta_rows, 0u);
  ASSERT_GT(index->info().tombstones, 0u);

  std::stringstream mutated_stream;
  index->save(mutated_stream);
  const std::string mutated = mutated_stream.str();
  index->compact();
  std::stringstream clean_stream;
  index->save(clean_stream);
  const std::size_t clean_size = clean_stream.str().size();
  ASSERT_GT(mutated.size(), clean_size);

  const std::size_t tail = mutated.size() - clean_size;
  for (const std::size_t cut :
       {clean_size, clean_size + tail / 4, clean_size + tail / 2,
        mutated.size() - 1}) {
    SCOPED_TRACE("truncated to " + std::to_string(cut) + " of " +
                 std::to_string(mutated.size()) + " bytes");
    std::stringstream stream(mutated.substr(0, cut));
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
  // The untruncated mutated stream still loads with its delta and
  // tombstones intact (the cuts above failed for the right reason).
  std::stringstream intact(mutated);
  // Removing delta-resident id 102 dropped its row in place; removing main
  // ids 3 and 17 tombstoned them — so the tail holds 4 delta rows + 2
  // tombstones.
  const auto restored = load_index(intact);
  EXPECT_EQ(restored->info().delta_rows, 4u);
  EXPECT_EQ(restored->info().tombstones, 2u);
  EXPECT_EQ(restored->info().size, 42u);
}

TEST(CorruptFiles, LegacyVersion1FilesLoadAsL2) {
  const Matrix<float> X = testutil::clustered_matrix(60, 5, 3, 53);
  const Matrix<float> Q = testutil::random_matrix(4, 5, 54);

  // Hand-written pre-metric bruteforce file: magic, version 1, matrix.
  {
    std::stringstream stream;
    io::write_pod(stream, io::kMagicBruteForce);
    io::write_pod(stream, io::kFormatVersion);
    io::write_matrix(stream, X);
    const auto index = load_index(stream);
    EXPECT_EQ(index->info().metric, "l2");
    EXPECT_EQ(index->info().size, X.rows());
    auto fresh = make_index("bruteforce");
    fresh->build(X);
    EXPECT_TRUE(testutil::knn_equal(
        fresh->knn_search({.queries = &Q, .k = 3}).knn,
        index->knn_search({.queries = &Q, .k = 3}).knn));
  }
  // Pre-metric kdtree file: magic, version 1, leaf_size, matrix.
  {
    std::stringstream stream;
    io::write_pod(stream, io::kMagicKdTree);
    io::write_pod(stream, io::kFormatVersion);
    io::write_pod(stream, index_t{16});
    io::write_matrix(stream, X);
    const auto index = load_index(stream);
    EXPECT_EQ(index->info().backend, "kdtree");
    EXPECT_EQ(index->info().metric, "l2");
  }
  // A concrete-class RbcExactIndex stream (its own version-1 format) must
  // still load through the wrapper's legacy rewind path as "l2".
  {
    RbcExactIndex<Euclidean> concrete;
    concrete.build(X, {.num_reps = 8, .seed = 5});
    std::stringstream stream;
    concrete.save(stream);
    const auto index = load_index(stream);
    EXPECT_EQ(index->info().backend, "rbc-exact");
    EXPECT_EQ(index->info().metric, "l2");
    auto fresh = make_index("bruteforce");
    fresh->build(X);
    EXPECT_TRUE(testutil::knn_equal(
        fresh->knn_search({.queries = &Q, .k = 3}).knn,
        index->knn_search({.queries = &Q, .k = 3}).knn));
  }
  // Pre-metric sharded header over modern inner streams: the composite's
  // legacy path defaults the metric to l2 and still validates the shards.
  {
    auto sharded = make_index("sharded:bruteforce", {.num_shards = 2});
    sharded->build(X);
    std::stringstream modern;
    sharded->save(modern);
    // Rewrite the header: magic + v1 (no metric tag), then splice the rest
    // of the modern stream (inner name onward) unchanged.
    const std::string bytes = modern.str();
    const std::size_t metric_header =
        sizeof(io::kMagicSharded) + sizeof(io::kFormatVersionMetric) +
        sizeof(std::uint64_t) + std::string("l2").size();
    std::stringstream legacy;
    io::write_pod(legacy, io::kMagicSharded);
    io::write_pod(legacy, io::kFormatVersion);
    legacy << bytes.substr(metric_header);
    const auto index = load_index(legacy);
    EXPECT_EQ(index->info().backend, "sharded:bruteforce");
    EXPECT_EQ(index->info().metric, "l2");
    EXPECT_EQ(index->info().size, X.rows());
  }
}

// --------------------------------------- concrete RbcExactIndex streams --
// The bare concrete stream (the version-1 layout load_index reaches through
// the rbc-exact legacy rewind, and a server RELOAD with it) carries the CSR
// list layout that search indexes without bounds checks. The loader must
// reject any stream whose layout is inconsistent instead of handing it to
// a query.

/// The fields of a saved RbcExactIndex<Euclidean> stream, parsed back so a
/// fixture can break one invariant and re-serialize the rest unchanged.
struct ExactStream {
  index_t n = 0;
  index_t dim = 0;
  RbcParams params;
  std::vector<index_t> rep_ids;
  std::vector<dist_t> psi;
  std::vector<index_t> offsets;
  std::vector<index_t> packed_ids;
  std::vector<dist_t> packed_dist;
  Matrix<float> reps;
  Matrix<float> packed;
  std::string tail;  // the dynamic-update tail, byte for byte

  explicit ExactStream(const std::string& bytes) {
    std::stringstream is(bytes);
    io::expect_pod(is, io::kMagicExact, "magic");
    io::expect_pod(is, io::kFormatVersion, "version");
    io::expect_string(is, Euclidean::name(), "metric");
    io::read_pod(is, n);
    io::read_pod(is, dim);
    io::read_pod(is, params);
    io::read_vec(is, rep_ids);
    io::read_vec(is, psi);
    io::read_vec(is, offsets);
    io::read_vec(is, packed_ids);
    io::read_vec(is, packed_dist);
    reps = io::read_matrix(is);
    packed = io::read_matrix(is);
    tail = bytes.substr(static_cast<std::size_t>(is.tellg()));
  }

  std::string bytes() const {
    std::stringstream os;
    io::write_pod(os, io::kMagicExact);
    io::write_pod(os, io::kFormatVersion);
    io::write_string(os, Euclidean::name());
    io::write_pod(os, n);
    io::write_pod(os, dim);
    io::write_pod(os, params);
    io::write_vec(os, rep_ids);
    io::write_vec(os, psi);
    io::write_vec(os, offsets);
    io::write_vec(os, packed_ids);
    io::write_vec(os, packed_dist);
    io::write_matrix(os, reps);
    io::write_matrix(os, packed);
    os << tail;
    return os.str();
  }
};

/// A dynamic-update tail as the former in-place insert/erase path wrote it:
/// `inserted` overflow rows (ids n, n + 1, ... owned by representative 0)
/// and `erased` tombstones on ids 0, 1, ...
std::string dynamic_tail(index_t n, index_t nr, index_t dim,
                         index_t inserted, index_t erased) {
  std::stringstream os;
  const index_t next_id = n + inserted;
  io::write_pod(os, next_id);
  io::write_pod(os, erased);
  std::vector<std::uint8_t> flags(next_id, 0);
  for (index_t id = 0; id < erased; ++id) flags[id] = 1;
  io::write_vec(os, flags);
  io::write_vec(os, std::vector<float>(std::size_t{inserted} * dim, 0.5f));
  std::vector<index_t> ids;
  for (index_t i = 0; i < inserted; ++i) ids.push_back(n + i);
  io::write_vec(os, ids);
  io::write_vec(os, std::vector<dist_t>(inserted, 1.0f));
  io::write_pod(os, static_cast<std::uint64_t>(nr));
  for (index_t r = 0; r < nr; ++r) {
    std::vector<index_t> list;
    if (r == 0)
      for (index_t i = 0; i < inserted; ++i) list.push_back(i);
    io::write_vec(os, list);
  }
  return os.str();
}

TEST(CorruptFiles, InconsistentConcreteExactStreamsAreRejected) {
  const Matrix<float> X = testutil::clustered_matrix(200, 5, 4, 76);
  const Matrix<float> Q = testutil::random_matrix(4, 5, 77);
  RbcExactIndex<Euclidean> concrete;
  concrete.build(X, {.num_reps = 9, .seed = 78});
  std::stringstream saved;
  concrete.save(saved);
  const std::string bytes = saved.str();
  const ExactStream intact(bytes);
  const index_t n = intact.n;
  const index_t nr = intact.reps.rows();

  // The parse/re-serialize round trip is exact, and the intact stream loads
  // and answers like brute force.
  ASSERT_EQ(intact.bytes(), bytes);
  ASSERT_EQ(intact.tail, dynamic_tail(n, nr, intact.dim, 0, 0));
  {
    std::stringstream stream(intact.bytes());
    const auto index = load_index(stream);
    auto fresh = make_index("bruteforce");
    fresh->build(X);
    EXPECT_TRUE(testutil::knn_equal(
        fresh->knn_search({.queries = &Q, .k = 3}).knn,
        index->knn_search({.queries = &Q, .k = 3}).knn));
  }

  const std::vector<std::pair<std::string, void (*)(ExactStream&)>> breaks = {
      {"last list offset past n",
       [](ExactStream& s) { s.offsets.back() += 5; }},
      {"first list offset not 0",
       [](ExactStream& s) { s.offsets.front() = 1; }},
      {"list offsets decrease",
       [](ExactStream& s) { std::swap(s.offsets[1], s.offsets[2]); }},
      {"one offset too few", [](ExactStream& s) { s.offsets.pop_back(); }},
      {"empty psi", [](ExactStream& s) { s.psi.clear(); }},
      {"representative id past n",
       [](ExactStream& s) { s.rep_ids[0] = s.n + 100; }},
      {"one representative id too few",
       [](ExactStream& s) { s.rep_ids.pop_back(); }},
      {"packed id past n", [](ExactStream& s) { s.packed_ids[7] = s.n; }},
      {"packed ids short", [](ExactStream& s) { s.packed_ids.pop_back(); }},
      {"packed distances short",
       [](ExactStream& s) { s.packed_dist.pop_back(); }},
      {"packed rows short",
       [](ExactStream& s) {
         Matrix<float> rows(s.packed.rows() - 1, s.packed.cols());
         for (index_t i = 0; i < rows.rows(); ++i)
           rows.copy_row_from(s.packed, i, i);
         s.packed = std::move(rows);
       }},
  };
  ASSERT_LT(intact.offsets[1], intact.offsets[2]);  // the swap must decrease
  for (const auto& [what, corrupt] : breaks) {
    SCOPED_TRACE(what);
    ExactStream broken(bytes);
    corrupt(broken);
    std::stringstream stream(broken.bytes());
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }

  // A non-empty dynamic tail (tombstones, inserted rows, or both) came from
  // the removed in-place mutation path; this version cannot represent it.
  for (const auto& [inserted, erased] :
       {std::pair<index_t, index_t>{0, 1}, {1, 0}, {3, 2}}) {
    SCOPED_TRACE("inserted=" + std::to_string(inserted) +
                 " erased=" + std::to_string(erased));
    ExactStream mutated(bytes);
    mutated.tail = dynamic_tail(n, nr, intact.dim, inserted, erased);
    std::stringstream stream(mutated.bytes());
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
}

// ------------------------------------------ payload (v6) corrupt fixtures --
// The generic metric-space format: kMagicPayload, version 6, host backend
// tag, metric-space tag, RbcParams, then the serialized dataset (kind tag +
// store). Each fixture forges the bytes a bit-flip or torn write would
// produce and pins the clean runtime_error the loader must answer with.

/// Serialized bytes of a small payload index (strings under "edit").
std::string saved_payload_bytes(const std::string& backend) {
  std::vector<std::string> words;
  for (int i = 0; i < 40; ++i)
    words.push_back("word" + std::to_string(i % 13) + std::to_string(i));
  IndexOptions options{.rbc = {.seed = 58}, .num_shards = 3};
  options.metric = "edit";
  auto index = make_index(backend, options);
  index->build_payload(metricspace::make_string_dataset(std::move(words)));
  std::stringstream stream;
  index->save(stream);
  return stream.str();
}

/// The v6 header bytes up to (and excluding) the dataset payload.
void write_payload_header(std::ostream& os, const std::string& backend,
                          const std::string& metric) {
  io::write_pod(os, io::kMagicPayload);
  io::write_pod(os, io::kFormatVersionPayload);
  io::write_string(os, backend);
  io::write_string(os, metric);
  io::write_pod(os, RbcParams{});
}

TEST(CorruptFiles, PayloadTruncationAtEveryRegionThrowsCleanly) {
  for (const std::string backend :
       {"bruteforce", "rbc-exact", "rbc-oneshot", "sharded:rbc-exact"}) {
    const std::string bytes = saved_payload_bytes(backend);
    ASSERT_FALSE(bytes.empty()) << backend;
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{2}, std::size_t{7}, bytes.size() / 3,
          bytes.size() / 2, bytes.size() - 1}) {
      SCOPED_TRACE(backend + " truncated to " + std::to_string(cut) + " of " +
                   std::to_string(bytes.size()) + " bytes");
      std::stringstream stream(bytes.substr(0, cut));
      EXPECT_THROW((void)load_index(stream), std::runtime_error);
    }
    std::stringstream intact(bytes);
    const auto restored = load_index(intact);
    EXPECT_EQ(restored->info().backend, backend);
    EXPECT_EQ(restored->info().metric, "edit");
    EXPECT_TRUE(restored->info().payload) << backend;
  }
}

TEST(CorruptFiles, PayloadTableWithGarbageCountFailsBeforeAllocating) {
  // A corrupt item count must be rejected against the remaining stream
  // length (8 length-bytes per item is the floor) before the table is
  // allocated for it.
  std::stringstream stream;
  write_payload_header(stream, "bruteforce", "edit");
  io::write_string(stream, "strings");
  io::write_pod(stream, std::uint64_t{1} << 27);  // items that aren't there
  try {
    (void)load_index(stream);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("payload table"), std::string::npos)
        << "error should mention the payload table: " << e.what();
  }
  // A count beyond kMaxPayloadItems is rejected by the absolute cap even
  // if a huge stream could cover it.
  std::stringstream absurd;
  write_payload_header(absurd, "bruteforce", "edit");
  io::write_string(absurd, "strings");
  io::write_pod(absurd, std::uint64_t{1} << 40);
  EXPECT_THROW((void)load_index(absurd), std::runtime_error);
}

TEST(CorruptFiles, OversizedStringLengthIsRejectedAsCorruption) {
  // One stored string whose length field exceeds kMaxPayloadBytes: the
  // loader must refuse the allocation, naming the oversized length.
  std::stringstream stream;
  write_payload_header(stream, "bruteforce", "edit");
  io::write_string(stream, "strings");
  io::write_pod(stream, std::uint64_t{2});
  io::write_string(stream, "fine");
  io::write_pod(stream, metricspace::kMaxPayloadBytes + 1);  // length field
  stream << "x";
  try {
    (void)load_index(stream);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("oversized string length"),
              std::string::npos)
        << "error should mention the oversized length: " << e.what();
  }
}

TEST(CorruptFiles, PayloadStreamWithBadTagsIsRejected) {
  // Unknown metric-space tag: corruption, named in the error.
  {
    std::stringstream stream;
    write_payload_header(stream, "rbc-exact", "no-such-space");
    io::write_string(stream, "strings");
    io::write_pod(stream, std::uint64_t{0});
    try {
      (void)load_index(stream);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("metric-space tag"),
                std::string::npos)
          << "error should mention the metric tag: " << e.what();
    }
  }
  // Unknown host-backend tag.
  {
    std::stringstream stream;
    write_payload_header(stream, "no-such-host", "edit");
    try {
      (void)load_index(stream);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("backend tag"), std::string::npos)
          << "error should mention the backend tag: " << e.what();
    }
  }
  // Unknown dataset kind tag.
  {
    std::stringstream stream;
    write_payload_header(stream, "bruteforce", "edit");
    io::write_string(stream, "blobs");
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
  // A future payload version is rejected, not misparsed.
  {
    std::stringstream stream;
    io::write_pod(stream, io::kMagicPayload);
    io::write_pod(stream, std::uint32_t{7});
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
  // A dataset whose kind disagrees with the header's metric (a "graph"
  // store under "edit") is stream corruption — runtime_error, never the
  // factory's invalid_argument.
  {
    std::stringstream stream;
    write_payload_header(stream, "bruteforce", "edit");
    metricspace::make_graph_dataset(4, {{0, 1, 1.0f}, {1, 2, 1.0f},
                                        {2, 3, 1.0f}})
        ->save(stream);
    try {
      (void)load_index(stream);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("corrupt payload stream"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CorruptFiles, FlippedMagicByteIsRejected) {
  const std::string bytes = saved_bytes("rbc-exact");
  ASSERT_FALSE(bytes.empty());
  std::string flipped = bytes;
  flipped[0] = static_cast<char>(flipped[0] ^ 0x5A);
  std::stringstream stream(flipped);
  EXPECT_THROW((void)load_index(stream), std::runtime_error);
}

// ------------------------------------------- atomic on-disk persistence --
// save_index's atomic-replace protocol (api/persist.hpp): `path` only ever
// holds a complete index — the previous good one or the new one — no
// matter where a failed or interrupted save lands.

/// An index whose save() writes a partial stream and then dies — the
/// worst-case serialization failure an atomic saver must contain.
class ExplodingSaveIndex : public Index {
 public:
  void build(const Matrix<float>&) override {}
  SearchResponse knn_search(const SearchRequest&) const override {
    throw std::runtime_error("not a real index");
  }
  IndexInfo info() const override { return {.backend = "exploding"}; }
  void save(std::ostream& os) const override {
    os << "half a file";
    throw std::runtime_error("disk on fire mid-serialize");
  }
};

TEST(CorruptFiles, SaveIndexRoundTripsThroughTheFilesystem) {
  const Matrix<float> X = testutil::clustered_matrix(120, 6, 4, 61);
  const Matrix<float> Q = testutil::random_matrix(5, 6, 62);
  const std::string path = ::testing::TempDir() + "atomic_roundtrip.rbc";
  std::remove(path.c_str());

  auto index = make_index("sharded:rbc-exact",
                          {.rbc = {.seed = 63}, .num_shards = 3});
  index->build(X);
  save_index(*index, path);

  // No intermediate file survives a successful save.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "stray " << path << ".tmp after save_index";

  const auto restored = load_index_file(path);
  EXPECT_EQ(restored->info().backend, "sharded:rbc-exact");
  EXPECT_TRUE(testutil::knn_equal(
      index->knn_search({.queries = &Q, .k = 4}).knn,
      restored->knn_search({.queries = &Q, .k = 4}).knn));
  std::remove(path.c_str());
}

TEST(CorruptFiles, FailedSavePreservesThePreviousGoodIndex) {
  const Matrix<float> X = testutil::clustered_matrix(90, 5, 3, 64);
  const Matrix<float> Q = testutil::random_matrix(4, 5, 65);
  const std::string path = ::testing::TempDir() + "atomic_failed_save.rbc";
  std::remove(path.c_str());

  auto good = make_index("bruteforce");
  good->build(X);
  save_index(*good, path);
  const KnnResult expected = good->knn_search({.queries = &Q, .k = 3}).knn;

  // A save that explodes mid-serialize must not touch `path` and must not
  // leave a tmp file behind.
  const ExplodingSaveIndex exploding;
  EXPECT_THROW(save_index(exploding, path), std::runtime_error);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "stray tmp file after failed save";

  const auto survivor = load_index_file(path);
  EXPECT_TRUE(testutil::knn_equal(
      expected, survivor->knn_search({.queries = &Q, .k = 3}).knn));
  std::remove(path.c_str());
}

TEST(CorruptFiles, InterruptedWriteFixtureLeavesOldIndexLoadable) {
  // The crash save_index exists to survive: power dies after the tmp file
  // was partially written but before the rename. On restart, `path` must
  // still hold the complete previous index, and the next save must succeed
  // over the stale tmp.
  const Matrix<float> X = testutil::clustered_matrix(80, 4, 3, 66);
  const Matrix<float> Q = testutil::random_matrix(4, 4, 67);
  const std::string path = ::testing::TempDir() + "atomic_interrupted.rbc";
  std::remove(path.c_str());

  auto index = make_index("rbc-exact", {.rbc = {.seed = 68}});
  index->build(X);
  save_index(*index, path);

  // Forge the crash artifact: a truncated tmp exactly as an interrupted
  // writer would leave it.
  {
    std::stringstream full;
    index->save(full);
    std::ofstream stale(path + ".tmp", std::ios::binary);
    stale << full.str().substr(0, full.str().size() / 2);
  }

  // The published path is untouched by the dead tmp…
  const auto survivor = load_index_file(path);
  EXPECT_TRUE(testutil::knn_equal(
      index->knn_search({.queries = &Q, .k = 3}).knn,
      survivor->knn_search({.queries = &Q, .k = 3}).knn));
  // …the stale tmp itself is the torn file load_index rejects…
  EXPECT_THROW((void)load_index_file(path + ".tmp"), std::runtime_error);
  // …and the next save replaces both cleanly.
  save_index(*index, path);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "stale tmp not cleaned by the next save";
  EXPECT_NO_THROW((void)load_index_file(path));
  std::remove(path.c_str());
}

TEST(CorruptFiles, LoadIndexFileReportsAMissingPath) {
  const std::string path = ::testing::TempDir() + "no_such_index.rbc";
  std::remove(path.c_str());
  try {
    (void)load_index_file(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "error should name the path: " << e.what();
  }
}

}  // namespace
}  // namespace rbc
