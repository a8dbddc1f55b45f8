// Corrupt-file regression tests for rbc::load_index's magic dispatch: a
// truncated, bit-flipped, or length-corrupted stream must fail with a clear
// std::runtime_error — never UB, an abort, or a garbage-length allocation.
// Covers the three streams load_index reads (dense, sharded, payload; the
// sharded loader recurses through load_index per shard) and the retired
// layouts it must refuse.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "metricspace/dataset.hpp"
#include "rbc/rbc.hpp"
#include "rbc/serialize_io.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

/// Serialized bytes of a small built index for the given backend, or empty
/// when the backend does not support save.
std::string saved_bytes(const std::string& backend,
                        const IndexOptions& options = {.rbc = {.seed = 51},
                                                       .num_shards = 3}) {
  auto index = make_index(backend, options);
  index->build(testutil::clustered_matrix(120, 6, 4, 52));
  if (!index->info().supports_save) return {};
  std::stringstream stream;
  index->save(stream);
  return stream.str();
}

/// A saved stream split after its header: magic, version, the `tags`
/// strings that follow (dense: backend, metric, storage; sharded: metric,
/// inner, partition; payload: backend, metric), and the rest byte for
/// byte — for the dense and payload streams it starts with the params. A
/// fixture rewrites one field and re-serializes the others unchanged.
struct SplitStream {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::vector<std::string> tags;
  std::string tail;

  SplitStream(const std::string& bytes, int num_tags) {
    std::stringstream is(bytes);
    io::read_pod(is, magic);
    io::read_pod(is, version);
    for (int t = 0; t < num_tags; ++t) tags.push_back(io::read_string(is));
    tail = bytes.substr(static_cast<std::size_t>(is.tellg()));
  }

  std::string bytes() const {
    std::stringstream os;
    io::write_pod(os, magic);
    io::write_pod(os, version);
    for (const std::string& tag : tags) io::write_string(os, tag);
    return os.str() + tail;
  }
};

/// The state section of a dense stream's tail (after the params, leaf size,
/// seed, max_delta and background-merge byte), parsed so a fixture can
/// break one invariant and re-serialize the rest unchanged.
struct DenseState {
  /// The background-merge byte's offset in the tail.
  static constexpr std::size_t kMergeByte = 29 + 4 + 8 + 4;
  static constexpr std::size_t kKnobs = kMergeByte + 1;
  std::string knobs;
  index_t dim = 0;
  std::vector<index_t> main_ids;
  Matrix<float> main_rows;
  std::vector<index_t> delta_ids;
  Matrix<float> delta_rows;
  std::vector<index_t> tombs;

  explicit DenseState(const std::string& tail)
      : knobs(tail.substr(0, kKnobs)) {
    std::stringstream is(tail.substr(kKnobs));
    io::read_pod(is, dim);
    io::read_vec(is, main_ids);
    main_rows = io::read_matrix(is);
    io::read_vec(is, delta_ids);
    delta_rows = io::read_matrix(is);
    io::read_vec(is, tombs);
  }

  std::string tail() const {
    std::stringstream os;
    io::write_pod(os, dim);
    io::write_vec(os, main_ids);
    io::write_matrix(os, main_rows);
    io::write_vec(os, delta_ids);
    io::write_matrix(os, delta_rows);
    io::write_vec(os, tombs);
    return knobs + os.str();
  }
};

/// Byte offsets inside a params encoding (io::write_params).
constexpr std::size_t kSamplingByte = 16;  // after num_reps, ppr, seed
constexpr std::size_t kFirstFlagByte = 17;
constexpr std::size_t kApproxEps = 21;

/// Expects load_index to throw std::runtime_error whose message holds
/// `needle`.
void expect_corrupt(const std::string& bytes, const std::string& needle) {
  std::stringstream stream(bytes);
  try {
    (void)load_index(stream);
    ADD_FAILURE() << "expected std::runtime_error mentioning '" << needle
                  << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error should mention '" << needle << "': " << e.what();
  }
}

TEST(CorruptFiles, TruncationAtEveryRegionThrowsCleanly) {
  for (const std::string& backend : registered_backends()) {
    const std::string bytes = saved_bytes(backend);
    if (bytes.empty()) continue;
    // Cut inside the magic, the version, the header tags, and the payload,
    // plus one byte short of complete — each must throw
    // std::runtime_error (and only that), never reach UB.
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{2}, std::size_t{7}, std::size_t{12},
          std::size_t{30}, bytes.size() / 3, bytes.size() / 2,
          bytes.size() - 1}) {
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
  // A valid dense header and knobs followed by an absurd id-vector length
  // or matrix header: the loader must reject the claimed size against the
  // actual stream length instead of attempting a multi-gigabyte (or
  // overflowing) allocation.
  SplitStream dense(saved_bytes("bruteforce"), 3);
  const std::string knobs =
      dense.tail.substr(0, DenseState::kKnobs + sizeof(index_t));  // + dim
  {
    std::stringstream tail;
    io::write_pod(tail, std::uint64_t{1} << 60);  // main id count
    dense.tail = knobs + tail.str();
    expect_corrupt(dense.bytes(), "truncated or corrupt");
  }
  {
    std::stringstream tail;
    io::write_vec(tail, std::vector<index_t>{});
    io::write_pod(tail, index_t{0xFFFFFFFFu});  // rows
    io::write_pod(tail, index_t{0xFFFFFFFFu});  // cols
    dense.tail = knobs + tail.str();
    expect_corrupt(dense.bytes(), "truncated or corrupt");
  }
}

TEST(CorruptFiles, ShardedStreamWithGarbageHeaderCountsFailsBeforeAllocating) {
  // Bit-flipped num_shards / row-count fields must be rejected against the
  // actual stream length, not fed to the partition-table allocation.
  SplitStream sharded(saved_bytes("sharded:bruteforce"), 3);
  {
    std::stringstream tail;
    io::write_pod(tail, index_t{0x7FFFFFFFu});  // num_shards
    sharded.tail = tail.str();
    expect_corrupt(sharded.bytes(), "num_shards");
  }
  {
    std::stringstream tail;
    io::write_pod(tail, index_t{2});            // num_shards
    io::write_pod(tail, index_t{0xFFFFFFFFu});  // rows
    io::write_pod(tail, index_t{4});            // dim
    io::write_pod(tail, std::uint64_t{2});      // stored shard count
    sharded.tail = tail.str();
    expect_corrupt(sharded.bytes(), "sharded row count");
  }
}

TEST(CorruptFiles, ShardedStreamWithCorruptInnerNameThrows) {
  // A sharded header whose inner-backend name is garbage is a corrupt
  // file, reported as runtime_error (not the factory's invalid_argument).
  SplitStream sharded(saved_bytes("sharded:bruteforce"), 3);
  sharded.tags[1] = "no-such-backend";
  expect_corrupt(sharded.bytes(), "no-such-backend");
}

TEST(CorruptFiles, UnknownMetricTagIsRejectedAsCorruption) {
  // A metric tag that is not in the registry, or that the named backend
  // cannot serve, is file corruption: std::runtime_error (never the
  // factory's invalid_argument, which is reserved for caller errors).
  {
    SplitStream dense(saved_bytes("bruteforce"), 3);
    dense.tags[1] = "no-such-metric";
    expect_corrupt(dense.bytes(), "metric");
  }
  {
    // kdtree declares l2/cosine only, so a stored "l1" tag is corruption.
    SplitStream dense(saved_bytes("kdtree"), 3);
    dense.tags[1] = "l1";
    expect_corrupt(dense.bytes(), "metric");
  }
  {
    // Sharded header with a garbage metric tag.
    SplitStream sharded(saved_bytes("sharded:bruteforce"), 3);
    sharded.tags[0] = "no-such-metric";
    expect_corrupt(sharded.bytes(), "metric");
  }
}

TEST(CorruptFiles, QuantizedIndexesRoundTripThroughSaveAndLoad) {
  // Compressed-storage indexes persist their storage tag, and a load
  // re-quantizes the rebuilt structure: a reloaded index answers
  // identically and reports the same storage.
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

TEST(CorruptFiles, CorruptStorageTagsAreRejected) {
  // An unregistered storage tag is corruption (runtime_error naming the
  // storage), never the factory's invalid_argument — and so is a
  // registered one the stored metric cannot serve (int8 needs l2/cosine).
  {
    SplitStream dense(saved_bytes("bruteforce"), 3);
    dense.tags[2] = "int4";
    expect_corrupt(dense.bytes(), "storage");
  }
  {
    IndexOptions options{.rbc = {.seed = 51}};
    options.metric = "l1";
    SplitStream dense(saved_bytes("rbc-exact", options), 3);
    dense.tags[2] = "int8";
    expect_corrupt(dense.bytes(), "storage");
  }
}

TEST(CorruptFiles, TruncatedMutableDeltaAndTombstoneSectionsThrowCleanly) {
  // Dense streams end with the delta rows, delta ids, and tombstone list
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

TEST(CorruptFiles, InconsistentDenseStreamsAreRejected) {
  // A load rebuilds the index from the stored rows and searches by the
  // stored ids, so the stream must describe one consistent state: rows as
  // wide as dim, one id per row, ascending unique ids, tombstones that mask
  // main rows, and no id live twice.
  IndexOptions options{.rbc = {.seed = 56}};
  options.max_delta = 64;  // keep the delta unmerged across save
  options.background_merge = false;
  auto index = make_index("bruteforce", options);
  index->build(testutil::clustered_matrix(40, 6, 4, 55));
  index->insert(testutil::random_matrix(3, 6, 57),
                std::vector<index_t>{100, 101, 102});
  ASSERT_EQ(index->remove(std::vector<index_t>{3, 17}), 2u);
  std::stringstream saved;
  index->save(saved);
  const SplitStream intact(saved.str(), 3);
  ASSERT_EQ(DenseState(intact.tail).tail(), intact.tail);
  ASSERT_EQ(DenseState(intact.tail).tombs, (std::vector<index_t>{3, 17}));

  const std::vector<std::pair<std::string, void (*)(DenseState&)>> breaks = {
      {"dim narrower than the rows", [](DenseState& s) { s.dim = 5; }},
      {"dim wider than the rows", [](DenseState& s) { s.dim = 7; }},
      {"one main id too few", [](DenseState& s) { s.main_ids.pop_back(); }},
      {"one delta id too few", [](DenseState& s) { s.delta_ids.pop_back(); }},
      {"main ids out of order",
       [](DenseState& s) { std::swap(s.main_ids[4], s.main_ids[5]); }},
      {"reserved main id",
       [](DenseState& s) { s.main_ids.back() = kInvalidIndex; }},
      {"tombstones out of order",
       [](DenseState& s) { std::swap(s.tombs[0], s.tombs[1]); }},
      {"tombstone for an id not in main",
       [](DenseState& s) { s.tombs.back() = 500; }},
      {"delta id live in main", [](DenseState& s) { s.delta_ids[0] = 5; }},
      {"NaN in a main row",
       [](DenseState& s) {
         s.main_rows.at(7, 2) = std::numeric_limits<float>::quiet_NaN();
       }},
      {"infinity in a delta row",
       [](DenseState& s) {
         s.delta_rows.at(1, 0) = -std::numeric_limits<float>::infinity();
       }},
  };
  for (const auto& [what, corrupt] : breaks) {
    SCOPED_TRACE(what);
    SplitStream broken = intact;
    DenseState state(broken.tail);
    corrupt(state);
    broken.tail = state.tail();
    std::stringstream stream(broken.bytes());
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
}

// ---------------------------------------------- payload corrupt fixtures --
// The generic metric-space stream: kMagicPayload, version, host backend
// tag, metric-space tag, params, then the serialized dataset (kind tag +
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

/// The payload header bytes up to (and excluding) the dataset payload.
void write_payload_header(std::ostream& os, const std::string& backend,
                          const std::string& metric) {
  io::write_header(os, io::kMagicPayload);
  io::write_string(os, backend);
  io::write_string(os, metric);
  io::write_params(os, RbcParams{});
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
    io::write_pod(stream, io::kFormatVersion + 1);
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

TEST(CorruptFiles, CorruptParamsBytesAreRejected) {
  // The dense and payload streams store RbcParams' enum and bool fields as
  // one byte each. A byte outside the field's values is corruption: copied
  // into the enum or a bool it would be undefined behaviour.
  for (const auto& [what, bytes, tags] :
       std::vector<std::tuple<std::string, std::string, int>>{
           {"dense", saved_bytes("rbc-exact"), 3},
           {"payload", saved_payload_bytes("rbc-exact"), 2}}) {
    SplitStream intact(bytes, tags);
    {
      SCOPED_TRACE(what + ": sampling byte 7");
      SplitStream stream = intact;
      stream.tail[kSamplingByte] = 7;
      expect_corrupt(stream.bytes(), "sampling byte 7");
    }
    for (std::size_t flag = 0; flag < 4; ++flag) {
      SCOPED_TRACE(what + ": flag " + std::to_string(flag) + " byte 0xA5");
      SplitStream stream = intact;
      stream.tail[kFirstFlagByte + flag] = static_cast<char>(0xA5);
      expect_corrupt(stream.bytes(), "flag byte 165");
    }
  }
  // The dense stream's background-merge flag is a 0/1 byte too.
  SplitStream dense(saved_bytes("rbc-exact"), 3);
  dense.tail[DenseState::kMergeByte] = static_cast<char>(0xA5);
  expect_corrupt(dense.bytes(), "background_merge byte 165");
}

TEST(CorruptFiles, ApproxEpsMustBeFiniteAndNonNegative) {
  // Below -1 an approx_eps turns rbc-exact's bound factor 1/(1+eps)
  // negative, which prunes every list and empties every answer. make_index
  // refuses any negative or non-finite value with the uniform
  // invalid_argument (for every backend whose stream stores the knob), and
  // a stream carrying one is corrupt.
  const float kBad[] = {-3.0f, -0.5f, std::numeric_limits<float>::infinity(),
                        std::numeric_limits<float>::quiet_NaN()};
  for (const float eps : kBad) {
    for (const std::string backend :
         {"rbc-exact", "sharded:rbc-exact", "bruteforce"}) {
      SCOPED_TRACE(backend + " approx_eps " + std::to_string(eps));
      try {
        (void)make_index(backend, {.rbc = {.approx_eps = eps}});
        ADD_FAILURE() << "expected std::invalid_argument";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("rbc::Index["),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("approx_eps"), std::string::npos)
            << e.what();
      }
    }
    IndexOptions payload{.rbc = {.approx_eps = eps}};
    payload.metric = "edit";
    EXPECT_THROW((void)make_index("rbc-exact", payload),
                 std::invalid_argument);
  }

  for (const auto& [what, bytes, tags] :
       std::vector<std::tuple<std::string, std::string, int>>{
           {"dense", saved_bytes("rbc-exact"), 3},
           {"payload", saved_payload_bytes("rbc-exact"), 2}}) {
    for (const float eps : kBad) {
      SCOPED_TRACE(what + " approx_eps " + std::to_string(eps));
      SplitStream stream(bytes, tags);
      std::memcpy(stream.tail.data() + kApproxEps, &eps, sizeof eps);
      expect_corrupt(stream.bytes(), "approx_eps");
    }
  }
}

// -------------------------------------------------------- retired layouts --
// load_index once also read the raw per-backend formats (versions 1, 2 and
// 4 under six magics), the concrete RbcExactIndex / RbcOneShotIndex
// streams, and the earlier dense versions 3 and 5 under the per-backend
// magics. Each now fails cleanly, whatever its contents: several of these
// were loaded without checks (a one-shot stream with a wrong list length
// read past its rows on the first query).

// The retired per-backend magics.
constexpr std::uint32_t kRetiredExact = 0x52424358;       // "RBCX"
constexpr std::uint32_t kRetiredOneShot = 0x52424331;     // "RBC1"
constexpr std::uint32_t kRetiredBruteForce = 0x52424342;  // "RBCB"
constexpr std::uint32_t kRetiredKdTree = 0x5242434B;      // "RBCK"

/// Rows of X at `ids`, in order.
Matrix<float> gather_rows(const Matrix<float>& X,
                          const std::vector<index_t>& ids) {
  Matrix<float> out(static_cast<index_t>(ids.size()), X.cols());
  for (index_t i = 0; i < out.rows(); ++i) out.copy_row_from(X, ids[i], i);
  return out;
}

/// A raw bruteforce or (`kdtree`) kd-tree stream at `version`: magic,
/// version, the metric tag from version 2 on, the storage tag at version
/// 4, the kd-tree's leaf size, then the rows.
std::string raw_stream(std::uint32_t magic, std::uint32_t version,
                       const Matrix<float>& X, bool kdtree) {
  std::stringstream os;
  io::write_pod(os, magic);
  io::write_pod(os, version);
  if (version >= 2) io::write_string(os, "l2");
  if (version == 4) io::write_string(os, "float32");
  if (kdtree) io::write_pod(os, index_t{16});
  io::write_matrix(os, X);
  return os.str();
}

/// A concrete RbcExactIndex<Euclidean> stream as its save() wrote it.
std::string concrete_exact_stream(const Matrix<float>& X,
                                  const RbcParams& params) {
  RbcExactIndex<> index;
  index.build(X, params);
  std::vector<index_t> offsets{0}, packed_ids;
  std::vector<dist_t> psi, packed_dist;
  for (index_t r = 0; r < index.num_reps(); ++r) {
    const auto ids = index.list_ids(r);
    const auto dists = index.list_dists(r);
    packed_ids.insert(packed_ids.end(), ids.begin(), ids.end());
    packed_dist.insert(packed_dist.end(), dists.begin(), dists.end());
    offsets.push_back(static_cast<index_t>(packed_ids.size()));
    psi.push_back(index.psi(r));
  }
  std::stringstream os;
  io::write_pod(os, kRetiredExact);
  io::write_pod(os, std::uint32_t{1});
  io::write_string(os, "l2");
  io::write_pod(os, index.size());
  io::write_pod(os, index.dim());
  io::write_pod(os, params);  // the retired in-memory params image
  io::write_vec(os, index.rep_ids());
  io::write_vec(os, psi);
  io::write_vec(os, offsets);
  io::write_vec(os, packed_ids);
  io::write_vec(os, packed_dist);
  io::write_matrix(os, gather_rows(X, index.rep_ids()));
  io::write_matrix(os, gather_rows(X, packed_ids));
  // The always-empty dynamic-update tail.
  io::write_pod(os, index.size());
  io::write_pod(os, index_t{0});
  io::write_vec(os, std::vector<std::uint8_t>(index.size(), 0));
  io::write_vec(os, std::vector<float>{});
  io::write_vec(os, std::vector<index_t>{});
  io::write_vec(os, std::vector<dist_t>{});
  io::write_pod(os, static_cast<std::uint64_t>(index.num_reps()));
  for (index_t r = 0; r < index.num_reps(); ++r)
    io::write_vec(os, std::vector<index_t>{});
  return os.str();
}

/// A concrete RbcOneShotIndex<Euclidean> stream as its save() wrote it,
/// with the stored list length and packed ids optionally overridden.
std::string concrete_oneshot_stream(const Matrix<float>& X,
                                    const RbcParams& params,
                                    index_t list_length = 0,
                                    index_t packed_id = kInvalidIndex) {
  RbcOneShotIndex<> index;
  index.build(X, params);
  std::vector<index_t> packed_ids;
  std::vector<dist_t> psi, packed_dist;
  for (index_t r = 0; r < index.num_reps(); ++r) {
    const auto ids = index.list_ids(r);
    const auto dists = index.list_dists(r);
    packed_ids.insert(packed_ids.end(), ids.begin(), ids.end());
    packed_dist.insert(packed_dist.end(), dists.begin(), dists.end());
    psi.push_back(index.psi(r));
  }
  if (packed_id != kInvalidIndex)
    for (index_t& id : packed_ids) id = packed_id;
  Matrix<float> reps(index.num_reps(), index.dim());
  Matrix<float> packed(static_cast<index_t>(packed_ids.size()), index.dim());
  index.export_rows(reps, packed);
  std::stringstream os;
  io::write_pod(os, kRetiredOneShot);
  io::write_pod(os, std::uint32_t{1});
  io::write_string(os, "l2");
  io::write_pod(os, index.size());
  io::write_pod(os, index.dim());
  io::write_pod(os, list_length != 0 ? list_length : index.points_per_rep());
  io::write_pod(os, params);  // the retired in-memory params image
  io::write_vec(os, index.rep_ids());
  io::write_vec(os, psi);
  io::write_vec(os, packed_ids);
  io::write_vec(os, packed_dist);
  io::write_matrix(os, reps);
  io::write_matrix(os, packed);
  return os.str();
}

TEST(CorruptFiles, RetiredLayoutsAreRejected) {
  const Matrix<float> X = testutil::clustered_matrix(200, 5, 4, 53);
  std::vector<std::pair<std::string, std::string>> retired;
  for (const std::uint32_t version : {1u, 2u, 4u}) {
    retired.emplace_back("raw bruteforce v" + std::to_string(version),
                         raw_stream(kRetiredBruteForce, version, X, false));
    retired.emplace_back("raw kdtree v" + std::to_string(version),
                         raw_stream(kRetiredKdTree, version, X, true));
  }
  const RbcParams exact{.num_reps = 9, .seed = 78};
  const RbcParams oneshot{.num_reps = 10, .points_per_rep = 10, .seed = 5};
  retired.emplace_back("concrete exact", concrete_exact_stream(X, exact));
  retired.emplace_back("concrete one-shot",
                       concrete_oneshot_stream(X, oneshot));
  retired.emplace_back("concrete one-shot, list length 1000",
                       concrete_oneshot_stream(X, oneshot, 1000));
  retired.emplace_back(
      "concrete one-shot, packed ids 4,000,000,000",
      concrete_oneshot_stream(X, oneshot, 0, 4'000'000'000u));

  // Versions 3 and 5: today's dense bytes from the params on, under a
  // per-backend magic with the metric (and, at 5, storage) tag only.
  {
    SplitStream v3(saved_bytes("bruteforce"), 3);
    v3.magic = kRetiredBruteForce;
    v3.version = 3;
    v3.tags = {v3.tags[1]};
    retired.emplace_back("bruteforce v3", v3.bytes());
    IndexOptions options{.rbc = {.seed = 51}};
    options.storage = "int8";
    SplitStream v5(saved_bytes("rbc-exact", options), 3);
    v5.magic = kRetiredExact;
    v5.version = 5;
    v5.tags = {v5.tags[1], v5.tags[2]};
    retired.emplace_back("rbc-exact v5", v5.bytes());
  }
  for (const auto& [what, bytes] : retired) {
    SCOPED_TRACE(what);
    expect_corrupt(bytes, "magic");
  }

  // Any other version under today's magics: the earlier ones, and later
  // or garbage ones, which must not be misparsed as some future format.
  std::vector<std::uint32_t> versions{io::kFormatVersion + 1, 0xFFFFFFFFu};
  for (std::uint32_t version = 1; version < io::kFormatVersion; ++version)
    versions.push_back(version);
  for (const auto& [what, bytes, tags] :
       std::vector<std::tuple<std::string, std::string, int>>{
           {"dense", saved_bytes("rbc-exact"), 3},
           {"sharded", saved_bytes("sharded:rbc-exact"), 3},
           {"payload", saved_payload_bytes("rbc-exact"), 2}}) {
    SplitStream stream(bytes, tags);
    for (const std::uint32_t version : versions) {
      SCOPED_TRACE(what + " v" + std::to_string(version));
      stream.version = version;
      expect_corrupt(stream.bytes(), "unsupported format version");
    }
  }

  // A dense stream names a backend make_index wraps for dense rows: an
  // unknown name, a device or composite backend, or a metric-space metric
  // (which selects the payload variant) is corrupt.
  const SplitStream dense(saved_bytes("bruteforce"), 3);
  for (const auto& [backend, metric, needle] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {"no-such-backend", "l2", "unknown backend"},
           {"gpu-bf", "l2", "does not write dense streams"},
           {"sharded:bruteforce", "l2", "does not write dense streams"},
           {"bruteforce", "edit", "does not write dense streams"}}) {
    SCOPED_TRACE(backend + " / " + metric);
    SplitStream stream = dense;
    stream.tags[0] = backend;
    stream.tags[1] = metric;
    expect_corrupt(stream.bytes(), needle);
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
