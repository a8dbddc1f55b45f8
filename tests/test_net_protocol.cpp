// Wire-protocol codec tests: every message round-trips exactly, and every
// way a frame can be malformed — truncation at any byte, garbage counts,
// payload/length disagreement, trailing bytes, bad magic/version/flags —
// throws a clean ProtocolError instead of crashing or allocating from
// attacker-controlled lengths (the network mirror of test_corrupt_files.cpp).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "serve/net/protocol.hpp"
#include "test_util.hpp"

namespace rbc::serve::net {
namespace {

using namespace std::string_literals;

using Bytes = std::vector<std::uint8_t>;

std::span<const std::uint8_t> payload_of(const Bytes& frame) {
  return {frame.data() + kHeaderSize, frame.size() - kHeaderSize};
}

Bytes concat(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const Bytes& part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

// Version bytes other than kNetVersion (3): below, between and above.
constexpr int kOtherVersions[] = {0, 1, 2, 4, 255};

TEST(NetProtocol, HeaderRoundTrip) {
  const std::vector<std::uint8_t> frame =
      encode_frame(Op::kInfoRequest, 0xDEADBEEFCAFEBABEull, {});
  ASSERT_EQ(frame.size(), kHeaderSize);
  const auto header = parse_header(frame);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->version, kNetVersion);
  EXPECT_EQ(header->op, Op::kInfoRequest);
  EXPECT_EQ(header->request_id, 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(header->payload_len, 0u);
}

TEST(NetProtocol, ShortHeaderAsksForMoreBytes) {
  const std::vector<std::uint8_t> frame = encode_frame(Op::kInfoRequest, 7, {});
  for (std::size_t n = 0; n < kHeaderSize; ++n)
    EXPECT_FALSE(parse_header({frame.data(), n}).has_value()) << n;
}

TEST(NetProtocol, HeaderRejectsBadMagicVersionOpcodeFlagsAndOversize) {
  const std::vector<std::uint8_t> good =
      encode_frame(Op::kKnnRequest, 1, std::vector<std::uint8_t>(4, 0));

  auto mutated = [](std::vector<std::uint8_t> frame, std::size_t offset,
                    std::uint8_t value) {
    frame[offset] = value;
    return frame;
  };
  EXPECT_THROW((void)parse_header(mutated(good, 0, 0xFF)), ProtocolError);
  EXPECT_THROW((void)parse_header(mutated(good, 5, 0)), ProtocolError);
  EXPECT_THROW((void)parse_header(mutated(good, 5, 200)), ProtocolError);
  EXPECT_THROW((void)parse_header(mutated(good, 6, 1)), ProtocolError);

  // kNetVersion is the only version that parses, whatever the opcode: the
  // retired version-1 and version-2 layouts (and any later one) are refused
  // at the header rather than misparsed.
  const Matrix<float> queries = testutil::random_matrix(1, 2, 31);
  for (const std::vector<std::uint8_t>& frame :
       {good, encode_knn_payload_request(2, {"q"}, 1),
        encode_range_request(3, queries, 1.0f), encode_info_request(4),
        encode_reload_request(5, "p")}) {
    ASSERT_TRUE(parse_header(frame).has_value());
    for (const int v : kOtherVersions)
      EXPECT_THROW((void)parse_header(
                       mutated(frame, 4, static_cast<std::uint8_t>(v))),
                   ProtocolError)
          << "version " << v;
  }

  // payload_len over the configured cap is rejected before any payload read.
  std::vector<std::uint8_t> oversize = good;
  const std::uint32_t huge = 1u << 30;
  std::memcpy(oversize.data() + 16, &huge, 4);
  EXPECT_THROW((void)parse_header(oversize, /*max_payload=*/1 << 20),
               ProtocolError);
}

TEST(NetProtocol, KnnRequestRoundTrip) {
  const Matrix<float> queries = testutil::random_matrix(7, 5, 11);
  const std::vector<std::uint8_t> frame =
      encode_knn_request(42, queries, 3, /*deadline_ms=*/750);
  const auto header = parse_header(frame);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->op, Op::kKnnRequest);
  EXPECT_EQ(frame.size(), kHeaderSize + header->payload_len);

  const KnnRequestMsg msg = decode_knn_request(payload_of(frame));
  EXPECT_EQ(msg.k, 3u);
  EXPECT_EQ(msg.deadline_ms, 750u);
  ASSERT_EQ(msg.queries.rows(), 7u);
  ASSERT_EQ(msg.queries.cols(), 5u);
  for (index_t i = 0; i < 7; ++i)
    for (index_t j = 0; j < 5; ++j)
      EXPECT_EQ(msg.queries.at(i, j), queries.at(i, j));
}

TEST(NetProtocol, KnnResponseRoundTrip) {
  KnnResult result(3, 2);
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 2; ++j) {
      result.ids.at(i, j) = i * 10 + j;
      result.dists.at(i, j) = 0.5f * static_cast<float>(i + j);
    }
  const std::vector<std::uint8_t> frame = encode_knn_response(9, result);
  const KnnResponseMsg back = decode_knn_response(payload_of(frame));
  ASSERT_EQ(back.result.ids.rows(), 3u);
  ASSERT_EQ(back.result.ids.cols(), 2u);
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 2; ++j) {
      EXPECT_EQ(back.result.ids.at(i, j), result.ids.at(i, j));
      EXPECT_EQ(back.result.dists.at(i, j), result.dists.at(i, j));
    }
  EXPECT_EQ(back.coverage, (Coverage{1, 1}));  // default trailer: full
}

TEST(NetProtocol, RangeRoundTrips) {
  const Matrix<float> queries = testutil::random_matrix(4, 6, 13);
  const std::vector<std::uint8_t> request =
      encode_range_request(5, queries, 1.25f, /*deadline_ms=*/125);
  const RangeRequestMsg msg = decode_range_request(payload_of(request));
  EXPECT_EQ(msg.radius, 1.25f);
  EXPECT_EQ(msg.deadline_ms, 125u);
  EXPECT_EQ(msg.queries.rows(), 4u);
  EXPECT_EQ(msg.queries.at(2, 3), queries.at(2, 3));

  const std::vector<std::vector<index_t>> ids = {{1, 2, 3}, {}, {7}, {0, 9}};
  const std::vector<std::uint8_t> response = encode_range_response(5, ids);
  const RangeResponseMsg back = decode_range_response(payload_of(response));
  EXPECT_EQ(back.ids, ids);
  EXPECT_EQ(back.coverage, (Coverage{1, 1}));
}

// ---------------------------------------------------------- golden bytes ---

// The wire layouts byte for byte: a change to any field's order, width or
// presence (or to the header) fails here, however the decoders follow it.
TEST(NetProtocol, FramesMatchGoldenBytes) {
  Matrix<float> row(1, 2);
  row.at(0, 0) = 1.0f;
  row.at(0, 1) = -2.0f;

  // Header: magic "RBCN" (LE), version 3, opcode, flags 0, request id (LE
  // u64), payload length (LE u32).
  const Bytes knn_payload = {
      0x03, 0x00, 0x00, 0x00,  // k = 3
      0x00, 0x00, 0x00, 0x00,  // deadline_ms = 0
      0x01, 0x00, 0x00, 0x00,  // nq = 1
      0x02, 0x00, 0x00, 0x00,  // dim = 2
      0x00, 0x00, 0x80, 0x3F,  // 1.0f
      0x00, 0x00, 0x00, 0xC0,  // -2.0f
  };
  EXPECT_EQ(encode_knn_request(0x0102030405060708ull, row, 3),
            concat({{0x4E, 0x43, 0x42, 0x52, 0x03, 0x01, 0x00, 0x00,
                     0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
                     0x18, 0x00, 0x00, 0x00},
                    knn_payload}));

  Bytes with_deadline = knn_payload;
  with_deadline[4] = 0xEE;  // deadline_ms = 750 = 0x02EE
  with_deadline[5] = 0x02;
  EXPECT_EQ(encode_knn_request(9, row, 3, /*deadline_ms=*/750),
            concat({{0x4E, 0x43, 0x42, 0x52, 0x03, 0x01, 0x00, 0x00,
                     0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                     0x18, 0x00, 0x00, 0x00},
                    with_deadline}));

  KnnResult result(1, 2);
  result.ids.at(0, 0) = 7;
  result.ids.at(0, 1) = 300;
  result.dists.at(0, 0) = 0.5f;
  result.dists.at(0, 1) = 2.0f;
  const Bytes knn_response_header = {
      0x4E, 0x43, 0x42, 0x52, 0x03, 0x02, 0x00, 0x00,
      0x0A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x20, 0x00, 0x00, 0x00};
  const Bytes knn_response_rows = {
      0x01, 0x00, 0x00, 0x00,  // nq = 1
      0x02, 0x00, 0x00, 0x00,  // k = 2
      0x07, 0x00, 0x00, 0x00,  // id 7
      0x2C, 0x01, 0x00, 0x00,  // id 300
      0x00, 0x00, 0x00, 0x3F,  // 0.5f
      0x00, 0x00, 0x00, 0x40,  // 2.0f
  };
  EXPECT_EQ(encode_knn_response(10, result, {1, 1}),
            concat({knn_response_header, knn_response_rows,
                    {0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00}}));
  EXPECT_EQ(encode_knn_response(10, result, {0, 2}),
            concat({knn_response_header, knn_response_rows,
                    {0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00}}));

  Matrix<float> range_row(1, 2);
  range_row.at(0, 0) = 0.25f;
  range_row.at(0, 1) = 4.0f;
  EXPECT_EQ(encode_range_request(11, range_row, 1.5f, /*deadline_ms=*/125),
            (Bytes{0x4E, 0x43, 0x42, 0x52, 0x03, 0x03, 0x00, 0x00,
                   0x0B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x18, 0x00, 0x00, 0x00,
                   0x00, 0x00, 0xC0, 0x3F,    // radius 1.5f
                   0x7D, 0x00, 0x00, 0x00,    // deadline_ms = 125
                   0x01, 0x00, 0x00, 0x00,    // nq = 1
                   0x02, 0x00, 0x00, 0x00,    // dim = 2
                   0x00, 0x00, 0x80, 0x3E,    // 0.25f
                   0x00, 0x00, 0x80, 0x40}));  // 4.0f

  EXPECT_EQ(encode_range_response(12, {{1, 2}, {}}, {1, 1}),
            (Bytes{0x4E, 0x43, 0x42, 0x52, 0x03, 0x04, 0x00, 0x00,
                   0x0C, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x1C, 0x00, 0x00, 0x00,
                   0x02, 0x00, 0x00, 0x00,    // nq = 2
                   0x02, 0x00, 0x00, 0x00,    // row 0: 2 hits
                   0x01, 0x00, 0x00, 0x00,    //   id 1
                   0x02, 0x00, 0x00, 0x00,    //   id 2
                   0x00, 0x00, 0x00, 0x00,    // row 1: no hits
                   0x01, 0x00, 0x00, 0x00,    // covered = 1
                   0x01, 0x00, 0x00, 0x00}));  // total = 1

  EXPECT_EQ(encode_knn_payload_request(13, {"ab"}, 1),
            (Bytes{0x4E, 0x43, 0x42, 0x52, 0x03, 0x0A, 0x00, 0x00,
                   0x0D, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x12, 0x00, 0x00, 0x00,
                   0x01, 0x00, 0x00, 0x00,           // k = 1
                   0x00, 0x00, 0x00, 0x00,           // deadline_ms = 0
                   0x01, 0x00, 0x00, 0x00,           // nq = 1
                   0x02, 0x00, 0x00, 0x00, 'a', 'b'}));  // "ab"

  InfoMsg info;
  info.backend = "bf";
  info.metric = "l2";
  info.size = 10;
  info.dim = 4;
  info.completed = 5;
  info.rejected = 1;
  info.p50_ms = 0.5;
  info.p99_ms = 2.0;
  info.conn_requests = 3;
  info.conn_rejected = 0;
  info.conn_bytes_in = 0x100;
  info.conn_bytes_out = 0x200;
  info.cost_unit = "";
  info.metric_cost = 9;
  EXPECT_EQ(encode_info_response(14, info),
            (Bytes{0x4E, 0x43, 0x42, 0x52, 0x03, 0x06, 0x00, 0x00,
                   0x0E, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x60, 0x00, 0x00, 0x00,
                   0x02, 0x00, 0x00, 0x00, 'b', 'f',  // backend
                   0x02, 0x00, 0x00, 0x00, 'l', '2',  // metric
                   0x0A, 0x00, 0x00, 0x00,            // size = 10
                   0x04, 0x00, 0x00, 0x00,            // dim = 4
                   0x05, 0, 0, 0, 0, 0, 0, 0,         // completed = 5
                   0x01, 0, 0, 0, 0, 0, 0, 0,         // rejected = 1
                   0, 0, 0, 0, 0, 0, 0xE0, 0x3F,      // p50_ms = 0.5
                   0, 0, 0, 0, 0, 0, 0x00, 0x40,      // p99_ms = 2.0
                   0x03, 0, 0, 0, 0, 0, 0, 0,         // conn_requests = 3
                   0x00, 0, 0, 0, 0, 0, 0, 0,         // conn_rejected = 0
                   0x00, 0x01, 0, 0, 0, 0, 0, 0,      // conn_bytes_in
                   0x00, 0x02, 0, 0, 0, 0, 0, 0,      // conn_bytes_out
                   0x00, 0x00, 0x00, 0x00,            // cost_unit ""
                   0x09, 0, 0, 0, 0, 0, 0, 0}));      // metric_cost = 9

  EXPECT_EQ(encode_error(15, {ErrorCode::kOverloaded, 75, "full"}),
            (Bytes{0x4E, 0x43, 0x42, 0x52, 0x03, 0x09, 0x00, 0x00,
                   0x0F, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x0E, 0x00, 0x00, 0x00,
                   0x02, 0x00,                                 // OVERLOADED
                   0x4B, 0x00, 0x00, 0x00,                     // 75 ms
                   0x04, 0x00, 0x00, 0x00, 'f', 'u', 'l', 'l'}));
}

TEST(NetProtocol, CoverageTrailerRoundTripsAndRejectsGarbage) {
  KnnResult result(1, 1);
  const std::vector<std::uint8_t> knn =
      encode_knn_response(3, result, {2, 5});
  EXPECT_EQ(decode_knn_response(payload_of(knn)).coverage, (Coverage{2, 5}));

  const std::vector<std::uint8_t> range =
      encode_range_response(4, {{1}}, {0, 3});
  EXPECT_EQ(decode_range_response(payload_of(range)).coverage,
            (Coverage{0, 3}));

  // covered > total and total == 0 are nonsense whatever the transport did.
  {
    std::vector<std::uint8_t> bad = knn;
    const std::uint32_t covered = 6;  // > total = 5, last 8 bytes of payload
    std::memcpy(bad.data() + bad.size() - 8, &covered, 4);
    EXPECT_THROW((void)decode_knn_response(payload_of(bad)), ProtocolError);
  }
  {
    std::vector<std::uint8_t> bad = knn;
    const std::uint32_t zero = 0;
    std::memcpy(bad.data() + bad.size() - 4, &zero, 4);  // total = 0
    EXPECT_THROW((void)decode_knn_response(payload_of(bad)), ProtocolError);
  }
}

TEST(NetProtocol, DecodersRefuseEveryOtherVersion) {
  // Valid payloads, so the version byte is the only thing wrong with them.
  const Matrix<float> queries = testutil::random_matrix(1, 2, 31);
  const Bytes knn = encode_knn_request(1, queries, 1);
  const Bytes knn_response = encode_knn_response(2, KnnResult(1, 1));
  const Bytes payload = encode_knn_payload_request(3, {"q"}, 1);
  const Bytes range = encode_range_request(4, queries, 1.0f);
  const Bytes range_response = encode_range_response(5, {{1}});
  const Bytes info = encode_info_response(6, InfoMsg{});
  for (const int version : kOtherVersions) {
    const auto v = static_cast<std::uint8_t>(version);
    EXPECT_THROW((void)decode_knn_request(payload_of(knn), v), ProtocolError)
        << version;
    EXPECT_THROW((void)decode_knn_response(payload_of(knn_response), v),
                 ProtocolError)
        << version;
    EXPECT_THROW((void)decode_knn_payload_request(payload_of(payload), v),
                 ProtocolError)
        << version;
    EXPECT_THROW((void)decode_range_request(payload_of(range), v),
                 ProtocolError)
        << version;
    EXPECT_THROW((void)decode_range_response(payload_of(range_response), v),
                 ProtocolError)
        << version;
    EXPECT_THROW((void)decode_info_response(payload_of(info), v),
                 ProtocolError)
        << version;
  }
  const std::uint8_t v = kNetVersion;
  EXPECT_NO_THROW((void)decode_knn_request(payload_of(knn), v));
  EXPECT_NO_THROW((void)decode_knn_response(payload_of(knn_response), v));
  EXPECT_NO_THROW((void)decode_knn_payload_request(payload_of(payload), v));
  EXPECT_NO_THROW((void)decode_range_request(payload_of(range), v));
  EXPECT_NO_THROW((void)decode_range_response(payload_of(range_response), v));
  EXPECT_NO_THROW((void)decode_info_response(payload_of(info), v));
}

TEST(NetProtocol, InfoRoundTrip) {
  InfoMsg info;
  info.backend = "rbc-exact";
  info.metric = "cosine";
  info.size = 12345;
  info.dim = 32;
  info.completed = 777;
  info.rejected = 3;
  info.p50_ms = 0.25;
  info.p99_ms = 4.5;
  info.conn_requests = 10;
  info.conn_rejected = 1;
  info.conn_bytes_in = 2048;
  info.conn_bytes_out = 4096;
  info.cost_unit = "chars_compared";
  info.metric_cost = 123456;
  const std::vector<std::uint8_t> frame = encode_info_response(2, info);
  const InfoMsg back = decode_info_response(payload_of(frame));
  EXPECT_EQ(back.backend, info.backend);
  EXPECT_EQ(back.metric, info.metric);
  EXPECT_EQ(back.size, info.size);
  EXPECT_EQ(back.dim, info.dim);
  EXPECT_EQ(back.completed, info.completed);
  EXPECT_EQ(back.rejected, info.rejected);
  EXPECT_EQ(back.p50_ms, info.p50_ms);
  EXPECT_EQ(back.p99_ms, info.p99_ms);
  EXPECT_EQ(back.conn_requests, info.conn_requests);
  EXPECT_EQ(back.conn_rejected, info.conn_rejected);
  EXPECT_EQ(back.conn_bytes_in, info.conn_bytes_in);
  EXPECT_EQ(back.conn_bytes_out, info.conn_bytes_out);
  EXPECT_EQ(back.cost_unit, info.cost_unit);
  EXPECT_EQ(back.metric_cost, info.metric_cost);
}

// ------------------------------------------------------- payload queries ---

TEST(NetProtocol, KnnPayloadRequestRoundTrip) {
  const std::vector<std::string> queries = {"kitten", "", "a\0b\x7f"s};
  const std::vector<std::uint8_t> frame =
      encode_knn_payload_request(21, queries, 4, /*deadline_ms=*/300);
  const auto header = parse_header(frame);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->op, Op::kKnnPayloadRequest);
  const KnnPayloadRequestMsg msg =
      decode_knn_payload_request(payload_of(frame), header->version);
  EXPECT_EQ(msg.k, 4u);
  EXPECT_EQ(msg.deadline_ms, 300u);
  EXPECT_EQ(msg.queries, queries);  // embedded NUL and all
}

TEST(NetProtocol, PayloadRequestRejectsGarbageCounts) {
  // k = 0, an implausible row count, and a per-query length past
  // kMaxStringLen must all be rejected before any allocation.
  const std::vector<std::string> queries = {"abc"};
  std::vector<std::uint8_t> frame = encode_knn_payload_request(1, queries, 2);
  {
    std::vector<std::uint8_t> bad = frame;
    const std::uint32_t zero = 0;
    std::memcpy(bad.data() + kHeaderSize, &zero, 4);  // k = 0
    EXPECT_THROW((void)decode_knn_payload_request(payload_of(bad)),
                 ProtocolError);
  }
  {
    std::vector<std::uint8_t> bad = frame;
    const std::uint32_t huge = 1u << 30;
    std::memcpy(bad.data() + kHeaderSize + 8, &huge, 4);  // nq
    EXPECT_THROW((void)decode_knn_payload_request(payload_of(bad)),
                 ProtocolError);
  }
  {
    std::vector<std::uint8_t> bad = frame;
    const std::uint32_t len = kMaxStringLen + 1;
    std::memcpy(bad.data() + kHeaderSize + 12, &len, 4);  // query length
    EXPECT_THROW((void)decode_knn_payload_request(payload_of(bad)),
                 ProtocolError);
  }
  // The encoder enforces the same per-query cap.
  EXPECT_THROW((void)encode_knn_payload_request(
                   1, {std::string(kMaxStringLen + 1, 'x')}, 1),
               ProtocolError);
}

TEST(NetProtocol, ReloadAndErrorRoundTrip) {
  const std::vector<std::uint8_t> reload =
      encode_reload_request(1, "/tmp/index.rbc");
  EXPECT_EQ(decode_reload_request(payload_of(reload)), "/tmp/index.rbc");

  const ErrorMsg error{ErrorCode::kOverloaded, 75, "queue full"};
  const std::vector<std::uint8_t> frame = encode_error(8, error);
  const ErrorMsg back = decode_error(payload_of(frame));
  EXPECT_EQ(back.code, ErrorCode::kOverloaded);
  EXPECT_EQ(back.retry_after_ms, 75u);
  EXPECT_EQ(back.message, "queue full");
}

// ------------------------------------------------------------- hardening ---

TEST(NetProtocol, EveryPayloadTruncationThrowsCleanly) {
  const Matrix<float> queries = testutil::random_matrix(3, 4, 17);
  KnnResult result(2, 3);
  const InfoMsg info{"b", "l2", 10, 4, 0, 0, 0, 0, 0, 0, 0, 0,
                     "chars_compared", 0};
  const std::vector<std::vector<std::uint8_t>> frames = {
      encode_info_response(5, info),
      encode_reload_request(6, "some/path"),
      encode_error(7, {ErrorCode::kInternal, 0, "boom"}),
      encode_knn_request(1, queries, 2, 30),
      encode_knn_response(2, result, {1, 1}),
      encode_range_request(3, queries, 2.0f, 30),
      encode_range_response(4, {{1, 2}, {3}}, {1, 1}),
      encode_knn_payload_request(8, {"ab", "", "cde"}, 2, 30),
  };
  for (const std::vector<std::uint8_t>& frame : frames) {
    const auto header = parse_header(frame);
    ASSERT_TRUE(header.has_value());
    const std::span<const std::uint8_t> payload = payload_of(frame);
    // Cut the payload at EVERY length short of complete: the decoder must
    // throw ProtocolError each time, never read out of bounds (ASan-checked
    // in the sanitize job) or allocate from a phantom count.
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      const std::span<const std::uint8_t> sub = payload.subspan(0, cut);
      switch (header->op) {
        case Op::kKnnRequest:
          EXPECT_THROW((void)decode_knn_request(sub), ProtocolError);
          break;
        case Op::kKnnPayloadRequest:
          EXPECT_THROW((void)decode_knn_payload_request(sub), ProtocolError);
          break;
        case Op::kKnnResponse:
          EXPECT_THROW((void)decode_knn_response(sub), ProtocolError);
          break;
        case Op::kRangeRequest:
          EXPECT_THROW((void)decode_range_request(sub), ProtocolError);
          break;
        case Op::kRangeResponse:
          EXPECT_THROW((void)decode_range_response(sub), ProtocolError);
          break;
        case Op::kInfoResponse:
          EXPECT_THROW((void)decode_info_response(sub), ProtocolError);
          break;
        case Op::kReloadRequest:
          EXPECT_THROW((void)decode_reload_request(sub), ProtocolError);
          break;
        case Op::kError:
          EXPECT_THROW((void)decode_error(sub), ProtocolError);
          break;
        default:
          FAIL() << "unexpected op";
      }
    }
  }
}

TEST(NetProtocol, TrailingBytesAreRejected) {
  const Matrix<float> queries = testutil::random_matrix(2, 3, 19);
  std::vector<std::uint8_t> frame = encode_knn_request(1, queries, 2);
  frame.push_back(0x42);  // one byte past the message's own end
  const std::span<const std::uint8_t> payload{frame.data() + kHeaderSize,
                                              frame.size() - kHeaderSize};
  EXPECT_THROW((void)decode_knn_request(payload), ProtocolError);

  // An info request has no payload, so any byte in it is trailing.
  EXPECT_NO_THROW(decode_info_request(payload_of(encode_info_request(2))));
  const std::uint8_t stray = 0x42;
  EXPECT_THROW(decode_info_request({&stray, 1}), ProtocolError);
}

TEST(NetProtocol, GarbageCountsNeverDriveAllocation) {
  // A knn request claiming 2^31 rows in a 16-byte payload: the row-count
  // caps and count-vs-bytes checks must fire before any allocation.
  std::vector<std::uint8_t> payload(16, 0);
  const std::uint32_t k = 1, nq = 1u << 31, dim = 64;
  std::memcpy(payload.data(), &k, 4);
  std::memcpy(payload.data() + 4, &nq, 4);
  std::memcpy(payload.data() + 8, &dim, 4);
  EXPECT_THROW((void)decode_knn_request(payload), ProtocolError);

  // A range response whose per-row hit count exceeds the bytes present.
  std::vector<std::uint8_t> range(8, 0);
  const std::uint32_t rows = 1, hits = 1000;
  std::memcpy(range.data(), &rows, 4);
  std::memcpy(range.data() + 4, &hits, 4);
  EXPECT_THROW((void)decode_range_response(range), ProtocolError);

  // An info response claiming a 4 GiB backend-name string.
  std::vector<std::uint8_t> info(8, 0);
  const std::uint32_t len = 0xFFFFFFFF;
  std::memcpy(info.data(), &len, 4);
  EXPECT_THROW((void)decode_info_response(info), ProtocolError);

  // k = 0 in a knn request is meaningless and must be rejected.
  std::vector<std::uint8_t> zero_k(12, 0);
  EXPECT_THROW((void)decode_knn_request(zero_k), ProtocolError);
}

TEST(NetProtocol, RandomGarbagePayloadsThrowOrDecode) {
  // Deterministic fuzz: feed every decoder random bytes. Any outcome is
  // fine except a crash/UB — decoders must either throw ProtocolError or
  // (rarely) produce a structurally valid message.
  Rng rng(1234);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::uint8_t> bytes(rng.uniform_index(64));
    for (std::uint8_t& b : bytes)
      b = static_cast<std::uint8_t>(rng.uniform_index(256));
    const auto poke = [&](auto&& decode) {
      try {
        (void)decode(bytes);
      } catch (const ProtocolError&) {
      }
    };
    poke([](auto b) { return decode_knn_request(b); });
    poke([](auto b) { return decode_knn_response(b); });
    poke([](auto b) { return decode_range_request(b); });
    poke([](auto b) { return decode_range_response(b); });
    poke([](auto b) { return decode_knn_payload_request(b); });
    poke([](auto b) { return decode_info_response(b); });
    poke([](auto b) { return decode_reload_request(b); });
    poke([](auto b) { return decode_error(b); });
  }
}

TEST(NetProtocol, UnknownErrorCodeIsRejected) {
  std::vector<std::uint8_t> frame =
      encode_error(1, {ErrorCode::kBadRequest, 0, "x"});
  const std::uint16_t bogus = 999;
  std::memcpy(frame.data() + kHeaderSize, &bogus, 2);
  EXPECT_THROW((void)decode_error(payload_of(frame)), ProtocolError);
}

}  // namespace
}  // namespace rbc::serve::net
