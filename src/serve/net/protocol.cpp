#include "serve/net/protocol.hpp"

#include <cstdio>
#include <cstring>

namespace rbc::serve::net {

namespace {

// --- little-endian byte writer -------------------------------------------
// Payloads are assembled into a plain byte vector; the frame header is
// prepended at the end (encode_frame), so each encoder allocates once.

struct Writer {
  std::vector<std::uint8_t> buf;

  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf.insert(buf.end(), p, p + n);
  }
  template <class T>
  void pod(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(&value, sizeof(T));
  }
  void str(const std::string& s) {
    pod(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
};

// --- bounds-checked reader -----------------------------------------------
// Every get() validates against the bytes actually present before touching
// them — the in-memory analogue of io::require_bytes. done() additionally
// rejects trailing bytes: a payload that decodes but is longer than its
// message is a framing bug on the peer, not something to silently accept.

struct Reader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;
  const char* what;  // message name for error text

  void require(std::size_t n, const char* field) const {
    if (bytes.size() - pos < n)
      throw ProtocolError(std::string("rbc::net: truncated ") + what +
                          " payload reading " + field + " (" +
                          std::to_string(n) + " bytes claimed, " +
                          std::to_string(bytes.size() - pos) + " left)");
  }
  template <class T>
  T pod(const char* field) {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T), field);
    T value;
    std::memcpy(&value, bytes.data() + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }
  std::string str(const char* field) {
    const auto len = pod<std::uint32_t>(field);
    if (len > kMaxStringLen)
      throw ProtocolError(std::string("rbc::net: implausible ") + what + " " +
                          field + " length " + std::to_string(len));
    require(len, field);
    std::string s(reinterpret_cast<const char*>(bytes.data() + pos), len);
    pos += len;
    return s;
  }
  void done() const {
    if (pos != bytes.size())
      throw ProtocolError(std::string("rbc::net: ") + what + " payload has " +
                          std::to_string(bytes.size() - pos) +
                          " trailing bytes");
  }
};

/// Decoders can be handed a version byte directly (a header's, or a
/// test's), not only one that already passed parse_header — so they
/// re-check it.
void require_version(std::uint8_t version, const char* what) {
  if (version != kNetVersion)
    throw ProtocolError(std::string("rbc::net: ") + what +
                        " under unsupported protocol version " +
                        std::to_string(version));
}

/// Validates a (rows, dim) pair against the caps and the remaining payload,
/// then reads the packed row-major float block into a Matrix.
Matrix<float> read_rows(Reader& r, std::uint32_t nq, std::uint32_t dim) {
  if (nq > kMaxRowsPerFrame)
    throw ProtocolError("rbc::net: implausible row count " +
                        std::to_string(nq));
  if (dim == 0 || dim > kMaxDimPerFrame)
    throw ProtocolError("rbc::net: implausible dimension " +
                        std::to_string(dim));
  const std::uint64_t floats =
      static_cast<std::uint64_t>(nq) * static_cast<std::uint64_t>(dim);
  r.require(static_cast<std::size_t>(floats) * sizeof(float), "rows");
  Matrix<float> m(static_cast<index_t>(nq), static_cast<index_t>(dim));
  for (std::uint32_t i = 0; i < nq; ++i) {
    std::memcpy(m.row(i), r.bytes.data() + r.pos, dim * sizeof(float));
    r.pos += dim * sizeof(float);
  }
  return m;
}

void write_rows(Writer& w, const Matrix<float>& m) {
  for (index_t i = 0; i < m.rows(); ++i)
    w.raw(m.row(i), m.cols() * sizeof(float));
}

/// Response trailer. Coverage counts are shard counts, so the row cap is a
/// generous plausibility bound.
void write_coverage(Writer& w, Coverage coverage) {
  w.pod<std::uint32_t>(coverage.covered);
  w.pod<std::uint32_t>(coverage.total);
}

Coverage read_coverage(Reader& r) {
  Coverage c;
  c.covered = r.pod<std::uint32_t>("covered shards");
  c.total = r.pod<std::uint32_t>("total shards");
  if (c.total == 0 || c.total > kMaxRowsPerFrame)
    throw ProtocolError("rbc::net: implausible total shard count " +
                        std::to_string(c.total));
  if (c.covered > c.total)
    throw ProtocolError("rbc::net: coverage " + std::to_string(c.covered) +
                        "/" + std::to_string(c.total) + " exceeds total");
  return c;
}

}  // namespace

std::optional<FrameHeader> parse_header(std::span<const std::uint8_t> bytes,
                                        std::uint32_t max_payload) {
  if (bytes.size() < kHeaderSize) return std::nullopt;
  std::uint32_t magic = 0;
  std::memcpy(&magic, bytes.data(), 4);
  if (magic != kNetMagic)
    throw ProtocolError("rbc::net: bad frame magic 0x" + [magic] {
      char hex[9];
      std::snprintf(hex, sizeof hex, "%08x", magic);
      return std::string(hex);
    }());
  FrameHeader h;
  h.version = bytes[4];
  if (h.version != kNetVersion)
    throw ProtocolError("rbc::net: unsupported protocol version " +
                        std::to_string(h.version));
  const std::uint8_t op = bytes[5];
  if (op < static_cast<std::uint8_t>(Op::kKnnRequest) ||
      op > static_cast<std::uint8_t>(Op::kKnnPayloadRequest))
    throw ProtocolError("rbc::net: unknown opcode " + std::to_string(op));
  h.op = static_cast<Op>(op);
  std::uint16_t flags = 0;
  std::memcpy(&flags, bytes.data() + 6, 2);
  if (flags != 0)
    throw ProtocolError("rbc::net: nonzero reserved flags " +
                        std::to_string(flags));
  std::memcpy(&h.request_id, bytes.data() + 8, 8);
  std::memcpy(&h.payload_len, bytes.data() + 16, 4);
  if (h.payload_len > max_payload)
    throw ProtocolError("rbc::net: frame payload " +
                        std::to_string(h.payload_len) +
                        " bytes exceeds the limit of " +
                        std::to_string(max_payload));
  return h;
}

std::vector<std::uint8_t> encode_frame(Op op, std::uint64_t request_id,
                                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame(kHeaderSize + payload.size());
  const std::uint32_t magic = kNetMagic;
  std::memcpy(frame.data(), &magic, 4);
  frame[4] = kNetVersion;
  frame[5] = static_cast<std::uint8_t>(op);
  frame[6] = 0;  // flags
  frame[7] = 0;
  std::memcpy(frame.data() + 8, &request_id, 8);
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::memcpy(frame.data() + 16, &len, 4);
  if (!payload.empty())
    std::memcpy(frame.data() + kHeaderSize, payload.data(), payload.size());
  return frame;
}

// ----------------------------------------------------------------- knn ----

std::vector<std::uint8_t> encode_knn_request(std::uint64_t request_id,
                                             const Matrix<float>& queries,
                                             index_t k,
                                             std::uint32_t deadline_ms) {
  Writer w;
  w.pod<std::uint32_t>(k);
  w.pod<std::uint32_t>(deadline_ms);
  w.pod<std::uint32_t>(queries.rows());
  w.pod<std::uint32_t>(queries.cols());
  write_rows(w, queries);
  return encode_frame(Op::kKnnRequest, request_id, w.buf);
}

KnnRequestMsg decode_knn_request(std::span<const std::uint8_t> payload,
                                 std::uint8_t version) {
  require_version(version, "decoding knn request");
  Reader r{payload, 0, "knn request"};
  KnnRequestMsg msg;
  const auto k = r.pod<std::uint32_t>("k");
  if (k == 0 || k > kMaxKPerFrame)
    throw ProtocolError("rbc::net: implausible k " + std::to_string(k));
  msg.k = static_cast<index_t>(k);
  msg.deadline_ms = r.pod<std::uint32_t>("deadline_ms");
  const auto nq = r.pod<std::uint32_t>("nq");
  const auto dim = r.pod<std::uint32_t>("dim");
  msg.queries = read_rows(r, nq, dim);
  r.done();
  return msg;
}

std::vector<std::uint8_t> encode_knn_response(std::uint64_t request_id,
                                              const KnnResult& result,
                                              Coverage coverage) {
  Writer w;
  w.pod<std::uint32_t>(result.ids.rows());
  w.pod<std::uint32_t>(result.ids.cols());
  for (index_t i = 0; i < result.ids.rows(); ++i)
    w.raw(result.ids.row(i), result.ids.cols() * sizeof(index_t));
  for (index_t i = 0; i < result.dists.rows(); ++i)
    w.raw(result.dists.row(i), result.dists.cols() * sizeof(dist_t));
  write_coverage(w, coverage);
  return encode_frame(Op::kKnnResponse, request_id, w.buf);
}

KnnResponseMsg decode_knn_response(std::span<const std::uint8_t> payload,
                                   std::uint8_t version) {
  require_version(version, "decoding knn response");
  Reader r{payload, 0, "knn response"};
  const auto nq = r.pod<std::uint32_t>("nq");
  const auto k = r.pod<std::uint32_t>("k");
  if (nq > kMaxRowsPerFrame)
    throw ProtocolError("rbc::net: implausible row count " +
                        std::to_string(nq));
  if (k > kMaxKPerFrame)
    throw ProtocolError("rbc::net: implausible k " + std::to_string(k));
  const std::uint64_t cells =
      static_cast<std::uint64_t>(nq) * static_cast<std::uint64_t>(k);
  r.require(static_cast<std::size_t>(cells) *
                (sizeof(index_t) + sizeof(dist_t)),
            "neighbor rows");
  KnnResponseMsg msg;
  msg.result = KnnResult(static_cast<index_t>(nq), static_cast<index_t>(k));
  for (std::uint32_t i = 0; i < nq; ++i) {
    std::memcpy(msg.result.ids.row(i), r.bytes.data() + r.pos,
                k * sizeof(index_t));
    r.pos += k * sizeof(index_t);
  }
  for (std::uint32_t i = 0; i < nq; ++i) {
    std::memcpy(msg.result.dists.row(i), r.bytes.data() + r.pos,
                k * sizeof(dist_t));
    r.pos += k * sizeof(dist_t);
  }
  msg.coverage = read_coverage(r);
  r.done();
  return msg;
}

// ------------------------------------------------------- knn (payload) ----

std::vector<std::uint8_t> encode_knn_payload_request(
    std::uint64_t request_id, const std::vector<std::string>& queries,
    index_t k, std::uint32_t deadline_ms) {
  for (const std::string& q : queries)
    if (q.size() > kMaxStringLen)
      throw ProtocolError("rbc::net: payload query of " +
                          std::to_string(q.size()) +
                          " bytes exceeds the per-query limit of " +
                          std::to_string(kMaxStringLen));
  Writer w;
  w.pod<std::uint32_t>(k);
  w.pod<std::uint32_t>(deadline_ms);
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(queries.size()));
  for (const std::string& q : queries) w.str(q);
  return encode_frame(Op::kKnnPayloadRequest, request_id, w.buf);
}

KnnPayloadRequestMsg decode_knn_payload_request(
    std::span<const std::uint8_t> payload, std::uint8_t version) {
  require_version(version, "decoding knn payload request");
  Reader r{payload, 0, "knn payload request"};
  KnnPayloadRequestMsg msg;
  const auto k = r.pod<std::uint32_t>("k");
  if (k == 0 || k > kMaxKPerFrame)
    throw ProtocolError("rbc::net: implausible k " + std::to_string(k));
  msg.k = static_cast<index_t>(k);
  msg.deadline_ms = r.pod<std::uint32_t>("deadline_ms");
  const auto nq = r.pod<std::uint32_t>("nq");
  if (nq > kMaxRowsPerFrame)
    throw ProtocolError("rbc::net: implausible row count " +
                        std::to_string(nq));
  // Reader::str caps each query at kMaxStringLen and validates the claimed
  // length against the bytes present before allocating, so total decode
  // allocation is bounded by the payload actually received.
  msg.queries.reserve(nq);
  for (std::uint32_t i = 0; i < nq; ++i)
    msg.queries.push_back(r.str("query"));
  r.done();
  return msg;
}

// --------------------------------------------------------------- range ----

std::vector<std::uint8_t> encode_range_request(std::uint64_t request_id,
                                               const Matrix<float>& queries,
                                               dist_t radius,
                                               std::uint32_t deadline_ms) {
  Writer w;
  w.pod<dist_t>(radius);
  w.pod<std::uint32_t>(deadline_ms);
  w.pod<std::uint32_t>(queries.rows());
  w.pod<std::uint32_t>(queries.cols());
  write_rows(w, queries);
  return encode_frame(Op::kRangeRequest, request_id, w.buf);
}

RangeRequestMsg decode_range_request(std::span<const std::uint8_t> payload,
                                     std::uint8_t version) {
  require_version(version, "decoding range request");
  Reader r{payload, 0, "range request"};
  RangeRequestMsg msg;
  msg.radius = r.pod<dist_t>("radius");
  msg.deadline_ms = r.pod<std::uint32_t>("deadline_ms");
  const auto nq = r.pod<std::uint32_t>("nq");
  const auto dim = r.pod<std::uint32_t>("dim");
  msg.queries = read_rows(r, nq, dim);
  r.done();
  return msg;
}

std::vector<std::uint8_t> encode_range_response(
    std::uint64_t request_id, const std::vector<std::vector<index_t>>& ids,
    Coverage coverage) {
  Writer w;
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(ids.size()));
  for (const std::vector<index_t>& row : ids) {
    w.pod<std::uint32_t>(static_cast<std::uint32_t>(row.size()));
    w.raw(row.data(), row.size() * sizeof(index_t));
  }
  write_coverage(w, coverage);
  return encode_frame(Op::kRangeResponse, request_id, w.buf);
}

RangeResponseMsg decode_range_response(std::span<const std::uint8_t> payload,
                                       std::uint8_t version) {
  require_version(version, "decoding range response");
  Reader r{payload, 0, "range response"};
  const auto nq = r.pod<std::uint32_t>("nq");
  if (nq > kMaxRowsPerFrame)
    throw ProtocolError("rbc::net: implausible row count " +
                        std::to_string(nq));
  RangeResponseMsg msg;
  msg.ids.resize(nq);
  for (std::uint32_t i = 0; i < nq; ++i) {
    const auto count = r.pod<std::uint32_t>("hit count");
    // 4 bytes/hit must still be present — checked before the allocation.
    r.require(static_cast<std::size_t>(count) * sizeof(index_t), "hit ids");
    if (count == 0) continue;  // empty row; data() may be null, skip memcpy
    msg.ids[i].resize(count);
    std::memcpy(msg.ids[i].data(), r.bytes.data() + r.pos,
                count * sizeof(index_t));
    r.pos += count * sizeof(index_t);
  }
  msg.coverage = read_coverage(r);
  r.done();
  return msg;
}

// ---------------------------------------------------------------- info ----

std::vector<std::uint8_t> encode_info_request(std::uint64_t request_id) {
  return encode_frame(Op::kInfoRequest, request_id, {});
}

void decode_info_request(std::span<const std::uint8_t> payload) {
  Reader{payload, 0, "info request"}.done();
}

std::vector<std::uint8_t> encode_info_response(std::uint64_t request_id,
                                               const InfoMsg& info) {
  Writer w;
  w.str(info.backend);
  w.str(info.metric);
  w.pod<std::uint32_t>(info.size);
  w.pod<std::uint32_t>(info.dim);
  w.pod<std::uint64_t>(info.completed);
  w.pod<std::uint64_t>(info.rejected);
  w.pod<double>(info.p50_ms);
  w.pod<double>(info.p99_ms);
  w.pod<std::uint64_t>(info.conn_requests);
  w.pod<std::uint64_t>(info.conn_rejected);
  w.pod<std::uint64_t>(info.conn_bytes_in);
  w.pod<std::uint64_t>(info.conn_bytes_out);
  w.str(info.cost_unit);
  w.pod<std::uint64_t>(info.metric_cost);
  return encode_frame(Op::kInfoResponse, request_id, w.buf);
}

InfoMsg decode_info_response(std::span<const std::uint8_t> payload,
                             std::uint8_t version) {
  require_version(version, "decoding info response");
  Reader r{payload, 0, "info response"};
  InfoMsg info;
  info.backend = r.str("backend");
  info.metric = r.str("metric");
  info.size = r.pod<std::uint32_t>("size");
  info.dim = r.pod<std::uint32_t>("dim");
  info.completed = r.pod<std::uint64_t>("completed");
  info.rejected = r.pod<std::uint64_t>("rejected");
  info.p50_ms = r.pod<double>("p50_ms");
  info.p99_ms = r.pod<double>("p99_ms");
  info.conn_requests = r.pod<std::uint64_t>("conn_requests");
  info.conn_rejected = r.pod<std::uint64_t>("conn_rejected");
  info.conn_bytes_in = r.pod<std::uint64_t>("conn_bytes_in");
  info.conn_bytes_out = r.pod<std::uint64_t>("conn_bytes_out");
  info.cost_unit = r.str("cost_unit");
  info.metric_cost = r.pod<std::uint64_t>("metric_cost");
  r.done();
  return info;
}

// -------------------------------------------------------------- reload ----

std::vector<std::uint8_t> encode_reload_request(std::uint64_t request_id,
                                                const std::string& path) {
  Writer w;
  w.str(path);
  return encode_frame(Op::kReloadRequest, request_id, w.buf);
}

std::string decode_reload_request(std::span<const std::uint8_t> payload) {
  Reader r{payload, 0, "reload request"};
  std::string path = r.str("path");
  r.done();
  return path;
}

std::vector<std::uint8_t> encode_reload_response(std::uint64_t request_id) {
  return encode_frame(Op::kReloadResponse, request_id, {});
}

// --------------------------------------------------------------- error ----

std::vector<std::uint8_t> encode_error(std::uint64_t request_id,
                                       const ErrorMsg& error) {
  Writer w;
  w.pod<std::uint16_t>(static_cast<std::uint16_t>(error.code));
  w.pod<std::uint32_t>(error.retry_after_ms);
  w.str(error.message);
  return encode_frame(Op::kError, request_id, w.buf);
}

ErrorMsg decode_error(std::span<const std::uint8_t> payload) {
  Reader r{payload, 0, "error"};
  ErrorMsg error;
  const auto code = r.pod<std::uint16_t>("code");
  if (code < static_cast<std::uint16_t>(ErrorCode::kBadRequest) ||
      code > static_cast<std::uint16_t>(ErrorCode::kDeadlineExceeded))
    throw ProtocolError("rbc::net: unknown error code " +
                        std::to_string(code));
  error.code = static_cast<ErrorCode>(code);
  error.retry_after_ms = r.pod<std::uint32_t>("retry_after_ms");
  error.message = r.str("message");
  r.done();
  return error;
}

}  // namespace rbc::serve::net
