// Wire protocol of the network serving layer: length-prefixed binary frames
// over a byte stream (TCP), with explicit error frames.
//
// Every frame is a fixed 20-byte header followed by payload_len payload
// bytes, all little-endian host layout (the same portability stance as the
// index serialization format in rbc/serialize_io.hpp):
//
//   offset  size  field
//        0     4  magic        0x5242434E ("RBCN" in the io-magic style)
//        4     1  version      kNetVersion; any other value is refused
//        5     1  opcode       Op below
//        6     2  flags        reserved, must be 0
//        8     8  request_id   caller-chosen, echoed on the response
//       16     4  payload_len  payload bytes following the header
//
// There is one payload layout per opcode and no handshake. The version byte
// lets a peer speaking another layout be refused at the header (an error
// frame, then the connection closes) instead of misparsed; it reads 3 so
// that frames of the retired version-1 and version-2 layouts are refused.
//
// Codec hardening is first-class: every decode validates claimed counts
// against the bytes actually present *before* allocating (the same
// discipline io::require_bytes applies to index files), rejects frames whose
// payload disagrees with its own length field, and bounds row/dim/k counts
// so a garbage frame can never drive a giant allocation. Malformed input
// throws ProtocolError — the server answers with an error frame and drops
// the connection; it never crashes.
//
// Request/response pairs (client -> server):
//   kKnnRequest   {k, deadline_ms, nq, dim, rows}
//       -> kKnnResponse {nq, k, ids, dists, covered, total}
//   kKnnPayloadRequest {k, deadline_ms, nq, nq x (len, bytes)}
//       -> kKnnResponse (same layout as above)
//   kRangeRequest {radius, deadline_ms, nq, dim, rows}
//       -> kRangeResponse {nq, nq x (count, ids), covered, total}
//   kInfoRequest  {}                        -> kInfoResponse {InfoMsg}
//   kReloadRequest {path}                   -> kReloadResponse {}
//   any request may instead be answered by kError {code, retry_after, text}
// deadline_ms is the caller's remaining latency budget in milliseconds
// (0 = none); servers shed work past it and answer kError{kDeadlineExceeded}.
// {covered, total} counts the shards behind the answer, so a router can
// report a partial result instead of failing closed; a single-shard server
// reports {1, 1}.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bruteforce/bf.hpp"
#include "common/matrix.hpp"
#include "common/types.hpp"

namespace rbc::serve::net {

inline constexpr std::uint32_t kNetMagic = 0x5242434E;  // "RBCN"
inline constexpr std::uint8_t kNetVersion = 3;
inline constexpr std::size_t kHeaderSize = 20;

/// Default ceiling on a frame's payload. A query block of 1M rows x 64 dims
/// fits; anything larger should be split by the caller.
inline constexpr std::uint32_t kDefaultMaxPayload = 256u << 20;

// Plausibility caps applied by the decoders before any allocation: a frame
// whose counts exceed these is malformed by definition (and, combined with
// the count-vs-payload checks, they make decode allocation proportional to
// bytes actually received, never to claimed sizes).
inline constexpr std::uint32_t kMaxRowsPerFrame = 1u << 20;
inline constexpr std::uint32_t kMaxDimPerFrame = 1u << 16;
inline constexpr std::uint32_t kMaxKPerFrame = 1u << 20;
inline constexpr std::uint32_t kMaxStringLen = 1u << 16;

enum class Op : std::uint8_t {
  kKnnRequest = 1,
  kKnnResponse = 2,
  kRangeRequest = 3,
  kRangeResponse = 4,
  kInfoRequest = 5,
  kInfoResponse = 6,
  kReloadRequest = 7,
  kReloadResponse = 8,
  kError = 9,
  kKnnPayloadRequest = 10,  ///< payload queries; answered by kKnnResponse
};

/// Machine-readable failure classes carried by kError frames.
enum class ErrorCode : std::uint16_t {
  kBadRequest = 1,        ///< request invalid for this index (dim/k mismatch)
  kOverloaded = 2,        ///< admission queue full; honor retry_after_ms
  kShuttingDown = 3,      ///< server draining; reconnect elsewhere/later
  kInternal = 4,          ///< backend failure while executing the request
  kMalformedFrame = 5,    ///< undecodable payload; connection will close
  kDeadlineExceeded = 6,  ///< request's deadline_ms budget expired
};

/// Thrown by every decoder on malformed input (truncation, garbage counts,
/// trailing bytes, cap violations). Deliberately a std::runtime_error
/// subclass: network corruption is the same failure class as file
/// corruption (rbc::io), not a caller bug.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct FrameHeader {
  std::uint8_t version = kNetVersion;
  Op op = Op::kError;
  std::uint64_t request_id = 0;
  std::uint32_t payload_len = 0;
};

/// Parses a frame header from the front of `bytes`. Returns nullopt when
/// fewer than kHeaderSize bytes are available (caller: read more). Throws
/// ProtocolError on bad magic, a version other than kNetVersion, unknown
/// opcode, nonzero flags, or a payload_len over `max_payload` — all
/// conditions where the byte stream cannot be resynchronized and the
/// connection must close.
std::optional<FrameHeader> parse_header(
    std::span<const std::uint8_t> bytes,
    std::uint32_t max_payload = kDefaultMaxPayload);

/// One complete frame: header (stamped kNetVersion) + payload, ready to
/// write to a socket.
std::vector<std::uint8_t> encode_frame(Op op, std::uint64_t request_id,
                                       std::span<const std::uint8_t> payload);

// ------------------------------------------------------------- messages ---

struct KnnRequestMsg {
  index_t k = 0;
  std::uint32_t deadline_ms = 0;  ///< remaining budget; 0 = no deadline
  Matrix<float> queries;
};

/// Payload queries against a payload-built index. The codec bounds each
/// query at kMaxStringLen bytes (matching metricspace's kMaxPayloadBytes
/// dataset cap) and validates per-query lengths against the bytes actually
/// present before allocating.
struct KnnPayloadRequestMsg {
  index_t k = 0;
  std::uint32_t deadline_ms = 0;  ///< remaining budget; 0 = no deadline
  std::vector<std::string> queries;
};

struct RangeRequestMsg {
  dist_t radius = 0.0f;
  std::uint32_t deadline_ms = 0;  ///< remaining budget; 0 = no deadline
  Matrix<float> queries;
};

/// Response trailer: how many of the shards behind this answer actually
/// contributed. A single-process server is its own single shard ({1, 1});
/// a router in allow_partial mode may forward covered < total.
struct Coverage {
  std::uint32_t covered = 1;
  std::uint32_t total = 1;

  bool full() const { return covered == total; }
  friend bool operator==(const Coverage&, const Coverage&) = default;
};

struct KnnResponseMsg {
  KnnResult result{0, 0};
  Coverage coverage;
};

struct RangeResponseMsg {
  std::vector<std::vector<index_t>> ids;
  Coverage coverage;
};

struct ErrorMsg {
  ErrorCode code = ErrorCode::kInternal;
  std::uint32_t retry_after_ms = 0;  ///< meaningful for kOverloaded
  std::string message;
};

/// INFO response: index identity plus service-level and per-connection
/// serving counters (the per-connection half of serve/stats.hpp's
/// ConnCounters, as observed for the asking connection).
struct InfoMsg {
  std::string backend;
  std::string metric;
  std::uint32_t size = 0;
  std::uint32_t dim = 0;
  std::uint64_t completed = 0;  ///< service-lifetime queries completed
  std::uint64_t rejected = 0;   ///< service-lifetime admission rejections
  double p50_ms = 0.0;          ///< service latency percentiles
  double p99_ms = 0.0;
  std::uint64_t conn_requests = 0;  ///< this connection's admitted frames
  std::uint64_t conn_rejected = 0;  ///< this connection's rejections
  std::uint64_t conn_bytes_in = 0;
  std::uint64_t conn_bytes_out = 0;
  /// Per-metric work accounting of payload indexes. cost_unit names the
  /// unit ("chars_compared", "edges_relaxed"; empty for dense indexes),
  /// metric_cost is the service-lifetime total.
  std::string cost_unit;
  std::uint64_t metric_cost = 0;
};

// Encoders return a complete frame (header included). Decoders take the
// payload alone (header already parsed/validated) and throw ProtocolError on
// any inconsistency, including unconsumed trailing bytes. A decoder handed a
// version byte (a header's, say) refuses any but kNetVersion.

std::vector<std::uint8_t> encode_knn_request(std::uint64_t request_id,
                                             const Matrix<float>& queries,
                                             index_t k,
                                             std::uint32_t deadline_ms = 0);
KnnRequestMsg decode_knn_request(std::span<const std::uint8_t> payload,
                                 std::uint8_t version = kNetVersion);

std::vector<std::uint8_t> encode_knn_response(std::uint64_t request_id,
                                              const KnnResult& result,
                                              Coverage coverage = {});
KnnResponseMsg decode_knn_response(std::span<const std::uint8_t> payload,
                                   std::uint8_t version = kNetVersion);

std::vector<std::uint8_t> encode_knn_payload_request(
    std::uint64_t request_id, const std::vector<std::string>& queries,
    index_t k, std::uint32_t deadline_ms = 0);
KnnPayloadRequestMsg decode_knn_payload_request(
    std::span<const std::uint8_t> payload, std::uint8_t version = kNetVersion);

std::vector<std::uint8_t> encode_range_request(std::uint64_t request_id,
                                               const Matrix<float>& queries,
                                               dist_t radius,
                                               std::uint32_t deadline_ms = 0);
RangeRequestMsg decode_range_request(std::span<const std::uint8_t> payload,
                                     std::uint8_t version = kNetVersion);

std::vector<std::uint8_t> encode_range_response(
    std::uint64_t request_id, const std::vector<std::vector<index_t>>& ids,
    Coverage coverage = {});
RangeResponseMsg decode_range_response(std::span<const std::uint8_t> payload,
                                       std::uint8_t version = kNetVersion);

std::vector<std::uint8_t> encode_info_request(std::uint64_t request_id);
/// An info request has an empty payload; any byte in it is malformed.
void decode_info_request(std::span<const std::uint8_t> payload);
std::vector<std::uint8_t> encode_info_response(std::uint64_t request_id,
                                               const InfoMsg& info);
InfoMsg decode_info_response(std::span<const std::uint8_t> payload,
                             std::uint8_t version = kNetVersion);

std::vector<std::uint8_t> encode_reload_request(std::uint64_t request_id,
                                                const std::string& path);
std::string decode_reload_request(std::span<const std::uint8_t> payload);
std::vector<std::uint8_t> encode_reload_response(std::uint64_t request_id);

std::vector<std::uint8_t> encode_error(std::uint64_t request_id,
                                       const ErrorMsg& error);
ErrorMsg decode_error(std::span<const std::uint8_t> payload);

}  // namespace rbc::serve::net
