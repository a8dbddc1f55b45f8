// Binary (de)serialization helpers for index persistence.
//
// Format: little-endian host layout, guarded by magic + version + metric
// name. Indexes round-trip bit-exactly (tested); files are not portable
// across architectures with different endianness, which is documented in the
// README.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/matrix.hpp"
#include "common/types.hpp"
#include "distance/quantized.hpp"
#include "rbc/params.hpp"

namespace rbc::io {

// Every serializable index format leads with one of these magics; the
// unified rbc::load_index() dispatches on them (see api/registry.hpp).
inline constexpr std::uint32_t kMagicExact = 0x52424358;      // "RBCX"
inline constexpr std::uint32_t kMagicOneShot = 0x52424331;    // "RBC1"
inline constexpr std::uint32_t kMagicBruteForce = 0x52424342;  // "RBCB"
inline constexpr std::uint32_t kMagicKdTree = 0x5242434B;      // "RBCK"
inline constexpr std::uint32_t kMagicBallTree = 0x52424354;    // "RBCT"
inline constexpr std::uint32_t kMagicCoverTree = 0x52424343;   // "RBCC"
inline constexpr std::uint32_t kMagicSharded = 0x52424353;     // "RBCS"
inline constexpr std::uint32_t kFormatVersion = 1;
/// Format version 2: identical to 1 except a metric-name tag follows the
/// version field. The unified backends write it (write_metric_header) so a
/// file remembers which metric it was built for; version-1 files (written
/// before metrics were runtime-selectable) load as "l2".
inline constexpr std::uint32_t kFormatVersionMetric = 2;
/// Format version 3: the mutable-index format (mutate/mutable_index.hpp) —
/// metric tag, raw-backend build knobs, then explicit global ids + rows for
/// the main structure, the delta shard, and the tombstone set. Only the
/// mutation-capable wrappers write or read it; raw backend loaders (and
/// read_metric_header) keep rejecting version >= 3 as unknown.
inline constexpr std::uint32_t kFormatVersionMutable = 3;
/// Format version 4: version 2 plus a storage tag (distance/quantized.hpp
/// registry name) after the metric tag. Raw backends write it ONLY when
/// built with compressed storage — float32 streams keep the version-2 byte
/// layout, so every pre-storage file and reader stays compatible. The
/// compressed code store itself follows the backend's concrete payload
/// (write_quantized_store below).
inline constexpr std::uint32_t kFormatVersionStorage = 4;
/// Format version 5: the mutable-index format (version 3) plus a storage
/// tag after the metric tag — again written only when storage != float32.
inline constexpr std::uint32_t kFormatVersionMutableStorage = 5;
/// Payload-dataset index files (metricspace/: strings, graphs, user blobs)
/// lead with their own magic — they carry a dataset, not a matrix, so no
/// dense loader could misread one. Layout (version 6): magic, version,
/// backend tag, metric-space tag, RbcParams, serialized dataset; search
/// structures are rebuilt deterministically from the params on load.
inline constexpr std::uint32_t kMagicPayload = 0x52424350;  // "RBCP"
inline constexpr std::uint32_t kFormatVersionPayload = 6;

/// Bytes between the current read position and the end of the stream, or
/// -1 when the stream is not seekable. Loaders use this to reject a
/// corrupt length field *before* allocating for it: a truncated or
/// bit-flipped file must fail with a clear error, never a multi-gigabyte
/// allocation (or worse) driven by garbage bytes.
inline std::int64_t remaining_bytes(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) return -1;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(here);
  if (end == std::istream::pos_type(-1) || !is) {
    is.clear();
    is.seekg(here);
    return -1;
  }
  return static_cast<std::int64_t>(end - here);
}

/// Throws unless the stream still holds `payload` bytes (no-op on
/// non-seekable streams, which cannot be measured).
inline void require_bytes(std::istream& is, std::uint64_t payload,
                          const char* what) {
  const std::int64_t left = remaining_bytes(is);
  if (left >= 0 && static_cast<std::uint64_t>(left) < payload)
    throw std::runtime_error(
        std::string("rbc::io: truncated or corrupt stream reading ") + what +
        " (" + std::to_string(payload) + " bytes claimed, " +
        std::to_string(left) + " left)");
}

template <class T>
void write_pod(std::ostream& os, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Writes RbcParams in its in-memory layout, as the exact, one-shot and
/// payload formats store it, with the padding bytes zeroed: a zero-filled
/// image gets each field's bytes at its offset, so equal params always save
/// equal bytes (read_pod reads it back).
inline void write_params(std::ostream& os, const RbcParams& p) {
  static_assert(std::is_standard_layout_v<RbcParams>);
  unsigned char bytes[sizeof(RbcParams)] = {};
  const auto put = [&bytes](std::size_t offset, const auto& field) {
    std::memcpy(bytes + offset, &field, sizeof field);
  };
  put(offsetof(RbcParams, num_reps), p.num_reps);
  put(offsetof(RbcParams, points_per_rep), p.points_per_rep);
  put(offsetof(RbcParams, seed), p.seed);
  put(offsetof(RbcParams, sampling), p.sampling);
  put(offsetof(RbcParams, use_overlap_rule), p.use_overlap_rule);
  put(offsetof(RbcParams, use_lemma_rule), p.use_lemma_rule);
  put(offsetof(RbcParams, use_early_exit), p.use_early_exit);
  put(offsetof(RbcParams, use_annulus_bound), p.use_annulus_bound);
  put(offsetof(RbcParams, approx_eps), p.approx_eps);
  put(offsetof(RbcParams, num_probes), p.num_probes);
  os.write(reinterpret_cast<const char*>(bytes), sizeof bytes);
}

template <class T>
void read_pod(std::istream& is, T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw std::runtime_error("rbc::io: truncated stream");
}

template <class T>
void expect_pod(std::istream& is, const T& expected, const char* what) {
  T actual{};
  read_pod(is, actual);
  if (actual != expected)
    throw std::runtime_error(std::string("rbc::io: mismatch reading ") + what);
}

inline void write_string(std::ostream& os, const std::string& s) {
  write_pod(os, static_cast<std::uint64_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

inline std::string read_string(std::istream& is) {
  std::uint64_t len = 0;
  read_pod(is, len);
  require_bytes(is, len, "string");
  std::string s(len, '\0');
  is.read(s.data(), static_cast<std::streamsize>(len));
  if (!is) throw std::runtime_error("rbc::io: truncated string");
  return s;
}

inline void expect_string(std::istream& is, const std::string& expected,
                          const char* what) {
  if (read_string(is) != expected)
    throw std::runtime_error(std::string("rbc::io: mismatch reading ") + what);
}

/// Writes the version-2 header tail (version + metric tag). Call right
/// after the format magic.
inline void write_metric_header(std::ostream& os, const std::string& metric) {
  write_pod(os, kFormatVersionMetric);
  write_string(os, metric);
}

/// Writes the header tail for a backend with a storage mode: the version-2
/// bytes for float32 (compatibility — see kFormatVersionStorage), the
/// version-4 tail (version + metric tag + storage tag) otherwise.
inline void write_storage_header(std::ostream& os, const std::string& metric,
                                 const std::string& storage) {
  if (storage == "float32") {
    write_metric_header(os, metric);
    return;
  }
  write_pod(os, kFormatVersionStorage);
  write_string(os, metric);
  write_string(os, storage);
}

/// Reads the version field written after a magic and returns the file's
/// metric name: version 1 (pre-metric format) => "l2"; version 2 => the
/// stored tag; version 4 => metric + storage tags (rejected unless the
/// caller passed `storage` — a loader that cannot carry a storage mode
/// must not silently drop it). Any other version is a corrupt/unknown
/// file (std::runtime_error). `legacy`, when non-null, reports whether the
/// stream was version 1 (loaders whose v1 payload differs structurally
/// from v2 — the rbc wrappers — branch on it). Callers still validate the
/// returned names against the metric/storage registries — a garbage tag is
/// corruption, not a caller error.
inline std::string read_metric_header(std::istream& is, const char* what,
                                      bool* legacy = nullptr,
                                      std::string* storage = nullptr) {
  std::uint32_t version = 0;
  read_pod(is, version);
  if (legacy != nullptr) *legacy = version == kFormatVersion;
  if (storage != nullptr) *storage = "float32";
  if (version == kFormatVersion) return "l2";
  if (version == kFormatVersionStorage && storage != nullptr) {
    std::string metric = read_string(is);
    *storage = read_string(is);
    return metric;
  }
  if (version != kFormatVersionMetric)
    throw std::runtime_error(
        std::string("rbc::io: unsupported format version ") +
        std::to_string(version) + " reading " + what);
  return read_string(is);
}

template <class T>
void write_vec(std::ostream& os, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod(os, static_cast<std::uint64_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <class T>
void read_vec(std::istream& is, std::vector<T>& v) {
  std::uint64_t size = 0;
  read_pod(is, size);
  require_bytes(is, size, "vector");  // 1 byte/element: overflow-proof gate
  require_bytes(is, size * sizeof(T), "vector");
  v.resize(size);
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(size * sizeof(T)));
  if (!is) throw std::runtime_error("rbc::io: truncated vector");
}

/// Writes only the logical (unpadded) payload; the padded stride is
/// reconstructed on read, so files are layout-independent.
inline void write_matrix(std::ostream& os, const Matrix<float>& m) {
  write_pod(os, m.rows());
  write_pod(os, m.cols());
  for (index_t i = 0; i < m.rows(); ++i)
    os.write(reinterpret_cast<const char*>(m.row(i)),
             static_cast<std::streamsize>(m.cols() * sizeof(float)));
}

inline Matrix<float> read_matrix(std::istream& is) {
  index_t rows = 0, cols = 0;
  read_pod(is, rows);
  read_pod(is, cols);
  const std::uint64_t cells =
      static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
  require_bytes(is, cells, "matrix");  // 1 byte/cell: overflow-proof gate
  require_bytes(is, cells * sizeof(float), "matrix");
  Matrix<float> m(rows, cols);
  for (index_t i = 0; i < rows; ++i) {
    is.read(reinterpret_cast<char*>(m.row(i)),
            static_cast<std::streamsize>(cols * sizeof(float)));
  }
  if (!is) throw std::runtime_error("rbc::io: truncated matrix");
  return m;
}

/// Compressed row store (distance/quantized.hpp), appended after a
/// version-4 backend's concrete payload. Persisting the codes (rather than
/// re-quantizing on load) keeps a saved index byte-stable: quantize() is
/// deterministic today, but the saved file must not depend on that.
inline void write_quantized_store(std::ostream& os,
                                  const quant::QuantizedStore& store) {
  write_pod(os, static_cast<std::uint32_t>(store.mode));
  write_pod(os, store.rows);
  write_pod(os, store.cols);
  write_vec(os, store.fp16);
  write_vec(os, store.int8);
  write_vec(os, store.scale);
  write_vec(os, store.offset);
  write_vec(os, store.err);
  write_pod(os, store.err_max);
  write_vec(os, store.amp);
  write_pod(os, store.amp_max);
}

inline quant::QuantizedStore read_quantized_store(std::istream& is) {
  quant::QuantizedStore store;
  std::uint32_t mode = 0;
  read_pod(is, mode);
  if (mode != static_cast<std::uint32_t>(quant::Storage::kFp16) &&
      mode != static_cast<std::uint32_t>(quant::Storage::kInt8))
    throw std::runtime_error(
        "rbc::io: corrupt quantized store (unknown storage mode " +
        std::to_string(mode) + ")");
  store.mode = static_cast<quant::Storage>(mode);
  read_pod(is, store.rows);
  read_pod(is, store.cols);
  read_vec(is, store.fp16);
  read_vec(is, store.int8);
  read_vec(is, store.scale);
  read_vec(is, store.offset);
  read_vec(is, store.err);
  read_pod(is, store.err_max);
  read_vec(is, store.amp);
  read_pod(is, store.amp_max);
  const std::uint64_t cells = static_cast<std::uint64_t>(store.rows) *
                              static_cast<std::uint64_t>(store.cols);
  const std::uint64_t n = static_cast<std::uint64_t>(store.rows);
  const bool codes_ok = store.mode == quant::Storage::kFp16
                            ? store.fp16.size() == cells &&
                                  store.int8.empty() && store.scale.empty() &&
                                  store.offset.empty() && store.amp.empty()
                            : store.int8.size() == cells &&
                                  store.fp16.empty() &&
                                  store.scale.size() == n &&
                                  store.offset.size() == n &&
                                  store.amp.size() == n;
  if (!codes_ok || store.err.size() != n)
    throw std::runtime_error(
        "rbc::io: corrupt quantized store (size fields disagree with "
        "payload)");
  return store;
}

}  // namespace rbc::io
