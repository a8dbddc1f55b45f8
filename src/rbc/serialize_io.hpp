// Binary (de)serialization helpers for index persistence.
//
// rbc::load_index reads three streams, each at one format version and each
// led by its own magic:
//   dense   (kMagicDense)   — any dense backend, as mutate::MutableIndex
//                             saves it: backend name, metric and storage
//                             tags, build and write-buffer knobs, then the
//                             rows with their ids, the delta rows and the
//                             tombstones;
//   sharded (kMagicSharded) — shard::ShardedIndex: metric tag, inner backend
//                             name, partition, counts, then one nested
//                             stream per shard;
//   payload (kMagicPayload) — metricspace/generic_backend: host backend and
//                             metric-space tags, build knobs, the dataset.
// None stores a search structure: a load rebuilds (and re-quantizes) it
// from the stored rows and knobs, deterministically. Little-endian host
// layout; files are not portable across endianness (README).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/matrix.hpp"
#include "common/types.hpp"
#include "rbc/params.hpp"

namespace rbc::io {

inline constexpr std::uint32_t kMagicDense = 0x52424344;    // "RBCD"
inline constexpr std::uint32_t kMagicSharded = 0x52424353;  // "RBCS"
inline constexpr std::uint32_t kMagicPayload = 0x52424350;  // "RBCP"
/// The version all three streams write and the only one they read.
/// Versions 1-7 were layouts that load_index no longer reads (the raw
/// per-backend formats and the earlier dense, sharded and payload
/// versions; 7's dense stream lacked max_delta and background_merge); a
/// stream claiming one of them fails as unsupported.
inline constexpr std::uint32_t kFormatVersion = 8;

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

/// Writes a stream's magic and the format version.
inline void write_header(std::ostream& os, std::uint32_t magic) {
  write_pod(os, magic);
  write_pod(os, kFormatVersion);
}

/// Reads what write_header wrote. Another magic, or any version but
/// kFormatVersion, throws std::runtime_error naming `what`.
inline void read_header(std::istream& is, std::uint32_t magic,
                        const char* what) {
  expect_pod(is, magic, what);
  std::uint32_t version = 0;
  read_pod(is, version);
  if (version != kFormatVersion)
    throw std::runtime_error("rbc::io: unsupported format version " +
                             std::to_string(version) + " reading " + what);
}

/// Writes RbcParams field by field, the bool and enum fields one byte
/// each, so the bytes depend on the values alone (never on padding).
inline void write_params(std::ostream& os, const RbcParams& p) {
  write_pod(os, p.num_reps);
  write_pod(os, p.points_per_rep);
  write_pod(os, p.seed);
  write_pod(os, static_cast<std::uint8_t>(p.sampling));
  for (const bool flag : {p.use_overlap_rule, p.use_lemma_rule,
                          p.use_early_exit, p.use_annulus_bound})
    write_pod(os, static_cast<std::uint8_t>(flag));
  write_pod(os, p.approx_eps);
  write_pod(os, p.num_probes);
}

/// Reads write_params' bytes. A sampling byte that names no Sampling
/// mode, a flag byte other than 0 or 1, or an approx_eps the search cannot
/// use (approx_eps_valid) is corruption: std::runtime_error. Copying such
/// a byte into the enum or a bool would be undefined behaviour.
inline RbcParams read_params(std::istream& is) {
  const auto corrupt = [](const std::string& what) {
    throw std::runtime_error("rbc::io: corrupt params (" + what + ")");
  };
  RbcParams p;
  read_pod(is, p.num_reps);
  read_pod(is, p.points_per_rep);
  read_pod(is, p.seed);
  std::uint8_t byte = 0;
  read_pod(is, byte);
  if (byte > static_cast<std::uint8_t>(Sampling::kBernoulli))
    corrupt("sampling byte " + std::to_string(byte));
  p.sampling = static_cast<Sampling>(byte);
  for (bool* flag : {&p.use_overlap_rule, &p.use_lemma_rule,
                     &p.use_early_exit, &p.use_annulus_bound}) {
    read_pod(is, byte);
    if (byte > 1) corrupt("flag byte " + std::to_string(byte));
    *flag = byte == 1;
  }
  read_pod(is, p.approx_eps);
  if (!approx_eps_valid(p.approx_eps))
    corrupt("approx_eps " + std::to_string(p.approx_eps));
  read_pod(is, p.num_probes);
  return p;
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

/// write_matrix's bytes for a rows x cols matrix whose row i starts at
/// row(i), wherever the rows live (the dense stream's main rows are read
/// back from the backend, in id order).
template <class RowAt>
void write_rows(std::ostream& os, index_t rows, index_t cols, RowAt row) {
  write_pod(os, rows);
  write_pod(os, cols);
  for (index_t i = 0; i < rows; ++i)
    os.write(reinterpret_cast<const char*>(row(i)),
             static_cast<std::streamsize>(cols * sizeof(float)));
}

/// Writes only the logical (unpadded) payload; the padded stride is
/// reconstructed on read, so files are layout-independent.
inline void write_matrix(std::ostream& os, const Matrix<float>& m) {
  write_rows(os, m.rows(), m.cols(), [&m](index_t i) { return m.row(i); });
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

}  // namespace rbc::io
