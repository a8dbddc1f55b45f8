// String-keyed backend registry: the factory behind rbc::make_index() and
// the magic-number dispatch behind rbc::load_index().
//
// Each built-in backend registers its name and factory from its own
// translation unit in src/api/backends/; its indexes save one of the three
// built-in streams (rbc/serialize_io.hpp), which load_index reads without a
// registry lookup. A user backend with its own format registers a magic
// plus a loader too. Registration is idempotent by name, so both the
// per-TU self-registration statics and the linker-proof ensure-builtins
// anchor may run; user code can register additional backends the same way:
//
//   rbc::register_backend({.name = "my-index",
//                          .create = [](const IndexOptions& o) { ... }});
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/index.hpp"

namespace rbc {

/// A registered backend: how to construct it and (optionally, for a user
/// backend with its own format) how to load a serialized instance
/// identified by `magic` (the first 4 bytes of the stream).
struct BackendEntry {
  std::string name;
  std::function<std::unique_ptr<Index>(const IndexOptions&)> create;
  std::uint32_t magic = 0;  ///< 0 = no format of its own
  std::function<std::unique_ptr<Index>(std::istream&)> load = nullptr;
};

/// Registers a backend. Returns false (and changes nothing) if the name is
/// already taken — which makes repeated registration of the builtins safe —
/// or if the magic is another entry's or a built-in stream's.
bool register_backend(BackendEntry entry);

/// Creates an unbuilt index by backend name. Throws std::invalid_argument
/// for an unknown name (the message lists the registered names).
std::unique_ptr<Index> make_index(std::string_view name,
                                  const IndexOptions& options = {});

/// Restores an index previously persisted with Index::save(). The leading
/// magic picks the dense, sharded or payload stream (or a user backend's
/// format), so one call handles every serializable backend. The stream
/// must be seekable (file/stringstream). Throws std::runtime_error on an
/// unclaimed magic, a retired layout, or a corrupt stream.
std::unique_ptr<Index> load_index(std::istream& is);

/// Names of all registered backends, sorted ascending.
std::vector<std::string> registered_backends();

}  // namespace rbc
