#include "api/registry.hpp"

#include <algorithm>
#include <istream>
#include <mutex>
#include <stdexcept>

#include "api/backends/backends.hpp"
#include "metricspace/generic_backend.hpp"
#include "mutate/mutable_index.hpp"
#include "rbc/serialize_io.hpp"
#include "shard/sharded_index.hpp"

namespace rbc {

namespace {

/// Prefix of the composite backend names ("sharded:<inner>"). The shipped
/// variants are registered entries; anything else with the prefix resolves
/// generically below, so user-registered backends shard for free.
constexpr std::string_view kShardedPrefix = "sharded:";

struct Registry {
  std::mutex mutex;
  std::vector<BackendEntry> entries;

  static Registry& instance() {
    static Registry r;  // function-local: safe under cross-TU static init
    return r;
  }

  const BackendEntry* find_locked(std::string_view name) const {
    for (const BackendEntry& e : entries)
      if (e.name == name) return &e;
    return nullptr;
  }
};

/// Registers every built-in backend exactly once. Called before each lookup
/// so the builtins exist no matter how the library was linked.
void ensure_builtins() {
  static const bool once = [] {
    backends::register_bruteforce();
    backends::register_rbc_exact();
    backends::register_rbc_oneshot();
    backends::register_kdtree();
    backends::register_balltree();
    backends::register_covertree();
    backends::register_gpu();
    backends::register_sharded();
    return true;
  }();
  (void)once;
}

}  // namespace

bool register_backend(BackendEntry entry) {
  Registry& reg = Registry::instance();
  std::lock_guard<std::mutex> lock(reg.mutex);
  if (reg.find_locked(entry.name) != nullptr) return false;
  // A non-zero magic must be unique too: load_index dispatches on it, and a
  // duplicate would let a later registration hijack existing files. The
  // three built-in streams' magics are dispatched natively, so they are
  // never claimable either.
  if (entry.magic == io::kMagicDense || entry.magic == io::kMagicSharded ||
      entry.magic == io::kMagicPayload)
    return false;
  if (entry.magic != 0)
    for (const BackendEntry& e : reg.entries)
      if (e.magic == entry.magic) return false;
  reg.entries.push_back(std::move(entry));
  return true;
}

std::unique_ptr<Index> make_index(std::string_view name,
                                  const IndexOptions& options) {
  ensure_builtins();
  Registry& reg = Registry::instance();

  // Copy the factory out, then invoke it unlocked: a composing backend's
  // factory may legitimately call back into make_index/register_backend.
  std::function<std::unique_ptr<Index>(const IndexOptions&)> create;
  std::string known;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    if (const BackendEntry* e = reg.find_locked(name)) {
      create = e->create;
    } else {
      for (const BackendEntry& e : reg.entries) {
        if (!known.empty()) known += ", ";
        known += e.name;
      }
    }
  }
  if (create) return create(options);
  // Composite fallback: "sharded:<inner>" shards any registered backend,
  // not just the pre-registered variants (the inner name is validated by
  // the ShardedIndex constructor via make_index, which throws this same
  // exception type when it too is unknown).
  if (name.substr(0, kShardedPrefix.size()) == kShardedPrefix)
    return shard::make_sharded(name.substr(kShardedPrefix.size()), options);
  throw std::invalid_argument("rbc::make_index: unknown backend '" +
                              std::string(name) + "' (registered: " + known +
                              ")");
}

std::unique_ptr<Index> load_index(std::istream& is) {
  ensure_builtins();

  // Peek the format magic, then rewind so the backend loader (which
  // re-verifies it) sees the full stream.
  std::uint32_t magic = 0;
  const std::istream::pos_type start = is.tellg();
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!is) throw std::runtime_error("rbc::load_index: truncated stream");
  is.seekg(start);
  if (!is)
    throw std::runtime_error("rbc::load_index: stream must be seekable");

  // The three built-in streams dispatch natively: each names its backend
  // inside the stream, so one magic covers every dense backend, every
  // "sharded:<inner>" variant and every payload host algorithm.
  if (magic == io::kMagicDense) return mutate::MutableIndex::load(is);
  if (magic == io::kMagicSharded) return shard::ShardedIndex::load(is);
  if (magic == io::kMagicPayload) return metricspace::load_payload_index(is);

  // Otherwise a user-registered backend's own format.
  std::function<std::unique_ptr<Index>(std::istream&)> loader;
  {
    Registry& reg = Registry::instance();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (const BackendEntry& e : reg.entries)
      if (e.magic != 0 && e.magic == magic && e.load) {
        loader = e.load;
        break;
      }
  }
  if (!loader)
    throw std::runtime_error(
        "rbc::load_index: no registered backend matches the stream's format "
        "magic (not an rbc index, or its backend was not linked in)");
  return loader(is);
}

std::vector<std::string> registered_backends() {
  ensure_builtins();
  Registry& reg = Registry::instance();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<std::string> names;
  names.reserve(reg.entries.size());
  for (const BackendEntry& e : reg.entries) names.push_back(e.name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace rbc
