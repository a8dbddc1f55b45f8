// "sharded:<inner>" backends: the row-partitioned composite of
// src/shard/ over each shipped CPU backend, pre-registered so the sharded
// variants show up in registered_backends() (and therefore in the
// cross-backend conformance suite) like any other backend.
//
// Only the *names* are enumerated here; construction, search, and the
// kMagicSharded serialization all live in shard::ShardedIndex. Variants
// over backends not listed here — including user-registered ones — still
// resolve through make_index()'s generic "sharded:" fallback.
#include "api/backends/backends.hpp"
#include "api/registry.hpp"
#include "shard/sharded_index.hpp"

namespace rbc::backends {

namespace {

/// The shipped inner backends worth a pre-registered sharded variant: the
/// CPU backends. (Device backends compose via the generic fallback, but
/// spinning one SIMT worker pool per shard is rarely what a caller wants.)
const char* const kShardedInners[] = {"bruteforce", "rbc-exact",
                                      "rbc-oneshot", "kdtree",
                                      "balltree",   "covertree"};

[[maybe_unused]] const bool auto_registered = (register_sharded(), true);

}  // namespace

void register_sharded() {
  for (const char* inner : kShardedInners) {
    register_backend(
        {.name = std::string("sharded:") + inner,
         .create = [inner](const IndexOptions& options)
             -> std::unique_ptr<Index> {
           return shard::make_sharded(inner, options);
         }});
  }
}

}  // namespace rbc::backends
