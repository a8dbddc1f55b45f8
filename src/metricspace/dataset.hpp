// Type-erased non-vector dataset layer of the generic metric-space
// subsystem (see space.hpp for the metric registry and ARCHITECTURE.md
// "Generic metric spaces").
//
// A Dataset is an immutable, opaque payload store — a string collection, a
// weighted graph with a node list, a user blob table — that a registered
// metric space binds a distance function over. It is the non-vector
// counterpart of the dense row matrix: the unified API's payload path
// (Index::build_payload) takes a DatasetHandle where build() takes a
// Matrix<float>, and every layer above (serve, shard, net) moves handles
// and payload strings instead of float rows.
//
// This header is deliberately free of api/ includes: the dependency order
// is common/ -> metricspace/dataset -> api/ -> metricspace/space +
// generic_backend, which is what lets api/index.hpp name DatasetHandle in
// its payload entry points without a cycle.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace rbc::metricspace {

/// One weighted undirected edge of a graph dataset.
struct GraphEdge {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  float weight = 1.0f;
};

/// Upper bound on one element's payload bytes. Matches the net codec's
/// per-string cap, so any serveable dataset is also wire-expressible, and a
/// corrupt length field in a payload stream can never drive a giant
/// allocation.
inline constexpr std::uint64_t kMaxPayloadBytes = 1u << 16;

/// Upper bound on elements per dataset — far beyond test/demo scale, small
/// enough to reject corrupt count fields before allocating for them.
inline constexpr std::uint64_t kMaxPayloadItems = 1u << 28;

class Dataset;
/// How datasets travel: shared and immutable. Subsets (sharding) and the
/// indices built over them all point into the same underlying store.
using DatasetHandle = std::shared_ptr<const Dataset>;

/// An immutable collection of opaque elements. `item(i)` exposes element
/// i's payload bytes (the string itself for string collections; the 8-byte
/// little-endian node id for graph node sets) — the same encoding queries
/// use, so "query vs element" and "element vs element" are one code path.
class Dataset {
 public:
  virtual ~Dataset() = default;

  /// Number of elements.
  virtual index_t size() const = 0;

  /// Registry kind tag ("strings", "graph") — what Space binders check a
  /// handle against, and the leading tag of the serialized payload.
  virtual std::string_view kind() const = 0;

  /// Payload bytes of element i (borrowed; valid while the dataset lives).
  virtual std::string_view item(index_t i) const = 0;

  /// The sub-dataset holding exactly `rows` (ascending global positions of
  /// this dataset), sharing the underlying store. Element j of the subset
  /// is element rows[j] of this dataset — ascending order is preserved, so
  /// the sharded composite's global-id remap stays valid.
  virtual DatasetHandle subset(std::span<const index_t> rows) const = 0;

  /// Serializes the payload (kind tag + store); load_dataset restores it.
  virtual void save(std::ostream& os) const = 0;

  /// Payload memory owned by this dataset (shared stores count once per
  /// holder — an approximation, like IndexInfo::memory_bytes).
  virtual std::size_t memory_bytes() const = 0;
};

/// A string collection (each element's payload is the string itself).
/// Throws std::invalid_argument when an item exceeds kMaxPayloadBytes.
DatasetHandle make_string_dataset(std::vector<std::string> items);

/// A weighted undirected graph plus the node set to index: element i is
/// node `nodes[i]`; distances between elements are shortest paths in the
/// *full* graph, so subsets (shards) answer identically to the whole.
/// Passing an empty `nodes` indexes every node (0..num_nodes-1). Throws
/// std::invalid_argument on an endpoint >= num_nodes, a non-positive /
/// non-finite weight, or a duplicate or out-of-range node id.
DatasetHandle make_graph_dataset(index_t num_nodes,
                                 std::vector<GraphEdge> edges,
                                 std::vector<index_t> nodes = {});

/// Restores a dataset written by Dataset::save(). The stream must start at
/// the kind tag. Corruption (unknown kind, oversized length/count fields,
/// truncation) throws std::runtime_error.
DatasetHandle load_dataset(std::istream& is);

/// Internal view used by the graph metric space (space.cpp): the shared
/// graph core behind a graph dataset, or nullptr for other kinds.
class GraphCore;
std::shared_ptr<const GraphCore> graph_core_of(const Dataset& data);

/// The global node ids a graph dataset indexes (element -> node id);
/// empty for other kinds.
std::span<const index_t> graph_nodes_of(const Dataset& data);

}  // namespace rbc::metricspace
