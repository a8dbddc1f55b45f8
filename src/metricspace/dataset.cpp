#include "metricspace/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

#include "common/counters.hpp"
#include "metricspace/graph_core.hpp"
#include "rbc/serialize_io.hpp"

namespace rbc::metricspace {

namespace {

[[noreturn]] void invalid(const std::string& what) {
  throw std::invalid_argument("rbc::metricspace: " + what);
}

[[noreturn]] void corrupt(const std::string& what) {
  throw std::runtime_error("rbc::io: corrupt payload dataset (" + what + ")");
}

// ------------------------------------------------------------- strings ----

class StringDataset final : public Dataset {
 public:
  explicit StringDataset(std::vector<std::string> items)
      : items_(std::move(items)) {}

  index_t size() const override { return static_cast<index_t>(items_.size()); }
  std::string_view kind() const override { return "strings"; }
  std::string_view item(index_t i) const override { return items_[i]; }

  DatasetHandle subset(index_t lo, index_t hi) const override {
    return std::make_shared<StringDataset>(
        std::vector<std::string>(items_.begin() + lo, items_.begin() + hi));
  }

  void save(std::ostream& os) const override {
    io::write_string(os, std::string(kind()));
    io::write_pod(os, static_cast<std::uint64_t>(items_.size()));
    for (const std::string& s : items_) io::write_string(os, s);
  }

  std::size_t memory_bytes() const override {
    std::size_t total = items_.size() * sizeof(std::string);
    for (const std::string& s : items_) total += s.capacity();
    return total;
  }

 private:
  std::vector<std::string> items_;
};

// --------------------------------------------------------------- graph ----

class GraphDataset final : public Dataset {
 public:
  GraphDataset(std::shared_ptr<const GraphCore> core,
               std::vector<index_t> nodes)
      : core_(std::move(core)), nodes_(std::move(nodes)) {
    // Element payloads are the 8-byte little-endian node ids — the same
    // encoding payload queries use, so one decoder serves both.
    blob_.resize(nodes_.size() * 8);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const std::uint64_t id = nodes_[i];
      std::memcpy(blob_.data() + i * 8, &id, 8);
    }
  }

  index_t size() const override { return static_cast<index_t>(nodes_.size()); }
  std::string_view kind() const override { return "graph"; }
  std::string_view item(index_t i) const override {
    return std::string_view(blob_.data() + static_cast<std::size_t>(i) * 8, 8);
  }

  DatasetHandle subset(index_t lo, index_t hi) const override {
    // The graph core is shared: subset distances are global shortest paths,
    // so a sharded build answers bit-identically to the unsharded one.
    return std::make_shared<GraphDataset>(
        core_, std::vector<index_t>(nodes_.begin() + lo, nodes_.begin() + hi));
  }

  void save(std::ostream& os) const override {
    io::write_string(os, std::string(kind()));
    io::write_pod(os, static_cast<std::uint64_t>(core_->num_nodes()));
    io::write_vec(os, core_->edges());
    io::write_vec(os, nodes_);
  }

  std::size_t memory_bytes() const override {
    return core_->memory_bytes() + nodes_.size() * sizeof(index_t) +
           blob_.size();
  }

  const std::shared_ptr<const GraphCore>& core() const { return core_; }
  std::span<const index_t> nodes() const { return nodes_; }

 private:
  std::shared_ptr<const GraphCore> core_;
  std::vector<index_t> nodes_;
  std::string blob_;
};

}  // namespace

// ----------------------------------------------------------- GraphCore ----

GraphCore::GraphCore(index_t num_nodes, std::vector<GraphEdge> edges)
    : num_nodes_(num_nodes), edges_(std::move(edges)) {
  adjacency_.resize(num_nodes_);
  for (const GraphEdge& e : edges_) {
    if (e.u >= num_nodes_ || e.v >= num_nodes_)
      invalid("graph edge endpoint out of range");
    if (!(e.weight > 0.0f) || !std::isfinite(e.weight))
      invalid("graph edge weight must be positive and finite");
    adjacency_[e.u].push_back({e.v, e.weight});
    adjacency_[e.v].push_back({e.u, e.weight});
  }
  rows_.resize(num_nodes_);
}

const std::vector<float>& GraphCore::row_locked(index_t source) const {
  if (rows_[source]) return *rows_[source];
  std::vector<double> dist(num_nodes_,
                           std::numeric_limits<double>::infinity());
  std::vector<char> done(num_nodes_, 0);
  using Item = std::pair<double, index_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[source] = 0.0;
  heap.push({0.0, source});
  std::uint64_t relaxed = 0;
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (done[u]) continue;
    done[u] = 1;
    for (const Arc& arc : adjacency_[u]) {
      ++relaxed;
      const double cand = d + arc.weight;
      if (cand < dist[arc.to]) {
        dist[arc.to] = cand;
        heap.push({cand, arc.to});
      }
    }
  }
  counters::add_metric_cost(relaxed);
  // Round to float once: reported distances are then exactly float-
  // representable, so they survive the dist_t result/wire/merge layers
  // without reordering ties.
  auto row = std::make_unique<std::vector<float>>(num_nodes_);
  for (index_t i = 0; i < num_nodes_; ++i)
    (*row)[i] = static_cast<float>(dist[i]);
  rows_[source] = std::move(row);
  return *rows_[source];
}

double GraphCore::distance(index_t u, index_t v) const {
  // Always resolve through the smaller endpoint's row: the Dijkstra sum
  // order is then a function of the graph alone, making distance symmetric
  // bit for bit and identical across shards and save/load round-trips.
  const index_t source = std::min(u, v);
  const index_t target = std::max(u, v);
  std::lock_guard<std::mutex> lock(mutex_);
  return row_locked(source)[target];
}

std::size_t GraphCore::memory_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = edges_.size() * sizeof(GraphEdge);
  for (const auto& arcs : adjacency_) total += arcs.size() * sizeof(Arc);
  for (const auto& row : rows_)
    if (row) total += row->size() * sizeof(float);
  return total;
}

// ------------------------------------------------------------ factories ----

DatasetHandle make_string_dataset(std::vector<std::string> items) {
  if (items.size() > kMaxPayloadItems) invalid("too many string items");
  for (const std::string& s : items)
    if (s.size() > kMaxPayloadBytes)
      invalid("string item exceeds " + std::to_string(kMaxPayloadBytes) +
              " bytes");
  return std::make_shared<StringDataset>(std::move(items));
}

DatasetHandle make_graph_dataset(index_t num_nodes,
                                 std::vector<GraphEdge> edges,
                                 std::vector<index_t> nodes) {
  auto core = std::make_shared<const GraphCore>(num_nodes, std::move(edges));
  if (nodes.empty()) {
    nodes.resize(num_nodes);
    for (index_t i = 0; i < num_nodes; ++i) nodes[i] = i;
  } else {
    std::vector<char> seen(num_nodes, 0);
    for (const index_t id : nodes) {
      if (id >= num_nodes) invalid("graph element node id out of range");
      if (seen[id]) invalid("duplicate graph element node id");
      seen[id] = 1;
    }
  }
  return std::make_shared<GraphDataset>(std::move(core), std::move(nodes));
}

// -------------------------------------------------------- serialization ----

DatasetHandle load_dataset(std::istream& is) {
  const std::string kind = io::read_string(is);
  if (kind == "strings") {
    std::uint64_t count = 0;
    io::read_pod(is, count);
    if (count > kMaxPayloadItems) corrupt("string count too large");
    // 8 bytes of length field per item is the floor: gate the count before
    // allocating the table.
    io::require_bytes(is, count * 8, "payload table");
    std::vector<std::string> items;
    items.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t len = 0;
      io::read_pod(is, len);
      if (len > kMaxPayloadBytes) corrupt("oversized string length");
      io::require_bytes(is, len, "payload string");
      std::string s(len, '\0');
      is.read(s.data(), static_cast<std::streamsize>(len));
      if (!is) corrupt("truncated payload string");
      items.push_back(std::move(s));
    }
    return make_string_dataset(std::move(items));
  }
  if (kind == "graph") {
    std::uint64_t num_nodes = 0;
    io::read_pod(is, num_nodes);
    if (num_nodes > kMaxPayloadItems) corrupt("graph node count too large");
    std::vector<GraphEdge> edges;
    io::read_vec(is, edges);
    std::vector<index_t> nodes;
    io::read_vec(is, nodes);
    try {
      return make_graph_dataset(static_cast<index_t>(num_nodes),
                                std::move(edges), std::move(nodes));
    } catch (const std::invalid_argument& e) {
      corrupt(e.what());  // bad endpoints/weights in a stream = corruption
    }
  }
  corrupt("unknown dataset kind tag '" + kind + "'");
}

// ------------------------------------------------------ graph accessors ----

std::shared_ptr<const GraphCore> graph_core_of(const Dataset& data) {
  const auto* graph = dynamic_cast<const GraphDataset*>(&data);
  return graph ? graph->core() : nullptr;
}

std::span<const index_t> graph_nodes_of(const Dataset& data) {
  const auto* graph = dynamic_cast<const GraphDataset*>(&data);
  return graph ? graph->nodes() : std::span<const index_t>{};
}

}  // namespace rbc::metricspace
