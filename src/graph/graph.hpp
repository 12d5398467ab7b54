// graph.hpp — immutable undirected simple graph in CSR form.
//
// The whole library operates on connected, undirected, unweighted simple
// graphs, matching the paper's model ("G is an n-node connected graph").
// Nodes are dense ids 0..n-1 (the paper's labels 1..n are a separate concept,
// handled by core/augmentation_matrix — labels are *data*, not identity).
//
// CSR (compressed sparse row): neighbour lists concatenated into one array
// with per-node offsets. Immutable after construction; all algorithms take
// `const Graph&` and may be called concurrently without synchronisation.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "runtime/assert.hpp"

namespace nav::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint64_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// Unweighted shortest-path distance; unreachable (or not yet labelled)
/// nodes read kInfDist.
using Dist = std::uint32_t;
inline constexpr Dist kInfDist = std::numeric_limits<Dist>::max();

class Graph {
 public:
  Graph() = default;

  /// Builds from an edge list. Requirements (else std::invalid_argument):
  /// endpoints < n, no self loops. Parallel edges are deduplicated.
  Graph(NodeId n, std::vector<std::pair<NodeId, NodeId>> edges);

  [[nodiscard]] NodeId num_nodes() const noexcept { return n_; }
  [[nodiscard]] EdgeId num_edges() const noexcept { return m_; }

  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    NAV_ASSERT(u < n_);
    return {adj_.data() + offsets_[u], adj_.data() + offsets_[u + 1]};
  }

  [[nodiscard]] std::uint32_t degree(NodeId u) const {
    NAV_ASSERT(u < n_);
    return static_cast<std::uint32_t>(offsets_[u + 1] - offsets_[u]);
  }

  /// O(log deg(u)) membership test (neighbour lists are sorted).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  [[nodiscard]] std::uint32_t max_degree() const noexcept { return max_degree_; }

  /// All edges as (u, v) with u < v, sorted lexicographically.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edge_list() const;

  /// Human-readable one-line summary, e.g. "Graph(n=100, m=99)".
  [[nodiscard]] std::string summary() const;

 private:
  NodeId n_ = 0;
  EdgeId m_ = 0;
  std::uint32_t max_degree_ = 0;
  std::vector<std::uint64_t> offsets_;  // size n_+1
  std::vector<NodeId> adj_;             // size 2*m_, sorted per node
};

/// Incremental edge collector with the same validation as the Graph ctor.
/// Convenient for generators: add_edge ignores duplicates lazily (dedup
/// happens at build time) and checks bounds eagerly.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId n) : n_(n) {}

  void add_edge(NodeId u, NodeId v) {
    NAV_REQUIRE(u < n_ && v < n_, "edge endpoint out of range");
    NAV_REQUIRE(u != v, "self loops are not allowed");
    edges_.emplace_back(u, v);
  }

  [[nodiscard]] NodeId num_nodes() const noexcept { return n_; }
  [[nodiscard]] std::size_t pending_edges() const noexcept { return edges_.size(); }

  /// Consumes the builder.
  [[nodiscard]] Graph build() && { return Graph(n_, std::move(edges_)); }
  /// Non-consuming build (copies the edge list).
  [[nodiscard]] Graph build() const& { return Graph(n_, edges_); }

 private:
  NodeId n_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

}  // namespace nav::graph
