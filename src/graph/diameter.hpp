// diameter.hpp — eccentricities and graph diameter.
//
// Greedy routing takes at most dist(s,t) <= diam(G) steps (the distance to the
// target strictly decreases each step), so the diameter is both a sanity bound
// checked by tests and the trivial baseline reported in experiment tables.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace nav::graph {

/// Exact eccentricity of every node: one BFS per node, parallelised over
/// sources. O(n·m) — intended for n up to a few tens of thousands.
[[nodiscard]] std::vector<Dist> eccentricities(const Graph& g);

/// Exact diameter via all-source BFS (parallel). Requires connected graph.
[[nodiscard]] Dist exact_diameter(const Graph& g);

/// Double-sweep lower bound: BFS from an arbitrary node, then BFS from the
/// farthest node found. Exact on trees; a lower bound in general. O(m).
[[nodiscard]] Dist double_sweep_lower_bound(const Graph& g);

/// A pair of far-apart nodes (the double-sweep endpoints). These are the
/// default "hard" source/target pairs in greedy-diameter estimation.
struct NodePair {
  NodeId a = kNoNode;
  NodeId b = kNoNode;
  Dist distance = 0;
};
[[nodiscard]] NodePair peripheral_pair(const Graph& g);

}  // namespace nav::graph
