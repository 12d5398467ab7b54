#include "decomposition/builders.hpp"

#include <algorithm>

#include "graph/bfs_engine.hpp"
#include "graph/connectivity.hpp"
#include "graph/diameter.hpp"

namespace nav::decomp {

PathDecomposition trivial_decomposition(const Graph& g) {
  Bag all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  return PathDecomposition({std::move(all)});
}

PathDecomposition path_graph_decomposition(const Graph& g) {
  const NodeId n = g.num_nodes();
  NAV_REQUIRE(n >= 1, "empty graph");
  if (n == 1) return PathDecomposition(std::vector<Bag>{Bag{0}});
  NAV_REQUIRE(g.num_edges() == n - 1, "not a path graph (edge count)");
  // Find an endpoint (degree 1) and walk.
  NodeId start = graph::kNoNode;
  for (NodeId v = 0; v < n; ++v) {
    NAV_REQUIRE(g.degree(v) <= 2, "not a path graph (degree > 2)");
    if (g.degree(v) == 1 && start == graph::kNoNode) start = v;
  }
  NAV_REQUIRE(start != graph::kNoNode, "not a path graph (no endpoint)");
  std::vector<Bag> bags;
  bags.reserve(n - 1);
  NodeId prev = graph::kNoNode;
  NodeId cur = start;
  for (NodeId step = 0; step + 1 < n; ++step) {
    NodeId next = graph::kNoNode;
    for (const NodeId w : g.neighbors(cur)) {
      if (w != prev) {
        next = w;
        break;
      }
    }
    NAV_REQUIRE(next != graph::kNoNode, "not a path graph (walk stuck)");
    bags.push_back({cur, next});
    prev = cur;
    cur = next;
  }
  PathDecomposition pd(std::move(bags));
  return pd;
}

PathDecomposition bfs_layer_decomposition(const Graph& g, NodeId root) {
  const NodeId n = g.num_nodes();
  NAV_REQUIRE(n >= 1, "empty graph");
  NAV_REQUIRE(graph::is_connected(g), "bfs_layer_decomposition needs connectivity");
  if (root == graph::kNoNode) root = graph::peripheral_pair(g).a;
  NAV_REQUIRE(root < n, "root out of range");
  const auto dist = graph::local_bfs_workspace().distances(g, root);
  graph::Dist depth = 0;
  for (const auto d : dist) depth = std::max(depth, d);
  std::vector<Bag> layers(depth + 1);
  for (NodeId v = 0; v < n; ++v) layers[dist[v]].push_back(v);
  if (depth == 0) return PathDecomposition({layers[0]});
  std::vector<Bag> bags;
  bags.reserve(depth);
  for (graph::Dist i = 0; i < depth; ++i) {
    Bag merged = layers[i];
    merged.insert(merged.end(), layers[i + 1].begin(), layers[i + 1].end());
    bags.push_back(std::move(merged));
  }
  return PathDecomposition(std::move(bags));
}

PathDecomposition caterpillar_decomposition(const Graph& g) {
  const NodeId n = g.num_nodes();
  NAV_REQUIRE(n >= 1, "empty graph");
  NAV_REQUIRE(g.num_edges() == n - 1 && graph::is_connected(g),
              "not a tree");
  if (n <= 2) return trivial_decomposition(g);
  // Spine = non-leaf nodes; must induce a path.
  std::vector<NodeId> spine_nodes;
  for (NodeId v = 0; v < n; ++v) {
    if (g.degree(v) >= 2) spine_nodes.push_back(v);
  }
  if (spine_nodes.empty()) {
    // Single edge / star of one edge handled above; n >= 3 with no degree-2+
    // node is impossible in a tree.
    return trivial_decomposition(g);
  }
  // Order the spine by walking it.
  std::vector<std::uint8_t> on_spine(n, 0);
  for (const NodeId v : spine_nodes) on_spine[v] = 1;
  NodeId start = graph::kNoNode;
  for (const NodeId v : spine_nodes) {
    std::uint32_t spine_deg = 0;
    for (const NodeId w : g.neighbors(v)) spine_deg += on_spine[w];
    NAV_REQUIRE(spine_deg <= 2, "not a caterpillar (branching spine)");
    if (spine_deg <= 1 && start == graph::kNoNode) start = v;
  }
  NAV_REQUIRE(start != graph::kNoNode, "not a caterpillar (cyclic spine?)");
  std::vector<NodeId> spine;
  spine.reserve(spine_nodes.size());
  NodeId prev = graph::kNoNode;
  NodeId cur = start;
  while (cur != graph::kNoNode) {
    spine.push_back(cur);
    NodeId next = graph::kNoNode;
    for (const NodeId w : g.neighbors(cur)) {
      if (on_spine[w] && w != prev) {
        next = w;
        break;
      }
    }
    prev = cur;
    cur = next;
  }
  NAV_REQUIRE(spine.size() == spine_nodes.size(),
              "not a caterpillar (disconnected spine)");
  // Bag i = {spine_i, spine_{i+1}} ∪ leaves(spine_i); last bag also takes the
  // last spine node's leaves.
  std::vector<Bag> bags;
  const std::size_t count = spine.size();
  for (std::size_t i = 0; i < count; ++i) {
    Bag bag{spine[i]};
    if (i + 1 < count) bag.push_back(spine[i + 1]);
    for (const NodeId w : g.neighbors(spine[i])) {
      if (!on_spine[w]) bag.push_back(w);
    }
    bags.push_back(std::move(bag));
  }
  return PathDecomposition(std::move(bags));
}

}  // namespace nav::decomp
