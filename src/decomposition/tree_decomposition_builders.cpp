#include "decomposition/tree_decomposition_builders.hpp"

#include "graph/bfs_engine.hpp"
#include "graph/connectivity.hpp"

namespace nav::decomp {

TreeDecomposition tree_edge_decomposition(const Graph& g) {
  const NodeId n = g.num_nodes();
  NAV_REQUIRE(n >= 1, "empty graph");
  NAV_REQUIRE(g.num_edges() == static_cast<graph::EdgeId>(n) - 1 &&
                  graph::is_connected(g),
              "tree_edge_decomposition requires a tree");
  if (n == 1) return TreeDecomposition({{0}}, {});

  // BFS parents from node 0; bag index of node v (v != root) is v's slot in
  // discovery order.
  std::vector<NodeId> parent(n, graph::kNoNode);
  std::vector<NodeId> order;  // non-root nodes in discovery order
  std::vector<std::size_t> bag_of(n, 0);
  auto& ws = graph::local_bfs_workspace();
  ws.prepare(n);
  auto& queue = ws.queue();
  ws.try_visit(0);
  queue.push_back(0);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (const NodeId v : g.neighbors(u)) {
      if (ws.try_visit(v)) {
        parent[v] = u;
        bag_of[v] = order.size();
        order.push_back(v);
        queue.push_back(v);
      }
    }
  }

  std::vector<Bag> bags;
  bags.reserve(order.size());
  for (const NodeId v : order) bags.push_back({v, parent[v]});

  // Bag(v) attaches to bag(parent(v)); bags of the root's children chain to
  // the root's first child's bag, keeping the root's bags connected.
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  std::size_t first_root_child_bag = static_cast<std::size_t>(-1);
  for (const NodeId v : order) {
    if (parent[v] == 0) {
      if (first_root_child_bag == static_cast<std::size_t>(-1)) {
        first_root_child_bag = bag_of[v];
      } else {
        edges.emplace_back(bag_of[v], first_root_child_bag);
      }
    } else {
      edges.emplace_back(bag_of[v], bag_of[parent[v]]);
    }
  }
  return TreeDecomposition(std::move(bags), std::move(edges));
}

TreeDecomposition trivial_tree_decomposition(const Graph& g) {
  Bag all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  return TreeDecomposition({std::move(all)}, {});
}

}  // namespace nav::decomp
