#include "support/bfs_reference.hpp"

#include <cstdint>

#include "runtime/assert.hpp"

namespace nav::graph {

std::vector<Dist> bfs_distances_reference(const Graph& g, NodeId source,
                                          Dist radius) {
  NAV_REQUIRE(source < g.num_nodes(), "BFS source out of range");
  std::vector<Dist> dist(g.num_nodes(), kInfDist);
  std::vector<NodeId> queue;
  queue.reserve(64);
  dist[source] = 0;
  queue.push_back(source);
  std::size_t head = 0;
  while (head < queue.size()) {
    const NodeId u = queue[head++];
    const Dist du = dist[u];
    if (du >= radius) continue;
    for (const NodeId v : g.neighbors(u)) {
      if (dist[v] == kInfDist) {
        dist[v] = du + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<NodeId> ball_reference(const Graph& g, NodeId center, Dist radius) {
  NAV_REQUIRE(center < g.num_nodes(), "ball center out of range");
  std::vector<std::uint8_t> visited(g.num_nodes(), 0);
  std::vector<NodeId> order;
  std::vector<NodeId> frontier{center};
  visited[center] = 1;
  order.push_back(center);
  Dist depth = 0;
  std::vector<NodeId> next;
  while (!frontier.empty() && depth < radius) {
    next.clear();
    for (const NodeId u : frontier) {
      for (const NodeId v : g.neighbors(u)) {
        if (!visited[v]) {
          visited[v] = 1;
          next.push_back(v);
          order.push_back(v);
        }
      }
    }
    frontier.swap(next);
    ++depth;
  }
  return order;
}

}  // namespace nav::graph
