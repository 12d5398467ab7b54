#include "graph/diameter.hpp"

#include <algorithm>

#include "graph/bfs_engine.hpp"
#include "graph/connectivity.hpp"
#include "runtime/worker_team.hpp"

namespace nav::graph {

std::vector<Dist> eccentricities(const Graph& g) {
  std::vector<Dist> ecc(g.num_nodes(), 0);
  nav::parallel_for(0, g.num_nodes(), [&](std::size_t u) {
    // Workspace kernel: no per-source distance array at all — the BFS level
    // count is the within-component eccentricity.
    ecc[u] = local_bfs_workspace().eccentricity(g, static_cast<NodeId>(u));
  });
  return ecc;
}

Dist exact_diameter(const Graph& g) {
  if (g.num_nodes() <= 1) return 0;
  NAV_REQUIRE(is_connected(g), "exact_diameter requires a connected graph");
  const auto ecc = eccentricities(g);
  return *std::max_element(ecc.begin(), ecc.end());
}

Dist double_sweep_lower_bound(const Graph& g) { return peripheral_pair(g).distance; }

NodePair peripheral_pair(const Graph& g) {
  NAV_REQUIRE(g.num_nodes() >= 1, "peripheral_pair on empty graph");
  auto& ws = local_bfs_workspace();
  const auto first = ws.farthest(g, 0);
  const auto second = ws.farthest(g, first.node);
  return {first.node, second.node, second.distance};
}

}  // namespace nav::graph
