#include "decomposition/elimination.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "graph/connectivity.hpp"

namespace nav::decomp {

namespace {

/// Mutable adjacency (set-based) for elimination simulation.
std::vector<std::set<NodeId>> mutable_adjacency(const Graph& g) {
  std::vector<std::set<NodeId>> adj(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.neighbors(u);
    adj[u].insert(nbrs.begin(), nbrs.end());
  }
  return adj;
}

/// Number of fill edges eliminating v would create.
std::size_t fill_cost(const std::vector<std::set<NodeId>>& adj, NodeId v) {
  std::size_t missing = 0;
  for (auto it = adj[v].begin(); it != adj[v].end(); ++it) {
    auto jt = it;
    for (++jt; jt != adj[v].end(); ++jt) {
      if (adj[*it].find(*jt) == adj[*it].end()) ++missing;
    }
  }
  return missing;
}

/// Removes v, connecting its neighbourhood into a clique.
void eliminate(std::vector<std::set<NodeId>>& adj, NodeId v) {
  const std::vector<NodeId> nbrs(adj[v].begin(), adj[v].end());
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
      adj[nbrs[i]].insert(nbrs[j]);
      adj[nbrs[j]].insert(nbrs[i]);
    }
  }
  for (const NodeId w : nbrs) adj[w].erase(v);
  adj[v].clear();
}

}  // namespace

std::vector<NodeId> elimination_ordering(const Graph& g,
                                         EliminationHeuristic heuristic) {
  const NodeId n = g.num_nodes();
  NAV_REQUIRE(n >= 1, "empty graph");
  auto adj = mutable_adjacency(g);
  std::vector<std::uint8_t> gone(n, 0);
  std::vector<NodeId> ordering;
  ordering.reserve(n);
  for (NodeId step = 0; step < n; ++step) {
    NodeId best = graph::kNoNode;
    std::size_t best_score = std::numeric_limits<std::size_t>::max();
    for (NodeId v = 0; v < n; ++v) {
      if (gone[v]) continue;
      const std::size_t score = heuristic == EliminationHeuristic::kMinDegree
                                    ? adj[v].size()
                                    : fill_cost(adj, v);
      if (score < best_score) {
        best_score = score;
        best = v;
        if (score == 0 && heuristic == EliminationHeuristic::kMinFill) break;
      }
    }
    NAV_ASSERT(best != graph::kNoNode);
    ordering.push_back(best);
    gone[best] = 1;
    eliminate(adj, best);
  }
  return ordering;
}

PathDecomposition elimination_path_decomposition(
    const Graph& g, const std::vector<NodeId>& ordering) {
  const NodeId n = g.num_nodes();
  NAV_REQUIRE(ordering.size() == n, "ordering size mismatch");
  std::vector<std::size_t> position(n, 0);
  {
    std::vector<std::uint8_t> seen(n, 0);
    for (std::size_t i = 0; i < ordering.size(); ++i) {
      const NodeId v = ordering[i];
      NAV_REQUIRE(v < n && !seen[v], "ordering is not a permutation");
      seen[v] = 1;
      position[v] = i;
    }
  }
  // last_pos[u] = latest position among u and its neighbours: u stays in
  // bags while some neighbour (or u itself) has not been placed yet.
  std::vector<std::size_t> last_pos(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    last_pos[u] = position[u];
    for (const NodeId w : g.neighbors(u)) {
      last_pos[u] = std::max(last_pos[u], position[w]);
    }
  }
  std::vector<Bag> bags(n);
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t i = position[u]; i <= last_pos[u]; ++i) {
      bags[i].push_back(u);
    }
  }
  PathDecomposition pd(std::move(bags));
  pd.reduce();
  return pd;
}

}  // namespace nav::decomp
