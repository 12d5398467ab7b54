#include "support/exact_analysis.hpp"

#include <algorithm>
#include <numeric>

#include "graph/bfs_engine.hpp"
#include "runtime/worker_team.hpp"

namespace nav::routing {

using graph::Dist;
using graph::NodeId;

std::vector<double> exact_expected_steps(const graph::Graph& g,
                                         const core::AugmentationScheme* scheme,
                                         NodeId target) {
  NAV_REQUIRE(target < g.num_nodes(), "target out of range");
  // A copy: every probability_row() below runs its own BFS on this
  // thread's workspace, which would overwrite the workspace row.
  const auto row = graph::local_bfs_workspace().distances(g, target);
  const std::vector<Dist> dist(row.begin(), row.end());
  for (const auto d : dist) {
    NAV_REQUIRE(d != graph::kInfDist, "exact analysis requires connectivity");
  }

  // Process nodes by increasing distance to the target.
  std::vector<NodeId> order(g.num_nodes());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(),
            [&](NodeId a, NodeId b) { return dist[a] < dist[b]; });

  std::vector<double> expected(g.num_nodes(), 0.0);
  for (const NodeId u : order) {
    if (u == target) continue;
    // Deterministic best local neighbour — same tie-break as GreedyRouter
    // (sorted adjacency, first minimum).
    NodeId best_local = graph::kNoNode;
    Dist best_dist = graph::kInfDist;
    for (const NodeId v : g.neighbors(u)) {
      if (dist[v] < best_dist) {
        best_dist = dist[v];
        best_local = v;
      }
    }
    NAV_ASSERT(best_local != graph::kNoNode && best_dist < dist[u]);

    if (scheme == nullptr) {
      expected[u] = 1.0 + expected[best_local];
      continue;
    }
    const auto row = scheme->probability_row(u);
    NAV_ASSERT(row.size() == g.num_nodes());
    double total_mass = 0.0;
    double value = 0.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (row[v] <= 0.0) continue;
      total_mass += row[v];
      // The long link is taken only when strictly better than best_local;
      // both successors are strictly closer to t, so their T is final.
      const NodeId next = dist[v] < best_dist ? v : best_local;
      value += row[v] * (1.0 + expected[next]);
    }
    NAV_ASSERT(total_mass <= 1.0 + 1e-6);
    const double residual = std::max(0.0, 1.0 - total_mass);
    value += residual * (1.0 + expected[best_local]);
    expected[u] = value;
  }
  return expected;
}

double exact_pair_expectation(const graph::Graph& g,
                              const core::AugmentationScheme* scheme,
                              NodeId source, NodeId target) {
  NAV_REQUIRE(source < g.num_nodes(), "source out of range");
  return exact_expected_steps(g, scheme, target)[source];
}

ExactGreedyDiameter exact_greedy_diameter(const graph::Graph& g,
                                          const core::AugmentationScheme* scheme) {
  NAV_REQUIRE(g.num_nodes() >= 2, "graph too small");
  const NodeId n = g.num_nodes();
  std::vector<double> per_target_max(n, 0.0);
  std::vector<NodeId> per_target_argmax(n, 0);
  nav::parallel_for(0, n, [&](std::size_t t) {
    const auto expected =
        exact_expected_steps(g, scheme, static_cast<NodeId>(t));
    double best = 0.0;
    NodeId arg = 0;
    for (NodeId s = 0; s < n; ++s) {
      if (expected[s] > best) {
        best = expected[s];
        arg = s;
      }
    }
    per_target_max[t] = best;
    per_target_argmax[t] = arg;
  });
  ExactGreedyDiameter out;
  for (NodeId t = 0; t < n; ++t) {
    if (per_target_max[t] > out.value) {
      out.value = per_target_max[t];
      out.argmax_source = per_target_argmax[t];
      out.argmax_target = t;
    }
  }
  return out;
}

}  // namespace nav::routing
