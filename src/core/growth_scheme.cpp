#include "core/growth_scheme.hpp"

#include <algorithm>

#include "graph/bfs_engine.hpp"

namespace nav::core {

GrowthScheme::GrowthScheme(const Graph& g) : graph_(g) {
  NAV_REQUIRE(g.num_nodes() >= 2, "need at least two nodes");
}

std::vector<double> GrowthScheme::weights(NodeId u) const {
  NAV_ASSERT(u < graph_.num_nodes());
  const auto dist = graph::local_bfs_workspace().distances(graph_, u);
  graph::Dist max_d = 0;
  for (const auto d : dist) {
    if (d != graph::kInfDist) max_d = std::max(max_d, d);
  }
  // |B(u, r)| via layer counting + prefix sums.
  std::vector<std::size_t> layer(max_d + 1, 0);
  for (const auto d : dist) {
    if (d != graph::kInfDist) ++layer[d];
  }
  std::vector<std::size_t> ball(max_d + 1, 0);
  std::size_t acc = 0;
  for (graph::Dist r = 0; r <= max_d; ++r) {
    acc += layer[r];
    ball[r] = acc;
  }
  std::vector<double> w(graph_.num_nodes(), 0.0);
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    if (v == u || dist[v] == graph::kInfDist) continue;
    w[v] = 1.0 / static_cast<double>(ball[dist[v]]);
  }
  return w;
}

NodeId GrowthScheme::sample_contact(NodeId u, Rng& rng) const {
  const auto w = weights(u);
  double z = 0.0;
  for (const double x : w) z += x;
  NAV_ASSERT(z > 0.0);
  double r = rng.next_double() * z;
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    r -= w[v];
    if (r < 0.0 && w[v] > 0.0) return v;
  }
  for (NodeId v = graph_.num_nodes(); v > 0; --v) {
    if (w[v - 1] > 0.0) return v - 1;  // float tail
  }
  return kNoContact;
}

double GrowthScheme::probability(NodeId u, NodeId v) const {
  NAV_ASSERT(v < graph_.num_nodes());
  const auto row = probability_row(u);
  return row[v];
}

std::vector<double> GrowthScheme::probability_row(NodeId u) const {
  auto w = weights(u);
  double z = 0.0;
  for (const double x : w) z += x;
  NAV_ASSERT(z > 0.0);
  for (auto& x : w) x /= z;
  return w;
}

}  // namespace nav::core
