#include "core/rank_scheme.hpp"

#include "graph/bfs_engine.hpp"

namespace nav::core {

RankScheme::RankScheme(const Graph& g) : graph_(g) {
  NAV_REQUIRE(g.num_nodes() >= 2, "need at least two nodes");
  std::vector<double> weights(g.num_nodes() - 1);
  for (std::size_t r = 1; r < g.num_nodes(); ++r) {
    weights[r - 1] = 1.0 / static_cast<double>(r);
  }
  rank_dist_ = std::make_unique<DiscreteDistribution>(weights);
}

NodeId RankScheme::sample_contact(NodeId u, Rng& rng) const {
  NAV_ASSERT(u < graph_.num_nodes());
  // BFS discovery order (excluding u) *is* a distance order.
  const auto order =
      graph::local_bfs_workspace().ball(graph_, u, graph::kInfDist).order;
  const std::size_t rank = 1 + rank_dist_->sample(rng);  // in [1, n-1]
  if (rank >= order.size()) {
    // Disconnected remainder: treat ranks beyond the component as no link.
    return kNoContact;
  }
  return order[rank];  // order[0] == u
}

double RankScheme::probability(NodeId u, NodeId v) const {
  if (u == v) return 0.0;
  const auto order =
      graph::local_bfs_workspace().ball(graph_, u, graph::kInfDist).order;
  for (std::size_t r = 1; r < order.size(); ++r) {
    if (order[r] == v) return rank_dist_->probability(r - 1);
  }
  return 0.0;
}

std::vector<double> RankScheme::probability_row(NodeId u) const {
  const auto order =
      graph::local_bfs_workspace().ball(graph_, u, graph::kInfDist).order;
  std::vector<double> row(graph_.num_nodes(), 0.0);
  for (std::size_t r = 1; r < order.size(); ++r) {
    row[order[r]] = rank_dist_->probability(r - 1);
  }
  return row;
}

}  // namespace nav::core
