// rank_scheme.hpp — rank-based augmentation (extension / ablation comparator).
//
// Liben-Nowell et al. style: Pr(u → v) ∝ 1/rank_u(v), where rank_u(v) is v's
// position (1-based) in the distance order around u (BFS order; ties broken
// by discovery order). On growth-bounded graphs this matches the harmonic
// scheme; on general graphs it is a natural density-adaptive competitor to
// the ball scheme — included in the E7 ablations as "what if we weight by
// rank instead of mixing ball radii?".
#pragma once

#include <memory>

#include "core/scheme.hpp"
#include "graph/graph.hpp"
#include "runtime/discrete_distribution.hpp"

namespace nav::core {

class RankScheme final : public AugmentationScheme {
 public:
  explicit RankScheme(const Graph& g);

  [[nodiscard]] NodeId sample_contact(NodeId u, Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "rank"; }
  [[nodiscard]] double probability(NodeId u, NodeId v) const override;
  [[nodiscard]] std::vector<double> probability_row(NodeId u) const override;
  [[nodiscard]] NodeId num_nodes() const override { return graph_.num_nodes(); }

 private:
  const Graph& graph_;
  /// Shared harmonic table over ranks 1..n-1 (node independent).
  std::unique_ptr<DiscreteDistribution> rank_dist_;
};

}  // namespace nav::core
