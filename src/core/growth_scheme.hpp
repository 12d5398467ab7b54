// growth_scheme.hpp — the density-aware "ball-harmonic" baseline.
//
// The class-specific predecessors the paper cites ([6] Duchon-Hanusse-
// Lebhar-Schabanel, [21] Slivkins) make bounded-growth graphs polylog-
// navigable with distributions that normalise by ball volume rather than
// distance:
//     φ_u(v) ∝ 1 / |B(u, dist(u, v))|.
// The normaliser is Σ_r layer_u(r)/|B(u,r)| <= ln |B| = O(log n) on any
// graph, and on bounded-growth graphs each distance *scale* receives Θ(1/log)
// probability — the Kleinberg property without knowing the dimension.
//
// Included as a baseline for E7c: on its home class (paths, grids, tori —
// all bounded growth) it beats the ball scheme, but it carries no universal
// guarantee — the contrast that motivates the paper's Theorem 4.
#pragma once

#include "core/scheme.hpp"
#include "graph/graph.hpp"

namespace nav::core {

class GrowthScheme final : public AugmentationScheme {
 public:
  explicit GrowthScheme(const Graph& g);

  [[nodiscard]] NodeId sample_contact(NodeId u, Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "growth"; }
  [[nodiscard]] double probability(NodeId u, NodeId v) const override;
  [[nodiscard]] std::vector<double> probability_row(NodeId u) const override;
  [[nodiscard]] NodeId num_nodes() const override { return graph_.num_nodes(); }

 private:
  /// Unnormalised weights 1/|B(u, d(u,v))| (0 for u itself / unreachable).
  [[nodiscard]] std::vector<double> weights(NodeId u) const;

  const Graph& graph_;
};

}  // namespace nav::core
