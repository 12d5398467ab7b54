// kleinberg_scheme.hpp — the classical distance-harmonic baseline [13].
//
// Kleinberg's small-world augmentation: Pr(u → v) ∝ dist_G(u, v)^{-α} for
// v ≠ u. On d-dimensional meshes α = d is the unique navigable exponent
// (O(log² n) greedy routing); α away from d degrades polynomially — the
// classic U-shaped curve reproduced by experiment E8.
//
// Two implementations:
//   * KleinbergScheme — any graph; one BFS per sample (exact, O(m + n)).
//   * TorusKleinbergScheme — 2D torus; by symmetry the offset distribution
//     is node-independent, so a single alias table gives O(1) samples.
#pragma once

#include <memory>

#include "core/scheme.hpp"
#include "graph/graph.hpp"
#include "runtime/discrete_distribution.hpp"

namespace nav::core {

class KleinbergScheme final : public AugmentationScheme {
 public:
  KleinbergScheme(const Graph& g, double alpha);

  [[nodiscard]] NodeId sample_contact(NodeId u, Rng& rng) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double probability(NodeId u, NodeId v) const override;
  [[nodiscard]] std::vector<double> probability_row(NodeId u) const override;
  [[nodiscard]] NodeId num_nodes() const override { return graph_.num_nodes(); }

  [[nodiscard]] double alpha() const noexcept { return alpha_; }

 private:
  const Graph& graph_;
  double alpha_;
};

class TorusKleinbergScheme final : public AugmentationScheme {
 public:
  /// Node ids must follow graph::make_torus2d(side, side): id = r*side + c.
  TorusKleinbergScheme(NodeId side, double alpha);

  [[nodiscard]] NodeId sample_contact(NodeId u, Rng& rng) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double probability(NodeId u, NodeId v) const override;
  [[nodiscard]] NodeId num_nodes() const override { return side_ * side_; }

 private:
  NodeId side_;
  double alpha_;
  /// Offset index o = dr*side + dc over all (dr, dc) != (0,0).
  std::unique_ptr<DiscreteDistribution> offsets_;
};

}  // namespace nav::core
