// exact_analysis.hpp — closed-form E(φ, s, t) without Monte Carlo.
//
// Greedy routing strictly decreases the distance to the target at every
// step, so the expected remaining steps T(u) are well-defined by dynamic
// programming over distance levels:
//
//   T(t) = 0
//   T(u) = Σ_v φ_u(v) · (1 + T(step(u, v)))  +  (1 - Σ_v φ_u(v)) · (1 + T(b(u)))
//
// where b(u) is the deterministic best local neighbour (smallest distance,
// ties to smallest id — matching GreedyRouter) and step(u, v) is v when the
// contact v is strictly closer to t than b(u), else b(u). Processing nodes in
// increasing dist(·, t) makes every referenced T already available.
//
// Uses: the exact value E(φ, s, t) = T(s) validates the Monte-Carlo trial
// runner (tests), and exact greedy diameters are tractable for n up to a few
// thousand (cost: one probability_row per node per target).
#pragma once

#include <vector>

#include "core/scheme.hpp"
#include "graph/graph.hpp"

namespace nav::routing {

/// T(u) for all u, for a fixed target. `scheme` may be nullptr (no long
/// links: T(u) = dist(u, t)). Requires the scheme to support exact
/// probabilities (throws std::logic_error otherwise) and the graph to be
/// connected (throws std::invalid_argument).
[[nodiscard]] std::vector<double> exact_expected_steps(
    const graph::Graph& g, const core::AugmentationScheme* scheme,
    graph::NodeId target);

/// E(φ, s, t) — one entry of the table above.
[[nodiscard]] double exact_pair_expectation(const graph::Graph& g,
                                            const core::AugmentationScheme* scheme,
                                            graph::NodeId source,
                                            graph::NodeId target);

/// Exact greedy diameter max_{s,t} E(φ, s, t). One probability_row per
/// (node, target) pair — O(n²) rows — intended for n up to a few hundred.
struct ExactGreedyDiameter {
  double value = 0.0;
  graph::NodeId argmax_source = 0;
  graph::NodeId argmax_target = 0;
};
[[nodiscard]] ExactGreedyDiameter exact_greedy_diameter(
    const graph::Graph& g, const core::AugmentationScheme* scheme);

}  // namespace nav::routing
