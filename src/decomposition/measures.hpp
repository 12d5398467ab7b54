// measures.hpp — width, length, and the paper's new *shape* measure (Def. 2).
//
//   width(X)  = |X| - 1                                   [Robertson–Seymour]
//   length(X) = max_{x,y in X} dist_G(x, y)               [Dourisboure–Gavoille]
//   shape(X)  = min(width(X), length(X))                  [this paper]
//
// The measure of a decomposition is the max over its bags; pathshape ps(G)
// is the min over all path-decompositions. Computing ps(G) exactly is
// intractable in general; the library computes exact measures of *given*
// decompositions and certified upper bounds via the family-specific builders.
#pragma once

#include <cstdint>

#include "decomposition/decomposition.hpp"
#include "graph/graph.hpp"

namespace nav::decomp {

using graph::Dist;

/// width(X) = |X| - 1 (0 for empty bags, by convention).
[[nodiscard]] std::size_t bag_width(const Bag& bag);

/// length(X) = max pairwise distance in G between bag members.
/// Note the distance is measured in G, not in the induced subgraph — the bag
/// may even be disconnected (paper, §2.2). Cost: one early-exit BFS per bag
/// member.
[[nodiscard]] Dist bag_length(const Graph& g, const Bag& bag);

/// bag_length truncated at `cap`: returns the exact length when it is
/// <= cap, and cap + 1 ("longer than cap") otherwise. Since
/// shape = min(width, length), calling with cap = width(bag) computes the
/// bag's shape while only ever exploring radius-width balls — this is what
/// keeps measuring wide-but-long decompositions (e.g. centroid bags spanning
/// a tree) near-linear instead of quadratic.
[[nodiscard]] Dist bag_length_capped(const Graph& g, const Bag& bag, Dist cap);

/// shape(X) = min(width(X), length(X)).
[[nodiscard]] std::size_t bag_shape(const Graph& g, const Bag& bag);

/// Decomposition-level measures (max over bags).
struct DecompositionMeasures {
  std::size_t width = 0;
  Dist length = 0;
  std::size_t shape = 0;
  std::size_t num_bags = 0;
  std::size_t max_bag_size = 0;
  /// Set when evaluation stopped early because shape reached the caller's
  /// cutoff; `shape` then means "at least this much" (see measure_capped).
  bool shape_truncated = false;
};

[[nodiscard]] DecompositionMeasures measure(const Graph& g,
                                            const PathDecomposition& pd);

/// Width-only fast path (no BFS).
[[nodiscard]] std::size_t width_of(const PathDecomposition& pd);

}  // namespace nav::decomp
