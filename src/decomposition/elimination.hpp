// elimination.hpp — path decompositions from elimination orderings.
//
// Eliminate vertices one by one, connecting the current neighbourhood into a
// clique (the fill-in); the ordering heuristic determines quality:
//   * min-degree  — eliminate the vertex of smallest current degree;
//   * min-fill    — eliminate the vertex whose elimination adds the fewest
//                   fill edges.
// Both are the standard baselines in treewidth practice. Laying the
// ordering out as cumulative separators gives a valid path decomposition —
// the pathshape portfolio's generic candidate on sparse structured graphs.
#pragma once

#include "decomposition/decomposition.hpp"

namespace nav::decomp {

enum class EliminationHeuristic { kMinDegree, kMinFill };

/// The elimination ordering chosen by the heuristic. O(n·m)-ish with the
/// simple set-based implementation (fine at library scale).
[[nodiscard]] std::vector<NodeId> elimination_ordering(
    const Graph& g, EliminationHeuristic heuristic);

/// Path decomposition obtained by *cumulative separators* along the
/// elimination order (the vertex-separation construction over the reversed
/// ordering): bag_i = {v_i} ∪ {earlier vertices with a neighbour at or after
/// position i}. Always valid; width = max separator size.
[[nodiscard]] PathDecomposition elimination_path_decomposition(
    const Graph& g, const std::vector<NodeId>& ordering);

}  // namespace nav::decomp
