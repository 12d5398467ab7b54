// pathshape.hpp — best-effort pathshape upper bounds (builder portfolio).
//
// ps(G) is the min over all path decompositions of the max per-bag
// min(width, length). Exact computation is intractable; Theorem 2 only needs
// *some* decomposition with small shape plus the derived labeling, so the
// library runs every applicable builder and keeps the best.
//
// Certified per-family bounds (from the structured builders):
//   path            ps = 1            (path_graph_decomposition)
//   caterpillar     ps <= 2           (caterpillar_decomposition)
//   tree            ps <= ceil(log2 n) (tree_path_decomposition)
//   interval graph  ps <= 1           (interval_decomposition, via model)
//   permutation     ps <= 2           (permutation_decomposition, via model)
//   any G           ps <= min over {bfs-layer, trivial} shapes
#pragma once

#include <limits>
#include <optional>
#include <string>

#include "decomposition/decomposition.hpp"
#include "decomposition/measures.hpp"

namespace nav::decomp {

struct ShapedDecomposition {
  PathDecomposition decomposition;
  DecompositionMeasures measures;
  std::string method;  // builder that won
};

/// Options controlling the portfolio.
struct PathshapeOptions {
  /// Evaluating bag length costs one BFS per bag member; bags larger than
  /// this cap are scored by width alone (still a correct upper bound for
  /// shape, since shape <= width).
  std::size_t max_bag_for_length = 512;
  /// Skip the trivial single-bag candidate (whose shape is the diameter) —
  /// useful when the caller only wants structured decompositions.
  bool include_trivial = true;
};

/// Runs every applicable builder on g, measures each result, returns the one
/// with the smallest shape (ties: fewer bags); its measures.shape is an upper
/// bound on ps(G). Never fails on a connected graph (bfs-layer and trivial
/// always apply).
[[nodiscard]] ShapedDecomposition best_path_decomposition(
    const Graph& g, const PathshapeOptions& options = {});

/// Measures a given decomposition with the length-evaluation cap applied
/// (shape scored by width alone for oversized bags; still an upper bound).
/// `shape_cutoff`: once some bag certifies shape >= shape_cutoff the whole
/// evaluation stops (result.shape = shape_cutoff, shape_truncated = true) —
/// the portfolio uses the best-so-far shape here so that losing candidates
/// cost one small truncated BFS instead of a full measurement.
[[nodiscard]] DecompositionMeasures measure_capped(
    const Graph& g, const PathDecomposition& pd,
    std::size_t max_bag_for_length,
    std::size_t shape_cutoff = std::numeric_limits<std::size_t>::max());

}  // namespace nav::decomp
