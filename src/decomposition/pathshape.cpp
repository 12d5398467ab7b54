#include "decomposition/pathshape.hpp"

#include <algorithm>

#include "decomposition/builders.hpp"
#include "decomposition/elimination.hpp"
#include "decomposition/tree_path_decomposition.hpp"
#include "graph/bfs_engine.hpp"
#include "graph/connectivity.hpp"
#include "graph/diameter.hpp"

namespace nav::decomp {

DecompositionMeasures measure_capped(const Graph& g, const PathDecomposition& pd,
                                     std::size_t max_bag_for_length,
                                     std::size_t shape_cutoff) {
  DecompositionMeasures out;
  out.num_bags = pd.num_bags();
  for (const auto& bag : pd.bags()) {
    const std::size_t width = bag_width(bag);
    out.width = std::max(out.width, width);
    out.max_bag_size = std::max(out.max_bag_size, bag.size());

    std::size_t shape = width;
    if (bag.size() <= max_bag_for_length && width > 0) {
      // Length is only shape-relevant below min(width, cutoff): cap the BFS
      // there; a capped-out result means length exceeds the cap.
      const auto cap = static_cast<graph::Dist>(
          std::min<std::size_t>(width, shape_cutoff));
      const auto len = bag_length_capped(g, bag, cap);
      if (len != graph::kInfDist && len <= cap) {
        out.length = std::max<graph::Dist>(out.length, len);
        shape = std::min<std::size_t>(width, len);
      } else {
        out.length = std::max<graph::Dist>(out.length, cap);  // floor only
      }
    }
    out.shape = std::max(out.shape, shape);
    if (out.shape >= shape_cutoff) {
      out.shape = shape_cutoff;
      out.shape_truncated = true;
      return out;  // cannot beat the caller's incumbent
    }
  }
  return out;
}

ShapedDecomposition best_path_decomposition(const Graph& g,
                                            const PathshapeOptions& options) {
  NAV_REQUIRE(g.num_nodes() >= 1, "empty graph");
  NAV_REQUIRE(graph::is_connected(g), "pathshape portfolio needs connectivity");

  std::optional<ShapedDecomposition> best;
  auto consider = [&](PathDecomposition pd, const std::string& method) {
    // Losing candidates stop at the incumbent's shape (one truncated BFS).
    const std::size_t cutoff = best ? best->measures.shape
                                    : std::numeric_limits<std::size_t>::max();
    auto m = measure_capped(g, pd, options.max_bag_for_length, cutoff);
    if (m.shape_truncated) return;  // >= incumbent: cannot win
    const bool better =
        !best || m.shape < best->measures.shape ||
        (m.shape == best->measures.shape && m.num_bags < best->measures.num_bags);
    if (better) best = ShapedDecomposition{std::move(pd), m, method};
  };

  const bool is_tree =
      g.num_edges() == static_cast<graph::EdgeId>(g.num_nodes()) - 1;
  if (is_tree) {
    // Structured tree builders (strictly better than generic ones on trees).
    try {
      consider(caterpillar_decomposition(g), "caterpillar");
    } catch (const std::invalid_argument&) {
      // not a caterpillar — fine, the centroid builder below always applies
    }
    consider(tree_path_decomposition(g), "tree-centroid");
    try {
      consider(path_graph_decomposition(g), "path-walk");
    } catch (const std::invalid_argument&) {
      // not a path graph
    }
  }
  consider(bfs_layer_decomposition(g), "bfs-layer");
  if (g.num_nodes() <= 1024 &&
      g.num_edges() <= 8ull * g.num_nodes()) {
    // Elimination-order candidate: min-degree orderings produce small
    // separators on sparse structured graphs. Gate by size AND density —
    // the full-scan heuristic is quadratic, and clique fill-in on dense
    // inputs (G(n,p), near-regular expanders) can grow the working
    // neighbourhoods to Θ(n), turning it cubic.
    consider(elimination_path_decomposition(
                 g, elimination_ordering(g, EliminationHeuristic::kMinDegree)),
             "elim-min-degree");
  }
  if (options.include_trivial) {
    // The trivial bag's length is exactly diam(G); score it directly (its
    // size exceeds every length cap, so the generic path would misprice it
    // as width n-1 and lose on small-diameter graphs where it is in fact
    // the best certificate: shape = min(n-1, diam)).
    const graph::NodeId n = g.num_nodes();
    graph::Dist diam_ub;
    if (n <= 2048) {
      diam_ub = graph::exact_diameter(g);
    } else {
      // diam <= 2·ecc(v) for any v; one BFS gives ecc(0).
      diam_ub = 2 * graph::local_bfs_workspace().eccentricity(g, 0);
    }
    DecompositionMeasures m;
    m.num_bags = 1;
    m.max_bag_size = n;
    m.width = n > 0 ? n - 1 : 0;
    m.length = diam_ub;
    m.shape = std::min<std::size_t>(m.width, diam_ub);
    const bool better = !best || m.shape < best->measures.shape;
    if (better) {
      best = ShapedDecomposition{trivial_decomposition(g), m, "trivial"};
    }
  }

  NAV_ASSERT(best.has_value());
  return std::move(*best);
}

}  // namespace nav::decomp
