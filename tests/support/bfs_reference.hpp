// bfs_reference.hpp — the pre-engine allocating BFS kernels, kept verbatim
// as the differential-test baseline and the bench_micro M1 `reference`
// cell. Test and bench code only: the library itself runs on BfsWorkspace.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace nav::graph {

/// Allocating scalar BFS; bit-identical output to
/// BfsWorkspace::distances_into.
[[nodiscard]] std::vector<Dist> bfs_distances_reference(const Graph& g,
                                                        NodeId source,
                                                        Dist radius = kInfDist);

/// Allocating per-call-visited ball; identical order to BfsWorkspace::ball.
[[nodiscard]] std::vector<NodeId> ball_reference(const Graph& g, NodeId center,
                                                 Dist radius);

}  // namespace nav::graph
