#include "decomposition/measures.hpp"

#include <algorithm>

#include "graph/bfs_engine.hpp"

namespace nav::decomp {

std::size_t bag_width(const Bag& bag) {
  return bag.empty() ? 0 : bag.size() - 1;
}

namespace {

/// Max distance from `source` to any bag member: early-exit BFS on the
/// engine workspace (visited via epoch stamps, bag membership via the
/// workspace's second marker channel). Stops as soon as every member has
/// been reached, or once the depth exceeds `cap` (then the true value is
/// > cap and kInfDist is returned as "too far"). The caller owns the epoch:
/// ws.prepare + mark(bag) must precede each call.
Dist farthest_member(const Graph& g, const Bag& bag, NodeId source,
                     graph::BfsWorkspace& ws, Dist cap) {
  std::size_t remaining = bag.size();
  auto& queue = ws.queue();
  queue.clear();
  ws.try_visit(source);
  queue.push_back(source);
  if (ws.marked(source)) --remaining;
  std::size_t head = 0;
  std::size_t level_end = 1;
  Dist depth = 0;
  Dist farthest = 0;
  while (head < queue.size() && remaining > 0 && depth < cap) {
    while (head < level_end && remaining > 0) {
      const NodeId u = queue[head++];
      for (const NodeId v : g.neighbors(u)) {
        if (ws.try_visit(v)) {
          queue.push_back(v);
          if (ws.marked(v)) {
            --remaining;
            farthest = depth + 1;
          }
        }
      }
    }
    ++depth;
    level_end = queue.size();
  }
  return remaining == 0 ? farthest : graph::kInfDist;
}

/// bag_length runs one early-exit BFS per bag member, and decompositions can
/// have Θ(n) bags — the workspace's O(1) epoch reset is what keeps measuring
/// a decomposition linear instead of quadratic.
Dist length_impl(const Graph& g, const Bag& bag, Dist cap) {
  auto& ws = graph::local_bfs_workspace();
  Dist length = 0;
  for (const NodeId u : bag) {
    // Fresh visit epoch per source, re-marking membership under it.
    ws.prepare(g.num_nodes());
    for (const NodeId v : bag) ws.mark(v);
    const Dist d = farthest_member(g, bag, u, ws, cap);
    if (d == graph::kInfDist) return graph::kInfDist;  // unreachable or > cap
    length = std::max(length, d);
  }
  return length;
}

/// True if every pair in the (small) bag is adjacent — length 1 shortcut.
bool is_clique_bag(const Graph& g, const Bag& bag) {
  if (bag.size() > 64) return false;
  for (std::size_t i = 0; i < bag.size(); ++i) {
    for (std::size_t j = i + 1; j < bag.size(); ++j) {
      if (!g.has_edge(bag[i], bag[j])) return false;
    }
  }
  return true;
}

/// min(width, length), reading an unreachable length as "longer than width".
std::size_t shape_of(std::size_t width, Dist length) {
  return length == graph::kInfDist ? width
                                    : std::min<std::size_t>(width, length);
}

}  // namespace

Dist bag_length(const Graph& g, const Bag& bag) {
  if (bag.size() <= 1) return 0;
  if (is_clique_bag(g, bag)) return 1;  // covers edge bags & clique paths
  return length_impl(g, bag, graph::kInfDist);
}

Dist bag_length_capped(const Graph& g, const Bag& bag, Dist cap) {
  if (bag.size() <= 1) return 0;
  if (cap == 0) return bag.size() > 1 ? 1 : 0;  // any two nodes differ
  if (is_clique_bag(g, bag)) return 1;
  const Dist d = length_impl(g, bag, cap);
  return d == graph::kInfDist ? cap + 1 : d;
}

std::size_t bag_shape(const Graph& g, const Bag& bag) {
  const std::size_t width = bag_width(bag);
  if (width == 0) return 0;
  // Short-circuit: length is only needed when it could be smaller than width.
  return shape_of(width, bag_length(g, bag));
}

DecompositionMeasures measure(const Graph& g, const PathDecomposition& pd) {
  DecompositionMeasures out;
  out.num_bags = pd.num_bags();
  for (const auto& bag : pd.bags()) {
    const std::size_t width = bag_width(bag);
    out.width = std::max(out.width, width);
    out.max_bag_size = std::max(out.max_bag_size, bag.size());
    // One length per bag feeds both the length and the shape aggregate.
    const Dist len = bag_length(g, bag);
    if (len != graph::kInfDist) out.length = std::max(out.length, len);
    out.shape = std::max(out.shape, shape_of(width, len));
  }
  return out;
}

std::size_t width_of(const PathDecomposition& pd) {
  std::size_t w = 0;
  for (const auto& bag : pd.bags()) w = std::max(w, bag_width(bag));
  return w;
}

}  // namespace nav::decomp
