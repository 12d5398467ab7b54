#include "decomposition/decomposition.hpp"

#include <algorithm>
#include <sstream>

namespace nav::decomp {

Bag make_bag(std::vector<NodeId> vertices) {
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()), vertices.end());
  return vertices;
}

PathDecomposition::PathDecomposition(std::vector<Bag> bags)
    : bags_(std::move(bags)) {
  for (auto& b : bags_) b = make_bag(std::move(b));
}

namespace {

bool bag_contains(const Bag& bag, NodeId v) {
  return std::binary_search(bag.begin(), bag.end(), v);
}

bool is_subset(const Bag& inner, const Bag& outer) {
  return std::includes(outer.begin(), outer.end(), inner.begin(), inner.end());
}

void set_reason(std::string* why, const std::string& reason) {
  if (why != nullptr) *why = reason;
}

}  // namespace

bool PathDecomposition::is_valid(const Graph& g, std::string* why) const {
  const NodeId n = g.num_nodes();
  if (bags_.empty()) {
    if (n == 0) return true;
    set_reason(why, "no bags but graph has vertices");
    return false;
  }
  for (const auto& bag : bags_) {
    for (const NodeId v : bag) {
      if (v >= n) {
        set_reason(why, "bag contains out-of-range vertex " + std::to_string(v));
        return false;
      }
    }
  }
  // Condition 3 first (contiguity), which also yields vertex coverage.
  const auto intervals = node_intervals(n);
  for (NodeId v = 0; v < n; ++v) {
    if (intervals[v].empty()) {
      set_reason(why, "vertex " + std::to_string(v) + " is in no bag");
      return false;
    }
    for (std::size_t i = intervals[v].first; i <= intervals[v].last; ++i) {
      if (!bag_contains(bags_[i], v)) {
        std::ostringstream msg;
        msg << "vertex " << v << " occurrence is not contiguous (missing from bag "
            << i << ")";
        set_reason(why, msg.str());
        return false;
      }
    }
  }
  // Condition 2: every edge inside some bag. The endpoints' intervals must
  // intersect, and any shared bag index works (both are contiguous).
  for (const auto& [u, v] : g.edge_list()) {
    const auto lo = std::max(intervals[u].first, intervals[v].first);
    const auto hi = std::min(intervals[u].last, intervals[v].last);
    if (lo > hi) {
      std::ostringstream msg;
      msg << "edge (" << u << "," << v << ") is covered by no bag";
      set_reason(why, msg.str());
      return false;
    }
  }
  return true;
}

std::vector<PathDecomposition::IndexInterval> PathDecomposition::node_intervals(
    NodeId n) const {
  std::vector<IndexInterval> intervals(n);
  for (std::size_t i = 0; i < bags_.size(); ++i) {
    for (const NodeId v : bags_[i]) {
      if (v >= n) continue;
      if (intervals[v].empty()) {
        intervals[v].first = i;
        intervals[v].last = i;
      } else {
        intervals[v].last = i;
      }
    }
  }
  return intervals;
}

std::size_t PathDecomposition::reduce() {
  std::size_t removed = 0;
  bool changed = true;
  while (changed && bags_.size() > 1) {
    changed = false;
    for (std::size_t i = 0; i < bags_.size(); ++i) {
      const bool sub_prev = i > 0 && is_subset(bags_[i], bags_[i - 1]);
      const bool sub_next =
          i + 1 < bags_.size() && is_subset(bags_[i], bags_[i + 1]);
      if (sub_prev || sub_next || bags_[i].empty()) {
        bags_.erase(bags_.begin() + static_cast<std::ptrdiff_t>(i));
        ++removed;
        changed = true;
        break;
      }
    }
  }
  return removed;
}

}  // namespace nav::decomp
