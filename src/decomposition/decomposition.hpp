// decomposition.hpp — path-decompositions (Robertson–Seymour).
//
// A path-decomposition of G is a sequence of bags X_1, ..., X_r ⊆ V(G) such
// that (1) every vertex is in some bag, (2) every edge has both ends in some
// bag, (3) the bags containing any fixed vertex are consecutive.
//
// The paper's Theorem 2 labels nodes by the bag interval they occupy in a
// path-decomposition, so PathDecomposition also exposes the per-node index
// interval I_u (condition (3) makes it contiguous).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace nav::decomp {

using graph::Graph;
using graph::NodeId;

/// A bag: sorted, duplicate-free vertex set.
using Bag = std::vector<NodeId>;

/// Normalises a vertex set into bag form (sorts, dedups).
[[nodiscard]] Bag make_bag(std::vector<NodeId> vertices);

class PathDecomposition {
 public:
  PathDecomposition() = default;
  /// Bags in path order. Each is normalised with make_bag.
  explicit PathDecomposition(std::vector<Bag> bags);

  [[nodiscard]] std::size_t num_bags() const noexcept { return bags_.size(); }
  [[nodiscard]] const Bag& bag(std::size_t i) const {
    NAV_ASSERT(i < bags_.size());
    return bags_[i];
  }
  [[nodiscard]] const std::vector<Bag>& bags() const noexcept { return bags_; }

  /// Checks the three decomposition conditions against `g`.
  /// On failure *why (if non-null) receives a human-readable reason.
  [[nodiscard]] bool is_valid(const Graph& g, std::string* why = nullptr) const;

  /// Per-node bag-index interval [first, last] (inclusive, 0-based).
  /// Only meaningful for valid decompositions (contiguity). Nodes absent from
  /// all bags get {1, 0} (empty interval) — is_valid rejects that case.
  struct IndexInterval {
    std::size_t first = 1;
    std::size_t last = 0;
    [[nodiscard]] bool empty() const noexcept { return first > last; }
  };
  [[nodiscard]] std::vector<IndexInterval> node_intervals(NodeId n) const;

  /// Removes bags that are subsets of an adjacent bag (keeps validity, never
  /// increases any bag measure). Result has at most max(1, n-1) bags for a
  /// connected n-node graph. Returns the number of bags removed.
  std::size_t reduce();

 private:
  std::vector<Bag> bags_;
};

}  // namespace nav::decomp
