// landmark_oracle.hpp — approximate distances from k landmark BFS sweeps.
//
// DistanceMatrix is exact but O(n²); TargetDistanceCache is exact but pays a
// full BFS per distinct target. For graphs too big for either, the classic
// landmark (a.k.a. pivot/sketch) construction trades accuracy for an O(k·n)
// footprint: pick k landmarks, store their exact BFS rows, and estimate
//
//   d̂(u, t) = min over landmarks l of  d(u, l) + d(l, t)  >=  d(u, t),
//
// the triangle upper bound. The estimate is exact whenever some shortest
// u–t path passes through a landmark — and always exact AT a landmark, since
// l = u (or l = t) collapses the bound to the true distance.
//
// Routing on an upper bound: d̂(·, t) is still 1-Lipschitz along edges (each
// term d(u, l) changes by at most 1 per hop), so a greedy descent on the
// landmark field cannot jump over the target but CAN stall at a local
// minimum where no neighbour improves. Two mitigations, both here:
//   * exact()-aware routers (greedy/lookahead) terminate cleanly at a stall
//     instead of asserting strict descent;
//   * the exact-ball patch: each materialised row overlays a bounded BFS
//     from the target (radius `exact_radius`), making the field exact — and
//     hence strictly descending — inside that ball, so routes that get near
//     the target finish instead of orbiting it.
//
// Rows are materialised per target and LRU-cached over an arena
// (runtime/arena.hpp), mirroring TargetDistanceCache's pin semantics: a warm
// hit is a refcount copy, zero allocations.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/bfs_engine.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/graph.hpp"
#include "runtime/arena.hpp"

namespace nav::graph {

/// How landmarks are picked.
enum class LandmarkSelection : std::uint8_t {
  kDegree,    ///< top-k by degree (ties: smaller id) — cheap, hub-biased
  kFarthest,  ///< farthest-point traversal from the max-degree seed —
              ///< spread-out cover, the better default on flat-degree graphs
};

struct LandmarkOptions {
  /// Number of landmarks (clamped to the node count; must be >= 1).
  std::size_t k = 16;
  LandmarkSelection selection = LandmarkSelection::kFarthest;
  /// Radius of the exact BFS patch overlaid on every materialised row
  /// (0 disables everything but the row[t] = 0 anchor).
  Dist exact_radius = 2;
  /// LRU capacity for materialised target rows.
  std::size_t row_cache_slots = 64;
  /// Worker cap for the k construction sweeps (kDegree farms them over the
  /// process team; kFarthest runs them in order, each depending on the last).
  ParallelPolicy policy;
};

/// Approximate distance oracle: min-over-landmarks triangle upper bound with
/// an exact patch around each target. exact() is false — routers switch to
/// stall-tolerant termination.
class LandmarkOracle final : public DistanceOracle {
 public:
  explicit LandmarkOracle(const Graph& g, LandmarkOptions options = {});

  [[nodiscard]] bool exact() const noexcept override { return false; }

  /// The triangle upper bound (patched near the target): always
  /// >= the true distance, equal at landmarks and inside the patch ball.
  [[nodiscard]] Dist distance(NodeId u, NodeId target) const override;
  [[nodiscard]] DistVecPtr distances_to(NodeId target) const override;

  /// The selected landmarks, in selection order.
  [[nodiscard]] std::span<const NodeId> landmarks() const noexcept {
    return landmarks_;
  }
  [[nodiscard]] std::size_t num_landmarks() const noexcept {
    return landmarks_.size();
  }
  [[nodiscard]] Dist exact_radius() const noexcept {
    return options_.exact_radius;
  }
  /// Row-cache telemetry (mirrors TargetDistanceCache's accessors).
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }

 private:
  struct Entry {
    std::list<NodeId>::iterator lru_it;
    DistVecPtr row;
  };

  /// Writes d̂(·, target) into `row`: min over landmarks, then the exact-ball
  /// patch. Runs without the cache lock (BFS on the caller's workspace).
  void materialize_row(NodeId target, std::span<Dist> row) const;
  [[nodiscard]] std::shared_ptr<Dist> acquire_slot() const;

  const Graph& graph_;
  LandmarkOptions options_;
  std::vector<NodeId> landmarks_;
  /// k rows of n exact distances, row-major in selection order.
  std::shared_ptr<Dist[]> rows_;

  mutable SlabArena<Dist> arena_;
  mutable std::mutex mutex_;
  mutable std::list<NodeId> lru_;  // front = most recently used
  mutable std::unordered_map<NodeId, Entry> cache_;
  mutable std::size_t hits_ = 0, misses_ = 0;
};

}  // namespace nav::graph
