#include "graph/landmark_oracle.hpp"

#include <algorithm>
#include <numeric>

#include "runtime/assert.hpp"
#include "runtime/worker_team.hpp"

namespace nav::graph {

namespace {

NodeId max_degree_node(const Graph& g) {
  NodeId best = 0;
  std::size_t best_deg = g.neighbors(0).size();
  for (NodeId u = 1; u < g.num_nodes(); ++u) {
    const std::size_t deg = g.neighbors(u).size();
    if (deg > best_deg) {
      best = u;
      best_deg = deg;
    }
  }
  return best;
}

std::vector<NodeId> select_by_degree(const Graph& g, std::size_t k) {
  std::vector<NodeId> nodes(g.num_nodes());
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  std::partial_sort(nodes.begin(), nodes.begin() + static_cast<long>(k),
                    nodes.end(), [&](NodeId a, NodeId b) {
                      const std::size_t da = g.neighbors(a).size();
                      const std::size_t db = g.neighbors(b).size();
                      return da != db ? da > db : a < b;
                    });
  nodes.resize(k);
  return nodes;
}

}  // namespace

LandmarkOracle::LandmarkOracle(const Graph& g, LandmarkOptions options)
    : graph_(g),
      options_(options),
      arena_(std::max<std::size_t>(options.row_cache_slots, 1) + 1,
             g.num_nodes()) {
  NAV_REQUIRE(g.num_nodes() > 0, "landmark oracle needs a non-empty graph");
  NAV_REQUIRE(options_.k >= 1, "landmark oracle needs k >= 1");
  const std::size_t n = g.num_nodes();
  const std::size_t k = std::min(options_.k, n);
  rows_ = std::shared_ptr<Dist[]>(new Dist[k * n]);

  if (options_.selection == LandmarkSelection::kDegree) {
    // Independent rows: farm them over the process team, one scalar sweep
    // per lane's workspace, capped at the policy's worker count.
    landmarks_ = select_by_degree(g, k);
    nav::parallel_for(
        0, k,
        [&](std::size_t i) {
          local_bfs_workspace().distances_into(g, landmarks_[i],
                                               {rows_.get() + i * n, n});
        },
        options_.policy.resolved_workers());
    return;
  }

  // Farthest-point traversal: seed at the max-degree node, then repeatedly
  // take the node farthest from the set so far (each new landmark's sweep is
  // also its stored row, so selection costs nothing extra). kInfDist in
  // min_dist means "no landmark reaches this node yet" — unreached
  // components win the argmax and get their own landmark first. Each
  // landmark depends on the rows before it, so the sweeps run in order on
  // the caller's workspace.
  auto& ws = local_bfs_workspace();
  landmarks_.reserve(k);
  landmarks_.push_back(max_degree_node(g));
  ws.distances_into(g, landmarks_[0], {rows_.get(), n});
  std::vector<Dist> min_dist(rows_.get(), rows_.get() + n);
  for (std::size_t i = 1; i < k; ++i) {
    NodeId next = 0;
    Dist best = 0;
    for (NodeId u = 0; u < n; ++u) {
      if (min_dist[u] > best) {  // first max wins: ties break to smaller id
        best = min_dist[u];
        next = u;
      }
    }
    if (best == 0) {  // every node IS a landmark already
      landmarks_.resize(i);
      break;
    }
    landmarks_.push_back(next);
    Dist* const row = rows_.get() + i * n;
    ws.distances_into(g, next, {row, n});
    for (NodeId u = 0; u < n; ++u) {
      min_dist[u] = std::min(min_dist[u], row[u]);
    }
  }
}

void LandmarkOracle::materialize_row(NodeId target,
                                     std::span<Dist> row) const {
  const std::size_t n = graph_.num_nodes();
  const Dist* const rows = rows_.get();
  std::fill(row.begin(), row.end(), kInfDist);
  for (std::size_t i = 0; i < landmarks_.size(); ++i) {
    const Dist* const lrow = rows + i * n;
    const Dist to_target = lrow[target];
    if (to_target == kInfDist) continue;  // landmark in another component
    for (std::size_t u = 0; u < n; ++u) {
      const Dist to_landmark = lrow[u];
      if (to_landmark == kInfDist) continue;
      row[u] = std::min(row[u], to_landmark + to_target);
    }
  }
  // Exact-ball patch: overlay the true distances within exact_radius of the
  // target. The estimate is an upper bound, so a min-merge IS replacement
  // inside the ball — and it anchors row[target] = 0 even at radius 0.
  const auto patch = local_bfs_workspace().distances(graph_, target,
                                                     options_.exact_radius);
  for (std::size_t u = 0; u < n; ++u) {
    if (patch[u] != kInfDist) row[u] = std::min(row[u], patch[u]);
  }
}

std::shared_ptr<Dist> LandmarkOracle::acquire_slot() const {
  std::shared_ptr<Dist> slot = arena_.try_acquire();
  if (slot == nullptr) {  // every slot pinned: spill to a plain heap row
    slot = std::shared_ptr<Dist>(new Dist[graph_.num_nodes()],
                                 std::default_delete<Dist[]>());
  }
  return slot;
}

Dist LandmarkOracle::distance(NodeId u, NodeId target) const {
  // Via the row cache so point queries and row queries agree exactly
  // (including the exact-ball patch).
  return (*distances_to(target))[u];
}

DistVecPtr LandmarkOracle::distances_to(NodeId target) const {
  NAV_ASSERT(target < graph_.num_nodes());
  const std::size_t n = graph_.num_nodes();
  {
    std::lock_guard lock(mutex_);
    const auto it = cache_.find(target);
    if (it != cache_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.row;  // refcount copy: the zero-allocation warm hit
    }
    ++misses_;
  }
  std::shared_ptr<Dist> slot = acquire_slot();
  materialize_row(target, {slot.get(), n});
  DistVecPtr row{std::move(slot), n};
  std::lock_guard lock(mutex_);
  const auto it = cache_.find(target);
  if (it != cache_.end()) return it->second.row;  // lost the race
  lru_.push_front(target);
  cache_.emplace(target, Entry{lru_.begin(), row});
  const std::size_t capacity = std::max<std::size_t>(options_.row_cache_slots, 1);
  while (cache_.size() > capacity) {
    const NodeId victim = lru_.back();
    lru_.pop_back();
    cache_.erase(victim);
  }
  return row;
}

}  // namespace nav::graph
