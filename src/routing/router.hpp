// router.hpp — the routing-policy interface behind the router registry.
//
// The paper fixes ONE routing process (greedy, §1) and varies the
// augmentation distribution. Follow-up work varies the *process* instead:
// "Know Thy Neighbor's Neighbor" (Manku–Naor–Wieder, STOC'04 — the paper's
// reference [16]) and "Near Optimal Routing for Small-World Networks with
// Augmented Local Awareness" (Zeng–Hsu–Hu) give nodes lookahead over their
// neighbours' long-range links. Router abstracts over that choice so that
// schemes × routers form a sweep grid (api::Experiment, make_router) instead
// of one hand-rolled bench binary per process.
//
// Contract:
//   * route(s, t, scheme, rng) draws every contact it needs from `rng`,
//     which is taken BY VALUE: a route consumes a private stream, never the
//     caller's. (s, t, scheme, rng state) -> result is a pure function, so
//     batch drivers stay deterministic under any parallel schedule by
//     handing trial i the child stream rng.child(i).
//   * `scheme` may be nullptr: the node has local links only.
//   * scheme->num_nodes() must match the router's graph (checked, throws).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "graph/distance_oracle.hpp"

namespace nav::routing {

using core::AugmentationScheme;
using graph::Dist;
using graph::Graph;
using graph::NodeId;

struct RouteResult {
  std::uint32_t steps = 0;            // hops from s to t
  std::uint32_t long_links_used = 0;  // how many hops were long-range
  Dist initial_distance = 0;          // dist(s, t)
  bool reached = false;               // always true for connected graphs
  /// Hop trace (s first, t last) — only filled when record_trace is set;
  /// long_flags[i] marks whether hop i -> i+1 used a long-range link.
  std::vector<NodeId> trace;
  std::vector<std::uint8_t> long_flags;
};

/// A routing process over one fixed graph + distance oracle. Implementations
/// are immutable after construction and safe for concurrent route() calls.
class Router {
 public:
  virtual ~Router() = default;

  /// Process identifier for tables, e.g. "greedy", "lookahead:1".
  [[nodiscard]] virtual std::string name() const = 0;

  /// The underlying graph this router forwards on.
  [[nodiscard]] virtual const Graph& graph() const noexcept = 0;

  /// Routes s -> t under `scheme` (nullptr: local links only), drawing all
  /// contact randomness from the private stream `rng`.
  [[nodiscard]] virtual RouteResult route(NodeId s, NodeId t,
                                          const AugmentationScheme* scheme,
                                          Rng rng,
                                          bool record_trace = false) const = 0;

  /// Routes with the target's distance vector already resolved
  /// (`target_dist` must equal *oracle.distances_to(t), size n). Batch
  /// drivers (api::RouteService) resolve once per target shard and route
  /// every pair of the shard through the same vector, bypassing the oracle
  /// entirely — results are identical to route() by construction. The base
  /// implementation ignores the hint and forwards to route(), so custom
  /// routers stay correct without overriding.
  ///
  /// `target_dist` need only be exact on B(t, target_dist[s] + 1): entries
  /// farther out may read kInfDist (DistanceOracle::prefetch_sourced_into
  /// hands out such rows). An implementation must return the same result
  /// for any such row. The greedy and lookahead routers do: on an exact
  /// field every committed hop descends from d(s, t), so each node they
  /// stand on is within d(s, t) of t and its local neighbours within
  /// d(s, t) + 1; a long-range contact or a lookahead chain node outside
  /// that ball is farther than every candidate that wins, whether it reads
  /// its true distance or kInfDist. tests/routing/
  /// test_truncated_row_contract.cpp pins this across every family.
  [[nodiscard]] virtual RouteResult route_resolved(
      NodeId s, NodeId t, std::span<const Dist> target_dist,
      const AugmentationScheme* scheme, Rng rng,
      bool record_trace = false) const {
    (void)target_dist;
    return route(s, t, scheme, rng, record_trace);
  }
};

using RouterPtr = std::unique_ptr<Router>;

}  // namespace nav::routing
