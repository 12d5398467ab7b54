#include "routing/lookahead_router.hpp"

#include <algorithm>

namespace nav::routing {

RouteResult LookaheadRouter::route(NodeId s, NodeId t,
                                   const AugmentationScheme* scheme, Rng rng,
                                   bool record_trace) const {
  // One copy of the scheme dispatch: resolve the distance vector, then take
  // the batch entry point (the temporary DistVecPtr outlives the call).
  NAV_REQUIRE(s < graph_.num_nodes() && t < graph_.num_nodes(),
              "route endpoint out of range");
  return route_resolved(s, t, *oracle_.distances_to(t), scheme, rng,
                        record_trace);
}

RouteResult LookaheadRouter::route_resolved(NodeId s, NodeId t,
                                            std::span<const Dist> target_dist,
                                            const AugmentationScheme* scheme,
                                            Rng rng, bool record_trace) const {
  if (scheme == nullptr) {
    return route_impl(
        s, t, target_dist, [](NodeId) { return core::kNoContact; },
        record_trace);
  }
  NAV_REQUIRE(scheme->num_nodes() == graph_.num_nodes(),
              "scheme/graph size mismatch");
  core::MemoContacts contacts(*scheme, rng);
  return route_impl(
      s, t, target_dist, [&contacts](NodeId u) { return contacts(u); },
      record_trace);
}

RouteResult LookaheadRouter::route_impl(NodeId s, NodeId t,
                                        std::span<const Dist> dist,
                                        const ContactFn& contacts,
                                        bool record_trace) const {
  NAV_REQUIRE(s < graph_.num_nodes() && t < graph_.num_nodes(),
              "route endpoint out of range");
  NAV_REQUIRE(dist.size() == graph_.num_nodes(),
              "target distance vector size mismatch");
  NAV_REQUIRE(dist[s] != graph::kInfDist, "target unreachable from source");

  const NodeId n = graph_.num_nodes();
  // Best distance reachable from w along its chain of <= depth long links.
  auto chain_score = [&](NodeId w) -> Dist {
    Dist best = dist[w];
    NodeId x = w;
    for (unsigned k = 0; k < depth_; ++k) {
      x = contacts(x);
      if (x == core::kNoContact || x >= n) break;
      best = std::min(best, dist[x]);
    }
    return best;
  };

  RouteResult result;
  result.initial_distance = dist[s];
  NodeId u = s;
  if (record_trace) result.trace.push_back(u);

  auto hop = [&](NodeId next, bool via_long) {
    u = next;
    ++result.steps;
    result.long_links_used += via_long ? 1u : 0u;
    if (record_trace) {
      result.trace.push_back(next);
      result.long_flags.push_back(via_long ? 1 : 0);
    }
  };

  while (u != t) {
    const Dist du = dist[u];
    // Candidates: local neighbours and u's own long-range contact.
    NodeId best = graph::kNoNode;
    Dist best_score = graph::kInfDist;
    bool best_via_long = false;
    auto offer = [&](NodeId w, bool via_long) {
      const Dist score = chain_score(w);
      // Prefer strictly better scores; among ties prefer a node that is
      // itself closer (avoids taking a multi-step move for nothing).
      if (score < best_score ||
          (score == best_score && best != graph::kNoNode &&
           dist[w] < dist[best])) {
        best = w;
        best_score = score;
        best_via_long = via_long;
      }
    };
    for (const NodeId w : graph_.neighbors(u)) offer(w, false);
    const NodeId own = contacts(u);
    if (own != core::kNoContact && own < n) offer(own, true);

    // On an exact field a local neighbour on a shortest path scores
    // <= du - 1. An approximate field can stall: no candidate (not even via
    // its chain) improves on du. Terminate; reached stays false. The commit
    // loop below never runs on a stall-free hop sequence whose scores lied —
    // scores come from the same dist array, so a committed chain still
    // delivers its promised drop.
    if (best == graph::kNoNode || best_score >= du) {
      NAV_ASSERT(!exact_);
      return result;
    }
    hop(best, best_via_long);
    // If the move was motivated by the candidate's chain, commit: follow the
    // long links until the promised distance drop materialises. The scorer
    // saw the same (consistent) contacts, so the drop arrives within depth_
    // links.
    unsigned followed = 0;
    while (u != t && dist[u] >= du) {
      NAV_ASSERT(followed < depth_);
      const NodeId c = contacts(u);
      NAV_ASSERT(c != core::kNoContact && c < n);
      hop(c, true);
      ++followed;
    }
  }
  result.reached = true;
  NAV_ASSERT(result.steps <=
             (1u + depth_) * static_cast<std::uint32_t>(result.initial_distance));
  return result;
}

}  // namespace nav::routing
