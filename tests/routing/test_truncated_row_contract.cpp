// test_truncated_row_contract.cpp — Router::route_resolved reads the target
// row exactly only on B(t, d(s, t) + 1). A batch driver may therefore hand a
// router a row that a source-bounded sweep stopped one level past s
// (DistanceOracle::prefetch_sourced_into); every farther entry then reads
// kInfDist. This suite routes every pair twice, through the complete row and
// through that cut row, and requires the whole RouteResult to match: steps,
// long links, trace, long_flags, reached and initial_distance.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/route_service.hpp"
#include "core/scheme_factory.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/families.hpp"
#include "routing/router_factory.hpp"

namespace nav::routing {
namespace {

using graph::Dist;
using graph::kInfDist;
using graph::NodeId;

constexpr const char* kRouters[] = {"greedy", "lookahead:1", "lookahead:2"};
constexpr const char* kSchemes[] = {"uniform", "ball", "kleinberg:2"};

/// The row a source-bounded sweep from t leaves for source s: exact on
/// B(t, d(s, t) + 1), kInfDist beyond.
std::vector<Dist> cut_row(std::span<const Dist> full, NodeId s) {
  const Dist keep = full[s] + 1;
  std::vector<Dist> cut(full.begin(), full.end());
  for (Dist& d : cut) {
    if (d != kInfDist && d > keep) d = kInfDist;
  }
  return cut;
}

void expect_same_route(const RouteResult& a, const RouteResult& b,
                       const std::string& where) {
  EXPECT_EQ(a.steps, b.steps) << where;
  EXPECT_EQ(a.long_links_used, b.long_links_used) << where;
  EXPECT_EQ(a.initial_distance, b.initial_distance) << where;
  EXPECT_EQ(a.reached, b.reached) << where;
  EXPECT_EQ(a.trace, b.trace) << where;
  EXPECT_EQ(a.long_flags, b.long_flags) << where;
}

TEST(TruncatedRowContract, EveryFamilySchemeAndRouterRoutesIdentically) {
  constexpr NodeId kNodes = 160;
  constexpr std::size_t kPairs = 12;
  std::size_t cut_entries = 0;  // entries the cut rows actually hid
  for (const graph::FamilySpec& spec : graph::all_families()) {
    Rng graph_rng(0x7C07);
    const graph::Graph g = spec.make(kNodes, graph_rng);
    const NodeId n = g.num_nodes();
    const graph::DistanceMatrix oracle(g);
    for (const char* scheme_spec : kSchemes) {
      Rng scheme_rng(0x5C4E);
      const auto scheme = core::make_scheme(scheme_spec, g, scheme_rng);
      for (const char* router_spec : kRouters) {
        const auto router = make_router(router_spec, g, oracle);
        Rng pair_rng(0xFA1B);
        for (std::size_t p = 0; p < kPairs; ++p) {
          const auto s = static_cast<NodeId>(random_index(pair_rng, n));
          const auto t = static_cast<NodeId>(random_index(pair_rng, n));
          const auto full = oracle.distances_to(t);
          const std::vector<Dist> cut = cut_row(*full, s);
          for (std::size_t v = 0; v < n; ++v) {
            cut_entries += cut[v] != (*full)[v] ? 1 : 0;
          }
          const Rng rng = Rng(0xC0DE).child(p);
          const RouteResult a =
              router->route_resolved(s, t, *full, scheme.get(), rng, true);
          const RouteResult b =
              router->route_resolved(s, t, cut, scheme.get(), rng, true);
          expect_same_route(a, b,
                            spec.name + " " + scheme_spec + " " + router_spec +
                                " s=" + std::to_string(s) +
                                " t=" + std::to_string(t));
          EXPECT_TRUE(a.reached);
        }
      }
    }
  }
  // The cut must bite, or the suite proves nothing.
  EXPECT_GT(cut_entries, 10000u);
}

TEST(TruncatedRowContract, DisconnectedGraphUnderTolerateUnreachable) {
  // Two components: a 40-cycle and a 30-path. Reachable pairs route
  // identically through cut rows; through the service (a cache oracle, so
  // each shard's sources bound its sweep) every result matches serial
  // routing, unreachable pairs included, and a shard holding an unreachable
  // source gets a complete row.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < 40; ++v) edges.emplace_back(v, (v + 1) % 40);
  for (NodeId v = 40; v + 1 < 70; ++v) edges.emplace_back(v, v + 1);
  const graph::Graph g(70, std::move(edges));
  Rng scheme_rng(0xD15C);
  const auto scheme = core::make_scheme("uniform", g, scheme_rng);
  const graph::DistanceMatrix matrix(g);

  for (const char* router_spec : kRouters) {
    const auto router = make_router(router_spec, g, matrix);
    for (NodeId s = 0; s < 70; s += 3) {
      for (const NodeId t : {NodeId{5}, NodeId{52}}) {
        const auto full = matrix.distances_to(t);
        if ((*full)[s] == kInfDist) continue;
        const Rng rng = Rng(0xBEEF).child(s);
        expect_same_route(
            router->route_resolved(s, t, *full, scheme.get(), rng, true),
            router->route_resolved(s, t, cut_row(*full, s), scheme.get(), rng,
                                   true),
            std::string(router_spec) + " s=" + std::to_string(s));
      }
    }

    const graph::TargetDistanceCache cache(g, 8);
    const auto cached_router = make_router(router_spec, g, cache);
    api::RouteServiceOptions options;
    options.tolerate_unreachable = true;
    const api::RouteService service(g, cache, scheme.get(), *cached_router,
                                    options);
    // Target 5's shard only has sources in its own component; target 52's
    // shard mixes in source 3, which it cannot reach.
    const std::vector<std::pair<NodeId, NodeId>> pairs = {
        {1, 5}, {12, 5}, {45, 52}, {3, 52}, {69, 52}, {20, 5}};
    const Rng root(0xAB);
    const auto got = service.route_batch(pairs, root);
    ASSERT_EQ(got.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto [s, t] = pairs[i];
      const std::string where =
          std::string(router_spec) + " pair " + std::to_string(i);
      if (matrix.distance(s, t) == kInfDist) {
        EXPECT_FALSE(got[i].reached) << where;
        EXPECT_EQ(got[i].initial_distance, kInfDist) << where;
        continue;
      }
      expect_same_route(got[i], router->route(s, t, scheme.get(),
                                              root.child(i)),
                        where);
    }
    // 5's row stopped one level past its deepest source (d(20, 5) = 15 on
    // a cycle of eccentricity 20), so it is not complete; 52's ran to
    // exhaustion.
    EXPECT_EQ(cache.peek(5), nullptr) << router_spec;
    ASSERT_NE(cache.peek(52), nullptr) << router_spec;
    EXPECT_TRUE(*cache.peek(52) == *matrix.distances_to(52)) << router_spec;
  }
}

}  // namespace
}  // namespace nav::routing
