#include "routing/lookahead_router.hpp"

#include <gtest/gtest.h>

#include "core/ball_scheme.hpp"
#include "core/uniform_scheme.hpp"
#include "graph/generators.hpp"
#include "routing/greedy_router.hpp"
#include "routing/router_factory.hpp"
#include "runtime/stats.hpp"
#include "support/fixed_contacts.hpp"

namespace nav::routing {
namespace {

TEST(LookaheadRouter, NoContactsEqualsShortestPath) {
  const auto g = graph::make_path(30);
  graph::DistanceMatrix oracle(g);
  LookaheadRouter router(g, oracle);
  const core::FixedContactScheme none(
      std::vector<graph::NodeId>(30, core::kNoContact));
  const auto result = router.route(2, 27, &none, Rng(1));
  EXPECT_TRUE(result.reached);
  EXPECT_EQ(result.steps, 25u);
  EXPECT_EQ(result.long_links_used, 0u);
}

TEST(LookaheadRouter, UsesNeighborsContact) {
  // Node 1's contact goes straight to the target; starting at 0 the NoN rule
  // sees it through the lookahead: 0 -> 1 -> 9 in two hops.
  const auto g = graph::make_path(10);
  graph::DistanceMatrix oracle(g);
  LookaheadRouter router(g, oracle);
  std::vector<graph::NodeId> contacts(10, core::kNoContact);
  contacts[1] = 9;
  const core::FixedContactScheme fixed(contacts);
  const auto result = router.route(0, 9, &fixed, Rng(1), true);
  EXPECT_EQ(result.steps, 2u);
  ASSERT_EQ(result.trace.size(), 3u);
  EXPECT_EQ(result.trace[1], 1u);
  EXPECT_EQ(result.trace[2], 9u);
  EXPECT_EQ(result.long_links_used, 1u);
}

TEST(LookaheadRouter, TakesBackwardNeighborForItsContact) {
  // The node *behind* u has a contact adjacent to the target: NoN walks one
  // step away from t, then jumps — still a win overall.
  const auto g = graph::make_path(50);
  graph::DistanceMatrix oracle(g);
  LookaheadRouter router(g, oracle);
  std::vector<graph::NodeId> contacts(50, core::kNoContact);
  contacts[9] = 48;  // behind the source
  const core::FixedContactScheme fixed(contacts);
  const auto result = router.route(10, 49, &fixed, Rng(1), true);
  // 10 -> 9 (backward), 9 -> 48 (long), 48 -> 49: 3 steps vs 39 plain.
  EXPECT_EQ(result.steps, 3u);
  EXPECT_EQ(result.trace[1], 9u);
  EXPECT_EQ(result.trace[2], 48u);
}

TEST(LookaheadRouter, StepsAtMostTwiceDistance) {
  const auto g = graph::make_grid2d(12, 12);
  graph::DistanceMatrix oracle(g);
  LookaheadRouter router(g, oracle);
  core::UniformScheme scheme(g);
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const core::FixedContactScheme fixed(
        core::sample_all_contacts(scheme, rng));
    const auto result = router.route(0, 143, &fixed, rng);
    EXPECT_TRUE(result.reached);
    EXPECT_LE(result.steps, 2u * result.initial_distance);
  }
}

TEST(LookaheadRouter, BeatsPlainGreedyOnAverage) {
  const auto g = graph::make_path(2048);
  graph::DistanceMatrix oracle(g);
  GreedyRouter plain(g, oracle);
  LookaheadRouter lookahead(g, oracle);
  core::UniformScheme scheme(g);
  Rng rng(4);
  RunningStats plain_steps, non_steps;
  for (int trial = 0; trial < 60; ++trial) {
    const core::FixedContactScheme fixed(
        core::sample_all_contacts(scheme, rng));
    plain_steps.add(plain.route(0, 2047, &fixed, rng).steps);
    non_steps.add(lookahead.route(0, 2047, &fixed, rng).steps);
  }
  EXPECT_LT(non_steps.mean(), plain_steps.mean());
}

TEST(LookaheadRouter, SourceEqualsTarget) {
  const auto g = graph::make_cycle(8);
  graph::DistanceMatrix oracle(g);
  LookaheadRouter router(g, oracle);
  const core::FixedContactScheme none(
      std::vector<graph::NodeId>(8, core::kNoContact));
  EXPECT_EQ(router.route(5, 5, &none, Rng(1)).steps, 0u);
}

TEST(LookaheadRouter, TraceConsistent) {
  const auto g = graph::make_torus2d(8, 8);
  graph::DistanceMatrix oracle(g);
  LookaheadRouter router(g, oracle);
  core::BallScheme scheme(g);
  Rng rng(5);
  const core::FixedContactScheme fixed(core::sample_all_contacts(scheme, rng));
  const auto result = router.route(0, 36, &fixed, rng, true);
  ASSERT_EQ(result.trace.size(), result.steps + 1u);
  EXPECT_EQ(result.trace.front(), 0u);
  EXPECT_EQ(result.trace.back(), 36u);
  for (std::size_t i = 0; i < result.steps; ++i) {
    if (!result.long_flags[i]) {
      EXPECT_TRUE(g.has_edge(result.trace[i], result.trace[i + 1]));
    }
  }
}

TEST(LookaheadRouter, DeeperAwarenessIsMonotoneOrEqualPastDepth3) {
  // The E10 sweep stops at d = 3; this pins the untested d = 4, 5 regime on
  // a non-trivial instance: a 2048-node path under the uniform scheme, the
  // geometry where awareness depth matters most. Over a fixed-seed set of
  // sampled augmentations, mean hops must not increase from d = 3 to 4 to 5
  // (chains only grow candidate sets), and every route respects the
  // (1 + d) · dist(s, t) bound.
  const auto g = graph::make_path(2048);
  graph::DistanceMatrix oracle(g);
  core::UniformScheme scheme(g);
  const LookaheadRouter d3(g, oracle, 3);
  const LookaheadRouter d4(g, oracle, 4);
  const LookaheadRouter d5(g, oracle, 5);

  Rng rng(0xE10);
  RunningStats steps3, steps4, steps5;
  for (int trial = 0; trial < 40; ++trial) {
    const core::FixedContactScheme fixed(
        core::sample_all_contacts(scheme, rng));
    const auto r3 = d3.route(0, 2047, &fixed, rng);
    const auto r4 = d4.route(0, 2047, &fixed, rng);
    const auto r5 = d5.route(0, 2047, &fixed, rng);
    ASSERT_TRUE(r3.reached && r4.reached && r5.reached);
    EXPECT_LE(r3.steps, 4u * r3.initial_distance);
    EXPECT_LE(r4.steps, 5u * r4.initial_distance);
    EXPECT_LE(r5.steps, 6u * r5.initial_distance);
    steps3.add(r3.steps);
    steps4.add(r4.steps);
    steps5.add(r5.steps);
  }
  EXPECT_LE(steps4.mean(), steps3.mean());
  EXPECT_LE(steps5.mean(), steps4.mean());
  // Depth is doing real work, not ties: d = 5 must strictly beat d = 3 on
  // this seed.
  EXPECT_LT(steps5.mean(), steps3.mean());
}

TEST(LookaheadRouter, RegistryBuildsDepths4And5) {
  const auto g = graph::make_grid2d(12, 12);
  graph::DistanceMatrix oracle(g);
  for (const unsigned depth : {4u, 5u}) {
    const auto router = routing::make_router(
        "lookahead:" + std::to_string(depth), g, oracle);
    EXPECT_EQ(router->name(), "lookahead:" + std::to_string(depth));
    core::UniformScheme scheme(g);
    const auto result = router->route(0, 143, &scheme, Rng(1));
    EXPECT_TRUE(result.reached);
    EXPECT_LE(result.steps, (1u + depth) * result.initial_distance);
  }
}

TEST(MemoContacts, StableAcrossRepeatedAccess) {
  const auto g = graph::make_path(64);
  core::UniformScheme scheme(g);
  core::MemoContacts contacts(scheme, Rng(11));
  const auto first = contacts(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(contacts(7), first);
}

TEST(MemoContacts, AccessOrderIndependent) {
  const auto g = graph::make_path(64);
  core::UniformScheme scheme(g);
  core::MemoContacts forward(scheme, Rng(12));
  core::MemoContacts backward(scheme, Rng(12));
  std::vector<graph::NodeId> fwd, bwd(64);
  for (graph::NodeId u = 0; u < 64; ++u) fwd.push_back(forward(u));
  for (graph::NodeId u = 64; u > 0; --u) bwd[u - 1] = backward(u - 1);
  for (graph::NodeId u = 0; u < 64; ++u) EXPECT_EQ(fwd[u], bwd[u]);
}

TEST(MemoContacts, LookaheadRouteMatchesEagerEquivalent) {
  // Routing through MemoContacts (the scheme route builds one from its rng)
  // must equal routing through the fully materialised vector of the same
  // streams.
  const auto g = graph::make_cycle(128);
  graph::DistanceMatrix oracle(g);
  LookaheadRouter router(g, oracle);
  core::UniformScheme scheme(g);
  std::vector<graph::NodeId> eager(g.num_nodes());
  {
    core::MemoContacts fill(scheme, Rng(13));
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) eager[u] = fill(u);
  }
  const core::FixedContactScheme fixed(eager);
  const auto via_memo = router.route(0, 64, &scheme, Rng(13));
  const auto via_eager = router.route(0, 64, &fixed, Rng(1));
  EXPECT_EQ(via_memo.steps, via_eager.steps);
  EXPECT_EQ(via_memo.long_links_used, via_eager.long_links_used);
}

TEST(LookaheadRouter, RejectsBadInput) {
  const auto g = graph::make_path(5);
  graph::DistanceMatrix oracle(g);
  LookaheadRouter router(g, oracle);
  const core::FixedContactScheme none(
      std::vector<graph::NodeId>(5, core::kNoContact));
  EXPECT_THROW((void)router.route(0, 9, &none, Rng(1)), std::invalid_argument);
  const core::FixedContactScheme short_vec(
      std::vector<graph::NodeId>(3, core::kNoContact));
  EXPECT_THROW((void)router.route(0, 4, &short_vec, Rng(1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace nav::routing
