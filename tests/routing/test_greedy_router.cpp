#include "routing/greedy_router.hpp"

#include <gtest/gtest.h>

#include "core/scheme_factory.hpp"
#include "core/uniform_scheme.hpp"
#include "graph/families.hpp"
#include "graph/generators.hpp"
#include "support/fixed_contacts.hpp"

namespace nav::routing {
namespace {

TEST(GreedyRouter, NoSchemeFollowsShortestPath) {
  const auto g = graph::make_path(20);
  graph::DistanceMatrix oracle(g);
  GreedyRouter router(g, oracle);
  Rng rng(1);
  const auto result = router.route(2, 17, nullptr, rng);
  EXPECT_TRUE(result.reached);
  EXPECT_EQ(result.steps, 15u);
  EXPECT_EQ(result.initial_distance, 15u);
  EXPECT_EQ(result.long_links_used, 0u);
}

TEST(GreedyRouter, SourceEqualsTargetZeroSteps) {
  const auto g = graph::make_cycle(8);
  graph::DistanceMatrix oracle(g);
  GreedyRouter router(g, oracle);
  Rng rng(2);
  const auto result = router.route(3, 3, nullptr, rng);
  EXPECT_EQ(result.steps, 0u);
  EXPECT_TRUE(result.reached);
}

TEST(GreedyRouter, StepsNeverExceedInitialDistance) {
  const auto g = graph::make_grid2d(8, 8);
  graph::DistanceMatrix oracle(g);
  GreedyRouter router(g, oracle);
  core::UniformScheme scheme(g);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const auto s = static_cast<graph::NodeId>(random_index(rng, 64));
    const auto t = static_cast<graph::NodeId>(random_index(rng, 64));
    const auto result = router.route(s, t, &scheme, rng);
    EXPECT_LE(result.steps, result.initial_distance);
    EXPECT_TRUE(result.reached);
  }
}

TEST(GreedyRouter, TraceIsAWalkEndingAtTarget) {
  const auto g = graph::make_grid2d(6, 6);
  graph::DistanceMatrix oracle(g);
  GreedyRouter router(g, oracle);
  core::UniformScheme scheme(g);
  Rng rng(4);
  const auto result = router.route(0, 35, &scheme, rng, /*record_trace=*/true);
  ASSERT_EQ(result.trace.size(), result.steps + 1u);
  ASSERT_EQ(result.long_flags.size(), result.steps);
  EXPECT_EQ(result.trace.front(), 0u);
  EXPECT_EQ(result.trace.back(), 35u);
  // Every local hop must be a real edge; long hops may be any pair.
  for (std::size_t i = 0; i < result.steps; ++i) {
    if (!result.long_flags[i]) {
      EXPECT_TRUE(g.has_edge(result.trace[i], result.trace[i + 1]));
    }
  }
}

TEST(GreedyRouter, DistanceStrictlyDecreasesAlongTrace) {
  const auto g = graph::make_cycle(32);
  graph::DistanceMatrix oracle(g);
  GreedyRouter router(g, oracle);
  core::UniformScheme scheme(g);
  Rng rng(5);
  const auto result = router.route(0, 16, &scheme, rng, true);
  for (std::size_t i = 0; i + 1 < result.trace.size(); ++i) {
    EXPECT_LT(oracle.distance(result.trace[i + 1], 16),
              oracle.distance(result.trace[i], 16));
  }
}

TEST(GreedyRouter, LazyEqualsEagerInDistribution) {
  // Same augmented graph: routing with pre-sampled contacts must give the
  // same step count as lazy sampling with the same per-node draws. Since
  // greedy never revisits nodes, fixing the contacts reproduces lazy routing
  // when the lazy rng produces those same contacts on first visit — here we
  // simply check eager routing is valid and bounded.
  const auto g = graph::make_path(64);
  graph::DistanceMatrix oracle(g);
  GreedyRouter router(g, oracle);
  core::UniformScheme scheme(g);
  Rng rng(6);
  const core::FixedContactScheme fixed(core::sample_all_contacts(scheme, rng));
  const auto result = router.route(0, 63, &fixed, rng);
  EXPECT_TRUE(result.reached);
  EXPECT_LE(result.steps, 63u);
}

TEST(GreedyRouter, EagerContactUsedWhenStrictlyBetter) {
  // Node 0 gets a long link straight to the target: route = 1 step.
  const auto g = graph::make_path(10);
  graph::DistanceMatrix oracle(g);
  GreedyRouter router(g, oracle);
  std::vector<graph::NodeId> contacts(10, core::kNoContact);
  contacts[0] = 9;
  const core::FixedContactScheme fixed(contacts);
  const auto result = router.route(0, 9, &fixed, Rng(1), true);
  EXPECT_EQ(result.steps, 1u);
  EXPECT_EQ(result.long_links_used, 1u);
  ASSERT_EQ(result.long_flags.size(), 1u);
  EXPECT_EQ(result.long_flags[0], 1u);
}

TEST(GreedyRouter, ContactNotUsedWhenWorse) {
  // Long link pointing backwards is ignored.
  const auto g = graph::make_path(10);
  graph::DistanceMatrix oracle(g);
  GreedyRouter router(g, oracle);
  std::vector<graph::NodeId> contacts(10, core::kNoContact);
  contacts[5] = 0;
  const core::FixedContactScheme fixed(contacts);
  const auto result = router.route(5, 9, &fixed, Rng(1));
  EXPECT_EQ(result.steps, 4u);
  EXPECT_EQ(result.long_links_used, 0u);
}

TEST(GreedyRouter, ContactEqualDistanceNotTaken) {
  // Tie between local neighbour and long link: local preferred.
  const auto g = graph::make_path(10);
  graph::DistanceMatrix oracle(g);
  GreedyRouter router(g, oracle);
  std::vector<graph::NodeId> contacts(10, core::kNoContact);
  contacts[2] = 3;  // same as the local step toward 9
  const core::FixedContactScheme fixed(contacts);
  const auto result = router.route(2, 9, &fixed, Rng(1));
  EXPECT_EQ(result.long_links_used, 0u);
}

TEST(GreedyRouter, RejectsBadEndpoints) {
  const auto g = graph::make_path(4);
  graph::DistanceMatrix oracle(g);
  GreedyRouter router(g, oracle);
  Rng rng(7);
  EXPECT_THROW((void)router.route(0, 9, nullptr, rng), std::invalid_argument);
  EXPECT_THROW((void)router.route(9, 0, nullptr, rng), std::invalid_argument);
}

TEST(GreedyRouter, RejectsUnreachableTarget) {
  graph::Graph g(4, {{0, 1}, {2, 3}});
  graph::DistanceMatrix oracle(g);
  GreedyRouter router(g, oracle);
  Rng rng(8);
  EXPECT_THROW((void)router.route(0, 3, nullptr, rng), std::invalid_argument);
}

TEST(GreedyRouter, SchemeSizeMismatchRejected) {
  const auto g = graph::make_path(8);
  const auto g2 = graph::make_path(9);
  graph::DistanceMatrix oracle(g);
  GreedyRouter router(g, oracle);
  core::UniformScheme wrong(g2);
  Rng rng(9);
  EXPECT_THROW((void)router.route(0, 7, &wrong, rng), std::invalid_argument);
}

TEST(GreedyRouter, WorksWithTargetCacheOracle) {
  const auto g = graph::make_grid2d(10, 10);
  graph::TargetDistanceCache oracle(g, 4);
  GreedyRouter router(g, oracle);
  core::UniformScheme scheme(g);
  Rng rng(10);
  const auto result = router.route(0, 99, &scheme, rng);
  EXPECT_TRUE(result.reached);
  EXPECT_LE(result.steps, 18u);
}

}  // namespace
}  // namespace nav::routing
