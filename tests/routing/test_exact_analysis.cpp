#include "support/exact_analysis.hpp"

#include <gtest/gtest.h>

#include "core/ball_scheme.hpp"
#include "core/kleinberg_scheme.hpp"
#include "core/ml_scheme.hpp"
#include "core/rank_scheme.hpp"
#include "core/uniform_scheme.hpp"
#include "graph/generators.hpp"
#include "support/bfs_reference.hpp"
#include "support/trial_reference.hpp"

namespace nav::routing {
namespace {

TEST(ExactAnalysis, NoSchemeEqualsDistance) {
  const auto g = graph::make_grid2d(5, 5);
  const auto expected = exact_expected_steps(g, nullptr, 12);
  const auto dist = graph::bfs_distances_reference(g, 12);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_DOUBLE_EQ(expected[u], static_cast<double>(dist[u]));
  }
}

TEST(ExactAnalysis, TargetIsZero) {
  const auto g = graph::make_path(10);
  core::UniformScheme scheme(g);
  EXPECT_DOUBLE_EQ(exact_expected_steps(g, &scheme, 4)[4], 0.0);
}

TEST(ExactAnalysis, ExpectationBoundedByDistance) {
  const auto g = graph::make_path(64);
  core::UniformScheme scheme(g);
  const auto expected = exact_expected_steps(g, &scheme, 63);
  const auto dist = graph::bfs_distances_reference(g, 63);
  for (graph::NodeId u = 0; u < 64; ++u) {
    EXPECT_LE(expected[u], static_cast<double>(dist[u]) + 1e-9);
    EXPECT_GE(expected[u], 0.0);
  }
}

TEST(ExactAnalysis, TwoNodePathIsOneStep) {
  const auto g = graph::make_path(2);
  core::UniformScheme scheme(g);
  EXPECT_DOUBLE_EQ(exact_pair_expectation(g, &scheme, 0, 1), 1.0);
}

TEST(ExactAnalysis, HandComputedUniformOnP3) {
  // Path 0-1-2, target 2, uniform contacts over {0,1,2}.
  // T(1) = 1 (neighbour 2 is the target; no contact beats it).
  // From 0: best local is 1 (dist 1). Contact draw: 2 w.p. 1/3 (dist 0 <
  // dist 1: take it, 1 + T(2) = 1); else 1 + T(1) = 2.
  // T(0) = (1/3)(1) + (2/3)(2) = 5/3.
  const auto g = graph::make_path(3);
  core::UniformScheme scheme(g);
  EXPECT_NEAR(exact_pair_expectation(g, &scheme, 0, 2), 5.0 / 3.0, 1e-12);
}

TEST(ExactAnalysis, MonteCarloMatchesExactUniform) {
  const auto g = graph::make_path(96);
  core::UniformScheme scheme(g);
  const double exact = exact_pair_expectation(g, &scheme, 0, 95);
  graph::DistanceMatrix oracle(g);
  const auto mc = service_pair_estimate(g, &scheme, oracle, 0, 95, 3000, Rng(5));
  EXPECT_NEAR(mc.mean_steps, exact, 5.0 * mc.ci_halfwidth + 1e-9);
}

TEST(ExactAnalysis, MonteCarloMatchesExactBall) {
  const auto g = graph::make_path(96);
  core::BallScheme scheme(g);
  const double exact = exact_pair_expectation(g, &scheme, 0, 95);
  graph::DistanceMatrix oracle(g);
  const auto mc = service_pair_estimate(g, &scheme, oracle, 0, 95, 3000, Rng(6));
  EXPECT_NEAR(mc.mean_steps, exact, 5.0 * mc.ci_halfwidth + 1e-9);
}

TEST(ExactAnalysis, MonteCarloMatchesExactML) {
  const auto g = graph::make_path(64);
  core::MLScheme scheme(g);
  const double exact = exact_pair_expectation(g, &scheme, 0, 63);
  graph::DistanceMatrix oracle(g);
  const auto mc = service_pair_estimate(g, &scheme, oracle, 0, 63, 3000, Rng(7));
  EXPECT_NEAR(mc.mean_steps, exact, 5.0 * mc.ci_halfwidth + 1e-9);
}

TEST(ExactAnalysis, MonteCarloMatchesExactKleinbergOnGrid) {
  const auto g = graph::make_grid2d(8, 8);
  core::KleinbergScheme scheme(g, 2.0);
  const double exact = exact_pair_expectation(g, &scheme, 0, 63);
  graph::DistanceMatrix oracle(g);
  const auto mc = service_pair_estimate(g, &scheme, oracle, 0, 63, 2000, Rng(8));
  EXPECT_NEAR(mc.mean_steps, exact, 5.0 * mc.ci_halfwidth + 1e-9);
}

TEST(ExactAnalysis, MonteCarloMatchesExactRank) {
  const auto g = graph::make_cycle(48);
  core::RankScheme scheme(g);
  const double exact = exact_pair_expectation(g, &scheme, 0, 24);
  graph::DistanceMatrix oracle(g);
  const auto mc = service_pair_estimate(g, &scheme, oracle, 0, 24, 2000, Rng(9));
  EXPECT_NEAR(mc.mean_steps, exact, 5.0 * mc.ci_halfwidth + 1e-9);
}

TEST(ExactAnalysis, GreedyDiameterNoSchemeIsDiameter) {
  const auto g = graph::make_grid2d(6, 5);
  const auto result = exact_greedy_diameter(g, nullptr);
  EXPECT_DOUBLE_EQ(result.value, 9.0);  // (6-1)+(5-1)
}

TEST(ExactAnalysis, GreedyDiameterArgmaxConsistent) {
  const auto g = graph::make_path(24);
  core::UniformScheme scheme(g);
  const auto result = exact_greedy_diameter(g, &scheme);
  const double check = exact_pair_expectation(g, &scheme, result.argmax_source,
                                              result.argmax_target);
  EXPECT_DOUBLE_EQ(result.value, check);
  EXPECT_GT(result.value, 0.0);
}

TEST(ExactAnalysis, UniformGreedyDiameterBelowDiameter) {
  const auto g = graph::make_path(64);
  core::UniformScheme scheme(g);
  const auto result = exact_greedy_diameter(g, &scheme);
  EXPECT_LT(result.value, 63.0);
  EXPECT_GT(result.value, 5.0);
}

TEST(ExactAnalysis, RequiresConnectivity) {
  graph::Graph g(3, {{0, 1}});
  core::UniformScheme scheme(g);
  EXPECT_THROW(exact_expected_steps(g, &scheme, 0), std::invalid_argument);
}

TEST(ExactAnalysis, FixedLevelBallLacksExactSupport) {
  const auto g = graph::make_path(8);
  const auto fixed = core::BallScheme::make_fixed_level(g, 2);
  EXPECT_THROW(exact_expected_steps(g, fixed.get(), 7), std::logic_error);
}

}  // namespace
}  // namespace nav::routing
