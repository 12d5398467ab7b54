#include "routing/trial_runner.hpp"

#include <gtest/gtest.h>

#include "api/route_service.hpp"
#include "core/uniform_scheme.hpp"
#include "graph/generators.hpp"
#include "routing/greedy_router.hpp"
#include "support/trial_reference.hpp"

namespace nav::routing {
namespace {

GreedyDiameterEstimate estimate_diameter(const Graph& g,
                                         const AugmentationScheme* scheme,
                                         const graph::DistanceOracle& oracle,
                                         const TrialConfig& config, Rng rng) {
  const GreedyRouter router(g, oracle);
  return api::RouteService(g, oracle, scheme, router)
      .estimate_diameter(config, rng);
}

RouteResult route_result(std::uint32_t steps, std::uint32_t long_links,
                         Dist distance) {
  RouteResult result;
  result.steps = steps;
  result.long_links_used = long_links;
  result.initial_distance = distance;
  result.reached = true;
  return result;
}

TEST(EstimatePair, NoSchemeIsExactDistance) {
  const auto g = graph::make_path(50);
  graph::DistanceMatrix oracle(g);
  const auto est = service_pair_estimate(g, nullptr, oracle, 5, 45, 8, Rng(1));
  EXPECT_DOUBLE_EQ(est.mean_steps, 40.0);
  EXPECT_DOUBLE_EQ(est.ci_halfwidth, 0.0);
  EXPECT_EQ(est.distance, 40u);
  EXPECT_DOUBLE_EQ(est.mean_long_links, 0.0);
}

TEST(EstimatePair, UniformHelpsOnLongPath) {
  const auto g = graph::make_path(1024);
  graph::DistanceMatrix oracle(g);
  core::UniformScheme scheme(g);
  const auto est =
      service_pair_estimate(g, &scheme, oracle, 0, 1023, 24, Rng(2));
  EXPECT_LT(est.mean_steps, 400.0);  // far below the 1023 baseline
  EXPECT_GT(est.mean_long_links, 0.0);
}

TEST(EstimatePair, DeterministicGivenRng) {
  const auto g = graph::make_path(256);
  graph::DistanceMatrix oracle(g);
  core::UniformScheme scheme(g);
  const auto a = service_pair_estimate(g, &scheme, oracle, 0, 255, 16, Rng(7));
  const auto b = service_pair_estimate(g, &scheme, oracle, 0, 255, 16, Rng(7));
  EXPECT_DOUBLE_EQ(a.mean_steps, b.mean_steps);
  EXPECT_DOUBLE_EQ(a.max_steps, b.max_steps);
}

TEST(EstimatePair, ParallelEqualsSequential) {
  const auto g = graph::make_cycle(512);
  graph::DistanceMatrix oracle(g);
  core::UniformScheme scheme(g);
  const auto par =
      service_pair_estimate(g, &scheme, oracle, 0, 200, 32, Rng(3), true);
  const auto seq =
      service_pair_estimate(g, &scheme, oracle, 0, 200, 32, Rng(3), false);
  EXPECT_DOUBLE_EQ(par.mean_steps, seq.mean_steps);
}

TEST(SummarizeTrials, FoldsPairMajorGrid) {
  // Two pairs × two replicates: pair 0 routes {3, 5}, pair 1 routes {2, 2}.
  const std::vector<std::pair<NodeId, NodeId>> pairs = {{0, 4}, {1, 3}};
  const std::vector<RouteResult> results = {
      route_result(3, 1, 4), route_result(5, 0, 4), route_result(2, 0, 2),
      route_result(2, 2, 2)};
  const auto est = summarize_trials(pairs, 2, results);
  ASSERT_EQ(est.pairs.size(), 2u);
  EXPECT_EQ(est.pairs[0].s, 0u);
  EXPECT_EQ(est.pairs[0].t, 4u);
  EXPECT_EQ(est.pairs[0].distance, 4u);
  EXPECT_DOUBLE_EQ(est.pairs[0].mean_steps, 4.0);
  EXPECT_DOUBLE_EQ(est.pairs[0].max_steps, 5.0);
  EXPECT_DOUBLE_EQ(est.pairs[0].mean_long_links, 0.5);
  EXPECT_DOUBLE_EQ(est.pairs[1].mean_steps, 2.0);
  EXPECT_DOUBLE_EQ(est.pairs[1].ci_halfwidth, 0.0);
  EXPECT_DOUBLE_EQ(est.pairs[1].mean_long_links, 1.0);
  EXPECT_DOUBLE_EQ(est.max_mean_steps, 4.0);
  EXPECT_DOUBLE_EQ(est.max_ci_halfwidth, est.pairs[0].ci_halfwidth);
  EXPECT_DOUBLE_EQ(est.overall_mean_steps, 3.0);
  EXPECT_EQ(est.trials, 4u);
}

TEST(SummarizeTrials, RequiresFullGridAndOneResample) {
  const std::vector<std::pair<NodeId, NodeId>> pairs = {{0, 4}, {1, 3}};
  const std::vector<RouteResult> three(3, route_result(1, 0, 1));
  EXPECT_THROW((void)summarize_trials(pairs, 2, three), std::invalid_argument);
  EXPECT_THROW((void)summarize_trials(pairs, 1, three), std::invalid_argument);
  EXPECT_THROW((void)summarize_trials(pairs, 0, {}), std::invalid_argument);
  EXPECT_THROW((void)summarize_pair(0, 4, {}), std::invalid_argument);
  EXPECT_NO_THROW((void)summarize_trials(pairs, 1, std::span(three).first(2)));
}

TEST(GreedyDiameter, AllPairsOnTinyGraph) {
  const auto g = graph::make_path(6);
  graph::DistanceMatrix oracle(g);
  TrialConfig config;
  config.policy = TrialConfig::PairPolicy::kAllPairs;
  config.resamples = 2;
  const auto est = estimate_diameter(g, nullptr, oracle, config, Rng(4));
  EXPECT_EQ(est.pairs.size(), 30u);  // 6*5 ordered pairs
  EXPECT_DOUBLE_EQ(est.max_mean_steps, 5.0);  // diameter of P6
}

TEST(GreedyDiameter, PeripheralPairIncluded) {
  const auto g = graph::make_path(64);
  graph::DistanceMatrix oracle(g);
  TrialConfig config;
  config.num_pairs = 4;
  config.resamples = 2;
  const auto est = estimate_diameter(g, nullptr, oracle, config, Rng(5));
  EXPECT_EQ(est.pairs.size(), 4u + 2u);
  // The peripheral pair dominates: its distance is the diameter 63.
  EXPECT_DOUBLE_EQ(est.max_mean_steps, 63.0);
}

TEST(GreedyDiameter, RandomPolicyOnlyRandomPairs) {
  const auto g = graph::make_cycle(32);
  graph::DistanceMatrix oracle(g);
  TrialConfig config;
  config.policy = TrialConfig::PairPolicy::kRandom;
  config.num_pairs = 7;
  config.resamples = 2;
  const auto est = estimate_diameter(g, nullptr, oracle, config, Rng(6));
  EXPECT_EQ(est.pairs.size(), 7u);
}

TEST(GreedyDiameter, MaxAtLeastMean) {
  const auto g = graph::make_grid2d(8, 8);
  graph::DistanceMatrix oracle(g);
  core::UniformScheme scheme(g);
  TrialConfig config;
  config.num_pairs = 6;
  config.resamples = 6;
  const auto est = estimate_diameter(g, &scheme, oracle, config, Rng(7));
  EXPECT_GE(est.max_mean_steps, est.overall_mean_steps);
  EXPECT_EQ(est.trials, (6u + 2u) * 6u);
}

TEST(GreedyDiameter, DeterministicAcrossRuns) {
  const auto g = graph::make_cycle(128);
  graph::DistanceMatrix oracle(g);
  core::UniformScheme scheme(g);
  TrialConfig config;
  config.num_pairs = 5;
  config.resamples = 5;
  const auto a = estimate_diameter(g, &scheme, oracle, config, Rng(8));
  const auto b = estimate_diameter(g, &scheme, oracle, config, Rng(8));
  EXPECT_DOUBLE_EQ(a.max_mean_steps, b.max_mean_steps);
  EXPECT_DOUBLE_EQ(a.overall_mean_steps, b.overall_mean_steps);
}

TEST(GreedyDiameter, RequiresRoutableGraph) {
  graph::Graph tiny(1, {});
  graph::DistanceMatrix oracle(tiny);
  TrialConfig config;
  EXPECT_THROW((void)estimate_diameter(tiny, nullptr, oracle, config, Rng(9)),
               std::invalid_argument);
}

}  // namespace
}  // namespace nav::routing
