#include "runtime/discrete_distribution.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace nav {
namespace {

TEST(DiscreteDistribution, RejectsBadWeights) {
  EXPECT_THROW(DiscreteDistribution({}), std::invalid_argument);
  EXPECT_THROW(DiscreteDistribution({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(DiscreteDistribution({1.0, -0.5}), std::invalid_argument);
}

TEST(DiscreteDistribution, SingleOutcome) {
  DiscreteDistribution d({3.0});
  Rng rng(1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(d.sample(rng), 0u);
  EXPECT_DOUBLE_EQ(d.probability(0), 1.0);
}

TEST(DiscreteDistribution, NormalisesProbabilities) {
  DiscreteDistribution d({1.0, 3.0});
  EXPECT_DOUBLE_EQ(d.probability(0), 0.25);
  EXPECT_DOUBLE_EQ(d.probability(1), 0.75);
}

TEST(DiscreteDistribution, ZeroWeightNeverSampled) {
  DiscreteDistribution d({1.0, 0.0, 1.0});
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) EXPECT_NE(d.sample(rng), 1u);
}

TEST(DiscreteDistribution, EmpiricalMatchesExact) {
  const std::vector<double> weights{5.0, 1.0, 2.0, 2.0};
  DiscreteDistribution d(weights);
  Rng rng(42);
  constexpr int kDraws = 200000;
  std::vector<int> counts(weights.size(), 0);
  for (int i = 0; i < kDraws; ++i) ++counts[d.sample(rng)];
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / kDraws, d.probability(i), 0.01)
        << "outcome " << i;
  }
}

TEST(DiscreteDistribution, LargeSupportHarmonic) {
  std::vector<double> weights(1000);
  for (std::size_t r = 0; r < weights.size(); ++r) {
    weights[r] = 1.0 / static_cast<double>(r + 1);
  }
  DiscreteDistribution d(weights);
  Rng rng(3);
  // First outcome should be sampled with probability 1/H_1000 ~ 0.1334.
  int first = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) first += (d.sample(rng) == 0);
  EXPECT_NEAR(static_cast<double>(first) / kDraws, d.probability(0), 0.01);
}

TEST(DiscreteDistribution, ProbabilityOutOfRangeThrows) {
  DiscreteDistribution d({1.0});
  EXPECT_THROW((void)d.probability(1), std::invalid_argument);
}

}  // namespace
}  // namespace nav
