#include "core/uniform_scheme.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.hpp"
#include "support/fixed_contacts.hpp"

namespace nav::core {
namespace {

TEST(UniformScheme, ContactsCoverAllNodesUniformly) {
  const auto g = graph::make_path(10);
  UniformScheme scheme(g);
  Rng rng(1);
  std::vector<int> counts(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[scheme.sample_contact(3, rng)];
  for (const int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(kDraws), 0.1, 0.01);
  }
}

TEST(UniformScheme, ProbabilityIsOneOverN) {
  const auto g = graph::make_cycle(25);
  UniformScheme scheme(g);
  EXPECT_DOUBLE_EQ(scheme.probability(0, 24), 0.04);
  EXPECT_DOUBLE_EQ(scheme.probability(5, 5), 0.04);  // self allowed
}

TEST(UniformScheme, MetadataCorrect) {
  const auto g = graph::make_path(4);
  UniformScheme scheme(g);
  EXPECT_EQ(scheme.name(), "uniform");
  EXPECT_EQ(scheme.num_nodes(), 4u);
}

TEST(UniformScheme, SampleAllContactsGivesOnePerNode) {
  const auto g = graph::make_path(16);
  UniformScheme scheme(g);
  Rng rng(3);
  const auto contacts = sample_all_contacts(scheme, rng);
  ASSERT_EQ(contacts.size(), 16u);
  for (const auto c : contacts) EXPECT_LT(c, 16u);
}

}  // namespace
}  // namespace nav::core
