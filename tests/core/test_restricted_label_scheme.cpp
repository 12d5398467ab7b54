#include "core/restricted_label_scheme.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace nav::core {
namespace {

TEST(LabelBudget, EndpointsAndMonotonicity) {
  EXPECT_EQ(label_budget(1024, 0.0), 1u);
  EXPECT_EQ(label_budget(1024, 1.0), 1024u);
  EXPECT_EQ(label_budget(1024, 0.5), 32u);
  EXPECT_LE(label_budget(1024, 0.25), label_budget(1024, 0.75));
}

TEST(LabelBudget, RejectsBadEpsilon) {
  EXPECT_THROW((void)label_budget(100, -0.1), std::invalid_argument);
  EXPECT_THROW((void)label_budget(100, 1.5), std::invalid_argument);
}

TEST(RestrictedScheme, BuildsAndSamples) {
  const auto g = graph::make_path(64);
  const auto scheme = make_restricted_label_scheme(g, 8);
  EXPECT_EQ(scheme->name(), "ml-k8");
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto c = scheme->sample_contact(10, rng);
    EXPECT_TRUE(c == kNoContact || c < 64u);
  }
}

TEST(RestrictedScheme, FullBudgetProbabilitiesCoverAllNodes) {
  const auto g = graph::make_path(16);
  const auto scheme = make_restricted_label_scheme(g, 16);
  for (graph::NodeId v = 0; v < 16; ++v) {
    EXPECT_GT(scheme->probability(0, v), 0.0) << v;
  }
}

TEST(RestrictedScheme, SingleLabelDegenerates) {
  // k = 1: every contact is a uniform node (label 1 class = everyone), both
  // halves included; still a valid scheme.
  const auto g = graph::make_path(32);
  const auto scheme = make_restricted_label_scheme(g, 1);
  Rng rng(2);
  int contacts = 0;
  for (int i = 0; i < 1000; ++i) {
    contacts += (scheme->sample_contact(5, rng) != kNoContact);
  }
  EXPECT_EQ(contacts, 1000);  // both A (self-ancestor) and U rows always hit
}

TEST(RestrictedScheme, ClampsOversizedBudget) {
  const auto g = graph::make_path(8);
  const auto scheme = make_restricted_label_scheme(g, 1000);
  EXPECT_EQ(scheme->name(), "ml-k8");
}

TEST(RestrictedScheme, ProbabilityUniformWithinBlock) {
  // Blocks of equal size: contacts land uniformly within a chosen block.
  const auto g = graph::make_path(16);
  const auto scheme = make_restricted_label_scheme(g, 4);
  // Nodes 0..3 share label 1; their probabilities from node 15 must agree.
  const double p0 = scheme->probability(15, 0);
  for (graph::NodeId v = 1; v < 4; ++v) {
    EXPECT_NEAR(scheme->probability(15, v), p0, 1e-12);
  }
}

}  // namespace
}  // namespace nav::core
