#include "core/augmentation_matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/level_hierarchy.hpp"
#include "support/explicit_matrix.hpp"

namespace nav::core {
namespace {

TEST(UniformMatrix, EntriesAreOneOverN) {
  UniformMatrix u(8);
  for (Label i = 1; i <= 8; ++i) {
    for (Label j = 1; j <= 8; ++j) EXPECT_DOUBLE_EQ(u.entry(i, j), 0.125);
    EXPECT_NEAR(u.row_sum(i), 1.0, 1e-12);
  }
}

TEST(UniformMatrix, SamplesUniformly) {
  UniformMatrix u(4);
  Rng rng(2);
  std::map<Label, int> counts;
  for (int i = 0; i < 40000; ++i) ++counts[*u.sample_row(1, rng)];
  for (Label j = 1; j <= 4; ++j) EXPECT_NEAR(counts[j] / 40000.0, 0.25, 0.01);
}

TEST(HierarchyMatrix, EntriesMatchAncestors) {
  HierarchyMatrix a(7);
  const double p = a.ancestor_probability();
  EXPECT_NEAR(p, 1.0 / (1.0 + std::log2(7.0)), 1e-12);
  // Row 5: ancestors within 7 are {5, 6, 4}.
  EXPECT_DOUBLE_EQ(a.entry(5, 5), p);
  EXPECT_DOUBLE_EQ(a.entry(5, 6), p);
  EXPECT_DOUBLE_EQ(a.entry(5, 4), p);
  EXPECT_DOUBLE_EQ(a.entry(5, 7), 0.0);
  EXPECT_DOUBLE_EQ(a.entry(5, 1), 0.0);
}

TEST(HierarchyMatrix, RowSumsAtMostOne) {
  for (const Label n : {1u, 2u, 7u, 8u, 100u, 1000u}) {
    HierarchyMatrix a(n);
    for (Label i = 1; i <= n; i += std::max<Label>(1, n / 17)) {
      EXPECT_LE(a.row_sum(i), 1.0 + 1e-9) << "n=" << n << " i=" << i;
    }
  }
}

TEST(HierarchyMatrix, SampleMatchesEntryDistribution) {
  HierarchyMatrix a(7);
  Rng rng(5);
  std::map<Label, int> counts;
  int none = 0;
  constexpr int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) {
    const auto j = a.sample_row(5, rng);
    if (j.has_value()) ++counts[*j];
    else ++none;
  }
  for (const Label j : {5u, 6u, 4u}) {
    EXPECT_NEAR(counts[j] / static_cast<double>(kDraws), a.entry(5, j), 0.01);
  }
  EXPECT_NEAR(none / static_cast<double>(kDraws), 1.0 - a.row_sum(5), 0.01);
}

TEST(MixMatrix, EntriesAreAverages) {
  auto a = std::make_shared<HierarchyMatrix>(8);
  auto u = std::make_shared<UniformMatrix>(8);
  MixMatrix m(a, u);
  for (Label i = 1; i <= 8; ++i) {
    for (Label j = 1; j <= 8; ++j) {
      EXPECT_DOUBLE_EQ(m.entry(i, j), 0.5 * (a->entry(i, j) + u->entry(i, j)));
    }
    EXPECT_LE(m.row_sum(i), 1.0 + 1e-9);
  }
}

TEST(MixMatrix, RejectsSizeMismatch) {
  EXPECT_THROW(MixMatrix(std::make_shared<UniformMatrix>(4),
                         std::make_shared<UniformMatrix>(5)),
               std::invalid_argument);
}

TEST(MixMatrix, NameCombinesComponents) {
  MixMatrix m(std::make_shared<HierarchyMatrix>(4),
              std::make_shared<UniformMatrix>(4));
  EXPECT_EQ(m.name(), "(A+U)/2");
}

TEST(ExplicitMatrix, SetAndValidate) {
  ExplicitMatrix m(3);
  EXPECT_TRUE(m.is_valid());  // zero matrix is a valid (empty) augmentation
  m.set(1, 2, 0.5);
  m.set(1, 3, 0.5);
  EXPECT_TRUE(m.is_valid());
  m.set(1, 1, 0.5);  // row 1 now sums to 1.5
  EXPECT_FALSE(m.is_valid());
}

TEST(ExplicitMatrix, RejectsBadProbability) {
  ExplicitMatrix m(2);
  EXPECT_THROW(m.set(1, 1, -0.1), std::invalid_argument);
  EXPECT_THROW(m.set(1, 1, 1.1), std::invalid_argument);
  EXPECT_THROW(m.set(0, 1, 0.5), std::invalid_argument);
}

TEST(ExplicitMatrix, SampleRespectsResidual) {
  ExplicitMatrix m(2);
  m.set(1, 2, 0.25);
  Rng rng(7);
  int hits = 0, none = 0;
  for (int i = 0; i < 40000; ++i) {
    const auto j = m.sample_row(1, rng);
    if (j.has_value()) {
      EXPECT_EQ(*j, 2u);
      ++hits;
    } else {
      ++none;
    }
  }
  EXPECT_NEAR(hits / 40000.0, 0.25, 0.01);
  EXPECT_NEAR(none / 40000.0, 0.75, 0.01);
}

TEST(ExplicitMatrix, MaterialisesViews) {
  HierarchyMatrix a(6);
  ExplicitMatrix m(a);
  for (Label i = 1; i <= 6; ++i)
    for (Label j = 1; j <= 6; ++j) EXPECT_DOUBLE_EQ(m.entry(i, j), a.entry(i, j));
  EXPECT_TRUE(m.is_valid());
}

TEST(MatrixScheme, MapsLabelsToNodes) {
  // Matrix sends label 1 -> label 2 with probability 1; nodes 1,2 share
  // label 2, so contacts split evenly between them.
  ExplicitMatrix m(2);
  m.set(1, 2, 1.0);
  m.set(2, 2, 1.0);
  MatrixScheme scheme(std::make_shared<ExplicitMatrix>(m),
                      Labeling({1, 2, 2}, 2));
  Rng rng(1);
  std::map<graph::NodeId, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[scheme.sample_contact(0, rng)];
  EXPECT_EQ(counts.count(0), 0u);
  EXPECT_NEAR(counts[1] / 20000.0, 0.5, 0.02);
  EXPECT_NEAR(counts[2] / 20000.0, 0.5, 0.02);
}

TEST(MatrixScheme, EmptyClassGivesNoContact) {
  ExplicitMatrix m(3);
  m.set(1, 3, 1.0);  // label 3 has no members below
  MatrixScheme scheme(std::make_shared<ExplicitMatrix>(m),
                      Labeling({1, 2}, 3));
  Rng rng(2);
  EXPECT_EQ(scheme.sample_contact(0, rng), kNoContact);
}

TEST(MatrixScheme, ProbabilityDividesByClassSize) {
  ExplicitMatrix m(2);
  m.set(1, 2, 0.8);
  MatrixScheme scheme(std::make_shared<ExplicitMatrix>(m),
                      Labeling({1, 2, 2}, 2));
  EXPECT_DOUBLE_EQ(scheme.probability(0, 1), 0.4);
  EXPECT_DOUBLE_EQ(scheme.probability(0, 2), 0.4);
}

TEST(MatrixScheme, RejectsMatrixSmallerThanUniverse) {
  EXPECT_THROW(MatrixScheme(std::make_shared<UniformMatrix>(2),
                            Labeling({1, 2, 3}, 3)),
               std::invalid_argument);
}

}  // namespace
}  // namespace nav::core
