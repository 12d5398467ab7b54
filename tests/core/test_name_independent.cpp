#include "core/name_independent.hpp"

#include <gtest/gtest.h>

#include <set>

#include "support/explicit_matrix.hpp"

namespace nav::core {
namespace {

TEST(InternalMass, ZeroMatrixIsZero) {
  ExplicitMatrix m(5);
  EXPECT_DOUBLE_EQ(internal_mass(m, {1, 2, 3}), 0.0);
}

TEST(InternalMass, CountsOrderedPairsOnce) {
  ExplicitMatrix m(3);
  m.set(1, 2, 0.5);
  m.set(2, 1, 0.25);
  m.set(1, 1, 0.25);  // diagonal excluded by i != j
  EXPECT_DOUBLE_EQ(internal_mass(m, {1, 2}), 0.75);
}

TEST(FindSparseSet, UniformMatrixAlwaysSparse) {
  // For U, any √n-set I has mass |I|(|I|-1)/n < 1.
  UniformMatrix u(100);
  Rng rng(1);
  const auto sparse = find_sparse_label_set(u, 10, rng);
  EXPECT_EQ(sparse.labels.size(), 10u);
  EXPECT_LT(sparse.internal_mass, 1.0);
  std::set<Label> distinct(sparse.labels.begin(), sparse.labels.end());
  EXPECT_EQ(distinct.size(), 10u);
  for (const auto l : sparse.labels) {
    EXPECT_GE(l, 1u);
    EXPECT_LE(l, 100u);
  }
}

TEST(FindSparseSet, MassMatchesRecount) {
  HierarchyMatrix a(64);
  Rng rng(2);
  const auto sparse = find_sparse_label_set(a, 8, rng);
  EXPECT_NEAR(internal_mass(a, sparse.labels), sparse.internal_mass, 1e-9);
  EXPECT_LT(sparse.internal_mass, 1.0);
}

TEST(FindSparseSet, WorksOnMixMatrix) {
  auto mix = std::make_shared<MixMatrix>(std::make_shared<HierarchyMatrix>(144),
                                         std::make_shared<UniformMatrix>(144));
  Rng rng(3);
  const auto sparse = find_sparse_label_set(*mix, 12, rng);
  EXPECT_LT(sparse.internal_mass, 1.0);
}

TEST(FindSparseSet, LocalSearchEscapesDenseStart) {
  // An adversarial matrix where a dense cluster exists: labels 1..10 link to
  // each other with high probability; the sparse set must avoid the cluster.
  ExplicitMatrix m(64);
  for (Label i = 1; i <= 10; ++i) {
    for (Label j = 1; j <= 10; ++j) {
      if (i != j) m.set(i, j, 0.1);
    }
  }
  ASSERT_TRUE(m.is_valid());
  Rng rng(4);
  const auto sparse = find_sparse_label_set(m, 8, rng);
  EXPECT_LT(sparse.internal_mass, 1.0);
}

TEST(FindSparseSet, RejectsBadSetSize) {
  UniformMatrix u(10);
  Rng rng(5);
  EXPECT_THROW(find_sparse_label_set(u, 1, rng), std::invalid_argument);
  EXPECT_THROW(find_sparse_label_set(u, 11, rng), std::invalid_argument);
}

TEST(AdversarialPath, InstanceIsWellFormed) {
  UniformMatrix u(100);
  Rng rng(6);
  const auto inst = make_adversarial_path(u, rng);
  EXPECT_EQ(inst.path.num_nodes(), 100u);
  EXPECT_TRUE(inst.labeling.all_distinct());
  EXPECT_LT(inst.internal_mass, 1.0);
  // Segment has ceil(sqrt(100)) = 10 consecutive positions.
  EXPECT_EQ(inst.segment_end - inst.segment_begin, 10u);
  // s, t at thirds inside the segment.
  EXPECT_GE(inst.source, inst.segment_begin);
  EXPECT_LT(inst.target, inst.segment_end);
  EXPECT_LT(inst.source, inst.target);
  EXPECT_EQ(inst.target - inst.source, (2u * 10u) / 3u - 10u / 3u);
}

TEST(AdversarialPath, AllLabelsUsedExactlyOnce) {
  HierarchyMatrix a(64);
  Rng rng(7);
  const auto inst = make_adversarial_path(a, rng);
  std::set<std::uint32_t> labels;
  for (graph::NodeId v = 0; v < 64; ++v) labels.insert(inst.labeling.label(v));
  EXPECT_EQ(labels.size(), 64u);
  EXPECT_EQ(*labels.begin(), 1u);
  EXPECT_EQ(*labels.rbegin(), 64u);
}

TEST(AdversarialPath, RejectsTooShortPath) {
  UniformMatrix u(4);
  Rng rng(8);
  EXPECT_THROW(make_adversarial_path(u, rng), std::invalid_argument);
}

}  // namespace
}  // namespace nav::core
