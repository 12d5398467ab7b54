#include "decomposition/decomposition.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace nav::decomp {
namespace {

using graph::make_cycle;
using graph::make_path;

TEST(Bag, MakeBagSortsAndDedups) {
  EXPECT_EQ(make_bag({3, 1, 2, 1, 3}), (Bag{1, 2, 3}));
  EXPECT_EQ(make_bag({}), Bag{});
}

TEST(PathDecomposition, ValidPathBags) {
  const auto g = make_path(4);
  PathDecomposition pd({{0, 1}, {1, 2}, {2, 3}});
  std::string why;
  EXPECT_TRUE(pd.is_valid(g, &why)) << why;
}

TEST(PathDecomposition, DetectsMissingVertex) {
  const auto g = make_path(4);
  PathDecomposition pd({{0, 1}, {1, 2}});  // node 3 missing
  std::string why;
  EXPECT_FALSE(pd.is_valid(g, &why));
  EXPECT_NE(why.find("vertex 3"), std::string::npos);
}

TEST(PathDecomposition, DetectsMissingEdge) {
  const auto g = make_cycle(4);
  PathDecomposition pd({{0, 1}, {1, 2}, {2, 3}});  // edge (0,3) uncovered
  std::string why;
  EXPECT_FALSE(pd.is_valid(g, &why));
  EXPECT_NE(why.find("edge"), std::string::npos);
}

TEST(PathDecomposition, DetectsBrokenContiguity) {
  const auto g = make_path(3);
  // Node 0 appears in bags 0 and 2 but not 1.
  PathDecomposition pd({{0, 1}, {1, 2}, {0, 2}});
  std::string why;
  EXPECT_FALSE(pd.is_valid(g, &why));
  EXPECT_NE(why.find("contiguous"), std::string::npos);
}

TEST(PathDecomposition, DetectsOutOfRangeVertex) {
  const auto g = make_path(2);
  PathDecomposition pd({{0, 1, 9}});
  std::string why;
  EXPECT_FALSE(pd.is_valid(g, &why));
}

TEST(PathDecomposition, SingleBagAlwaysValidForAnyGraph) {
  const auto g = make_cycle(5);
  PathDecomposition pd({{0, 1, 2, 3, 4}});
  EXPECT_TRUE(pd.is_valid(g));
}

TEST(PathDecomposition, NodeIntervalsContiguous) {
  PathDecomposition pd({{0, 1}, {1, 2}, {2, 3}});
  const auto intervals = pd.node_intervals(4);
  EXPECT_EQ(intervals[1].first, 0u);
  EXPECT_EQ(intervals[1].last, 1u);
  EXPECT_EQ(intervals[0].first, 0u);
  EXPECT_EQ(intervals[0].last, 0u);
  EXPECT_EQ(intervals[3].first, 2u);
}

TEST(PathDecomposition, ReduceDropsSubsumedBags) {
  const auto g = make_path(3);
  PathDecomposition pd({{0}, {0, 1}, {1}, {1, 2}, {2}});
  const auto removed = pd.reduce();
  EXPECT_EQ(removed, 3u);
  EXPECT_EQ(pd.num_bags(), 2u);
  EXPECT_TRUE(pd.is_valid(g));
}

TEST(PathDecomposition, ReduceKeepsSingleBag) {
  PathDecomposition pd({{0, 1, 2}});
  EXPECT_EQ(pd.reduce(), 0u);
  EXPECT_EQ(pd.num_bags(), 1u);
}

TEST(PathDecomposition, EmptyDecompositionOnlyValidForEmptyGraph) {
  PathDecomposition pd;
  EXPECT_TRUE(pd.is_valid(graph::Graph(0, {})));
  EXPECT_FALSE(pd.is_valid(make_path(1)));
}

}  // namespace
}  // namespace nav::decomp
