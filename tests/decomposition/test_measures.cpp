#include "decomposition/measures.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace nav::decomp {
namespace {

TEST(Measures, BagWidth) {
  EXPECT_EQ(bag_width({}), 0u);
  EXPECT_EQ(bag_width({5}), 0u);
  EXPECT_EQ(bag_width({1, 2, 3}), 2u);
}

TEST(Measures, BagLengthOnPath) {
  const auto g = graph::make_path(10);
  EXPECT_EQ(bag_length(g, {3}), 0u);
  EXPECT_EQ(bag_length(g, {3, 4}), 1u);
  EXPECT_EQ(bag_length(g, {0, 9}), 9u);
  EXPECT_EQ(bag_length(g, {0, 5, 9}), 9u);
}

TEST(Measures, BagLengthUsesGraphDistanceNotInduced) {
  // Bag {0, 2} on a path 0-1-2: induced subgraph is disconnected but the
  // graph distance is 2 (paper: length measured in G).
  const auto g = graph::make_path(3);
  EXPECT_EQ(bag_length(g, {0, 2}), 2u);
}

TEST(Measures, BagLengthDisconnectedIsInf) {
  graph::Graph g(3, {{0, 1}});
  EXPECT_EQ(bag_length(g, {0, 2}), graph::kInfDist);
}

TEST(Measures, BagShapeIsMinOfWidthAndLength) {
  const auto g = graph::make_path(10);
  // Bag {0..9}: width 9, length 9 -> shape 9.
  Bag all;
  for (graph::NodeId v = 0; v < 10; ++v) all.push_back(v);
  EXPECT_EQ(bag_shape(g, all), 9u);
  // Bag {0, 9}: width 1, length 9 -> shape 1.
  EXPECT_EQ(bag_shape(g, {0, 9}), 1u);
  // Clique bag: width large, length 1 -> shape 1.
  const auto k = graph::make_complete(6);
  EXPECT_EQ(bag_shape(k, {0, 1, 2, 3, 4, 5}), 1u);
}

TEST(Measures, DecompositionMeasuresAggregate) {
  const auto g = graph::make_path(4);
  PathDecomposition pd({{0, 1}, {1, 2, 3}});
  const auto m = measure(g, pd);
  EXPECT_EQ(m.width, 2u);
  EXPECT_EQ(m.length, 2u);  // bag {1,2,3} spans distance 2
  EXPECT_EQ(m.shape, 2u);
  EXPECT_EQ(m.num_bags, 2u);
  EXPECT_EQ(m.max_bag_size, 3u);
}

TEST(Measures, WidthOfFastPath) {
  PathDecomposition pd({{0, 1}, {1, 2, 3}, {3}});
  EXPECT_EQ(width_of(pd), 2u);
}

TEST(Measures, CliqueShapeIsOneViaTrivialBag) {
  // The paper's point: cliques have huge width but length 1, so shape 1.
  const auto g = graph::make_complete(20);
  Bag all;
  for (graph::NodeId v = 0; v < 20; ++v) all.push_back(v);
  const auto m = measure(g, PathDecomposition({all}));
  EXPECT_EQ(m.width, 19u);
  EXPECT_EQ(m.length, 1u);
  EXPECT_EQ(m.shape, 1u);
}

}  // namespace
}  // namespace nav::decomp
