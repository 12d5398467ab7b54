#include "graph/diameter.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "support/bfs_reference.hpp"

namespace nav::graph {
namespace {

TEST(Diameter, KnownValues) {
  EXPECT_EQ(exact_diameter(make_path(10)), 9u);
  EXPECT_EQ(exact_diameter(make_cycle(10)), 5u);
  EXPECT_EQ(exact_diameter(make_cycle(11)), 5u);
  EXPECT_EQ(exact_diameter(make_complete(7)), 1u);
  EXPECT_EQ(exact_diameter(make_star(9)), 2u);
  EXPECT_EQ(exact_diameter(make_grid2d(4, 6)), 8u);
  EXPECT_EQ(exact_diameter(make_hypercube(5)), 5u);
  EXPECT_EQ(exact_diameter(make_torus2d(6, 6)), 6u);
}

TEST(Diameter, SingletonIsZero) {
  EXPECT_EQ(exact_diameter(Graph(1, {})), 0u);
}

TEST(Diameter, RequiresConnectivity) {
  Graph g(3, {{0, 1}});
  EXPECT_THROW((void)exact_diameter(g), std::invalid_argument);
}

TEST(Eccentricities, PathProfile) {
  const auto ecc = eccentricities(make_path(5));
  EXPECT_EQ(ecc[0], 4u);
  EXPECT_EQ(ecc[2], 2u);  // center
  EXPECT_EQ(ecc[4], 4u);
}

TEST(DoubleSweep, ExactOnTrees) {
  EXPECT_EQ(double_sweep_lower_bound(make_path(33)), 32u);
  EXPECT_EQ(double_sweep_lower_bound(make_star(10)), 2u);
  EXPECT_EQ(double_sweep_lower_bound(make_balanced_tree(31, 2)),
            exact_diameter(make_balanced_tree(31, 2)));
}

TEST(DoubleSweep, LowerBoundsExact) {
  for (const auto& g : {make_grid2d(5, 8), make_torus2d(5, 7), make_cycle(17)}) {
    EXPECT_LE(double_sweep_lower_bound(g), exact_diameter(g));
  }
}

TEST(PeripheralPair, EndpointsOfPath) {
  const auto p = peripheral_pair(make_path(12));
  EXPECT_EQ(p.distance, 11u);
  EXPECT_TRUE((p.a == 0 && p.b == 11) || (p.a == 11 && p.b == 0));
}

TEST(PeripheralPair, DistanceMatchesBfs) {
  const auto g = make_grid2d(6, 6);
  const auto p = peripheral_pair(g);
  EXPECT_EQ(bfs_distances_reference(g, p.a)[p.b], p.distance);
}

}  // namespace
}  // namespace nav::graph
