#include "decomposition/exact.hpp"

#include <gtest/gtest.h>

#include "decomposition/measures.hpp"
#include "graph/generators.hpp"

namespace nav::decomp {
namespace {

TEST(ExactPathwidth, KnownValues) {
  EXPECT_EQ(exact_pathwidth(graph::make_path(8)), 1u);
  EXPECT_EQ(exact_pathwidth(graph::make_cycle(8)), 2u);
  EXPECT_EQ(exact_pathwidth(graph::make_complete(6)), 5u);
  EXPECT_EQ(exact_pathwidth(graph::make_star(7)), 1u);
  EXPECT_EQ(exact_pathwidth(graph::make_grid2d(3, 3)), 3u);
  EXPECT_EQ(exact_pathwidth(graph::make_grid2d(3, 5)), 3u);
  EXPECT_EQ(exact_pathwidth(graph::make_grid2d(4, 4)), 4u);
}

TEST(ExactPathwidth, SingletonAndEdge) {
  EXPECT_EQ(exact_pathwidth(graph::Graph(1, {})), 0u);
  EXPECT_EQ(exact_pathwidth(graph::make_path(2)), 1u);
}

TEST(ExactPathwidth, SpiderIsTwo) {
  // Three legs of length 2 from a center: pathwidth 2 (not a caterpillar).
  EXPECT_EQ(exact_pathwidth(graph::make_spider(3, 2)), 2u);
}

TEST(ExactPathwidth, CaterpillarIsOnePlusLegsBound) {
  // Caterpillars have pathwidth 1 (they are exactly the pw-1 trees... with
  // legs attached the width stays small): spine 4, 1 leg each -> pw 1.
  EXPECT_LE(exact_pathwidth(graph::make_caterpillar(4, 1)), 2u);
}

TEST(ExactPathwidth, CompleteBipartiteViaBarbell) {
  // Barbell of two K_4 and a 2-path bridge: pw = 3 (each clique forces 3).
  EXPECT_EQ(exact_pathwidth(graph::make_barbell(4, 2)), 3u);
}

TEST(ExactPathwidth, WitnessDecompositionIsValidAndTight) {
  for (const auto& g :
       {graph::make_cycle(9), graph::make_grid2d(3, 4), graph::make_complete(5),
        graph::make_spider(3, 2), graph::make_hypercube(3)}) {
    const auto result = exact_pathwidth_witness(g);
    std::string why;
    ASSERT_TRUE(result.decomposition.is_valid(g, &why)) << why;
    EXPECT_EQ(width_of(result.decomposition), result.pathwidth);
    EXPECT_EQ(result.ordering.size(), g.num_nodes());
  }
}

TEST(ExactPathwidth, HypercubeQ3) {
  EXPECT_EQ(exact_pathwidth(graph::make_hypercube(3)), 4u);
}

TEST(ExactPathwidth, RejectsLargeGraphs) {
  EXPECT_THROW((void)exact_pathwidth(graph::make_path(23)),
               std::invalid_argument);
}

TEST(ExactPathwidth, DisconnectedTakesMaxComponentish) {
  // Two triangles: pathwidth 2.
  graph::Graph g(6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  EXPECT_EQ(exact_pathwidth(g), 2u);
}

TEST(ExactPathwidth, RandomTreesAreLowWidth) {
  Rng rng(12);
  for (int i = 0; i < 6; ++i) {
    const auto g = graph::make_random_tree(14, rng);
    const auto pw = exact_pathwidth(g);
    EXPECT_LE(pw, 4u);  // log2(14) ~ 3.8; trees of 14 nodes stay below
    EXPECT_GE(pw, 1u);
  }
}

}  // namespace
}  // namespace nav::decomp
