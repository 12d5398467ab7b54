#include "decomposition/elimination.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "decomposition/exact.hpp"
#include "decomposition/measures.hpp"
#include "graph/families.hpp"
#include "graph/generators.hpp"

namespace nav::decomp {
namespace {

TEST(EliminationOrdering, IsPermutation) {
  Rng rng(1);
  const auto g = graph::make_connected_gnp(40, 0.15, rng);
  for (const auto h :
       {EliminationHeuristic::kMinDegree, EliminationHeuristic::kMinFill}) {
    const auto ordering = elimination_ordering(g, h);
    std::vector<std::uint8_t> seen(40, 0);
    for (const auto v : ordering) {
      ASSERT_LT(v, 40u);
      EXPECT_FALSE(seen[v]);
      seen[v] = 1;
    }
    EXPECT_EQ(ordering.size(), 40u);
  }
}

TEST(EliminationOrdering, MinDegreeStartsAtLeaves) {
  const auto g = graph::make_star(8);
  const auto ordering =
      elimination_ordering(g, EliminationHeuristic::kMinDegree);
  // The center (node 0, degree 7) must be eliminated after some leaves.
  EXPECT_NE(ordering.front(), 0u);
}

TEST(EliminationPath, ValidAcrossFamilies) {
  Rng rng(6);
  for (const auto& fam : graph::all_families()) {
    const auto g = fam.make(48, rng);
    const auto ordering =
        elimination_ordering(g, EliminationHeuristic::kMinDegree);
    const auto pd = elimination_path_decomposition(g, ordering);
    std::string why;
    EXPECT_TRUE(pd.is_valid(g, &why)) << fam.name << ": " << why;
  }
}

TEST(EliminationPath, PathIdentityOrderingIsWidthOne) {
  const auto g = graph::make_path(12);
  std::vector<graph::NodeId> ordering(12);
  std::iota(ordering.begin(), ordering.end(), graph::NodeId{0});
  const auto pd = elimination_path_decomposition(g, ordering);
  EXPECT_TRUE(pd.is_valid(g));
  EXPECT_EQ(width_of(pd), 1u);
}

TEST(EliminationPath, MatchesExactWitnessStyle) {
  // Using the exact-pathwidth optimal ordering must reproduce width = pw.
  const auto g = graph::make_cycle(10);
  const auto exact = exact_pathwidth_witness(g);
  const auto pd = elimination_path_decomposition(g, exact.ordering);
  EXPECT_TRUE(pd.is_valid(g));
  EXPECT_EQ(width_of(pd), exact.pathwidth);
}

}  // namespace
}  // namespace nav::decomp
