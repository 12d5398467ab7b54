#include "decomposition/pathshape.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "decomposition/builders.hpp"
#include "decomposition/exact.hpp"
#include "graph/families.hpp"
#include "graph/generators.hpp"

namespace nav::decomp {
namespace {

TEST(Pathshape, PathIsOne) {
  const auto best = best_path_decomposition(graph::make_path(64));
  EXPECT_EQ(best.measures.shape, 1u);
  EXPECT_TRUE(best.method == "path-walk" || best.method == "caterpillar" ||
              best.method == "bfs-layer")
      << best.method;
}

TEST(Pathshape, CompleteGraphIsOneViaTrivial) {
  // K_n: every pair adjacent -> trivial bag has length 1 -> shape 1.
  const auto best = best_path_decomposition(graph::make_complete(24));
  EXPECT_EQ(best.measures.shape, 1u);
}

TEST(Pathshape, CaterpillarAtMostTwo) {
  const auto best = best_path_decomposition(graph::make_caterpillar(20, 3));
  EXPECT_LE(best.measures.shape, 2u);
}

TEST(Pathshape, TreesLogarithmic) {
  Rng rng(5);
  const auto g = graph::make_random_tree(500, rng);
  const auto best = best_path_decomposition(g);
  const auto bound = static_cast<std::size_t>(std::ceil(std::log2(500))) + 1;
  EXPECT_LE(best.measures.shape, bound);
}

TEST(Pathshape, UpperBoundNeverBelowExactPathwidthFloor) {
  // ps(G) <= pw(G); our heuristic shape is an upper bound on ps, so it can be
  // below pw (shape uses length too) but the *decomposition* must be valid.
  Rng rng(6);
  for (const auto& name : {"path", "cycle", "grid2d"}) {
    const auto g = graph::family(name).make(18, rng);
    const auto best = best_path_decomposition(g);
    std::string why;
    EXPECT_TRUE(best.decomposition.is_valid(g, &why)) << name << ": " << why;
  }
}

TEST(Pathshape, WinnerValidAcrossAllFamilies) {
  Rng rng(7);
  for (const auto& fam : graph::all_families()) {
    const auto g = fam.make(80, rng);
    const auto best = best_path_decomposition(g);
    std::string why;
    ASSERT_TRUE(best.decomposition.is_valid(g, &why)) << fam.name << ": " << why;
    EXPECT_FALSE(best.method.empty());
    // shape is a min(width, length) aggregate: never exceeds n - 1.
    EXPECT_LE(best.measures.shape, static_cast<std::size_t>(g.num_nodes()));
  }
}

TEST(Pathshape, UpperBoundHelper) {
  EXPECT_EQ(best_path_decomposition(graph::make_path(32)).measures.shape, 1u);
  EXPECT_LE(best_path_decomposition(graph::make_cycle(32)).measures.shape, 3u);
}

TEST(Pathshape, CycleIsAtMostTwo) {
  // Cycle: bfs-layer from any node gives bags of consecutive layer pairs;
  // width 3 but length <= 2 (two nodes per layer are close around the seam)…
  // portfolio must land at shape <= 3 in any case (pw(C_n) = 2).
  const auto best = best_path_decomposition(graph::make_cycle(40));
  EXPECT_LE(best.measures.shape, 3u);
}

TEST(Pathshape, OptionsExcludeTrivial) {
  PathshapeOptions opt;
  opt.include_trivial = false;
  const auto best = best_path_decomposition(graph::make_complete(12), opt);
  EXPECT_NE(best.method, "trivial");
}

TEST(Pathshape, LengthCapStillSound) {
  PathshapeOptions opt;
  opt.max_bag_for_length = 2;  // force width-only scoring
  const auto best = best_path_decomposition(graph::make_path(32), opt);
  std::string why;
  EXPECT_TRUE(best.decomposition.is_valid(graph::make_path(32), &why)) << why;
  EXPECT_LE(best.measures.shape, 31u);
}

TEST(MeasureCapped, CapSkipsLengthOnBigBags) {
  const auto g = graph::make_complete(10);
  const auto pd = trivial_decomposition(g);
  const auto capped = measure_capped(g, pd, 4);
  EXPECT_EQ(capped.shape, 9u);  // width-only (cap), not length 1
  const auto uncapped = measure_capped(g, pd, 100);
  EXPECT_EQ(uncapped.shape, 1u);
}

}  // namespace
}  // namespace nav::decomp
