// LandmarkOracle invariants: the triangle estimate is an upper bound that is
// 1-Lipschitz along edges, exact at landmarks and inside the patch ball, and
// deterministic — and exact()-aware routers terminate on it.
#include "graph/landmark_oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/uniform_scheme.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/families.hpp"
#include "graph/generators.hpp"
#include "routing/greedy_router.hpp"
#include "routing/lookahead_router.hpp"

namespace nav::graph {
namespace {

LandmarkOptions with_k(std::size_t k,
                       LandmarkSelection sel = LandmarkSelection::kFarthest) {
  LandmarkOptions options;
  options.k = k;
  options.selection = sel;
  return options;
}

TEST(LandmarkOracle, IsAnUpperBoundEverywhere) {
  const auto g = make_grid2d(12, 10);
  const DistanceMatrix exact(g);
  const LandmarkOracle approx(g, with_k(6));
  for (NodeId t = 0; t < g.num_nodes(); t += 7) {
    const auto row = approx.distances_to(t);
    const auto truth = exact.distances_to(t);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      ASSERT_GE((*row)[u], (*truth)[u]) << "u=" << u << " t=" << t;
      ASSERT_NE((*row)[u], kInfDist);  // connected graph: bound is finite
    }
    EXPECT_EQ((*row)[t], 0u);  // the anchor: d̂(t, t) = 0
  }
}

TEST(LandmarkOracle, ExactAtLandmarksAndInsidePatchBall) {
  const auto g = make_grid2d(12, 10);
  const DistanceMatrix exact(g);
  LandmarkOptions options = with_k(5);
  options.exact_radius = 3;
  const LandmarkOracle approx(g, options);
  const NodeId target = 57;
  const auto row = approx.distances_to(target);
  const auto truth = exact.distances_to(target);
  // At a landmark l, the l = u term collapses the bound to the truth.
  for (const NodeId l : approx.landmarks()) {
    EXPECT_EQ((*row)[l], (*truth)[l]) << "landmark " << l;
    EXPECT_EQ(approx.distance(l, target), (*truth)[l]);
  }
  // Inside the patch ball the overlay forces exactness.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if ((*truth)[u] <= options.exact_radius) {
      EXPECT_EQ((*row)[u], (*truth)[u]) << "patched node " << u;
    }
  }
}

TEST(LandmarkOracle, PureFieldIsLipschitzAlongEdges) {
  // |d̂(u, t) - d̂(v, t)| <= 1 for every edge (u, v): the property that lets
  // greedy descend without overshooting the target. This holds for the PURE
  // triangle field (each d(·, l) term is 1-Lipschitz, so the min is); the
  // exact-ball patch deliberately breaks it at the ball boundary in exchange
  // for strict descent inside, so test with the patch off and skip the
  // row[t] = 0 anchor's edges.
  const auto g = make_grid2d(9, 9);
  LandmarkOptions options = with_k(4);
  options.exact_radius = 0;
  const LandmarkOracle approx(g, options);
  const NodeId target = 40;
  const auto row = approx.distances_to(target);
  for (const auto& [u, v] : g.edge_list()) {
    if (u == target || v == target) continue;
    const auto du = (*row)[u];
    const auto dv = (*row)[v];
    ASSERT_LE(du > dv ? du - dv : dv - du, 1u)
        << "edge (" << u << ", " << v << ")";
  }
}

TEST(LandmarkOracle, IsDeterministicAndReportsExactFalse) {
  const auto g = make_grid2d(10, 8);
  const LandmarkOracle a(g, with_k(6));
  const LandmarkOracle b(g, with_k(6));
  EXPECT_FALSE(a.exact());
  ASSERT_EQ(a.num_landmarks(), 6u);
  EXPECT_TRUE(std::equal(a.landmarks().begin(), a.landmarks().end(),
                         b.landmarks().begin(), b.landmarks().end()));
  for (NodeId t = 0; t < g.num_nodes(); t += 11) {
    ASSERT_TRUE(*a.distances_to(t) == *b.distances_to(t));
  }
}

TEST(LandmarkOracle, SelectionsDiffer) {
  // Degree selection picks hubs; farthest spreads out. On a star-ish graph
  // the first landmark is the hub either way, but on a grid the two
  // traversals pick different sets past the seed.
  const auto g = make_grid2d(10, 10);
  const LandmarkOracle by_degree(g, with_k(8, LandmarkSelection::kDegree));
  const LandmarkOracle farthest(g, with_k(8, LandmarkSelection::kFarthest));
  ASSERT_EQ(by_degree.num_landmarks(), 8u);
  ASSERT_EQ(farthest.num_landmarks(), 8u);
  const auto d = by_degree.landmarks();
  const auto f = farthest.landmarks();
  EXPECT_FALSE(std::equal(d.begin(), d.end(), f.begin(), f.end()));
}

TEST(LandmarkOracle, KClampsToNodeCountAndFullCoverIsExact) {
  // k >= n: every node is a landmark, so the bound collapses to the truth.
  const auto g = make_cycle(12);
  const LandmarkOracle approx(g, with_k(64));
  EXPECT_EQ(approx.num_landmarks(), 12u);
  const DistanceMatrix exact(g);
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    ASSERT_TRUE(*approx.distances_to(t) == *exact.distances_to(t));
  }
}

TEST(LandmarkOracle, MoreLandmarksNeverWorsenTheBound) {
  const auto g = make_grid2d(14, 9);
  const LandmarkOracle coarse(g, with_k(2));
  const LandmarkOracle fine(g, with_k(16));
  const NodeId target = 100;
  const auto loose = coarse.distances_to(target);
  const auto tight = fine.distances_to(target);
  // Farthest selection grows the landmark set monotonically (same seed,
  // same traversal), so the k=16 min includes every k=2 term.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    ASSERT_LE((*tight)[u], (*loose)[u]) << "u=" << u;
  }
}

TEST(LandmarkOracle, BuildsMatchAcrossWorkerCounts) {
  // kDegree farms its landmark rows over the process team and kFarthest
  // sweeps them in order; either way the landmarks and every materialised
  // row must not depend on the worker cap.
  ParallelPolicy four;
  four.num_workers = 4;
  for (const FamilySpec& spec : all_families()) {
    Rng rng(0x1A4D);
    const Graph g = spec.make(300, rng);
    for (const auto selection :
         {LandmarkSelection::kDegree, LandmarkSelection::kFarthest}) {
      LandmarkOptions serial_options = with_k(12, selection);
      serial_options.policy = ParallelPolicy::serial();
      LandmarkOptions wide_options = with_k(12, selection);
      wide_options.policy = four;
      const LandmarkOracle serial(g, serial_options);
      const LandmarkOracle wide(g, wide_options);
      const auto a = serial.landmarks();
      const auto b = wide.landmarks();
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << spec.name;
      for (NodeId t = 0; t < g.num_nodes(); ++t) {
        ASSERT_TRUE(*serial.distances_to(t) == *wide.distances_to(t))
            << spec.name << " t=" << t;
      }
    }
  }
}

TEST(LandmarkOracle, RowCacheHitsAndMisses) {
  const auto g = make_grid2d(8, 8);
  LandmarkOptions options = with_k(4);
  options.row_cache_slots = 2;
  const LandmarkOracle approx(g, options);
  (void)approx.distances_to(1);
  (void)approx.distances_to(1);
  (void)approx.distances_to(2);
  (void)approx.distances_to(3);  // evicts target 1
  (void)approx.distances_to(1);  // re-materialises
  EXPECT_EQ(approx.misses(), 4u);
  EXPECT_EQ(approx.hits(), 1u);
}

TEST(LandmarkOracle, RejectsDegenerateOptions) {
  const auto g = make_cycle(8);
  EXPECT_THROW((void)LandmarkOracle(g, with_k(0)), std::invalid_argument);
}

TEST(LandmarkOracle, RoutersTerminateOnTheApproximateField) {
  // The field stalls greedy descent at local minima (classically: AT a
  // landmark, where no neighbour improves the bound); exact()-aware routers
  // must return cleanly — reached or not — rather than abort on the broken
  // strict-descent invariant. 40 random pairs exercise plenty of stalls.
  const auto g = make_grid2d(16, 16);
  const LandmarkOracle approx(g, with_k(8));
  const core::UniformScheme scheme(g);
  const routing::GreedyRouter greedy(g, approx);
  const routing::LookaheadRouter lookahead(g, approx, 1);
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    Rng rng(trial);
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    auto t = static_cast<NodeId>(rng.next_below(g.num_nodes() - 1));
    if (t >= s) ++t;
    const auto got = greedy.route(s, t, &scheme, Rng(7 + trial));
    const auto deep = lookahead.route(s, t, &scheme, Rng(7 + trial));
    if (got.reached) {
      EXPECT_GT(got.steps, 0u);
    }
    if (deep.reached) {
      EXPECT_GT(deep.steps, 0u);
    }
  }
  // A pair starting inside the exact patch ball must arrive: the overlay
  // makes the field strictly descending there.
  const auto near = greedy.route(1, 0, &scheme, Rng(99));
  EXPECT_TRUE(near.reached);
  EXPECT_EQ(near.steps, 1u);
}

}  // namespace
}  // namespace nav::graph
