// Differential coverage for the multi-worker BFS sweep: ParallelBfs must be
// bit-identical to the scalar engine on every registered family, radius, and
// worker count — including the degenerate frontiers (radius 0, isolated
// sources, disconnected graphs) — and DistanceMatrix slabs must hash
// byte-identical for every ParallelPolicy and across repeated builds.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/bfs_engine.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/families.hpp"
#include "graph/generators.hpp"

namespace nav::graph {
namespace {

constexpr std::size_t kWorkerCounts[] = {1, 2, 3, 8};
constexpr Dist kRadii[] = {Dist{0}, Dist{1}, Dist{3}, Dist{17}, kInfDist};

/// A policy whose adaptivity thresholds are floored, so even the small
/// differential graphs drive the parallel top-down, bottom-up, and two-pass
/// frontier-rebuild code paths instead of the serial small-level shortcut.
ParallelPolicy exercising_policy(std::size_t workers) {
  ParallelPolicy policy;
  policy.num_workers = workers;
  policy.serial_frontier_cutoff = 1;
  policy.min_diropt_nodes = 1;
  return policy;
}

std::uint64_t fnv1a(std::span<const Dist> data) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  for (std::size_t i = 0; i < data.size_bytes(); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

TEST(ParallelBfs, MatchesScalarAcrossFamiliesRadiiAndWorkers) {
  BfsWorkspace scalar;
  for (const std::size_t workers : kWorkerCounts) {
    ParallelBfs sweep(exercising_policy(workers));
    ASSERT_EQ(sweep.workers(), workers);
    for (const FamilySpec& spec : all_families()) {
      Rng rng(0xBF5 + workers);
      const Graph g = spec.make(600, rng);
      std::vector<Dist> expect(g.num_nodes());
      std::vector<Dist> got(g.num_nodes());
      for (const NodeId s : {NodeId{0}, g.num_nodes() - 1, g.num_nodes() / 2}) {
        for (const Dist radius : kRadii) {
          scalar.distances_into_scalar(g, s, expect, radius);
          sweep.distances_into(g, s, got, radius);
          ASSERT_EQ(got, expect) << spec.name << " source=" << s
                                 << " r=" << radius << " workers=" << workers;
        }
      }
    }
  }
}

TEST(ParallelBfs, ProductionThresholdsMatchScalarOnLargerGraphs) {
  // Default adaptivity thresholds on graphs big enough to cross the
  // direction-optimizing gate: the sweep mixes serial small levels with
  // parallel wide ones and must still agree bit for bit.
  Rng rng(0x51AB);
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("hypercube", make_hypercube(11));
  graphs.emplace_back("gnp", make_connected_gnp(2000, 6.0 / 2000.0, rng));
  graphs.emplace_back("grid2d", make_grid2d(48, 48));
  BfsWorkspace scalar;
  for (const std::size_t workers : kWorkerCounts) {
    ParallelPolicy policy;
    policy.num_workers = workers;
    ParallelBfs sweep(policy);
    for (const auto& [name, g] : graphs) {
      std::vector<Dist> expect(g.num_nodes());
      std::vector<Dist> got(g.num_nodes());
      for (const NodeId s : {NodeId{0}, g.num_nodes() / 2}) {
        scalar.distances_into_scalar(g, s, expect);
        sweep.distances_into(g, s, got);
        ASSERT_EQ(got, expect) << name << " source=" << s
                               << " workers=" << workers;
      }
    }
  }
}

TEST(ParallelBfs, EmptyFrontierAndDisconnectedEdgeCases) {
  // Two components plus one fully isolated node: a sweep from the isolated
  // source empties its frontier after level 0, and cross-component nodes
  // must keep kInfDist at every worker count.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v < 300; ++v) edges.push_back({v - 1, v});
  for (NodeId v = 301; v < 600; ++v) edges.push_back({v - 1, v});
  const Graph g(601, edges);  // node 600 is isolated
  BfsWorkspace scalar;
  for (const std::size_t workers : kWorkerCounts) {
    ParallelBfs sweep(exercising_policy(workers));
    std::vector<Dist> expect(g.num_nodes());
    std::vector<Dist> got(g.num_nodes());
    for (const NodeId s : {NodeId{0}, NodeId{350}, NodeId{600}}) {
      for (const Dist radius : kRadii) {
        scalar.distances_into_scalar(g, s, expect, radius);
        sweep.distances_into(g, s, got, radius);
        ASSERT_EQ(got, expect)
            << "source=" << s << " r=" << radius << " workers=" << workers;
      }
    }
    // The isolated source reaches only itself.
    sweep.distances_into(g, 600, got);
    EXPECT_EQ(got[600], 0u);
    EXPECT_EQ(got[0], kInfDist);
    EXPECT_EQ(got[599], kInfDist);
  }
}

TEST(ParallelBfs, RadiusPromotionMatchesWorkspaceCutover) {
  // A finite radius >= n-1 cannot bind; both engines promote it to the
  // unbounded sweep and the outputs stay identical to the bounded semantics.
  const Graph g = make_path(700);
  BfsWorkspace scalar;
  ParallelBfs sweep(exercising_policy(3));
  std::vector<Dist> expect(g.num_nodes());
  std::vector<Dist> got(g.num_nodes());
  for (const Dist radius :
       {static_cast<Dist>(g.num_nodes() - 1), static_cast<Dist>(g.num_nodes()),
        static_cast<Dist>(2 * g.num_nodes())}) {
    scalar.distances_into_scalar(g, 0, expect, radius);
    sweep.distances_into(g, 0, got, radius);
    ASSERT_EQ(got, expect) << "r=" << radius;
  }
}

TEST(ParallelBfs, RepeatedSweepsOnWarmInstanceStayIdentical) {
  Rng rng(0x7EA1);
  const Graph g = make_connected_gnp(900, 5.0 / 900.0, rng);
  BfsWorkspace scalar;
  std::vector<Dist> expect(g.num_nodes());
  scalar.distances_into_scalar(g, 7, expect);
  ParallelBfs sweep(exercising_policy(8));
  std::vector<Dist> got(g.num_nodes());
  for (int run = 0; run < 20; ++run) {
    sweep.distances_into(g, 7, got);
    ASSERT_EQ(got, expect) << "run " << run;
  }
}

TEST(ParallelBfs, PolicyResolution) {
  EXPECT_GE(ParallelPolicy{}.resolved_workers(), 1u);
  EXPECT_EQ(ParallelPolicy::serial().resolved_workers(), 1u);
  ParallelPolicy two;
  two.num_workers = 2;
  EXPECT_EQ(two.resolved_workers(), 2u);
}

TEST(DistanceMatrixDeterminism, SlabHashIndependentOfWorkerCount) {
  Rng rng(0xD57);
  const Graph g = make_connected_gnp(500, 6.0 / 500.0, rng);
  std::uint64_t reference_hash = 0;
  for (const std::size_t workers : kWorkerCounts) {
    ParallelPolicy policy;
    policy.num_workers = workers;
    const DistanceMatrix dm(g, policy);
    const std::uint64_t h = fnv1a(dm.slab());
    if (workers == kWorkerCounts[0]) {
      reference_hash = h;
    } else {
      ASSERT_EQ(h, reference_hash) << "workers=" << workers;
    }
  }
}

TEST(DistanceMatrixDeterminism, RepeatedBuildsAndRebuildsHashIdentical) {
  Rng rng(0xD58);
  const Graph g = make_connected_gnp(400, 5.0 / 400.0, rng);
  ParallelPolicy policy;
  policy.num_workers = 3;
  const DistanceMatrix first(g, policy);
  const std::uint64_t reference_hash = fnv1a(first.slab());
  for (int run = 0; run < 3; ++run) {
    DistanceMatrix dm(g, policy);
    ASSERT_EQ(fnv1a(dm.slab()), reference_hash) << "build " << run;
    dm.rebuild_all(g);
    ASSERT_EQ(fnv1a(dm.slab()), reference_hash) << "rebuild " << run;
    const std::vector<NodeId> some{0, 13, 399, 200};
    dm.rebuild_rows(g, some);
    ASSERT_EQ(fnv1a(dm.slab()), reference_hash) << "row rebuild " << run;
  }
}

TEST(TargetDistanceCachePolicy, PrefetchWavesMatchScalarRowsAtEveryWidth) {
  Rng rng(0xCA9);
  const Graph g = make_connected_gnp(800, 5.0 / 800.0, rng);
  BfsWorkspace scalar;
  std::vector<Dist> expect(g.num_nodes());
  for (const std::size_t workers : kWorkerCounts) {
    ParallelPolicy policy;
    policy.num_workers = workers;
    TargetDistanceCache cache(g, 16, policy);
    // Narrow wave (fewer misses than workers: the intra-sweep ParallelBfs
    // path) and a wide wave (row farming), plus duplicates and re-hits.
    const std::vector<NodeId> narrow{3};
    const std::vector<NodeId> wide{10, 20, 30, 40, 50, 60, 70, 80, 20, 10};
    std::vector<DistVecPtr> rows;
    cache.prefetch_into(narrow, rows);
    ASSERT_EQ(rows.size(), narrow.size());
    scalar.distances_into_scalar(g, 3, expect);
    EXPECT_TRUE(*rows[0] == std::span<const Dist>(expect)) << workers;
    cache.prefetch_into(wide, rows);
    ASSERT_EQ(rows.size(), wide.size());
    for (std::size_t i = 0; i < wide.size(); ++i) {
      scalar.distances_into_scalar(g, wide[i], expect);
      ASSERT_TRUE(*rows[i] == std::span<const Dist>(expect))
          << "workers=" << workers << " i=" << i;
    }
    // Duplicates share the first occurrence's pin.
    EXPECT_EQ(rows[8], rows[1]);
    EXPECT_EQ(rows[9], rows[0]);
    // An all-hit repeat serves the same rows from residency.
    std::vector<DistVecPtr> again;
    cache.prefetch_into(wide, again);
    for (std::size_t i = 0; i < wide.size(); ++i) {
      ASSERT_EQ(again[i], rows[i]) << "workers=" << workers << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace nav::graph
