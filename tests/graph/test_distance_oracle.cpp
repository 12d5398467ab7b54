#include "graph/distance_oracle.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "support/bfs_reference.hpp"

namespace nav::graph {
namespace {

TEST(DistanceMatrix, MatchesBfs) {
  const auto g = make_grid2d(5, 5);
  DistanceMatrix dm(g);
  for (NodeId t = 0; t < g.num_nodes(); t += 7) {
    const auto d = bfs_distances_reference(g, t);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      EXPECT_EQ(dm.distance(u, t), d[u]);
    }
  }
}

TEST(DistanceMatrix, Symmetric) {
  const auto g = make_cycle(9);
  DistanceMatrix dm(g);
  for (NodeId u = 0; u < 9; ++u)
    for (NodeId v = 0; v < 9; ++v) EXPECT_EQ(dm.distance(u, v), dm.distance(v, u));
}

TEST(DistanceMatrix, SharedVectorMatchesScalar) {
  const auto g = make_path(20);
  DistanceMatrix dm(g);
  const auto vec = dm.distances_to(5);
  for (NodeId u = 0; u < 20; ++u) EXPECT_EQ((*vec)[u], dm.distance(u, 5));
}

TEST(TargetCache, MatchesBfs) {
  const auto g = make_grid2d(6, 4);
  TargetDistanceCache cache(g, 4);
  const auto d = bfs_distances_reference(g, 13);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(cache.distance(u, 13), d[u]);
  }
}

TEST(TargetCache, HitsAndMisses) {
  const auto g = make_path(30);
  TargetDistanceCache cache(g, 2);
  (void)cache.distances_to(0);
  (void)cache.distances_to(0);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_GE(cache.hits(), 1u);
}

TEST(TargetCache, EvictsAtCapacityButStaysCorrect) {
  const auto g = make_path(30);
  TargetDistanceCache cache(g, 2);
  const auto a = cache.distances_to(1);
  (void)cache.distances_to(2);
  (void)cache.distances_to(3);  // evicts target 1
  // Held pointer stays valid and correct after eviction.
  EXPECT_EQ((*a)[10], 9u);
  // Re-request recomputes.
  EXPECT_EQ(cache.distance(10, 1), 9u);
  EXPECT_GE(cache.misses(), 4u);
}

TEST(TargetCache, ZeroCapacityClampedToOne) {
  const auto g = make_path(5);
  TargetDistanceCache cache(g, 0);
  EXPECT_EQ(cache.distance(0, 4), 4u);
}

TEST(TargetCache, PrefetchPinsBatchAndMatchesBfs) {
  const auto g = make_grid2d(8, 8);
  TargetDistanceCache cache(g, 2);  // capacity below the batch size
  const std::vector<NodeId> targets = {3, 17, 3, 40, 63};  // with a duplicate
  std::vector<DistVecPtr> pinned;
  cache.prefetch_into(targets, pinned);
  ASSERT_EQ(pinned.size(), targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto expect = bfs_distances_reference(g, targets[i]);
    ASSERT_NE(pinned[i], nullptr);
    EXPECT_EQ(*pinned[i], expect) << "target " << targets[i];
  }
  // Duplicate targets share one vector; one BFS each for the 4 distinct.
  EXPECT_EQ(pinned[0], pinned[2]);
  EXPECT_EQ(cache.misses(), 4u);
  // A second prefetch of a resident target is a hit, not a BFS.
  const auto before = cache.misses();
  std::vector<DistVecPtr> again;
  cache.prefetch_into(std::vector<NodeId>{63}, again);
  EXPECT_EQ(cache.misses(), before);
  EXPECT_GE(cache.hits(), 2u);  // the duplicate + the re-prefetch
}

TEST(TargetCache, PrefetchDefaultImplOnDenseMatrix) {
  const auto g = make_cycle(12);
  DistanceMatrix dm(g);
  const std::vector<NodeId> targets = {0, 5, 11};
  std::vector<DistVecPtr> pinned;
  dm.prefetch_into(targets, pinned);
  ASSERT_EQ(pinned.size(), 3u);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(pinned[i], dm.distances_to(targets[i]));
  }
}

TEST(TargetCache, MemoryBudgetSizesCapacity) {
  const auto g = make_path(100);  // one vector = 100 * sizeof(Dist) = 400 B
  EXPECT_EQ(TargetDistanceCache::capacity_for_budget({4000}, 100), 10u);
  EXPECT_EQ(TargetDistanceCache::capacity_for_budget({399}, 100), 1u);  // >= 1
  TargetDistanceCache cache(g, MemoryBudget{1200});
  EXPECT_EQ(cache.capacity(), 3u);
  (void)cache.distances_to(0);
  (void)cache.distances_to(1);
  (void)cache.distances_to(2);
  (void)cache.distances_to(0);  // still resident under a 3-vector budget
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(TargetCache, ConcurrentAccessConsistent) {
  // Four threads race misses, hits and evictions on one cache at every
  // storage width; half of them go through prefetch waves. Concurrent
  // misses on one target exercise the lost-the-race branches of both
  // distances_to and the prefetch install pass.
  const auto g = make_grid2d(10, 10);
  std::vector<std::vector<Dist>> reference;
  for (NodeId target = 0; target < 21; ++target) {
    reference.push_back(bfs_distances_reference(g, target));
  }
  for (const auto width :
       {DistWidth::kU8, DistWidth::kU16, DistWidth::kU32}) {
    TargetDistanceCache cache(g, 8, {}, width);
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&cache, &reference, &failures, t] {
        std::vector<DistVecPtr> pins;
        for (NodeId target = 0; target < 20; ++target) {
          if (t % 2 == 0) {
            if (!(*cache.distances_to(target) == reference[target])) {
              failures.fetch_add(1);
            }
            continue;
          }
          const NodeId wave[] = {target, target + 1};
          cache.prefetch_into(wave, pins);
          for (std::size_t i = 0; i < 2; ++i) {
            if (!(*pins[i] == reference[wave[i]])) failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0) << width_token(width);
    EXPECT_LE(cache.resident_targets().size(), cache.capacity());
  }
}

}  // namespace
}  // namespace nav::graph
