// Source-bounded sweeps and the cache rows they leave. A sweep with a stop
// set labels B(t, D + 1), D = the deepest stop node, and nothing else; every
// kernel (scalar, direction-optimizing with real bottom-up flips, ParallelBfs
// at several worker counts) must agree with the complete reference row there
// and read kInfDist beyond. The TargetDistanceCache then serves such rows
// only to requests they cover, upgrades the rest to complete rows once, and
// never answers a point query from beyond a row's exact depth — also while
// sourced waves race distances_to on one target (this suite runs under
// TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/bfs_engine.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/families.hpp"
#include "graph/generators.hpp"
#include "support/bfs_reference.hpp"

namespace nav::graph {
namespace {

/// What a sweep with stop set `stop` must return: the complete row cut to
/// d <= D + 1, or the complete row when `stop` is empty or holds a node the
/// source cannot reach.
struct Bounded {
  std::vector<Dist> row;
  Dist exact_through = kInfDist;
};

Bounded expected_bounded(const std::vector<Dist>& full,
                         std::span<const NodeId> stop) {
  Bounded expect{full, kInfDist};
  if (stop.empty()) return expect;
  Dist deepest = 0;
  for (const NodeId s : stop) {
    if (full[s] == kInfDist) return expect;
    deepest = std::max(deepest, full[s]);
  }
  bool at_limit = false;
  for (Dist& d : expect.row) {
    if (d == kInfDist) continue;
    at_limit = at_limit || d == deepest + 1;
    if (d > deepest + 1) d = kInfDist;
  }
  // The sweep reports D + 1 when level D + 1 has nodes; when the frontier
  // runs out first, the row is complete.
  if (at_limit) expect.exact_through = deepest + 1;
  return expect;
}

/// Stop sets for one source: near, far, mixed, the source itself, and
/// random picks — deterministic in the seed.
std::vector<std::vector<NodeId>> stop_sets(const Graph& g, NodeId source,
                                           Rng& rng) {
  const NodeId n = g.num_nodes();
  const auto full = bfs_distances_reference(g, source);
  NodeId far = source;
  for (NodeId v = 0; v < n; ++v) {
    if (full[v] != kInfDist && (full[far] == kInfDist || full[v] > full[far])) {
      far = v;
    }
  }
  std::vector<std::vector<NodeId>> sets = {{}, {source}, {far}};
  for (int k = 0; k < 4; ++k) {
    std::vector<NodeId> pick;
    for (int j = 0; j < 1 + 2 * k; ++j) {
      pick.push_back(static_cast<NodeId>(random_index(rng, n)));
    }
    sets.push_back(std::move(pick));
  }
  return sets;
}

std::vector<std::pair<std::string, Graph>> bounded_graphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  for (const FamilySpec& spec : all_families()) {
    Rng rng(0xB0DD);
    graphs.emplace_back(spec.name, spec.make(700, rng));
  }
  // Disconnected: a stop node in the other component forces a full sweep.
  graphs.emplace_back("disconnected", Graph(600, [] {
                        std::vector<std::pair<NodeId, NodeId>> edges;
                        for (NodeId v = 1; v < 300; ++v) edges.push_back({v - 1, v});
                        for (NodeId v = 301; v < 600; ++v) edges.push_back({v - 1, v});
                        return edges;
                      }()));
  return graphs;
}

TEST(SourceBoundedSweep, ScalarMatchesCutRowOnEveryFamily) {
  BfsWorkspace ws;
  std::size_t truncated = 0;
  for (const auto& [name, g] : bounded_graphs()) {
    Rng rng(0x5CA1);
    std::vector<Dist> out(g.num_nodes());
    for (const NodeId t : {NodeId{0}, g.num_nodes() / 2, g.num_nodes() - 1}) {
      const auto full = bfs_distances_reference(g, t);
      for (const auto& stop : stop_sets(g, t, rng)) {
        const Bounded expect = expected_bounded(full, stop);
        const Dist got = ws.distances_into_scalar(g, t, out, kInfDist, stop);
        ASSERT_EQ(out, expect.row) << name << " t=" << t;
        EXPECT_EQ(got, expect.exact_through) << name << " t=" << t;
        truncated += got != kInfDist ? 1 : 0;
      }
    }
  }
  EXPECT_GE(truncated, 40u);
}

TEST(SourceBoundedSweep, RadiusAndStopTakeTheTighterLimit) {
  const Graph g = make_path(100);
  BfsWorkspace ws;
  std::vector<Dist> out(100);
  const NodeId far[] = {90};
  EXPECT_EQ(ws.distances_into_scalar(g, 0, out, 10, far), 10u);
  EXPECT_EQ(out, bfs_distances_reference(g, 0, 10));
  const NodeId near[] = {4};
  EXPECT_EQ(ws.distances_into_scalar(g, 0, out, 50, near), 5u);
  EXPECT_EQ(out, bfs_distances_reference(g, 0, 5));
  // A radius the frontier runs out before reports a complete row, and so
  // does one the dispatcher promotes (>= n - 1).
  EXPECT_EQ(ws.distances_into_scalar(g, 0, out, 150), kInfDist);
  EXPECT_EQ(ws.distances_into(g, 0, out, 99), kInfDist);
  EXPECT_EQ(out, bfs_distances_reference(g, 0));
}

TEST(SourceBoundedSweep, DirectionOptimizingMatchesCutRowThroughFlips) {
  // gnp and hypercube flip bottom-up within a few levels, so far stop nodes
  // make bounded sweeps that end during or after bottom-up levels.
  Rng graph_rng(0xF1F1);
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("hypercube12", make_hypercube(12));
  graphs.emplace_back("gnp4096", make_connected_gnp(4096, 8.0 / 4096.0,
                                                    graph_rng));
  graphs.emplace_back("torus64", make_torus2d(64, 64));
  BfsWorkspace ws;
  std::uint64_t bounded_flip_levels = 0;
  for (const auto& [name, g] : graphs) {
    Rng rng(0xD10F);
    std::vector<Dist> out(g.num_nodes());
    for (const NodeId t : {NodeId{0}, NodeId{1234}, g.num_nodes() - 1}) {
      const auto full = bfs_distances_reference(g, t);
      for (const auto& stop : stop_sets(g, t, rng)) {
        const Bounded expect = expected_bounded(full, stop);
        const std::uint64_t before = ws.bottom_up_levels();
        const Dist got = ws.distances_into(g, t, out, kInfDist, stop);
        ASSERT_EQ(ws.last_sweep_kind(),
                  BfsWorkspace::SweepKind::kDirectionOptimizing);
        ASSERT_EQ(out, expect.row) << name << " t=" << t;
        EXPECT_EQ(got, expect.exact_through) << name << " t=" << t;
        if (got != kInfDist) bounded_flip_levels += ws.bottom_up_levels() - before;
      }
    }
  }
  EXPECT_GT(bounded_flip_levels, 0u);
}

TEST(SourceBoundedSweep, ParallelMatchesCutRowAtOneTwoAndFourWorkers) {
  auto graphs = bounded_graphs();
  Rng graph_rng(0xAB12);
  graphs.emplace_back("hypercube11", make_hypercube(11));
  graphs.emplace_back("gnp2000", make_connected_gnp(2000, 8.0 / 2000.0,
                                                    graph_rng));
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ParallelPolicy policy;
    policy.num_workers = workers;
    policy.serial_frontier_cutoff = 1;  // every level runs on the team
    policy.min_diropt_nodes = 1;
    ParallelBfs sweep(policy);
    for (const auto& [name, g] : graphs) {
      Rng rng(0x9A7 + workers);
      std::vector<Dist> out(g.num_nodes());
      for (const NodeId t : {NodeId{0}, g.num_nodes() / 3}) {
        const auto full = bfs_distances_reference(g, t);
        for (const auto& stop : stop_sets(g, t, rng)) {
          const Bounded expect = expected_bounded(full, stop);
          const Dist got = sweep.distances_into(g, t, out, kInfDist, stop);
          ASSERT_EQ(out, expect.row)
              << name << " t=" << t << " workers=" << workers;
          EXPECT_EQ(got, expect.exact_through)
              << name << " t=" << t << " workers=" << workers;
        }
      }
    }
  }
}

// ---- the cache --------------------------------------------------------------

using Sources = std::vector<std::span<const NodeId>>;

TEST(SourcedCache, HitOrUpgrade) {
  const Graph g = make_grid2d(30, 30);  // corner 0 has eccentricity 58
  const auto full = bfs_distances_reference(g, 0);
  TargetDistanceCache cache(g, 4);
  std::vector<DistVecPtr> pins;
  const NodeId target[] = {0};

  // A miss sweeps only as deep as its sources: d(31, 0) = 2, so the row is
  // exact through depth 3.
  const NodeId near[] = {31};
  cache.prefetch_sourced_into(target, Sources{near}, pins);
  EXPECT_EQ(cache.misses(), 1u);
  const NodeId near_stop[] = {31};
  EXPECT_TRUE(*pins[0] == expected_bounded(full, near_stop).row);

  // Covered (row[s] < 3): a hit on the truncated row.
  const NodeId covered[] = {1, 30, 2};
  cache.prefetch_sourced_into(target, Sources{covered}, pins);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // Not covered (d(3, 0) = 3 is the row's last level): an upgrade to the
  // complete row, counted as a miss.
  const NodeId deeper[] = {3};
  cache.prefetch_sourced_into(target, Sources{deeper}, pins);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_TRUE(*pins[0] == full);

  // Complete rows serve everything: no second upgrade.
  const NodeId farthest[] = {899};
  cache.prefetch_sourced_into(target, Sources{farthest}, pins);
  cache.prefetch_into(target, pins);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_TRUE(*pins[0] == full);

  // An unsourced wave on a truncated resident row upgrades it too.
  const NodeId other[] = {450};
  const NodeId other_near[] = {451};
  cache.prefetch_sourced_into(other, Sources{other_near}, pins);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.peek(450), nullptr);
  cache.prefetch_into(other, pins);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_TRUE(*pins[0] == bfs_distances_reference(g, 450));
  EXPECT_LE(cache.resident_targets().size(), cache.capacity());
}

TEST(SourcedCache, DuplicateTargetsMergeSourceLists) {
  const Graph g = make_path(200);
  const auto full = bfs_distances_reference(g, 100);
  TargetDistanceCache cache(g, 4);
  std::vector<DistVecPtr> pins;
  const NodeId targets[] = {100, 100, 100};
  const NodeId a[] = {101};
  const NodeId b[] = {130, 99};
  const NodeId c[] = {95};
  cache.prefetch_sourced_into(targets, Sources{a, b, c}, pins);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);  // the duplicates share the first row
  const NodeId merged[] = {101, 130, 99, 95};
  EXPECT_TRUE(*pins[0] == expected_bounded(full, merged).row);
  EXPECT_EQ(pins[0], pins[1]);
  EXPECT_EQ(pins[0], pins[2]);

  // One occurrence asking for the complete row makes the merge complete.
  const NodeId fresh[] = {10, 10};
  const NodeId d[] = {11};
  cache.prefetch_sourced_into(fresh, Sources{d, {}}, pins);
  EXPECT_TRUE(*pins[0] == bfs_distances_reference(g, 10));
  EXPECT_NE(cache.peek(10), nullptr);
}

TEST(SourcedCache, PointQueriesNeverReadPastExactThrough) {
  const Graph g = make_torus2d(20, 20);
  const auto full = bfs_distances_reference(g, 0);
  for (const auto width : {DistWidth::kU8, DistWidth::kU16, DistWidth::kU32}) {
    TargetDistanceCache cache(g, 4, {}, width);
    std::vector<DistVecPtr> pins;
    const NodeId target[] = {0};
    const NodeId near[] = {21};  // d = 2: exact through depth 3
    cache.prefetch_sourced_into(target, Sources{near}, pins);
    EXPECT_TRUE(*pins[0] == expected_bounded(full, near).row)
        << width_token(width);
    // peek hands out complete rows only.
    EXPECT_EQ(cache.peek(0), nullptr) << width_token(width);
    // A labelled entry is exact: a hit, no BFS.
    EXPECT_EQ(cache.distance(1, 0), 1u);
    EXPECT_EQ(cache.distance(3, 0), 3u);
    EXPECT_EQ(cache.misses(), 1u) << width_token(width);
    // An entry past exact_through upgrades the row instead of reading
    // kInfDist.
    EXPECT_EQ(cache.distance(210, 0), full[210]) << width_token(width);
    EXPECT_EQ(cache.misses(), 2u) << width_token(width);
    ASSERT_NE(cache.peek(0), nullptr);
    EXPECT_TRUE(*cache.peek(0) == full) << width_token(width);

    // distances_to upgrades a truncated row as well.
    const NodeId other[] = {7};
    cache.prefetch_sourced_into(other, Sources{near}, pins);
    EXPECT_EQ(cache.misses(), 3u);
    EXPECT_TRUE(*cache.distances_to(7) == bfs_distances_reference(g, 7))
        << width_token(width);
    EXPECT_EQ(cache.misses(), 4u);
    EXPECT_EQ(cache.distance(217, 7), bfs_distances_reference(g, 7)[217]);
    EXPECT_EQ(cache.misses(), 4u);
  }
}

TEST(SourcedCache, NarrowWidthsHoldShallowRowsButUpgradesStillSaturate) {
  // A path's complete row overflows u8 (u16), but a row bounded near the
  // target fits; upgrading it to the complete row must throw as a complete
  // miss always has.
  for (const auto& [width, n] :
       {std::pair{DistWidth::kU8, NodeId{600}},
        std::pair{DistWidth::kU16, NodeId{70000}}}) {
    const Graph g = make_path(n);
    TargetDistanceCache cache(g, 2, {}, width);
    std::vector<DistVecPtr> pins;
    const NodeId target[] = {0};
    const NodeId near[] = {40};
    cache.prefetch_sourced_into(target, Sources{near}, pins);
    EXPECT_TRUE(*pins[0] ==
                expected_bounded(bfs_distances_reference(g, 0), near).row)
        << width_token(width);
    EXPECT_EQ(cache.distance(41, 0), 41u);
    const NodeId far[] = {n - 1};
    EXPECT_THROW(cache.prefetch_sourced_into(target, Sources{far}, pins),
                 std::invalid_argument)
        << width_token(width);
    EXPECT_THROW((void)cache.distances_to(0), std::invalid_argument);
    EXPECT_THROW((void)cache.distance(n - 1, 0), std::invalid_argument);
  }
}

TEST(SourcedCache, ConcurrentSourcedWavesRaceDistancesTo) {
  // Four threads hammer three targets on a small cache: two run sourced
  // waves with varying depths (misses, hits, upgrades, and pass-3 installs
  // that find a racer's row too shallow or deep enough), two call
  // distances_to (upgrades racing installs). Every pinned row must be exact
  // on the ball its sources need, every distances_to row complete.
  const Graph g = make_torus2d(16, 16);
  const NodeId targets[] = {0, 100, 200};
  std::vector<std::vector<Dist>> full;
  for (const NodeId t : targets) full.push_back(bfs_distances_reference(g, t));
  for (const auto width : {DistWidth::kU8, DistWidth::kU16, DistWidth::kU32}) {
    TargetDistanceCache cache(g, 2, {}, width);
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int th = 0; th < 4; ++th) {
      threads.emplace_back([&, th] {
        Rng rng(0x7A5 + th);
        std::vector<DistVecPtr> pins;
        for (int round = 0; round < 150; ++round) {
          const std::size_t k = random_index(rng, 3);
          const NodeId t = targets[k];
          if (th % 2 == 1) {
            if (!(*cache.distances_to(t) == full[k])) failures.fetch_add(1);
            continue;
          }
          const NodeId s = static_cast<NodeId>(random_index(rng, 256));
          const NodeId wave[] = {t};
          const NodeId src[] = {s};
          cache.prefetch_sourced_into(wave, Sources{src}, pins);
          const Dist keep = full[k][s] + 1;
          for (NodeId v = 0; v < 256; ++v) {
            if (full[k][v] <= keep && (*pins[0])[v] != full[k][v]) {
              failures.fetch_add(1);
            }
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(failures.load(), 0) << width_token(width);
    EXPECT_LE(cache.resident_targets().size(), cache.capacity());
  }
}

}  // namespace
}  // namespace nav::graph
