// Coverage for the BFS engine: the basic distance and ball contracts on
// small hand-checked graphs, every workspace kernel pinned bit-identical to
// the pre-engine reference implementations across graph families and radii,
// and the 16-bit epoch machinery surviving wraparound.
#include "graph/bfs_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "support/bfs_reference.hpp"

namespace nav::graph {
namespace {

/// Family grid for the differential sweep: tree-ish, grid-ish, low-diameter,
/// random, and degenerate shapes. Sizes stay small enough for full sweeps
/// per source yet straddle the direction-optimizing gate (n >= 1024).
std::vector<std::pair<std::string, Graph>> differential_graphs() {
  Rng rng(0xD1FF);
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("path", make_path(1500));
  graphs.emplace_back("cycle", make_cycle(1200));
  graphs.emplace_back("star", make_star(1100));
  graphs.emplace_back("balanced_tree", make_balanced_tree(2047));
  graphs.emplace_back("grid2d", make_grid2d(40, 40));
  graphs.emplace_back("torus2d", make_torus2d(36, 36));
  graphs.emplace_back("hypercube", make_hypercube(11));
  graphs.emplace_back("complete", make_complete(64));
  graphs.emplace_back("gnp", make_connected_gnp(1400, 6.0 / 1400.0, rng));
  graphs.emplace_back("random_tree", make_random_tree(1300, rng));
  graphs.emplace_back("lollipop", make_lollipop(40, 1200));
  // Two cliques joined by a long path: a sweep from a clique flips
  // bottom-up, flips back along the path, and flips again in the far clique.
  graphs.emplace_back("barbell", make_barbell(45, 1000));
  graphs.emplace_back("tiny_path", make_path(5));
  // Disconnected: unreached nodes must keep kInfDist in every kernel.
  graphs.emplace_back("disconnected", Graph(1200, [] {
                        std::vector<std::pair<NodeId, NodeId>> edges;
                        for (NodeId v = 1; v < 600; ++v) edges.push_back({v - 1, v});
                        for (NodeId v = 601; v < 1200; ++v) edges.push_back({v - 1, v});
                        return edges;
                      }()));
  return graphs;
}

std::vector<NodeId> sample_sources(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> sources{0, n - 1, n / 2, n / 3};
  sources.resize(std::min<std::size_t>(sources.size(), n));
  return sources;
}

// ---- basic contracts -------------------------------------------------------

TEST(Bfs, PathDistances) {
  const auto g = make_path(5);
  BfsWorkspace ws;
  const auto d = ws.distances(g, 0);
  ASSERT_EQ(d.size(), 5u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(d[v], v);
}

TEST(Bfs, UnreachableIsInf) {
  Graph g(3, {{0, 1}});
  BfsWorkspace ws;
  EXPECT_EQ(ws.distances(g, 0)[2], kInfDist);
}

TEST(Bfs, BoundedStopsAtRadius) {
  const auto g = make_path(10);
  BfsWorkspace ws;
  const auto d = ws.distances(g, 0, 3);
  EXPECT_EQ(d[3], 3u);
  EXPECT_EQ(d[4], kInfDist);
}

TEST(Bfs, BoundedZeroRadiusOnlySource) {
  const auto g = make_path(4);
  BfsWorkspace ws;
  const auto d = ws.distances(g, 2, 0);
  EXPECT_EQ(d[2], 0u);
  EXPECT_EQ(d[1], kInfDist);
  EXPECT_EQ(d[3], kInfDist);
}

TEST(Bfs, RejectsBadSource) {
  const auto g = make_path(3);
  BfsWorkspace ws;
  EXPECT_THROW((void)ws.distances(g, 5), std::invalid_argument);
  EXPECT_THROW((void)ws.ball(g, 5, 1), std::invalid_argument);
}

TEST(Ball, SizesOnPath) {
  const auto g = make_path(100);
  BfsWorkspace ws;
  EXPECT_EQ(ws.ball(g, 50, 0).order.size(), 1u);
  EXPECT_EQ(ws.ball(g, 50, 3).order.size(), 7u);  // 3 left + center + 3 right
  EXPECT_EQ(ws.ball(g, 0, 5).order.size(), 6u);   // one-sided at the endpoint
  EXPECT_EQ(ws.ball(g, 50, 200).order.size(), 100u);  // whole graph
}

TEST(Ball, FirstElementIsCenterAndOrderIsByDistance) {
  const auto g = make_grid2d(5, 5);
  const auto dist = bfs_distances_reference(g, 12);
  BfsWorkspace ws;
  const auto b = ws.ball(g, 12, 2).order;
  EXPECT_EQ(b.front(), 12u);
  for (std::size_t i = 0; i + 1 < b.size(); ++i) {
    EXPECT_LE(dist[b[i]], dist[b[i + 1]]);
  }
}

TEST(Ball, GridBallCountsMatchManhattan) {
  // Interior node of a big grid: |B(u, r)| = 2r^2 + 2r + 1.
  const auto g = make_grid2d(21, 21);
  const NodeId center = 10 * 21 + 10;
  BfsWorkspace ws;
  for (Dist r = 0; r <= 4; ++r) {
    EXPECT_EQ(ws.ball(g, center, r).order.size(), 2u * r * r + 2u * r + 1u)
        << "r=" << r;
  }
}

TEST(FarthestNode, PathEndpoint) {
  const auto g = make_path(8);
  BfsWorkspace ws;
  const auto far = ws.farthest(g, 3);
  EXPECT_EQ(far.node, 7u);
  EXPECT_EQ(far.distance, 4u);
}

// ---- differential coverage -------------------------------------------------

TEST(BfsEngine, DistancesRowMatchesReferenceAcrossGraphs) {
  // One workspace row serves graphs of every size back to back: the span
  // always covers exactly the current graph, whatever a larger graph left
  // behind in the grow-only row.
  BfsWorkspace ws;
  for (const auto& [name, g] : differential_graphs()) {
    for (const NodeId s : sample_sources(g)) {
      for (const Dist radius : {Dist{0}, Dist{3}, kInfDist}) {
        const auto expect = bfs_distances_reference(g, s, radius);
        const auto row = ws.distances(g, s, radius);
        ASSERT_EQ(row.size(), g.num_nodes()) << name;
        EXPECT_TRUE(std::equal(row.begin(), row.end(), expect.begin()))
            << name << " source=" << s << " r=" << radius;
      }
    }
  }
}

TEST(BfsEngine, ScalarKernelMatchesReferenceAllRadii) {
  BfsWorkspace ws;
  for (const auto& [name, g] : differential_graphs()) {
    std::vector<Dist> out(g.num_nodes());
    for (const NodeId s : sample_sources(g)) {
      for (const Dist radius : {Dist{0}, Dist{1}, Dist{3}, Dist{17}, kInfDist}) {
        const auto expect = bfs_distances_reference(g, s, radius);
        ws.distances_into_scalar(g, s, out, radius);
        EXPECT_EQ(out, expect) << name << " source=" << s << " r=" << radius;
      }
    }
  }
}

TEST(BfsEngine, DirectionOptimizingMatchesReference) {
  BfsWorkspace ws;
  for (const auto& [name, g] : differential_graphs()) {
    std::vector<Dist> out(g.num_nodes());
    for (const NodeId s : sample_sources(g)) {
      const auto expect = bfs_distances_reference(g, s);
      ws.distances_into(g, s, out);  // full sweep: direction-optimizing path
      EXPECT_EQ(out, expect) << name << " source=" << s;
    }
  }
}

/// The flip schedule of exact per-level Beamer accounting, derived from the
/// reference distances: a level runs bottom-up once a growing frontier's
/// out-edges exceed unexplored/15, and the sweep flips back once the next
/// frontier stops growing and falls under n/18. The kernel computes this
/// accounting only when a max-degree bound cannot rule a flip out, and must
/// reach exactly these decisions.
struct FlipSchedule {
  std::uint64_t bottom_up_levels = 0;
  std::uint64_t flips = 0;
};

FlipSchedule exact_flip_schedule(const Graph& g, NodeId source) {
  constexpr std::uint64_t kAlpha = 15;
  constexpr std::uint64_t kBeta = 18;
  const auto dist = bfs_distances_reference(g, source);
  std::vector<std::uint64_t> count;  // nodes per level
  std::vector<std::uint64_t> edges;  // out-edges per level
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (dist[v] == kInfDist) continue;
    if (dist[v] >= count.size()) {
      count.resize(dist[v] + 1, 0);
      edges.resize(dist[v] + 1, 0);
    }
    ++count[dist[v]];
    edges[dist[v]] += g.degree(v);
  }
  FlipSchedule schedule;
  std::uint64_t unexplored = 2 * g.num_edges();
  bool bottom_up = false;
  bool growing = true;
  for (std::size_t d = 0; d < count.size(); ++d) {
    if (!bottom_up && growing && edges[d] > unexplored / kAlpha) {
      bottom_up = true;
      ++schedule.flips;
    }
    if (bottom_up) ++schedule.bottom_up_levels;
    unexplored -= edges[d];
    const std::uint64_t next = d + 1 < count.size() ? count[d + 1] : 0;
    growing = next > count[d];
    if (bottom_up && next > 0 && !growing && next < g.num_nodes() / kBeta) {
      bottom_up = false;
    }
  }
  return schedule;
}

TEST(BfsEngine, FlipScheduleMatchesExactAccounting) {
  // Distances are identical under any flip schedule, so only the workspace's
  // bottom-up level count can show a changed decision. Star, lollipop and
  // G(n,p) are irregular, so the kernel's max-degree bound is loose there
  // and the exact on-demand sums decide; on the regular families the bound
  // is the exact test.
  auto graphs = differential_graphs();
  Rng rng(0xF11B);
  graphs.emplace_back("hypercube12", make_hypercube(12));
  graphs.emplace_back("random_regular",
                      make_random_regular(4096, 16, rng));
  graphs.emplace_back("gnp4096", make_connected_gnp(4096, 8.0 / 4096.0, rng));
  BfsWorkspace ws;
  std::size_t flipped_sweeps = 0;
  std::size_t reflipped_sweeps = 0;
  for (const auto& [name, g] : graphs) {
    std::vector<Dist> out(g.num_nodes());
    for (const NodeId s : sample_sources(g)) {
      const std::uint64_t before = ws.bottom_up_levels();
      ws.distances_into(g, s, out);
      const std::uint64_t got = ws.bottom_up_levels() - before;
      FlipSchedule expect;
      if (ws.last_sweep_kind() ==
          BfsWorkspace::SweepKind::kDirectionOptimizing) {
        expect = exact_flip_schedule(g, s);
      }
      EXPECT_EQ(got, expect.bottom_up_levels) << name << " source=" << s;
      EXPECT_EQ(out, bfs_distances_reference(g, s)) << name << " source=" << s;
      if (expect.flips > 0) ++flipped_sweeps;
      if (expect.flips > 1) ++reflipped_sweeps;
    }
  }
  // The grid must exercise the flip, and a flip after a flip back.
  EXPECT_GE(flipped_sweeps, 16u);
  EXPECT_GE(reflipped_sweeps, 1u);
}

TEST(BfsEngine, BallMatchesReferenceOrderExactly) {
  BfsWorkspace ws;
  for (const auto& [name, g] : differential_graphs()) {
    for (const NodeId s : sample_sources(g)) {
      for (const Dist radius : {Dist{0}, Dist{1}, Dist{2}, Dist{5}, Dist{40}}) {
        const auto expect = ball_reference(g, s, radius);
        const auto view = ws.ball(g, s, radius);
        ASSERT_EQ(view.order.size(), expect.size())
            << name << " center=" << s << " r=" << radius;
        EXPECT_TRUE(std::equal(view.order.begin(), view.order.end(),
                               expect.begin()))
            << name << " center=" << s << " r=" << radius;
      }
    }
  }
}

TEST(BfsEngine, NthInOrderMatchesReferenceBallPrefix) {
  // The prefix draw behind the ball scheme: node i of BFS discovery order
  // from the center, whatever radius the ball would have had. Indices are
  // strided (plus both ends) to keep the sweep O(families × |ball|).
  BfsWorkspace ws;
  for (const auto& [name, g] : differential_graphs()) {
    for (const NodeId s : sample_sources(g)) {
      for (const Dist radius :
           {Dist{0}, Dist{1}, Dist{2}, Dist{5}, Dist{40}, kInfDist}) {
        const auto expect = ball_reference(g, s, radius);
        const std::size_t stride = std::max<std::size_t>(1, expect.size() / 37);
        for (std::size_t i = 0; i < expect.size(); i += stride) {
          ASSERT_EQ(ws.nth_in_order(g, s, i), expect[i])
              << name << " center=" << s << " r=" << radius << " i=" << i;
        }
        ASSERT_EQ(ws.nth_in_order(g, s, expect.size() - 1), expect.back())
            << name << " center=" << s << " r=" << radius;
      }
    }
  }
}

TEST(BfsEngine, NthInOrderRejectsIndexBeyondReach) {
  // Two components of 3 nodes: only 3 nodes are reachable from node 0.
  const Graph g(6, std::vector<std::pair<NodeId, NodeId>>{
                       {0, 1}, {1, 2}, {3, 4}, {4, 5}});
  BfsWorkspace ws;
  EXPECT_EQ(ws.nth_in_order(g, 0, 2), 2u);
  EXPECT_THROW((void)ws.nth_in_order(g, 0, 3), std::invalid_argument);
  EXPECT_THROW((void)ws.nth_in_order(g, 6, 0), std::invalid_argument);
  // The workspace stays usable after a rejected call.
  EXPECT_EQ(ws.nth_in_order(g, 4, 1), ball_reference(g, 4, 1)[1]);
}

TEST(BfsEngine, BallWholeGraphDetection) {
  const auto g = make_path(10);
  BfsWorkspace ws;
  // Radius below the eccentricity: not exhausted.
  EXPECT_FALSE(ws.ball(g, 0, 8).whole_graph);
  // Radius exactly the eccentricity of node 0: exhausted at depth 9.
  const auto exact = ws.ball(g, 0, 9);
  EXPECT_TRUE(exact.whole_graph);
  EXPECT_EQ(exact.exhausted_depth, 9u);
  // From the middle, exhaustion happens at the middle node's eccentricity.
  const auto mid = ws.ball(g, 5, 100);
  EXPECT_TRUE(mid.whole_graph);
  EXPECT_EQ(mid.exhausted_depth, 5u);
  EXPECT_EQ(mid.order.size(), 10u);
}

TEST(BfsEngine, EccentricityAndFarthestMatchReference) {
  BfsWorkspace ws;
  for (const auto& [name, g] : differential_graphs()) {
    for (const NodeId s : sample_sources(g)) {
      const auto dist = bfs_distances_reference(g, s);
      Dist ecc = 0;
      FarthestResult far{s, 0};
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (dist[v] != kInfDist && dist[v] > far.distance) far = {v, dist[v]};
        if (dist[v] != kInfDist) ecc = std::max(ecc, dist[v]);
      }
      EXPECT_EQ(ws.eccentricity(g, s), ecc) << name << " source=" << s;
      const auto got = ws.farthest(g, s);
      EXPECT_EQ(got.node, far.node) << name << " source=" << s;
      EXPECT_EQ(got.distance, far.distance) << name << " source=" << s;
    }
  }
}

TEST(BfsEngine, EpochWraparoundStress) {
  // The 16-bit generation counter wraps every 65535 prepares; stale stamps
  // from before the wrap must never read as visited. Drive well past one
  // wrap with balls + marker-channel use on a small graph, checking exact
  // membership at every iteration.
  const auto g = make_grid2d(6, 6);
  BfsWorkspace ws;
  const auto expect_r2 = ball_reference(g, 14, 2);
  bool wrapped = false;
  std::uint16_t last_epoch = 0;
  for (int i = 0; i < 70'000; ++i) {
    const auto view = ws.ball(g, 14, 2);
    ASSERT_EQ(view.order.size(), expect_r2.size()) << "iteration " << i;
    ASSERT_TRUE(
        std::equal(view.order.begin(), view.order.end(), expect_r2.begin()))
        << "iteration " << i;
    if (ws.epoch() < last_epoch) wrapped = true;
    last_epoch = ws.epoch();
    if (i % 9 == 0) {
      // Exercise the marker channel across the same epochs.
      ws.prepare(g.num_nodes());
      ws.mark(3);
      ASSERT_TRUE(ws.marked(3));
      ASSERT_FALSE(ws.marked(4));
      ASSERT_FALSE(ws.visited(3));
    }
  }
  EXPECT_TRUE(wrapped) << "stress must cross at least one epoch wrap";
}

TEST(BfsEngine, WorkspaceGrowsAcrossGraphs) {
  // One workspace serves graphs of different sizes back to back.
  BfsWorkspace ws;
  const auto small = make_path(10);
  const auto big = make_grid2d(30, 30);
  EXPECT_EQ(ws.ball(small, 0, 3).order.size(), 4u);
  EXPECT_EQ(ws.ball(big, 0, 1).order.size(), 3u);
  EXPECT_EQ(ws.ball(small, 9, 2).order.size(), 3u);
  EXPECT_GE(ws.capacity(), 900u);
}

TEST(BfsEngine, KernelsValidateArguments) {
  const auto g = make_path(4);
  BfsWorkspace ws;
  std::vector<Dist> out(4);
  std::vector<Dist> wrong(3);
  EXPECT_THROW(ws.distances_into(g, 9, out), std::invalid_argument);
  EXPECT_THROW(ws.distances_into(g, 0, wrong), std::invalid_argument);
  EXPECT_THROW((void)ws.ball(g, 4, 1), std::invalid_argument);
  EXPECT_THROW((void)ws.eccentricity(g, 7), std::invalid_argument);
  EXPECT_THROW((void)ws.farthest(g, 4), std::invalid_argument);
}

TEST(BfsEngine, SparseDenseCutoverIsExplicit) {
  // The dispatch decision is observable via last_sweep_kind(): radii that
  // cannot bind (>= n-1) are promoted to the unbounded kernel instead of
  // silently degrading to a bounded scan of the whole graph, and the
  // direction-optimizing gate stays pinned to the n/edge thresholds.
  BfsWorkspace ws;
  const auto big = make_grid2d(40, 40);  // clears the diropt gate (n=1600)
  const NodeId n = big.num_nodes();
  std::vector<Dist> out(n);

  ws.distances_into(big, 0, out);
  EXPECT_EQ(ws.last_sweep_kind(),
            BfsWorkspace::SweepKind::kDirectionOptimizing);
  ws.distances_into(big, 0, out, 3);
  EXPECT_EQ(ws.last_sweep_kind(), BfsWorkspace::SweepKind::kScalarBounded);
  // radius n-2 is the largest value that still dispatches bounded...
  ws.distances_into(big, 0, out, static_cast<Dist>(n - 2));
  EXPECT_EQ(ws.last_sweep_kind(), BfsWorkspace::SweepKind::kScalarBounded);
  // ...and n-1 (or anything larger) promotes to the full sweep, with output
  // identical to the bounded semantics it replaces.
  for (const Dist r : {static_cast<Dist>(n - 1), static_cast<Dist>(n),
                       static_cast<Dist>(3 * n)}) {
    ws.distances_into(big, 0, out, r);
    EXPECT_EQ(ws.last_sweep_kind(),
              BfsWorkspace::SweepKind::kDirectionOptimizing)
        << "r=" << r;
    EXPECT_EQ(out, bfs_distances_reference(big, 0, r)) << "r=" << r;
  }

  // Below the gate the full sweep stays scalar — including promoted radii.
  const auto tiny = make_path(64);
  std::vector<Dist> tout(64);
  ws.distances_into(tiny, 0, tout);
  EXPECT_EQ(ws.last_sweep_kind(), BfsWorkspace::SweepKind::kScalarFull);
  ws.distances_into(tiny, 0, tout, 63);  // n-1: promoted, still scalar full
  EXPECT_EQ(ws.last_sweep_kind(), BfsWorkspace::SweepKind::kScalarFull);
  EXPECT_EQ(tout, bfs_distances_reference(tiny, 0));
  ws.distances_into(tiny, 0, tout, 62);  // n-2: binds, bounded
  EXPECT_EQ(ws.last_sweep_kind(), BfsWorkspace::SweepKind::kScalarBounded);
  EXPECT_EQ(tout, bfs_distances_reference(tiny, 0, 62));
}

TEST(BfsEngine, LocalWorkspaceIsPerThread) {
  BfsWorkspace* main_ws = &local_bfs_workspace();
  EXPECT_EQ(main_ws, &local_bfs_workspace());  // stable on one thread
  BfsWorkspace* other_ws = nullptr;
  std::thread([&] { other_ws = &local_bfs_workspace(); }).join();
  EXPECT_NE(main_ws, other_ws);
}

}  // namespace
}  // namespace nav::graph
