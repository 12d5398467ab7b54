// Differential coverage for the ball scheme's prefix draw: BallScheme draws
// through a landmark-prefilled, lazily filled |B(u, 2^k)| table and
// BfsWorkspace::nth_in_order, and must stay bit-identical to a sampler that
// materialises every ball — whether the table is cold, warm, partially warm,
// or filling concurrently.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/ball_scheme.hpp"
#include "graph/bfs_engine.hpp"
#include "graph/generators.hpp"
#include "runtime/worker_team.hpp"
#include "support/bfs_reference.hpp"

namespace nav::core {
namespace {

using graph::Dist;
using graph::Graph;
using graph::NodeId;

/// The materialising sampler: a uniform draw from the whole ball, with a
/// ball equal to V drawn as a node id (the scheme's whole-graph contract).
NodeId reference_from_ball(const Graph& g, NodeId u, std::uint32_t k,
                           Rng& rng) {
  const NodeId n = g.num_nodes();
  const Dist radius = Dist{1} << k;
  if (radius >= n) return random_index(rng, n);
  const auto ball = graph::ball_reference(g, u, radius);
  if (ball.size() == n) return random_index(rng, n);
  return ball[random_index(rng, ball.size())];
}

NodeId reference_contact(const Graph& g, std::uint32_t levels, NodeId u,
                         Rng& rng) {
  const auto k = 1 + static_cast<std::uint32_t>(rng.next_below(levels));
  return reference_from_ball(g, u, k, rng);
}

Graph two_paths(NodeId half) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v < half; ++v) edges.push_back({v - 1, v});
  for (NodeId v = half + 1; v < 2 * half; ++v) edges.push_back({v - 1, v});
  return Graph(2 * half, edges);
}

std::vector<std::pair<std::string, Graph>> sampler_graphs() {
  Rng rng(0xBA11);
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("path", graph::make_path(300));
  graphs.emplace_back("cycle", graph::make_cycle(200));
  graphs.emplace_back("star", graph::make_star(150));
  graphs.emplace_back("balanced_tree", graph::make_balanced_tree(255));
  graphs.emplace_back("grid2d", graph::make_grid2d(17, 17));
  graphs.emplace_back("torus2d", graph::make_torus2d(16, 16));
  graphs.emplace_back("hypercube", graph::make_hypercube(8));
  graphs.emplace_back("gnp", graph::make_connected_gnp(250, 5.0 / 250.0, rng));
  graphs.emplace_back("random_tree", graph::make_random_tree(220, rng));
  graphs.emplace_back("lollipop", graph::make_lollipop(12, 150));
  graphs.emplace_back("disconnected", two_paths(90));
  graphs.emplace_back("single_node", Graph(1, {}));
  return graphs;
}

/// Draws `per_node` contacts from every node on one stream.
std::vector<NodeId> scheme_stream(const BallScheme& scheme, std::uint64_t seed,
                                  int per_node) {
  Rng rng(seed);
  std::vector<NodeId> out;
  for (int r = 0; r < per_node; ++r) {
    for (NodeId u = 0; u < scheme.num_nodes(); ++u) {
      out.push_back(scheme.sample_contact(u, rng));
    }
  }
  return out;
}

std::vector<NodeId> reference_stream(const Graph& g, std::uint32_t levels,
                                     std::uint64_t seed, int per_node) {
  Rng rng(seed);
  std::vector<NodeId> out;
  for (int r = 0; r < per_node; ++r) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      out.push_back(reference_contact(g, levels, u, rng));
    }
  }
  return out;
}

TEST(BallPrefixDraw, ColdWarmAndPartialTablesMatchReference) {
  for (const auto& [name, g] : sampler_graphs()) {
    // Cold: the first pass records sizes, later passes draw prefixes.
    const BallScheme cold(g);
    const auto expect = reference_stream(g, cold.levels(), 11, 3);
    EXPECT_EQ(scheme_stream(cold, 11, 3), expect) << name << " cold";

    // Warm: every (u, k) the stream visits is already recorded.
    EXPECT_EQ(scheme_stream(cold, 11, 3), expect) << name << " warm";

    // Partially warm: an unrelated stream filled a scattered subset first.
    const BallScheme partial(g);
    Rng other(99);
    for (NodeId u = 0; u < g.num_nodes(); u += 3) {
      (void)partial.sample_contact(u, other);
    }
    EXPECT_EQ(scheme_stream(partial, 11, 3), expect) << name << " partial";
  }
}

TEST(BallPrefixDraw, FixedLevelVariantMatchesReference) {
  for (const auto& [name, g] : sampler_graphs()) {
    for (const std::uint32_t k : {1u, 2u, 3u, 5u}) {
      const auto fixed = BallScheme::make_fixed_level(g, k);
      for (int pass = 0; pass < 2; ++pass) {  // cold, then warm
        Rng rng(7 + k);
        Rng ref_rng(7 + k);
        for (NodeId u = 0; u < g.num_nodes(); ++u) {
          for (int d = 0; d < 2; ++d) {
            ASSERT_EQ(fixed->sample_contact(u, rng),
                      reference_from_ball(g, u, k, ref_rng))
                << name << " k=" << k << " u=" << u << " pass=" << pass;
          }
        }
      }
    }
  }
}

TEST(BallPrefixDraw, CachedSizesMatchBallSizes) {
  // Every table entry equals the true |B_k(u)|, and the draw stream must
  // write entries beyond the landmark prefill on every graph where a fresh
  // scheme still leaves a level below the 2^k >= n shortcut unknown. Star
  // has none: its landmark is the centre, so ecc(u) <= 2 = 2^1 prefills
  // every level of every node.
  for (const auto& [name, g] : sampler_graphs()) {
    const BallScheme fresh(g);
    const BallScheme scheme(g);
    (void)scheme_stream(scheme, 5, 4);
    std::size_t recorded = 0;
    bool unprefilled = false;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const auto sizes = scheme.ball_sizes(u);
      for (std::uint32_t k = 1; k <= scheme.levels(); ++k) {
        const bool prefilled = fresh.cached_ball_size(u, k) != 0;
        if (!prefilled && (Dist{1} << k) < g.num_nodes()) unprefilled = true;
        const std::uint32_t cached = scheme.cached_ball_size(u, k);
        if (cached == 0) continue;
        if (!prefilled) ++recorded;
        EXPECT_EQ(cached, sizes[k]) << name << " u=" << u << " k=" << k;
      }
    }
    if (unprefilled) {
      EXPECT_GT(recorded, 0u) << name << ": the stream must fill the table";
    }
  }
}

TEST(BallPrefixDraw, LandmarkPrefillIsSoundAndExact) {
  // A fresh scheme's table holds only the landmark prefill: every non-zero
  // entry is a whole-graph ball. On vertex-transitive graphs ecc(u) =
  // ecc(0) and d(u, 0) <= ecc(0), so every level with 2^k >= 2·ecc(u) must
  // be prefilled; a disconnected graph has no bound and gets nothing.
  for (const auto& [name, g] : sampler_graphs()) {
    const BallScheme scheme(g);
    const NodeId n = g.num_nodes();
    const bool transitive = name == "torus2d" || name == "hypercube";
    std::size_t prefilled = 0;
    for (NodeId u = 0; u < n; ++u) {
      const auto sizes = scheme.ball_sizes(u);
      const Dist ecc = graph::local_bfs_workspace().eccentricity(g, u);
      for (std::uint32_t k = 1; k <= scheme.levels(); ++k) {
        const std::uint32_t cached = scheme.cached_ball_size(u, k);
        if (transitive && (Dist{1} << k) >= 2 * ecc) {
          EXPECT_EQ(cached, n) << name << " u=" << u << " k=" << k;
        }
        if (cached == 0) continue;
        ++prefilled;
        EXPECT_EQ(cached, n) << name << " u=" << u << " k=" << k;
        EXPECT_EQ(cached, sizes[k]) << name << " u=" << u << " k=" << k;
      }
    }
    if (name == "disconnected") {
      EXPECT_EQ(prefilled, 0u) << "a disconnected graph has no bound";
    } else {
      EXPECT_GT(prefilled, 0u) << name;
    }
  }
}

TEST(BallPrefixDraw, WholeGraphBallRecordsEveryCoveringLevel) {
  // Path of 100 from its middle node 50: ecc = 50. A first draw at k = 6
  // (radius 64 < n) exhausts the graph and must record n for every level
  // whose radius covers 50 — k = 6 and 7 — and nothing below.
  const auto g = graph::make_path(100);
  const BallScheme scheme(g);
  ASSERT_EQ(scheme.levels(), 7u);
  for (std::uint64_t seed = 0;; ++seed) {
    Rng rng(seed);
    Rng peek = rng;
    if (1 + peek.next_below(scheme.levels()) != 6) continue;
    (void)scheme.sample_contact(50, rng);
    break;
  }
  EXPECT_EQ(scheme.cached_ball_size(50, 6), 100u);
  EXPECT_EQ(scheme.cached_ball_size(50, 7), 100u);
  for (std::uint32_t k = 1; k <= 5; ++k) {
    EXPECT_EQ(scheme.cached_ball_size(50, k), 0u) << "k=" << k;
  }
}

TEST(BallPrefixDraw, ProbabilityRowConsistentWithCachedSizes) {
  // φ_u(v) = (1/L) Σ_{k : d(u,v) <= 2^k} 1/|B_k(u)| evaluated from the
  // table the draws filled must equal probability_row(u).
  const auto g = graph::make_grid2d(12, 12);
  const BallScheme scheme(g);
  (void)scheme_stream(scheme, 21, 40);
  const NodeId n = g.num_nodes();
  std::size_t checked = 0;
  for (NodeId u = 0; u < n; ++u) {
    std::vector<double> sizes(scheme.levels() + 1, 0.0);
    bool complete = true;
    for (std::uint32_t k = 1; k <= scheme.levels(); ++k) {
      const std::uint32_t cached = scheme.cached_ball_size(u, k);
      if ((Dist{1} << k) >= n) {
        sizes[k] = static_cast<double>(n);
      } else if (cached != 0) {
        sizes[k] = static_cast<double>(cached);
      } else {
        complete = false;
      }
    }
    if (!complete) continue;
    ++checked;
    const auto dist = graph::bfs_distances_reference(g, u);
    const auto row = scheme.probability_row(u);
    double total = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      double p = 0.0;
      for (std::uint32_t k = 1; k <= scheme.levels(); ++k) {
        if (dist[v] <= (Dist{1} << k)) p += 1.0 / sizes[k];
      }
      p /= static_cast<double>(scheme.levels());
      EXPECT_NEAR(row[v], p, 1e-12) << "u=" << u << " v=" << v;
      total += row[v];
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << "u=" << u;
  }
  EXPECT_GT(checked, n / 2) << "the stream must warm most rows completely";
}

TEST(BallPrefixDraw, ConcurrentFillMatchesSerialDraws) {
  // Worker lanes race to fill one scheme's size table while drawing; every
  // draw uses its own child stream, so the results must equal a serial run
  // on a fresh scheme, index for index.
  const auto g = graph::make_torus2d(24, 24);
  constexpr std::size_t kTasks = 4096;
  constexpr std::size_t kDraws = 3;  // per task, from one centre
  const Rng root(0x7AB1E);
  const auto draw = [&](const BallScheme& scheme, std::size_t i,
                        std::vector<NodeId>& out) {
    Rng rng = root.child(i);
    const auto u = static_cast<NodeId>((i * 37) % g.num_nodes());
    for (std::size_t d = 0; d < kDraws; ++d) {
      out[i * kDraws + d] = scheme.sample_contact(u, rng);
    }
  };

  const BallScheme serial_scheme(g);
  std::vector<NodeId> serial(kTasks * kDraws);
  for (std::size_t i = 0; i < kTasks; ++i) draw(serial_scheme, i, serial);

  for (int round = 0; round < 3; ++round) {
    const BallScheme shared(g);
    std::vector<NodeId> parallel(kTasks * kDraws);
    nav::parallel_for(0, kTasks,
                      [&](std::size_t i) { draw(shared, i, parallel); });
    ASSERT_EQ(parallel, serial) << "round " << round;
  }
}

}  // namespace
}  // namespace nav::core
