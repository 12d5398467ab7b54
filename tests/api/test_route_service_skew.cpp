// test_route_service_skew.cpp — pair-granular scheduling under skewed
// demand: when one hot target holds most of a batch, the parallel route
// phase spreads that target's pairs across lanes, and every result bit must
// still equal the single-lane (parallel = false) run — including pairs that
// route through a fallback-router slot and tolerated unreachable pairs
// sharing the same wave, and, with no fallback tier, rowless dead-target
// pairs reported kFailed under the same tolerate_unreachable posture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "api/route_service.hpp"
#include "core/ball_scheme.hpp"
#include "graph/distance_oracle.hpp"
#include "resilience/fault_spec.hpp"
#include "routing/router_factory.hpp"

namespace nav::api {
namespace {

using graph::NodeId;
using Pair = std::pair<NodeId, NodeId>;

constexpr NodeId kSide = 16;                  // torus component: 256 nodes
constexpr NodeId kTorus = kSide * kSide;
constexpr NodeId kTail = 40;                  // path component: 40 nodes
constexpr NodeId kHot = 5;                    // the hot target
constexpr NodeId kDead = 200;                 // always-failing target

/// A 16×16 torus plus a disjoint 40-node path: pairs across the two
/// components are unreachable.
graph::Graph torus_plus_path() {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId r = 0; r < kSide; ++r) {
    for (NodeId c = 0; c < kSide; ++c) {
      const NodeId v = r * kSide + c;
      edges.push_back({v, r * kSide + (c + 1) % kSide});
      edges.push_back({v, ((r + 1) % kSide) * kSide + c});
    }
  }
  for (NodeId v = kTorus + 1; v < kTorus + kTail; ++v) {
    edges.push_back({v - 1, v});
  }
  return graph::Graph(kTorus + kTail, edges);
}

/// An exact oracle whose `dead` targets fail every attempt — a fixed,
/// schedule-independent fault, so in every execution mode the fallback tier
/// serves them, or, without one, they fail.
class DeadTargetOracle final : public graph::DistanceOracle {
 public:
  DeadTargetOracle(const graph::Graph& g, std::vector<NodeId> dead)
      : base_(g, 64), dead_(std::move(dead)) {}

  [[nodiscard]] graph::Dist distance(NodeId u, NodeId target) const override {
    check(target);
    return base_.distance(u, target);
  }
  [[nodiscard]] graph::DistVecPtr distances_to(NodeId target) const override {
    check(target);
    return base_.distances_to(target);
  }

 private:
  void check(NodeId target) const {
    if (std::find(dead_.begin(), dead_.end(), target) != dead_.end()) {
      throw resilience::TransientOracleError({target});
    }
  }

  graph::TargetDistanceCache base_;
  std::vector<NodeId> dead_;
};

/// 256 pairs: ~80% to the hot target, the rest spread over a few cold
/// targets (one dead, one in the path component); sources range over both
/// components, so some pairs of every shard are unreachable.
std::vector<Pair> skewed_pairs() {
  const NodeId n = kTorus + kTail;
  const NodeId cold[] = {kDead, 17, 131, kTorus + 7};
  std::vector<Pair> pairs;
  Rng rng(0x5CE7);
  for (std::size_t i = 0; i < 256; ++i) {
    const NodeId t = random_index(rng, 5) == 0 ? cold[random_index(rng, 4)]
                                                : kHot;
    auto s = static_cast<NodeId>(random_index(rng, n));
    if (s == t) s = (s + 1) % n;
    pairs.emplace_back(s, t);
  }
  return pairs;
}

RouteReport run(const graph::Graph& g, const core::AugmentationScheme& scheme,
                const std::vector<Pair>& pairs, bool parallel,
                std::size_t max_pinned_targets, bool with_fallback = true) {
  // A fresh stack per run: cold caches, no state carried between modes.
  const DeadTargetOracle oracle(g, {kDead});
  const auto router = routing::make_router("greedy", g, oracle);
  const graph::TargetDistanceCache fallback_oracle(g, 64);
  const auto fallback_router = routing::make_router("greedy", g, fallback_oracle);
  RouteServiceOptions options;
  options.parallel = parallel;
  options.max_pinned_targets = max_pinned_targets;
  options.tolerate_unreachable = true;
  if (with_fallback) {
    options.resilience.fallback_oracle = &fallback_oracle;
    options.resilience.fallback_router = fallback_router.get();
  }
  const RouteService service(g, oracle, &scheme, *router, options);
  return service.route_batch_report(pairs, Rng(0xB0B));
}

void expect_same_report(const RouteReport& parallel, const RouteReport& serial,
                        std::size_t wave) {
  ASSERT_EQ(parallel.results.size(), serial.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    const auto& a = parallel.results[i];
    const auto& b = serial.results[i];
    EXPECT_EQ(a.steps, b.steps) << "wave=" << wave << " pair " << i;
    EXPECT_EQ(a.long_links_used, b.long_links_used) << i;
    EXPECT_EQ(a.initial_distance, b.initial_distance) << i;
    EXPECT_EQ(a.reached, b.reached) << i;
  }
  EXPECT_EQ(parallel.status, serial.status) << "wave=" << wave;
  EXPECT_EQ(parallel.fallback_pairs, serial.fallback_pairs);
  EXPECT_EQ(parallel.exact_pairs, serial.exact_pairs);
  EXPECT_EQ(parallel.degraded_pairs, serial.degraded_pairs);
  EXPECT_EQ(parallel.failed_pairs, serial.failed_pairs);
}

TEST(RouteServiceSkew, HotTargetParallelBitIdenticalToSingleLane) {
  const auto g = torus_plus_path();
  const core::BallScheme scheme(g);
  const auto pairs = skewed_pairs();
  const auto hot = static_cast<std::size_t>(
      std::count_if(pairs.begin(), pairs.end(),
                    [](const Pair& p) { return p.second == kHot; }));
  ASSERT_GT(hot * 2, pairs.size()) << "one target must hold most pairs";

  for (const std::size_t wave : {std::size_t{512}, std::size_t{2}}) {
    const auto serial = run(g, scheme, pairs, false, wave);
    // The batch exercises every slot kind in one wave: primary, fallback,
    // and tolerated unreachable pairs.
    ASSERT_GT(serial.fallback_pairs, 0u);
    std::size_t unreached = 0;
    for (const auto& r : serial.results) unreached += r.reached ? 0 : 1;
    ASSERT_GT(unreached, 0u);
    ASSERT_GT(serial.exact_pairs, pairs.size() / 2);

    for (int round = 0; round < 3; ++round) {
      expect_same_report(run(g, scheme, pairs, true, wave), serial, wave);
    }
  }
}

TEST(RouteServiceSkew, ToleratePostureWithoutFallbackReportsBothKinds) {
  // One flag, two kinds of unroutable pair in the same batch: with no
  // fallback tier the dead target's pairs have no row at all (kFailed),
  // while pairs whose source sits in the other component are unreachable on
  // a live row (kDegraded). Neither throws, and the parallel run still
  // matches the single lane bit for bit.
  const auto g = torus_plus_path();
  const core::BallScheme scheme(g);
  const auto pairs = skewed_pairs();

  for (const std::size_t wave : {std::size_t{512}, std::size_t{2}}) {
    const auto serial = run(g, scheme, pairs, false, wave, false);
    EXPECT_EQ(serial.fallback_pairs, 0u);
    std::size_t dead = 0;
    std::size_t cut_off = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto& r = serial.results[i];
      if (pairs[i].second == kDead) {
        ++dead;
        EXPECT_EQ(serial.status[i], DegradationStatus::kFailed) << i;
        EXPECT_FALSE(r.reached) << i;
        EXPECT_EQ(r.initial_distance, graph::kInfDist) << i;
        EXPECT_EQ(r.steps, 0u) << i;
      } else if (r.initial_distance == graph::kInfDist) {
        ++cut_off;
        EXPECT_EQ(serial.status[i], DegradationStatus::kDegraded) << i;
        EXPECT_FALSE(r.reached) << i;
      } else {
        EXPECT_EQ(serial.status[i], DegradationStatus::kExact) << i;
        EXPECT_TRUE(r.reached) << i;
      }
    }
    ASSERT_GT(dead, 0u);
    ASSERT_GT(cut_off, 0u);
    EXPECT_EQ(serial.failed_pairs, dead);
    EXPECT_EQ(serial.degraded_pairs, cut_off);
    EXPECT_EQ(serial.exact_pairs + serial.degraded_pairs + serial.failed_pairs,
              pairs.size());

    for (int round = 0; round < 3; ++round) {
      expect_same_report(run(g, scheme, pairs, true, wave, false), serial,
                         wave);
    }
  }
}

}  // namespace
}  // namespace nav::api
