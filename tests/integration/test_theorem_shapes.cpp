// test_theorem_shapes.cpp — end-to-end checks that each theorem's *shape*
// shows up in simulation at moderate sizes. Tolerances are generous: these
// are asymptotic statements sampled at one or two sizes; the bench suite
// (bench/) measures the full curves.
#include <gtest/gtest.h>

#include <cmath>

#include "core/ball_scheme.hpp"
#include "core/ml_scheme.hpp"
#include "core/name_independent.hpp"
#include "core/scheme_factory.hpp"
#include "core/uniform_scheme.hpp"
#include "decomposition/interval_decomposition.hpp"
#include "graph/diameter.hpp"
#include "graph/families.hpp"
#include "graph/generators.hpp"
#include "graph/interval_model.hpp"
#include "support/trial_reference.hpp"

namespace nav {
namespace {

using core::kNoContact;
using graph::NodeId;

double pair_mean(const graph::Graph& g, const core::AugmentationScheme* scheme,
                 NodeId s, NodeId t, std::size_t resamples, std::uint64_t seed) {
  graph::TargetDistanceCache oracle(g, 8);
  return routing::service_pair_estimate(g, scheme, oracle, s, t, resamples,
                                        Rng(seed))
      .mean_steps;
}

// --- Peleg's O(sqrt n) upper bound for the uniform scheme (paper §1) --------

TEST(TheoremShapes, UniformOnPathIsThetaSqrtN) {
  const NodeId n = 1 << 14;
  const auto g = graph::make_path(n);
  core::UniformScheme scheme(g);
  const double mean = pair_mean(g, &scheme, 0, n - 1, 48, 11);
  const double sqrt_n = std::sqrt(static_cast<double>(n));
  EXPECT_GT(mean, 0.5 * sqrt_n);
  EXPECT_LT(mean, 4.0 * sqrt_n);
}

TEST(TheoremShapes, UniformScalesLikeSqrtAcrossSizes) {
  // mean(4n) / mean(n) ~ 2 for a sqrt curve (ratio well below the 4 of a
  // linear curve).
  const auto small = graph::make_path(1 << 12);
  const auto large = graph::make_path(1 << 14);
  core::UniformScheme s_small(small), s_large(large);
  const double m_small = pair_mean(small, &s_small, 0, (1 << 12) - 1, 48, 12);
  const double m_large = pair_mean(large, &s_large, 0, (1 << 14) - 1, 48, 13);
  const double ratio = m_large / m_small;
  EXPECT_GT(ratio, 1.3);
  EXPECT_LT(ratio, 3.0);
}

// --- Theorem 1: adversarial labeling forces Omega(sqrt n) -------------------

TEST(TheoremShapes, AdversarialPathDefeatsUniformMatrix) {
  const NodeId n = 1 << 12;
  core::UniformMatrix matrix(n);
  Rng rng(21);
  const auto inst = core::make_adversarial_path(matrix, rng);
  core::MatrixScheme scheme(std::make_shared<core::UniformMatrix>(matrix),
                            inst.labeling);
  // s -> t within the sparse segment: expected steps >= alpha * sqrt(n)/3
  // (the segment has essentially no internal shortcut).
  const double mean = pair_mean(inst.path, &scheme, inst.source, inst.target,
                                32, 22);
  const double segment = std::ceil(std::sqrt(static_cast<double>(n)));
  EXPECT_GT(mean, segment / 6.0);  // Thm 1 bound: (|S|/3)·alpha with alpha<1
}

// --- Theorem 2 / Corollary 1: (M,L) is polylog on small-pathshape families --

TEST(TheoremShapes, MLBeatsUniformOnPath) {
  // The polylog-vs-sqrt crossover on the path sits around n ~ 2^16 with the
  // construction's constants ((1+log n)-way hierarchy rows fire slowly), so
  // test at 2^16 with a moderate margin; the bench sweeps show the full gap.
  const NodeId n = 1 << 16;
  const auto g = graph::make_path(n);
  Rng rng(31);
  const auto ml = core::make_scheme("ml", g, rng);
  const auto uniform = core::make_scheme("uniform", g, rng);
  const double ml_mean = pair_mean(g, ml.get(), 0, n - 1, 16, 32);
  const double uniform_mean = pair_mean(g, uniform.get(), 0, n - 1, 16, 33);
  EXPECT_LT(ml_mean, 0.8 * uniform_mean);
  // Polylog bound with a generous constant: ps=1, so c * log^2 n.
  const double log_n = std::log2(static_cast<double>(n));
  EXPECT_LT(ml_mean, 3.0 * log_n * log_n);
}

TEST(TheoremShapes, MLPolylogOnTrees) {
  Rng rng(41);
  const auto g = graph::make_random_tree(1 << 13, rng);
  const auto ml = core::make_scheme("ml", g, rng);
  const auto pp = graph::peripheral_pair(g);
  const double mean = pair_mean(g, ml.get(), pp.a, pp.b, 24, 42);
  const double log_n = std::log2(static_cast<double>(g.num_nodes()));
  // Corollary 1: O(log^3 n); allow a liberal constant.
  EXPECT_LT(mean, 2.0 * log_n * log_n * log_n);
}

TEST(TheoremShapes, MLPolylogOnIntervalGraphs) {
  Rng rng(51);
  const auto model = graph::connected_random_interval_model(1 << 12, rng);
  const auto g = model.to_graph();
  const auto pd = decomp::interval_decomposition(model);
  core::MLScheme scheme(g, pd);
  const auto pp = graph::peripheral_pair(g);
  const double mean = pair_mean(g, &scheme, pp.a, pp.b, 24, 52);
  const double log_n = std::log2(static_cast<double>(g.num_nodes()));
  // Corollary 1: O(log^2 n) for AT-free; allow constant slack.
  EXPECT_LT(mean, 4.0 * log_n * log_n);
}

// --- Theorem 4: the ball scheme beats sqrt(n) -------------------------------

TEST(TheoremShapes, BallSchemeNearCubeRootOnPath) {
  const NodeId n = 1 << 15;
  const auto g = graph::make_path(n);
  core::BallScheme scheme(g);
  const double mean = pair_mean(g, &scheme, 0, n - 1, 24, 61);
  const double cbrt_n = std::cbrt(static_cast<double>(n));
  const double log_n = std::log2(static_cast<double>(n));
  EXPECT_GT(mean, 0.3 * cbrt_n);              // not magically fast
  EXPECT_LT(mean, 3.0 * cbrt_n * log_n);      // Õ(n^{1/3})
}

TEST(TheoremShapes, BallBeatsUniformOnLargePath) {
  const NodeId n = 1 << 15;
  const auto g = graph::make_path(n);
  core::BallScheme ball(g);
  core::UniformScheme uniform(g);
  const double ball_mean = pair_mean(g, &ball, 0, n - 1, 24, 62);
  const double uniform_mean = pair_mean(g, &uniform, 0, n - 1, 24, 63);
  EXPECT_LT(ball_mean, 0.75 * uniform_mean);
}

TEST(TheoremShapes, BallSchemeUniversalAcrossFamilies) {
  // Õ(n^{1/3}) must hold on *every* family (universality); test a spread.
  Rng rng(71);
  for (const auto* name : {"cycle", "grid2d", "random_tree", "torus2d"}) {
    const auto g = graph::family(name).make(1 << 12, rng);
    core::BallScheme scheme(g);
    const auto pp = graph::peripheral_pair(g);
    const double mean = pair_mean(g, &scheme, pp.a, pp.b, 16, 72);
    const double n = static_cast<double>(g.num_nodes());
    const double bound = 4.0 * std::cbrt(n) * std::log2(n);
    EXPECT_LT(mean, bound) << name;
  }
}

// --- Greedy routing invariant: never slower than no augmentation ------------

TEST(TheoremShapes, AugmentationNeverHurts) {
  // Steps <= dist(s,t) for every scheme (distance strictly decreases).
  const auto g = graph::make_comb(64, 63);
  graph::TargetDistanceCache oracle(g, 4);
  const auto pp = graph::peripheral_pair(g);
  Rng rng(81);
  for (const auto& spec : {"uniform", "ml", "ball"}) {
    const auto scheme = core::make_scheme(spec, g, rng);
    const auto est = routing::service_pair_estimate(g, scheme.get(), oracle,
                                                    pp.a, pp.b, 8, Rng(82));
    EXPECT_LE(est.max_steps, static_cast<double>(pp.distance)) << spec;
  }
}

}  // namespace
}  // namespace nav
