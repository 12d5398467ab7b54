// test_determinism.cpp — the reproducibility contract: one master seed
// determines every number, regardless of thread count or schedule.
#include <gtest/gtest.h>

#include "api/experiment.hpp"
#include "core/scheme_factory.hpp"
#include "graph/families.hpp"
#include "graph/generators.hpp"
#include "graph/oracle_factory.hpp"
#include "support/trial_reference.hpp"

namespace nav {
namespace {

TEST(Determinism, SweepIdenticalAcrossRuns) {
  const auto sweep = [] {
    return api::Experiment::on("cycle")
        .sizes({128, 256})
        .schemes({"uniform", "ball"})
        .pairs(4)
        .resamples(4)
        .seed(2024)
        .run();
  };
  const auto a = sweep();
  const auto b = sweep();
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.cells[i].greedy_diameter, b.cells[i].greedy_diameter)
        << i;
    EXPECT_DOUBLE_EQ(a.cells[i].mean_steps, b.cells[i].mean_steps) << i;
  }
}

TEST(Determinism, PairEstimateIndependentOfParallelism) {
  // RouteService with parallel off and on must give the same estimate on
  // every oracle kind: exact rows (matrix, cache) and the approximate
  // landmark field.
  const auto g = graph::make_path(512);
  Rng rng(5);
  const auto scheme = core::make_scheme("ball", g, rng);
  for (const auto* spec : {"matrix", "cache", "landmark:8"}) {
    const auto oracle = graph::make_oracle(spec, g);
    const auto par = routing::service_pair_estimate(
        g, scheme.get(), *oracle, 0, 511, 24, Rng(6), true);
    const auto seq = routing::service_pair_estimate(
        g, scheme.get(), *oracle, 0, 511, 24, Rng(6), false);
    EXPECT_DOUBLE_EQ(par.mean_steps, seq.mean_steps) << spec;
    EXPECT_DOUBLE_EQ(par.max_steps, seq.max_steps) << spec;
    EXPECT_DOUBLE_EQ(par.ci_halfwidth, seq.ci_halfwidth) << spec;
    EXPECT_DOUBLE_EQ(par.mean_long_links, seq.mean_long_links) << spec;
    EXPECT_EQ(par.distance, seq.distance) << spec;
  }
}

TEST(Determinism, RandomFamiliesReproducible) {
  for (const auto& fam : graph::all_families()) {
    Rng a(42), b(42);
    const auto g1 = fam.make(200, a);
    const auto g2 = fam.make(200, b);
    EXPECT_EQ(g1.edge_list(), g2.edge_list()) << fam.name;
  }
}

TEST(Determinism, SchemeSamplingReproducible) {
  const auto g = graph::make_grid2d(16, 16);
  Rng build(9);
  for (const auto& spec : {"uniform", "ml", "ball", "rank"}) {
    const auto scheme = core::make_scheme(spec, g, build);
    Rng r1(77), r2(77);
    for (int i = 0; i < 64; ++i) {
      const auto u = static_cast<graph::NodeId>(i % g.num_nodes());
      EXPECT_EQ(scheme->sample_contact(u, r1), scheme->sample_contact(u, r2))
          << spec;
    }
  }
}

}  // namespace
}  // namespace nav
