// test_probability_rows.cpp — properties of exact distribution evaluation.
//
// probability_row(u) is the backbone of the exact analysis: it must (a) agree
// with the scalar probability(u, v), (b) form a sub-distribution, and (c)
// predict empirical sampling frequencies. Parameterized over the exactly-
// evaluable schemes × representative families.
#include <gtest/gtest.h>

#include <map>

#include "core/scheme_factory.hpp"
#include "graph/families.hpp"
#include "runtime/rng.hpp"

namespace nav {
namespace {

using Param = std::tuple<std::string, std::string>;

class ProbabilityRowTest : public ::testing::TestWithParam<Param> {};

TEST_P(ProbabilityRowTest, RowMatchesScalarAndSubDistribution) {
  const auto& [spec, family_name] = GetParam();
  Rng rng(0xbead);
  const auto g = graph::family(family_name).make(96, rng);
  const auto scheme = core::make_scheme(spec, g, rng);
  ASSERT_NE(scheme, nullptr);

  for (graph::NodeId u = 0; u < g.num_nodes(); u += 31) {
    const auto row = scheme->probability_row(u);
    ASSERT_EQ(row.size(), g.num_nodes());
    double total = 0.0;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_GE(row[v], 0.0) << spec << "/" << family_name;
      EXPECT_NEAR(row[v], scheme->probability(u, v), 1e-9)
          << spec << "/" << family_name << " u=" << u << " v=" << v;
      total += row[v];
    }
    EXPECT_LE(total, 1.0 + 1e-6) << spec << "/" << family_name;
  }
}

TEST_P(ProbabilityRowTest, EmpiricalFrequenciesMatchRow) {
  const auto& [spec, family_name] = GetParam();
  Rng rng(0xfeed);
  const auto g = graph::family(family_name).make(48, rng);
  const auto scheme = core::make_scheme(spec, g, rng);
  ASSERT_NE(scheme, nullptr);

  const graph::NodeId u = g.num_nodes() / 2;
  const auto row = scheme->probability_row(u);
  constexpr int kDraws = 60000;
  std::map<graph::NodeId, int> counts;
  int none = 0;
  Rng draw_rng(0xd0);
  for (int i = 0; i < kDraws; ++i) {
    const auto c = scheme->sample_contact(u, draw_rng);
    if (c == core::kNoContact) ++none;
    else ++counts[c];
  }
  double total_row = 0.0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(counts[v] / static_cast<double>(kDraws), row[v], 0.015)
        << spec << "/" << family_name << " v=" << v;
    total_row += row[v];
  }
  EXPECT_NEAR(none / static_cast<double>(kDraws), 1.0 - total_row, 0.015);
}

std::vector<Param> grid() {
  const std::vector<std::string> schemes = {"uniform", "ml",  "ml-labelU",
                                            "ball",    "rank", "kleinberg:1.5",
                                            "growth"};
  const std::vector<std::string> families = {"path", "torus2d", "random_tree",
                                             "ring_of_cliques"};
  std::vector<Param> out;
  for (const auto& s : schemes)
    for (const auto& f : families) out.emplace_back(s, f);
  return out;
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param);
  for (auto& ch : name) {
    if (ch == '-' || ch == ':' || ch == '.') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Grid, ProbabilityRowTest, ::testing::ValuesIn(grid()),
                         param_name);

}  // namespace
}  // namespace nav
