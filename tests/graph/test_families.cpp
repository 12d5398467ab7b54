#include "graph/families.hpp"

#include <gtest/gtest.h>

#include "graph/connectivity.hpp"

namespace nav::graph {
namespace {

TEST(Families, RegistryNonEmptyAndNamed) {
  const auto& fams = all_families();
  EXPECT_GE(fams.size(), 14u);
  for (const auto& f : fams) {
    EXPECT_FALSE(f.name.empty());
    EXPECT_FALSE(f.description.empty());
    EXPECT_TRUE(f.make != nullptr);
  }
}

TEST(Families, LookupByName) {
  EXPECT_EQ(family("path").name, "path");
  EXPECT_TRUE(has_family("torus2d"));
  EXPECT_FALSE(has_family("nope"));
  EXPECT_THROW((void)family("nope"), std::invalid_argument);
}

TEST(Families, DeterministicFamiliesIgnoreRng) {
  for (const auto& f : all_families()) {
    if (f.randomized) continue;
    Rng a(1), b(999);
    const auto g1 = f.make(64, a);
    const auto g2 = f.make(64, b);
    EXPECT_EQ(g1.edge_list(), g2.edge_list()) << f.name;
  }
}

TEST(Families, RandomFamiliesDeterministicGivenSeed) {
  for (const auto& f : all_families()) {
    if (!f.randomized) continue;
    Rng a(7), b(7);
    const auto g1 = f.make(64, a);
    const auto g2 = f.make(64, b);
    EXPECT_EQ(g1.edge_list(), g2.edge_list()) << f.name;
  }
}

// Parameterized: every family must produce a connected graph of roughly the
// requested size at several scales.
class FamilyInstanceTest
    : public ::testing::TestWithParam<std::tuple<std::string, NodeId>> {};

TEST_P(FamilyInstanceTest, ConnectedAndRoughlyRequestedSize) {
  const auto& [name, n] = GetParam();
  const auto& fam = family(name);
  Rng rng(0xfa31);
  const auto g = fam.make(n, rng);
  EXPECT_TRUE(is_connected(g)) << name;
  EXPECT_GE(g.num_nodes(), n / 3) << name;
  EXPECT_LE(g.num_nodes(), static_cast<std::uint64_t>(n) * 3 + 8) << name;
}

std::vector<std::tuple<std::string, NodeId>> family_size_grid() {
  std::vector<std::tuple<std::string, NodeId>> grid;
  for (const auto& f : all_families()) {
    for (const NodeId n : {32u, 128u, 1024u}) {
      grid.emplace_back(f.name, n);
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FamilyInstanceTest, ::testing::ValuesIn(family_size_grid()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, NodeId>>& info) {
      return std::get<0>(info.param) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace nav::graph
