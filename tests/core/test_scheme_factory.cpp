#include "core/scheme_factory.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace nav::core {
namespace {

TEST(SchemeFactory, NoneIsNull) {
  const auto g = graph::make_path(8);
  Rng rng(1);
  EXPECT_EQ(make_scheme("none", g, rng), nullptr);
}

TEST(SchemeFactory, BuildsEveryStandardSpec) {
  const auto g = graph::make_path(32);
  Rng rng(2);
  for (const auto& spec :
       {"uniform", "ball", "ml", "ml-labelU", "ml-A-only", "ml-U-only",
        "ml-random-label", "rank", "kleinberg:2.0", "ball-fixed:3"}) {
    const auto scheme = make_scheme(spec, g, rng);
    ASSERT_NE(scheme, nullptr) << spec;
    EXPECT_EQ(scheme->num_nodes(), 32u) << spec;
    Rng sample_rng(3);
    const auto c = scheme->sample_contact(0, sample_rng);
    EXPECT_TRUE(c == kNoContact || c < 32u) << spec;
  }
}

TEST(SchemeFactory, KleinbergParsesAlpha) {
  const auto g = graph::make_path(16);
  Rng rng(4);
  const auto scheme = make_scheme("kleinberg:1.5", g, rng);
  EXPECT_NE(scheme->name().find("1.50"), std::string::npos);
}

TEST(SchemeFactory, UnknownSpecThrows) {
  const auto g = graph::make_path(8);
  Rng rng(5);
  EXPECT_THROW(make_scheme("definitely-not-a-scheme", g, rng),
               std::invalid_argument);
}

// Malformed numeric arguments fail with std::invalid_argument naming the
// spec: trailing garbage, overflow, an empty token, a sign on k.
void expect_spec_rejected(const std::string& spec) {
  const auto g = graph::make_path(8);
  Rng rng(8);
  try {
    (void)make_scheme(spec, g, rng);
    ADD_FAILURE() << spec << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(spec), std::string::npos)
        << spec << ": " << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << spec << " threw the wrong type: " << e.what();
  }
}

TEST(SchemeFactory, KleinbergRejectsTrailingGarbage) {
  expect_spec_rejected("kleinberg:2abc");
}

TEST(SchemeFactory, KleinbergRejectsOverflow) {
  expect_spec_rejected("kleinberg:1e999");
}

TEST(SchemeFactory, BallFixedRejectsTrailingGarbage) {
  expect_spec_rejected("ball-fixed:3x");
}

TEST(SchemeFactory, BallFixedRejectsEmptyLevel) {
  expect_spec_rejected("ball-fixed:");
}

TEST(SchemeFactory, BallFixedRejectsNegativeLevel) {
  expect_spec_rejected("ball-fixed:-1");
}

TEST(SchemeFactory, BallFixedZeroClampsToOne) {
  const auto g = graph::make_path(16);
  Rng rng(9);
  EXPECT_EQ(make_scheme("ball-fixed:0", g, rng)->name(), "ball-fixed-k1");
}

TEST(SchemeFactory, StandardSpecsNonEmpty) {
  const auto specs = standard_scheme_specs();
  EXPECT_GE(specs.size(), 3u);
  const auto g = graph::make_path(16);
  Rng rng(6);
  for (const auto& spec : specs) {
    EXPECT_NE(make_scheme(spec, g, rng), nullptr) << spec;
  }
}

TEST(SchemeFactory, RandomLabelVariantDeterministicGivenRng) {
  const auto g = graph::make_path(16);
  Rng a(7), b(7);
  const auto s1 = make_scheme("ml-random-label", g, a);
  const auto s2 = make_scheme("ml-random-label", g, b);
  // Same rng seed -> same random labeling -> identical probabilities.
  for (graph::NodeId v = 0; v < 16; ++v) {
    EXPECT_DOUBLE_EQ(s1->probability(3, v), s2->probability(3, v));
  }
}

}  // namespace
}  // namespace nav::core
