// test_fault_spec.cpp — the fault-schedule contract: the clause grammar
// parses exactly, every draw is a pure function of (seed, target, attempt),
// and the stall transform produces valid upper bounds.
#include "resilience/fault_spec.hpp"

#include <gtest/gtest.h>

#include "graph/graph.hpp"

namespace nav::resilience {
namespace {

std::vector<std::string> split(const std::string& spec) {
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const auto colon = spec.find(':', start);
    if (colon == std::string::npos) {
      tokens.push_back(spec.substr(start));
      break;
    }
    tokens.push_back(spec.substr(start, colon - start));
    start = colon + 1;
  }
  return tokens;
}

TEST(FaultSpec, ParsesEveryClauseFamily) {
  const auto spec =
      FaultSpec::parse(split("fail:0.05:stall:0.1:slow:0.2:500:seed:7"),
                       "fail:0.05:stall:0.1:slow:0.2:500:seed:7");
  EXPECT_DOUBLE_EQ(spec.fail_p, 0.05);
  EXPECT_DOUBLE_EQ(spec.stall_p, 0.1);
  EXPECT_DOUBLE_EQ(spec.slow_p, 0.2);
  EXPECT_DOUBLE_EQ(spec.slow_us, 500.0);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_TRUE(spec.any());
}

TEST(FaultSpec, DefaultsAreFaultFree) {
  const FaultSpec spec;
  EXPECT_FALSE(spec.any());
  // No fault family active: nothing stalls, nothing fails, at any attempt.
  for (graph::NodeId t = 0; t < 64; ++t) {
    EXPECT_FALSE(spec.stalled(t));
    EXPECT_FALSE(spec.fails(t, 0));
    EXPECT_FALSE(spec.slow(t, 3));
  }
}

TEST(FaultSpec, RejectsMalformedClauses) {
  for (const auto* bad :
       {"blorp:0.5", "fail", "fail:1.5", "fail:-0.1", "fail:x",
        "stall:0.1:stall:0.2", "slow:0.5", "slow:0.5:-3", "seed:x",
        "fail:0.05:seed"}) {
    EXPECT_THROW((void)FaultSpec::parse(split(bad), bad),
                 std::invalid_argument)
        << bad;
  }
}

TEST(FaultSpec, IdentifiesFaultHeads) {
  EXPECT_TRUE(FaultSpec::is_fault_head("stall"));
  EXPECT_TRUE(FaultSpec::is_fault_head("fail"));
  EXPECT_TRUE(FaultSpec::is_fault_head("slow"));
  EXPECT_TRUE(FaultSpec::is_fault_head("seed"));
  EXPECT_FALSE(FaultSpec::is_fault_head("cache"));
  EXPECT_FALSE(FaultSpec::is_fault_head("64"));
}

TEST(FaultSpec, DrawsAreDeterministicFunctionsOfSeedTargetAttempt) {
  const auto a = FaultSpec::parse(split("fail:0.5:stall:0.5"), "x");
  const auto b = FaultSpec::parse(split("fail:0.5:stall:0.5"), "x");
  for (graph::NodeId t = 0; t < 256; ++t) {
    EXPECT_EQ(a.stalled(t), b.stalled(t)) << t;
    for (std::uint64_t attempt = 0; attempt < 4; ++attempt) {
      EXPECT_EQ(a.fails(t, attempt), b.fails(t, attempt)) << t;
    }
  }
}

TEST(FaultSpec, SeedRekeysTheSchedule) {
  const auto a = FaultSpec::parse(split("stall:0.5"), "x");
  const auto b = FaultSpec::parse(split("stall:0.5:seed:99"), "x");
  std::size_t differs = 0;
  for (graph::NodeId t = 0; t < 512; ++t) {
    if (a.stalled(t) != b.stalled(t)) ++differs;
  }
  EXPECT_GT(differs, 0u);
}

TEST(FaultSpec, StallFractionTracksProbability) {
  const auto spec = FaultSpec::parse(split("stall:0.25"), "x");
  std::size_t stalled = 0;
  const std::size_t n = 4096;
  for (graph::NodeId t = 0; t < n; ++t) {
    if (spec.stalled(t)) ++stalled;
  }
  // Seeded hash membership: the observed fraction should sit near p.
  EXPECT_GT(stalled, n / 8);
  EXPECT_LT(stalled, n / 2);
}

TEST(FaultSpec, FailDrawsAreFreshPerAttempt) {
  // A target that failed attempt k must be able to succeed at attempt k+1 —
  // that per-attempt freshness is what makes bounded retries converge. With
  // p = 0.5, some target must flip between consecutive attempts.
  const auto spec = FaultSpec::parse(split("fail:0.5"), "x");
  bool flipped = false;
  for (graph::NodeId t = 0; t < 128 && !flipped; ++t) {
    flipped = spec.fails(t, 0) != spec.fails(t, 1);
  }
  EXPECT_TRUE(flipped);
}

TEST(FaultSpec, StallTransformIsABoundedUpperBound) {
  const auto spec = FaultSpec::parse(split("stall:1.0"), "x");
  graph::NodeId stalled_target = 0;
  ASSERT_TRUE(spec.stalled(stalled_target));
  for (graph::Dist d = 0; d < 200; ++d) {
    const auto widened = spec.stall_transform(d, stalled_target);
    if (d <= spec.stall_exact_radius) {
      // Within the exact ball the row stays exact (routes that get close
      // still terminate).
      EXPECT_EQ(widened, d) << d;
    } else {
      EXPECT_GE(widened, d) << d;
      EXPECT_LE(widened, d + 1) << d;
    }
  }
  // Infinity passes through untouched.
  EXPECT_EQ(spec.stall_transform(graph::kInfDist, stalled_target),
            graph::kInfDist);
}

TEST(FaultSpec, TransientErrorCarriesTheFailedSubset) {
  const TransientOracleError error({3, 7, 11});
  EXPECT_EQ(error.targets().size(), 3u);
  EXPECT_EQ(error.targets()[1], 7u);
  EXPECT_NE(std::string(error.what()).find("3 target"), std::string::npos);
}

}  // namespace
}  // namespace nav::resilience
