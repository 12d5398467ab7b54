#include "core/level_hierarchy.hpp"

#include <gtest/gtest.h>

#include <set>

namespace nav::core {
namespace {

TEST(Level, OddNumbersAreLevelZero) {
  for (const std::uint64_t x : {1ull, 3ull, 5ull, 999ull}) EXPECT_EQ(level(x), 0u);
}

TEST(Level, PowersOfTwo) {
  EXPECT_EQ(level(2), 1u);
  EXPECT_EQ(level(4), 2u);
  EXPECT_EQ(level(1024), 10u);
}

TEST(Level, MixedValues) {
  EXPECT_EQ(level(6), 1u);    // 110
  EXPECT_EQ(level(12), 2u);   // 1100
  EXPECT_EQ(level(40), 3u);   // 101000
}

TEST(Level, RejectsZero) {
  EXPECT_THROW((void)level(0), std::invalid_argument);
}

TEST(Ancestor, ZeroIsSelf) {
  for (const std::uint64_t x : {1ull, 6ull, 40ull, 1023ull}) {
    EXPECT_EQ(ancestor(x, 0), x);
  }
}

TEST(Ancestor, PaperExampleFive) {
  // x = 5 = 101b, k = 0: y(1) = 2 + (bits >= 2) = 6; y(2) = 4; y(3) = 8.
  EXPECT_EQ(ancestor(5, 1), 6u);
  EXPECT_EQ(ancestor(5, 2), 4u);
  EXPECT_EQ(ancestor(5, 3), 8u);
}

TEST(Ancestor, SixGoesToFour) {
  // x = 6 = 110b, k = 1: y(1) = 100b = 4.
  EXPECT_EQ(ancestor(6, 1), 4u);
  EXPECT_EQ(ancestor(6, 2), 8u);
}

TEST(Ancestor, LevelIncreasesByOne) {
  for (std::uint64_t x = 1; x <= 64; ++x) {
    for (std::uint32_t j = 0; j <= 5; ++j) {
      EXPECT_EQ(level(ancestor(x, j)), level(x) + j);
    }
  }
}

TEST(Ancestor, ConsecutiveAncestorsChain) {
  // y(j+1) of x equals y(1) of y(j): the relation forms a tree.
  for (std::uint64_t x = 1; x <= 100; ++x) {
    for (std::uint32_t j = 0; j <= 4; ++j) {
      EXPECT_EQ(ancestor(x, j + 1), ancestor(ancestor(x, j), 1));
    }
  }
}

TEST(AncestorsWithin, CountBoundedByNuMinusLevel) {
  // An index of level k has at most ν - k ancestors in [1, n] (paper §2.2).
  for (const std::uint64_t n : {1ull, 7ull, 8ull, 100ull, 1024ull}) {
    std::uint32_t nu = 0;
    while ((1ull << nu) <= n) ++nu;  // 2^{ν-1} <= n < 2^ν
    for (std::uint64_t x = 1; x <= n; ++x) {
      const auto anc = ancestors_within(x, n);
      EXPECT_GE(anc.size(), 1u) << "x in A(x)";
      EXPECT_EQ(anc.front(), x);
      EXPECT_LE(anc.size(), nu - level(x)) << "x=" << x << " n=" << n;
      std::set<std::uint64_t> distinct(anc.begin(), anc.end());
      EXPECT_EQ(distinct.size(), anc.size());
      for (const auto y : anc) {
        EXPECT_GE(y, 1u);
        EXPECT_LE(y, n);
      }
    }
  }
}

TEST(AncestorsWithin, BinaryTreeStructure) {
  // Among 1..7 the hierarchy is the complete binary tree rooted at 4:
  // leaves 1,3,5,7 (level 0); 2,6 (level 1); 4 (level 2).
  EXPECT_EQ(ancestors_within(1, 7), (std::vector<std::uint64_t>{1, 2, 4}));
  EXPECT_EQ(ancestors_within(3, 7), (std::vector<std::uint64_t>{3, 2, 4}));
  EXPECT_EQ(ancestors_within(5, 7), (std::vector<std::uint64_t>{5, 6, 4}));
  EXPECT_EQ(ancestors_within(7, 7), (std::vector<std::uint64_t>{7, 6, 4}));
  EXPECT_EQ(ancestors_within(4, 7), (std::vector<std::uint64_t>{4}));
}

TEST(AncestorsWithin, NonMonotoneButComplete) {
  // A(5) ∩ [1,8] = {5, 6, 4, 8} — note the dip to 4 before 8.
  EXPECT_EQ(ancestors_within(5, 8), (std::vector<std::uint64_t>{5, 6, 4, 8}));
}

TEST(MaxLevelIndex, SingletonInterval) {
  EXPECT_EQ(max_level_index(5, 5), 5u);
  EXPECT_EQ(max_level_index(8, 8), 8u);
}

TEST(MaxLevelIndex, PicksHighestPowerOfTwoMultiple) {
  EXPECT_EQ(max_level_index(1, 7), 4u);
  EXPECT_EQ(max_level_index(5, 7), 6u);
  EXPECT_EQ(max_level_index(9, 15), 12u);
  EXPECT_EQ(max_level_index(3, 4), 4u);
  EXPECT_EQ(max_level_index(1, 100), 64u);
}

TEST(MaxLevelIndex, ResultIsUniqueMaximum) {
  // Exhaustive check on small intervals: the returned index strictly
  // dominates every other index's level — Theorem 2's L(u) well-definedness.
  for (std::uint64_t lo = 1; lo <= 40; ++lo) {
    for (std::uint64_t hi = lo; hi <= 40; ++hi) {
      const auto best = max_level_index(lo, hi);
      ASSERT_GE(best, lo);
      ASSERT_LE(best, hi);
      for (std::uint64_t x = lo; x <= hi; ++x) {
        if (x != best) {
          EXPECT_LT(level(x), level(best)) << lo << ".." << hi;
        }
      }
    }
  }
}

TEST(MaxLevelIndex, RejectsBadInterval) {
  EXPECT_THROW((void)max_level_index(0, 5), std::invalid_argument);
  EXPECT_THROW((void)max_level_index(6, 5), std::invalid_argument);
}

}  // namespace
}  // namespace nav::core
