#include "runtime/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "runtime/rng.hpp"

namespace nav {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stderr_mean(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMeanAndVariance) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, left, right;
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double() * 10.0;
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStats, CiShrinksWithSamples) {
  RunningStats small, large;
  Rng rng(11);
  for (int i = 0; i < 10; ++i) small.add(rng.next_double());
  for (int i = 0; i < 1000; ++i) large.add(rng.next_double());
  EXPECT_GT(small.ci_halfwidth(), large.ci_halfwidth());
}

TEST(RunningStats, CiLevelMonotone) {
  RunningStats s;
  Rng rng(12);
  for (int i = 0; i < 100; ++i) s.add(rng.next_double());
  EXPECT_LT(s.ci_halfwidth(0.90), s.ci_halfwidth(0.95));
  EXPECT_LT(s.ci_halfwidth(0.95), s.ci_halfwidth(0.99));
}

TEST(Percentile, KnownQuantiles) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.0);
}

TEST(Percentile, InterpolatesBetweenValues) {
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 0.35), 3.5);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW((void)percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, 1.5), std::invalid_argument);
}

TEST(QuantileSummary, MatchesPercentileOnUnsortedInput) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(static_cast<double>(i));
  const auto summary = summarize(xs);
  EXPECT_EQ(summary.count, 100u);
  EXPECT_DOUBLE_EQ(summary.mean, 50.5);
  EXPECT_DOUBLE_EQ(summary.min, 1.0);
  EXPECT_DOUBLE_EQ(summary.max, 100.0);
  EXPECT_DOUBLE_EQ(summary.p50, percentile(xs, 0.50));
  EXPECT_DOUBLE_EQ(summary.p90, percentile(xs, 0.90));
  EXPECT_DOUBLE_EQ(summary.p95, percentile(xs, 0.95));
  EXPECT_DOUBLE_EQ(summary.p99, percentile(xs, 0.99));
}

TEST(QuantileSummary, EmptySampleIsAllZero) {
  const auto summary = summarize({});
  EXPECT_EQ(summary.count, 0u);
  EXPECT_DOUBLE_EQ(summary.mean, 0.0);
  EXPECT_DOUBLE_EQ(summary.p99, 0.0);
}

TEST(HistogramPercentile, InterpolatesInsideBins) {
  // 100 samples uniform over [0, 10) in 10 bins: the histogram percentile
  // must land within a bin width of the exact order statistic.
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) / 10.0);
  EXPECT_NEAR(h.percentile(0.5), 5.0, 1.0);
  EXPECT_NEAR(h.percentile(0.95), 9.5, 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 10.0);
}

TEST(HistogramPercentile, ResolvesOverflowAndUnderflowToTheEdges) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);  // underflow
  h.add(0.5);
  h.add(9.0);  // overflow
  EXPECT_DOUBLE_EQ(h.percentile(0.01), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 1.0);
  Histogram empty(0.0, 1.0, 4);
  EXPECT_THROW((void)empty.percentile(0.5), std::invalid_argument);
  EXPECT_THROW((void)h.percentile(1.5), std::invalid_argument);
}

TEST(HistogramPercentile, EmptyHistogramThrowsForEveryQ) {
  const Histogram empty(0.0, 10.0, 8);
  EXPECT_THROW((void)empty.percentile(0.0), std::invalid_argument);
  EXPECT_THROW((void)empty.percentile(0.5), std::invalid_argument);
  EXPECT_THROW((void)empty.percentile(1.0), std::invalid_argument);
}

TEST(HistogramPercentile, SingleSampleInterpolatesAcrossItsBin) {
  // One sample in bin [4, 6): the estimator only knows the bin, so the
  // percentile sweeps linearly across that bin as q goes 0 -> 1.
  Histogram h(0.0, 10.0, 5);
  h.add(5.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);  // q=0 pins to lo by convention
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 5.0);  // bin midpoint
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 6.0);  // bin upper edge
}

TEST(HistogramPercentile, AllSamplesInOneBinStayInsideThatBin) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(3.5);  // every sample lands in [3, 4)
  EXPECT_DOUBLE_EQ(h.percentile(0.25), 3.25);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 3.5);
  EXPECT_DOUBLE_EQ(h.percentile(0.75), 3.75);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 4.0);
}

TEST(HistogramPercentile, OutOfRangeSamplesClampToBounds) {
  // Samples beyond [lo, hi) never enter a bin; the percentile resolves the
  // underflow mass to lo and the overflow mass to hi instead of extrapolating.
  Histogram h(0.0, 1.0, 4);
  for (int i = 0; i < 10; ++i) h.add(-1e9);
  for (int i = 0; i < 10; ++i) h.add(+1e9);
  EXPECT_EQ(h.underflow(), 10u);
  EXPECT_EQ(h.overflow(), 10u);
  EXPECT_EQ(h.total(), 20u);
  EXPECT_DOUBLE_EQ(h.percentile(0.25), 0.0);  // inside the underflow mass
  EXPECT_DOUBLE_EQ(h.percentile(0.75), 1.0);  // inside the overflow mass
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1.0);
}

TEST(Histogram, CountsFallInRightBins) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(5.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.bin_count(5), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, UnderOverflow) {
  Histogram h(0.0, 1.0, 4);
  h.add(-0.1);
  h.add(1.0);  // hi is exclusive
  h.add(2.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
}

TEST(Histogram, BinBoundaries) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
}

TEST(Histogram, RenderMentionsCounts) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  const auto s = h.render(10);
  EXPECT_NE(s.find('#'), std::string::npos);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(PowerFit, RecoversExactPowerLaw) {
  // y = 3 * x^0.5
  std::vector<double> xs, ys;
  for (double x = 10; x <= 1e6; x *= 10) {
    xs.push_back(x);
    ys.push_back(3.0 * std::sqrt(x));
  }
  const auto fit = fit_power_law(xs, ys);
  EXPECT_NEAR(fit.slope, 0.5, 1e-9);
  EXPECT_NEAR(std::exp(fit.intercept), 3.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(PowerFit, RecoversCubeRoot) {
  std::vector<double> xs, ys;
  for (double x = 2; x <= (1 << 20); x *= 2) {
    xs.push_back(x);
    ys.push_back(std::cbrt(x));
  }
  const auto fit = fit_power_law(xs, ys);
  EXPECT_NEAR(fit.slope, 1.0 / 3.0, 1e-9);
}

TEST(PowerFit, FlatLineHasZeroSlope) {
  const auto fit = fit_power_law({1, 10, 100, 1000}, {5, 5, 5, 5});
  EXPECT_NEAR(fit.slope, 0.0, 1e-12);
}

TEST(PowerFit, IgnoresNonPositivePoints) {
  const auto fit =
      fit_power_law({-1, 0, 10, 100, 1000}, {1, 1, 10, 100, 1000});
  EXPECT_NEAR(fit.slope, 1.0, 1e-9);
}

TEST(PowerFit, TooFewPointsGivesZero) {
  const auto fit = fit_power_law({10}, {5});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
}

}  // namespace
}  // namespace nav
