// test_metrics.cpp — behaviour of the obs metrics registry: registration,
// dedup, sharded aggregation, snapshot math, and the text writers. The
// multithreaded cases double as the TSan surface for the wait-free shard
// protocol (CI runs this binary under -fsanitize=thread).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace nav::obs {
namespace {

TEST(Registry, CounterStartsAtZeroAndAccumulates) {
  Registry reg;
  const Counter c = reg.counter("requests");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Registry, SameNameReturnsSameCell) {
  Registry reg;
  const Counter a = reg.counter("shared");
  const Counter b = reg.counter("shared");
  a.inc(3);
  b.inc(4);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(b.value(), 7u);
  EXPECT_EQ(reg.metric_count(), 1u);
}

TEST(Registry, KindMismatchThrows) {
  Registry reg;
  (void)reg.counter("x");
  EXPECT_THROW((void)reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("x", 0, 1, 4), std::invalid_argument);
}

TEST(Registry, HistogramShapeMismatchThrows) {
  Registry reg;
  (void)reg.histogram("h", 0.0, 10.0, 5);
  EXPECT_NO_THROW((void)reg.histogram("h", 0.0, 10.0, 5));
  EXPECT_THROW((void)reg.histogram("h", 0.0, 20.0, 5), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("h", 0.0, 10.0, 6), std::invalid_argument);
}

TEST(Registry, DefaultConstructedHandlesAreNoOps) {
  const Counter c;
  const Gauge g;
  const HistogramHandle h;
  c.inc();
  g.set(7);
  g.add(1);
  g.set_max(99);
  h.observe(0.5);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
}

TEST(Registry, GaugeSetAddSubSetMax) {
  Registry reg;
  const Gauge g = reg.gauge("depth");
  g.set(10);
  EXPECT_EQ(g.value(), 10);
  g.add(5);
  g.sub(3);
  EXPECT_EQ(g.value(), 12);
  const Gauge peak = reg.gauge("peak");
  peak.set_max(12);
  peak.set_max(7);  // below: no change
  EXPECT_EQ(peak.value(), 12);
  peak.set_max(40);
  EXPECT_EQ(peak.value(), 40);
  // Gauges can go negative (they are signed instantaneous values).
  g.sub(100);
  EXPECT_EQ(g.value(), -88);
}

TEST(Registry, HistogramBinsUnderflowOverflowSum) {
  Registry reg;
  const HistogramHandle h = reg.histogram("lat", 0.0, 10.0, 10);
  h.observe(-1.0);   // underflow
  h.observe(0.0);    // bin 0
  h.observe(5.5);    // bin 5
  h.observe(9.999);  // bin 9
  h.observe(10.0);   // overflow (hi is exclusive)
  h.observe(25.0);   // overflow
  const auto snap = reg.scrape();
  const auto* hv = snap.find_histogram("lat");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->underflow, 1u);
  EXPECT_EQ(hv->overflow, 2u);
  EXPECT_EQ(hv->counts[0], 1u);
  EXPECT_EQ(hv->counts[5], 1u);
  EXPECT_EQ(hv->counts[9], 1u);
  EXPECT_EQ(hv->total(), 6u);
  EXPECT_DOUBLE_EQ(hv->sum, -1.0 + 0.0 + 5.5 + 9.999 + 10.0 + 25.0);
  EXPECT_DOUBLE_EQ(hv->mean(), hv->sum / 6.0);
}

TEST(Registry, ScrapeIsRegistrationOrdered) {
  Registry reg;
  (void)reg.counter("b");
  (void)reg.counter("a");
  (void)reg.gauge("z");
  (void)reg.histogram("m", 0, 1, 2);
  const auto snap = reg.scrape();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "b");
  EXPECT_EQ(snap.counters[1].name, "a");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].name, "z");
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "m");
}

TEST(Registry, FindReturnsNullForUnknownNames) {
  Registry reg;
  (void)reg.counter("present");
  const auto snap = reg.scrape();
  EXPECT_NE(snap.find_counter("present"), nullptr);
  EXPECT_EQ(snap.find_counter("absent"), nullptr);
  EXPECT_EQ(snap.find_gauge("present"), nullptr);
  EXPECT_EQ(snap.find_histogram("present"), nullptr);
}

TEST(Registry, ManyMetricsForceShardGrowth) {
  // Register past any initial shard capacity AFTER the thread already
  // attached: the grow-by-replacement path must preserve earlier counts.
  Registry reg;
  const Counter first = reg.counter("first");
  first.inc(5);  // attaches this thread's shard at small capacity
  std::vector<Counter> later;
  for (int i = 0; i < 300; ++i) {
    std::string name = "c";
    name.append(std::to_string(i));
    later.push_back(reg.counter(name));
  }
  later.back().inc(9);  // out-of-range cell: triggers shard growth
  first.inc(1);
  EXPECT_EQ(first.value(), 6u);
  EXPECT_EQ(later.back().value(), 9u);
  EXPECT_EQ(later.front().value(), 0u);
}

TEST(Registry, CountsFromExitedThreadsPersist) {
  Registry reg;
  const Counter c = reg.counter("work");
  std::thread t([&] { c.inc(17); });
  t.join();
  // The exited thread's shard stays in the registry: counts are monotone.
  EXPECT_EQ(c.value(), 17u);
  c.inc(3);
  EXPECT_EQ(c.value(), 20u);
}

TEST(Registry, ConcurrentIncrementsSumExactly) {
  // The TSan centrepiece: N threads hammer the same counter and histogram
  // through their own shards; the join gives happens-before, so the scrape
  // is exact.
  Registry reg;
  const Counter c = reg.counter("hits");
  const HistogramHandle h = reg.histogram("vals", 0.0, 100.0, 10);
  const Gauge g = reg.gauge("peak");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(static_cast<double>(i % 100));
        g.set_max(t * kPerThread + i);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto snap = reg.scrape();
  const auto* hv = snap.find_histogram("vals");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->total(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.find_gauge("peak")->value,
            (kThreads - 1) * kPerThread + kPerThread - 1);
}

TEST(Registry, ConcurrentRegistrationAndIncrement) {
  // Threads race registration (cold path) against increments (hot path);
  // nothing here asserts totals beyond each thread's own counter, which is
  // exact after join.
  Registry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> expect(kThreads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Counter mine = reg.counter("own" + std::to_string(t));
      const Counter shared = reg.counter("shared");
      for (int i = 0; i < 1000; ++i) {
        mine.inc();
        shared.inc();
      }
      expect[t] = 1000;
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = reg.scrape();
  for (int t = 0; t < kThreads; ++t) {
    const auto* cv = snap.find_counter("own" + std::to_string(t));
    ASSERT_NE(cv, nullptr);
    EXPECT_EQ(cv->value, expect[t]);
  }
  EXPECT_EQ(snap.find_counter("shared")->value, 8000u);
}

TEST(Registry, ScrapeRacingWritersIsSafe) {
  // A scrape concurrent with increments must be race-free (TSan) and may
  // only under-report in-flight bumps — never tear or over-report beyond
  // the final exact total.
  Registry reg;
  const Counter c = reg.counter("streamed");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) c.inc();
  });
  std::uint64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t now = c.value();
    EXPECT_GE(now, last);  // monotone across scrapes
    last = now;
  }
  stop.store(true);
  writer.join();
  EXPECT_GE(c.value(), last);
}

TEST(SnapshotPercentile, MirrorsStreamingHistogram) {
  Registry reg;
  const HistogramHandle h = reg.histogram("p", 0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.observe(static_cast<double>(i));
  const auto snap = reg.scrape();
  const auto* hv = snap.find_histogram("p");
  ASSERT_NE(hv, nullptr);
  // Median of 0..99 with unit bins interpolates inside bin 49/50.
  EXPECT_NEAR(hv->percentile(0.5), 50.0, 1.0);
  EXPECT_NEAR(hv->percentile(0.0), 0.0, 1.0);
  EXPECT_NEAR(hv->percentile(1.0), 100.0, 1.0);
}

TEST(SnapshotPercentile, EmptyReturnsLoNotThrow) {
  Registry reg;
  (void)reg.histogram("empty", 5.0, 10.0, 4);
  const auto snap = reg.scrape();
  const auto* hv = snap.find_histogram("empty");
  ASSERT_NE(hv, nullptr);
  EXPECT_DOUBLE_EQ(hv->percentile(0.5), 5.0);
}

TEST(SnapshotPercentile, UnderflowAndOverflowResolveToBounds) {
  Registry reg;
  const HistogramHandle h = reg.histogram("uo", 0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.observe(-5.0);  // all underflow
  const auto snap = reg.scrape();
  EXPECT_DOUBLE_EQ(snap.find_histogram("uo")->percentile(0.5), 0.0);

  Registry reg2;
  const HistogramHandle h2 = reg2.histogram("uo", 0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h2.observe(50.0);  // all overflow
  const auto snap2 = reg2.scrape();
  EXPECT_DOUBLE_EQ(snap2.find_histogram("uo")->percentile(0.9), 10.0);
}

TEST(PrometheusWriter, EmitsTypedSanitisedSeries) {
  Registry reg;
  reg.counter("route_service.submitted_pairs").inc(12);
  reg.gauge("queue.depth").set(3);
  const HistogramHandle h = reg.histogram("exec.ms", 0.0, 10.0, 2);
  h.observe(1.0);
  h.observe(6.0);
  h.observe(42.0);  // overflow -> only the +Inf bucket
  std::ostringstream out;
  write_prometheus(reg.scrape(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE nav_route_service_submitted_pairs counter"),
            std::string::npos);
  EXPECT_NE(text.find("nav_route_service_submitted_pairs 12"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE nav_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("nav_queue_depth 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE nav_exec_ms histogram"), std::string::npos);
  // Cumulative buckets: le="5" holds 1 sample, le="10" holds 2, +Inf all 3.
  EXPECT_NE(text.find("nav_exec_ms_bucket{le=\"5\"} 1"), std::string::npos);
  EXPECT_NE(text.find("nav_exec_ms_bucket{le=\"10\"} 2"), std::string::npos);
  EXPECT_NE(text.find("nav_exec_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("nav_exec_ms_count 3"), std::string::npos);
}

TEST(JsonWriter, EmitsAllThreeSections) {
  Registry reg;
  reg.counter("c1").inc(7);
  reg.gauge("g1").set(-2);
  reg.histogram("h1", 0.0, 4.0, 2).observe(1.0);
  std::ostringstream out;
  write_metrics_json(reg.scrape(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  EXPECT_NE(text.find("\"c1\":7"), std::string::npos);
  EXPECT_NE(text.find("\"g1\":-2"), std::string::npos);
  EXPECT_NE(text.find("\"h1\""), std::string::npos);
  EXPECT_NE(text.find("\"count\":1"), std::string::npos);
}

TEST(DefaultRegistry, IsProcessWideSingleton) {
  Registry& a = default_registry();
  Registry& b = default_registry();
  EXPECT_EQ(&a, &b);
  const Counter c = a.counter("test.default_registry_probe");
  const std::uint64_t before = c.value();
  c.inc();
  EXPECT_EQ(b.counter("test.default_registry_probe").value(), before + 1);
}

}  // namespace
}  // namespace nav::obs
