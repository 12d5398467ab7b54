// test_route_service.cpp — the batch engine's contract: target sharding and
// batch splitting are pure execution concerns; every result bit matches
// sequential per-pair routing for the same seed.
#include "api/route_service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "api/engine.hpp"
#include "graph/families.hpp"
#include "support/trial_reference.hpp"

namespace nav::api {
namespace {

using Pair = std::pair<graph::NodeId, graph::NodeId>;

std::vector<Pair> mixed_target_pairs(graph::NodeId n, std::size_t count,
                                     std::size_t distinct_targets,
                                     std::uint64_t seed) {
  // Interleaved targets: the worst case for an LRU target cache, the best
  // case for target sharding.
  std::vector<Pair> pairs;
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const auto t = static_cast<graph::NodeId>(i % distinct_targets);
    auto s = static_cast<graph::NodeId>(random_index(rng, n));
    if (s == t) s = (s + 1) % n;
    pairs.emplace_back(s, t);
  }
  return pairs;
}

void expect_same_results(const std::vector<routing::RouteResult>& a,
                         const std::vector<routing::RouteResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].steps, b[i].steps) << i;
    EXPECT_EQ(a[i].long_links_used, b[i].long_links_used) << i;
    EXPECT_EQ(a[i].initial_distance, b[i].initial_distance) << i;
    EXPECT_TRUE(a[i].reached) << i;
  }
}

TEST(RouteService, ShardedBatchBitIdenticalToSequentialRouting) {
  auto engine = NavigationEngine::from_family("grid2d", 400);
  engine.use_scheme("uniform");
  const auto pairs = mixed_target_pairs(engine.graph().num_nodes(), 64, 12, 1);
  const Rng rng(42);

  // Ground truth: one route per pair, request order, no service at all.
  std::vector<routing::RouteResult> expected;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    expected.push_back(engine.route(pairs[i].first, pairs[i].second,
                                    rng.child(i)));
  }

  for (const bool parallel : {false, true}) {
    RouteServiceOptions options;
    options.parallel = parallel;
    const RouteService service(engine, options);
    expect_same_results(service.route_batch(pairs, rng), expected);
  }
}

TEST(RouteService, BatchSplitDoesNotChangeResults) {
  // Splitting one batch into arbitrary sub-batches must not move any pair to
  // a different rng stream: route_jobs with explicit child indices glues the
  // halves back together bit for bit.
  auto engine = NavigationEngine::from_family("cycle", 512);
  engine.use_scheme("ball");
  const auto pairs = mixed_target_pairs(engine.graph().num_nodes(), 48, 7, 2);
  const Rng rng(7);
  const RouteService service(engine);
  const auto whole = service.route_batch(pairs, rng);

  for (const std::size_t split : {1u, 13u, 24u, 47u}) {
    std::vector<RouteJob> head, tail;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      auto& side = (i < split) ? head : tail;
      side.push_back({pairs[i].first, pairs[i].second, rng.child(i)});
    }
    auto glued = service.route_jobs(std::move(head));
    const auto rest = service.route_jobs(std::move(tail));
    glued.insert(glued.end(), rest.begin(), rest.end());
    expect_same_results(glued, whole);
  }
}

TEST(RouteService, ShardingCutsBfsChurnAtCacheOracleSizes) {
  // A small LRU + interleaved targets: one-pair batches in request order
  // thrash (most pairs miss), target shards pay exactly one BFS per distinct
  // target — even in parallel and even across multiple prefetch waves,
  // because shards route through wave-pinned vectors instead of re-querying
  // the oracle.
  Rng graph_rng(3);
  const auto g = graph::family("grid2d").make(400, graph_rng);
  const std::size_t distinct = 16;
  const auto pairs = mixed_target_pairs(g.num_nodes(), 128, distinct, 4);

  const auto run = [&](bool one_pair_batches, bool parallel,
                       std::size_t wave) {
    graph::TargetDistanceCache cache(g, 4);  // capacity << distinct targets
    const auto router = routing::make_router("greedy", g, cache);
    RouteServiceOptions options;
    options.parallel = parallel;
    options.max_pinned_targets = wave;
    const RouteService service(g, cache, nullptr, *router, options);
    const Rng rng(5);
    if (one_pair_batches) {
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        (void)service.route_jobs(
            {{pairs[i].first, pairs[i].second, rng.child(i)}});
      }
    } else {
      (void)service.route_batch(pairs, rng);
    }
    return cache.misses();
  };

  const auto thrashing_misses = run(true, false, 512);
  EXPECT_GT(thrashing_misses, 4 * distinct);
  for (const bool parallel : {false, true}) {
    for (const std::size_t wave : {static_cast<std::size_t>(3),
                                   static_cast<std::size_t>(512)}) {
      EXPECT_EQ(run(false, parallel, wave), distinct)
          << "parallel=" << parallel << " wave=" << wave;
    }
  }
}

TEST(RouteService, ConcurrentRouteBatchCallsBitIdenticalToSerialRouting) {
  // The class contract: safe for concurrent route_batch calls. Two threads
  // share one parallel service over a small LRU cache, so their prefetch
  // waves race on the cache and their pair loops race for the process team
  // (the loser routes on its own thread). Every result must still equal
  // plain serial routing.
  EngineOptions engine_options;
  engine_options.oracle_spec = "cache:8";
  auto engine =
      NavigationEngine::from_family("grid2d", 900, 0x5eed, engine_options);
  engine.use_scheme("ball");
  const std::vector<std::vector<Pair>> batches = {
      mixed_target_pairs(engine.graph().num_nodes(), 96, 24, 11),
      mixed_target_pairs(engine.graph().num_nodes(), 96, 24, 12)};
  const std::vector<Rng> rngs = {Rng(21), Rng(22)};

  std::vector<std::vector<routing::RouteResult>> expected(batches.size());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (std::size_t i = 0; i < batches[b].size(); ++i) {
      expected[b].push_back(engine.route(
          batches[b][i].first, batches[b][i].second, rngs[b].child(i)));
    }
  }

  RouteServiceOptions options;
  options.parallel = true;
  options.max_pinned_targets = 6;  // several prefetch waves per batch
  const RouteService service(engine, options);
  constexpr int kRounds = 4;
  std::vector<std::vector<std::vector<routing::RouteResult>>> got(
      batches.size());
  std::vector<std::thread> callers;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    callers.emplace_back([&, b] {
      for (int round = 0; round < kRounds; ++round) {
        got[b].push_back(service.route_batch(batches[b], rngs[b]));
      }
    });
  }
  for (auto& caller : callers) caller.join();
  for (std::size_t b = 0; b < batches.size(); ++b) {
    ASSERT_EQ(got[b].size(), static_cast<std::size_t>(kRounds));
    for (const auto& results : got[b]) {
      expect_same_results(results, expected[b]);
    }
  }
}

TEST(RouteService, WaveSplitDoesNotChangeResults) {
  // Forcing many small prefetch waves is another execution-schedule change
  // that must not move a single bit.
  auto engine = NavigationEngine::from_family("grid2d", 400);
  engine.use_scheme("uniform");
  const auto pairs = mixed_target_pairs(engine.graph().num_nodes(), 60, 11, 6);
  const auto whole = RouteService(engine).route_batch(pairs, Rng(3));
  RouteServiceOptions tiny_waves;
  tiny_waves.max_pinned_targets = 2;
  expect_same_results(
      RouteService(engine, tiny_waves).route_batch(pairs, Rng(3)), whole);
}

TEST(RouteService, UnreachablePairThrowsOnTheCallingThread) {
  // Two components, tolerate_unreachable off: reachability is checked after
  // the wave prefetch, before the fan-out, so the throw reaches the caller
  // (pool tasks are noexcept by policy) — and a submit() future carries it
  // instead of terminating, failing only its own batch.
  graph::Graph g(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  graph::DistanceMatrix oracle(g);
  const auto router = routing::make_router("greedy", g, oracle);
  RouteService service(g, oracle, nullptr, *router);
  const std::vector<Pair> cross = {{0, 2}, {0, 5}};
  try {
    (void)service.route_batch(cross, Rng(1));
    ADD_FAILURE() << "route_batch routed an unreachable pair";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("target unreachable from source"),
              std::string::npos)
        << error.what();
  }
  service.pause();  // queue both before either runs: a fixed FIFO order
  auto bad = service.submit(cross, Rng(1));
  auto next = service.submit({{3, 5}, {2, 0}}, Rng(2));
  service.resume();
  EXPECT_THROW((void)bad.get(), std::invalid_argument);
  const auto served = next.get();
  ASSERT_EQ(served.size(), 2u);
  for (const auto& result : served) {
    EXPECT_TRUE(result.reached);
    EXPECT_EQ(result.steps, 2u);
  }
  EXPECT_EQ(service.queue_stats().executed_batches, 1u);
  // Same-component routing still works afterwards.
  EXPECT_EQ(service.route_batch(std::vector<Pair>{{3, 5}}, Rng(2))
                .at(0)
                .steps,
            2u);
}

TEST(RouteService, SubmitDeliversFailuresThroughTheFuture) {
  // A bad batch must fail its own future, not kill the service thread; the
  // queue keeps draining afterwards.
  auto engine = NavigationEngine::from_family("path", 64);
  RouteService service(engine);
  auto bad = service.submit({{0, 9999}}, Rng(1));  // target out of range
  auto good = service.submit({{0, 63}}, Rng(2));
  EXPECT_THROW((void)bad.get(), std::invalid_argument);
  EXPECT_EQ(good.get().at(0).steps, 63u);
  // "executed" means dequeued AND routed: the failed batch doesn't count.
  EXPECT_EQ(service.queue_stats().executed_batches, 1u);
  EXPECT_EQ(service.queue_stats().submitted_batches, 2u);
}

TEST(RouteService, EstimateDiameterMatchesTrialRunnerBitForBit) {
  // The batched estimator must reproduce the sequential pair-by-pair
  // reference exactly — same pair selection, same child streams, same
  // accumulation order.
  auto engine = NavigationEngine::from_family("grid2d", 256);
  engine.use_scheme("ml");
  routing::TrialConfig config;
  config.num_pairs = 6;
  config.resamples = 5;
  const Rng rng(0xbeef);

  const auto reference = routing::sequential_diameter_reference(
      engine.router(), engine.scheme(), engine.oracle(), config, rng);
  const auto batched = RouteService(engine).estimate_diameter(config, rng);

  EXPECT_DOUBLE_EQ(batched.max_mean_steps, reference.max_mean_steps);
  EXPECT_DOUBLE_EQ(batched.overall_mean_steps, reference.overall_mean_steps);
  EXPECT_DOUBLE_EQ(batched.max_ci_halfwidth, reference.max_ci_halfwidth);
  EXPECT_EQ(batched.trials, reference.trials);
  ASSERT_EQ(batched.pairs.size(), reference.pairs.size());
  for (std::size_t p = 0; p < reference.pairs.size(); ++p) {
    EXPECT_EQ(batched.pairs[p].s, reference.pairs[p].s);
    EXPECT_EQ(batched.pairs[p].t, reference.pairs[p].t);
    EXPECT_EQ(batched.pairs[p].distance, reference.pairs[p].distance);
    EXPECT_DOUBLE_EQ(batched.pairs[p].mean_steps,
                     reference.pairs[p].mean_steps);
    EXPECT_DOUBLE_EQ(batched.pairs[p].ci_halfwidth,
                     reference.pairs[p].ci_halfwidth);
    EXPECT_DOUBLE_EQ(batched.pairs[p].max_steps, reference.pairs[p].max_steps);
    EXPECT_DOUBLE_EQ(batched.pairs[p].mean_long_links,
                     reference.pairs[p].mean_long_links);
  }
}

TEST(RouteService, SubmitServesQueuedBatches) {
  auto engine = NavigationEngine::from_family("torus2d", 256);
  engine.use_scheme("uniform").use_router("lookahead:1");
  RouteService service(engine);

  std::vector<std::vector<Pair>> batches;
  std::vector<std::future<std::vector<routing::RouteResult>>> futures;
  for (std::uint64_t b = 0; b < 5; ++b) {
    batches.push_back(
        mixed_target_pairs(engine.graph().num_nodes(), 8 + 8 * b, 3 + b, b));
    futures.push_back(service.submit(batches.back(), Rng(b)));
  }
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const auto async_results = futures[b].get();
    expect_same_results(async_results,
                        service.route_batch(batches[b], Rng(b)));
  }
  // Five submitted batches plus five route_batch calls, each one
  // observation of the execution-time histogram.
  const auto snapshot = service.metrics().scrape();
  const auto* exec_ms = snapshot.find_histogram("route_service.exec_ms");
  ASSERT_NE(exec_ms, nullptr);
  EXPECT_GE(exec_ms->total(), 10u);
}

TEST(RouteService, EmptyBatch) {
  auto engine = NavigationEngine::from_family("path", 16);
  const RouteService service(engine);
  EXPECT_TRUE(service.route_batch(std::vector<Pair>{}, Rng(1)).empty());
  const auto report = service.route_batch_report(std::vector<Pair>{}, Rng(1));
  EXPECT_TRUE(report.results.empty());
  EXPECT_TRUE(report.status.empty());
  EXPECT_EQ(report.exact_pairs, 0u);
  EXPECT_EQ(report.degraded_pairs, 0u);
  EXPECT_EQ(report.failed_pairs, 0u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.fallback_pairs, 0u);
  EXPECT_FALSE(report.deadline_breached);
}

TEST(RouteService, ExplicitPairsEstimateMatchesSelectingOverload) {
  // The workload-axis entry point: handing estimate_diameter the exact
  // select_trial_pairs output must reproduce the selecting overload bit for
  // bit (same per-pair child streams, same accumulation).
  auto engine = NavigationEngine::from_family("grid2d", 196);
  engine.use_scheme("ball");
  routing::TrialConfig config;
  config.num_pairs = 5;
  config.resamples = 4;
  const Rng rng(0xF00D);
  const RouteService service(engine);

  Rng pair_rng = rng.child(0xA11);
  const auto pairs =
      routing::select_trial_pairs(engine.graph(), config, pair_rng);
  const auto explicit_estimate = service.estimate_diameter(config, rng, pairs);
  const auto selecting_estimate = service.estimate_diameter(config, rng);

  EXPECT_DOUBLE_EQ(explicit_estimate.max_mean_steps,
                   selecting_estimate.max_mean_steps);
  EXPECT_DOUBLE_EQ(explicit_estimate.overall_mean_steps,
                   selecting_estimate.overall_mean_steps);
  ASSERT_EQ(explicit_estimate.pairs.size(), selecting_estimate.pairs.size());
  for (std::size_t p = 0; p < explicit_estimate.pairs.size(); ++p) {
    EXPECT_EQ(explicit_estimate.pairs[p].s, selecting_estimate.pairs[p].s);
    EXPECT_EQ(explicit_estimate.pairs[p].t, selecting_estimate.pairs[p].t);
    EXPECT_DOUBLE_EQ(explicit_estimate.pairs[p].mean_steps,
                     selecting_estimate.pairs[p].mean_steps);
  }
}

TEST(RouteService, QueueStatsTrackSubmissions) {
  auto engine = NavigationEngine::from_family("path", 64);
  RouteService service(engine);
  EXPECT_EQ(service.queue_stats().submitted_batches, 0u);
  auto f1 = service.submit({{0, 63}, {1, 63}}, Rng(1));
  auto f2 = service.submit({{2, 40}}, Rng(2));
  (void)f1.get();
  (void)f2.get();
  const auto stats = service.queue_stats();
  EXPECT_EQ(stats.submitted_batches, 2u);
  EXPECT_EQ(stats.submitted_pairs, 3u);
  EXPECT_EQ(stats.executed_batches, 2u);
  EXPECT_EQ(stats.shed_batches, 0u);
  // Both futures resolved: nothing can still be queued.
  EXPECT_EQ(stats.queued_batches, 0u);
  EXPECT_EQ(stats.queued_pairs, 0u);
  EXPECT_GE(stats.peak_queued_pairs, 1u);
}

TEST(RouteService, QueueStatsBitIdenticalToScrapedRegistry) {
  // queue_stats() is now a view over the service registry: every field must
  // equal the corresponding route_service.* counter/gauge in a scrape taken
  // while the service is quiescent. This is the migration contract — the
  // public QueueStats API moved onto the registry without changing a value.
  auto engine = NavigationEngine::from_family("grid2d", 256);
  engine.use_scheme("uniform");
  RouteServiceOptions options;
  options.admission = AdmissionPolicy::shed(/*deadline_seconds=*/60.0);
  RouteService service(engine, options);

  const auto pairs = mixed_target_pairs(engine.graph().num_nodes(), 24, 6, 9);
  auto f1 = service.submit(pairs, Rng(3));
  auto f2 = service.submit({{0, 100}, {1, 101}}, Rng(4));
  (void)f1.get();
  (void)f2.get();

  const auto stats = service.queue_stats();
  const auto snapshot = service.metrics().scrape();
  const auto counter = [&](const char* name) -> std::size_t {
    const auto* c = snapshot.find_counter(name);
    EXPECT_NE(c, nullptr) << name;
    return c ? static_cast<std::size_t>(c->value) : ~std::size_t{0};
  };
  const auto gauge = [&](const char* name) -> std::size_t {
    const auto* g = snapshot.find_gauge(name);
    EXPECT_NE(g, nullptr) << name;
    return g ? static_cast<std::size_t>(g->value) : ~std::size_t{0};
  };
  EXPECT_EQ(stats.submitted_batches,
            counter("route_service.submitted_batches"));
  EXPECT_EQ(stats.submitted_pairs, counter("route_service.submitted_pairs"));
  EXPECT_EQ(stats.executed_batches, counter("route_service.executed_batches"));
  EXPECT_EQ(stats.shed_batches, counter("route_service.shed_batches"));
  EXPECT_EQ(stats.shed_pairs, counter("route_service.shed_pairs"));
  EXPECT_EQ(stats.blocked_submits, counter("route_service.blocked_submits"));
  EXPECT_EQ(stats.queued_batches, gauge("route_service.queued_batches"));
  EXPECT_EQ(stats.queued_pairs, gauge("route_service.queued_pairs"));
  EXPECT_EQ(stats.peak_queued_pairs,
            gauge("route_service.peak_queued_pairs"));
  // Sanity: the run actually moved the counters.
  EXPECT_EQ(stats.submitted_batches, 2u);
  EXPECT_EQ(stats.submitted_pairs, 26u);
}

TEST(RouteService, PauseHoldsTheQueueAndResumeDrainsIt) {
  auto engine = NavigationEngine::from_family("path", 64);
  RouteService service(engine);
  service.pause();
  auto future = service.submit({{0, 63}}, Rng(1));
  // Paused: the batch must still be queued (dequeueing is frozen, so this
  // cannot race with the service thread).
  EXPECT_EQ(service.queue_stats().queued_batches, 1u);
  EXPECT_EQ(future.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);
  service.resume();
  EXPECT_EQ(future.get().at(0).steps, 63u);
  EXPECT_EQ(service.queue_stats().queued_batches, 0u);
}

TEST(RouteService, BoundedAdmissionBlocksProducersUntilRoomFrees) {
  auto engine = NavigationEngine::from_family("path", 64);
  RouteServiceOptions options;
  options.admission = AdmissionPolicy::bounded(4);
  RouteService service(engine, options);
  service.pause();

  // Admitted into the empty queue even though it exceeds the bound — the
  // oversized-batch rule that keeps a single big batch serviceable.
  auto big = service.submit({{0, 9}, {1, 9}, {2, 9}, {3, 9}, {4, 9}, {5, 9}},
                            Rng(1));
  EXPECT_EQ(service.queue_stats().queued_pairs, 6u);

  // A second producer must block while the queue is over the bound; while
  // the service stays paused, its batch cannot be enqueued.
  std::promise<void> submitted;
  auto submitted_future = submitted.get_future();
  std::thread producer([&] {
    auto small = service.submit({{7, 20}}, Rng(2));
    submitted.set_value();
    (void)small.get();
  });
  EXPECT_EQ(submitted_future.wait_for(std::chrono::milliseconds(40)),
            std::future_status::timeout);
  EXPECT_EQ(service.queue_stats().queued_batches, 1u);

  service.resume();
  producer.join();
  (void)big.get();
  const auto stats = service.queue_stats();
  EXPECT_EQ(stats.blocked_submits, 1u);
  EXPECT_EQ(stats.submitted_batches, 2u);
  EXPECT_EQ(stats.executed_batches, 2u);
}

TEST(RouteService, ShedAdmissionFailsAgedFuturesWithShedError) {
  auto engine = NavigationEngine::from_family("path", 64);
  RouteServiceOptions options;
  options.admission = AdmissionPolicy::shed(1e-6);
  RouteService service(engine, options);
  service.pause();
  auto stale = service.submit({{0, 63}}, Rng(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service.resume();
  EXPECT_THROW((void)stale.get(), ShedError);
  const auto stats = service.queue_stats();
  EXPECT_EQ(stats.shed_batches, 1u);
  EXPECT_EQ(stats.shed_pairs, 1u);
  EXPECT_EQ(stats.executed_batches, 0u);

  // A generous deadline admits everything again: shedding is per batch, not
  // a poisoned state.
  RouteServiceOptions lenient;
  lenient.admission = AdmissionPolicy::shed(60.0);
  RouteService healthy(engine, lenient);
  auto fresh = healthy.submit({{0, 63}}, Rng(1));
  EXPECT_EQ(fresh.get().at(0).steps, 63u);
  EXPECT_EQ(healthy.queue_stats().shed_batches, 0u);
}

TEST(RouteService, SchemeSizeMismatchRejected) {
  Rng graph_rng(1);
  const auto g = graph::family("path").make(32, graph_rng);
  const auto other = graph::family("path").make(33, graph_rng);
  graph::DistanceMatrix oracle(g);
  const auto router = routing::make_router("greedy", g, oracle);
  Rng rng(2);
  const auto scheme = core::make_scheme("uniform", other, rng);
  EXPECT_THROW(RouteService(g, oracle, scheme.get(), *router),
               std::invalid_argument);
}

}  // namespace
}  // namespace nav::api
