// bench_e11_service.cpp — E11: batched target-sharded routing vs per-pair
// routing at cache-oracle sizes.
//
// Claim under test: when the distance oracle is a TargetDistanceCache (n
// above the dense-matrix limit), routing a mixed batch pair-by-pair thrashes
// the LRU — nearly every pair whose target was evicted pays a fresh BFS —
// while RouteService's target shards pay exactly one BFS per distinct
// target. Same results bit for bit (asserted), very different wall-clock.
//
// The workload interleaves targets (pair i gets target i mod T), the
// adversarial order for an LRU and the natural order for a service fed by
// independent clients. The per-pair baseline submits every pair as its own
// one-pair batch to a serial (RouteServiceOptions::parallel = false)
// service: each batch makes one distances_to(t) call on the calling thread,
// the access sequence of a plain Router::route loop, so its miss count is
// deterministic. The sharded service routes the whole batch at once across
// the worker lanes.
#include "harness.hpp"

namespace {

using nav::Rng;
using nav::graph::NodeId;
using Pair = std::pair<NodeId, NodeId>;

std::vector<Pair> interleaved_pairs(NodeId n, std::size_t count,
                                    std::size_t distinct_targets,
                                    std::uint64_t seed) {
  std::vector<Pair> pairs;
  pairs.reserve(count);
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const auto t = static_cast<NodeId>(i % distinct_targets);
    auto s = static_cast<NodeId>(nav::random_index(rng, n));
    if (s == t) s = (s + 1) % n;
    pairs.emplace_back(s, t);
  }
  return pairs;
}

struct ModeResult {
  double seconds = 0.0;
  std::size_t misses = 0;
  std::vector<nav::routing::RouteResult> results;
  nav::obs::MetricsSnapshot metrics;  // the service's registry, post-run
};

ModeResult run_mode(const nav::graph::Graph& g,
                    const nav::core::AugmentationScheme* scheme,
                    const std::vector<Pair>& pairs, std::size_t cache_capacity,
                    bool per_pair) {
  // A fresh cache per mode: both start cold, neither inherits warm vectors.
  nav::graph::TargetDistanceCache cache(g, cache_capacity);
  const auto router = nav::routing::make_router("greedy", g, cache);
  nav::api::RouteServiceOptions options;
  // The per-pair baseline runs on one lane: from worker lanes its hits on
  // the shared LRU interleave with the schedule, so its miss count would
  // depend on thread timing. Serially it is a pure function of the batch.
  options.parallel = !per_pair;
  const nav::api::RouteService service(g, cache, scheme, *router, options);
  const Rng rng(0xE11);
  nav::Timer timer;
  ModeResult mode;
  if (per_pair) {
    // Pair i keeps the stream route_batch would give it: rng.child(i).
    mode.results.reserve(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      mode.results.push_back(
          service.route_jobs({{pairs[i].first, pairs[i].second, rng.child(i)}})
              .front());
    }
  } else {
    mode.results = service.route_batch(pairs, rng);
  }
  mode.seconds = timer.seconds();
  mode.misses = cache.misses();
  mode.metrics = service.metrics().scrape();
  return mode;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nav;
  bench::Harness h("e11", "e11_service",
                   "E11 — batch routing service: target-sharded oracle "
                   "prefetch",
                   "sharding a batch by target cuts BFS churn from ~#pairs "
                   "to #targets at cache-oracle sizes, at identical results",
                   argc, argv);
  h.group_by({"mode", "n"});

  const graph::NodeId n = h.quick() ? 4096 : 16384;
  const std::size_t num_pairs = h.quick() ? 1024 : 4096;
  const std::size_t distinct_targets = h.quick() ? 128 : 256;
  const std::size_t cache_capacity = 64;  // EngineOptions default

  if (h.section("per-pair (legacy route_many order) vs target-sharded")) {
    Rng graph_rng(h.seed(0x5eed));
    const auto g = graph::family("grid2d").make(n, graph_rng);
    Rng scheme_rng(h.seed(0x5eed));
    const auto scheme = core::make_scheme("uniform", g, scheme_rng);
    const auto pairs =
        interleaved_pairs(g.num_nodes(), num_pairs, distinct_targets,
                          h.seed(17));

    std::cout << "n=" << g.num_nodes() << "  pairs=" << num_pairs
              << "  distinct targets=" << distinct_targets
              << "  cache capacity=" << cache_capacity << "\n";

    const auto per_pair =
        run_mode(g, scheme.get(), pairs, cache_capacity, true);
    const auto sharded =
        run_mode(g, scheme.get(), pairs, cache_capacity, false);

    // The whole point: execution schedule must not change a single hop count.
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      NAV_REQUIRE(per_pair.results[i].steps == sharded.results[i].steps,
                  "sharded results diverged from per-pair results");
    }

    Table table({"mode", "pairs", "bfs (oracle misses)", "sec", "pairs/sec"});
    const auto add = [&](const std::string& mode, const ModeResult& r) {
      table.add_row({mode, Table::integer(pairs.size()),
                     Table::integer(r.misses), Table::num(r.seconds, 3),
                     Table::num(static_cast<double>(pairs.size()) / r.seconds,
                                0)});
      double mean_steps = 0.0;
      for (const auto& result : r.results) {
        mean_steps += static_cast<double>(result.steps);
      }
      mean_steps /= static_cast<double>(r.results.size());
      h.add_cell({{"mode", mode},
                  {"n", static_cast<std::uint64_t>(g.num_nodes())},
                  {"pairs", static_cast<std::uint64_t>(pairs.size())},
                  {"targets", static_cast<std::uint64_t>(distinct_targets)},
                  {"cache_capacity",
                   static_cast<std::uint64_t>(cache_capacity)},
                  {"bfs", static_cast<std::uint64_t>(r.misses)},
                  {"mean_steps", mean_steps},
                  {"seconds", r.seconds}});
      // The service's scraped registry rides along as a loose-metric cell
      // (obs_* fields): queue counters and latency histograms next to the
      // strict results, without widening the gated surface.
      h.add_metrics_cell(r.metrics,
                         {{"mode", mode}, {"scrape", std::string("service")}},
                         "route_service.");
    };
    add("per-pair", per_pair);
    add("target-sharded", sharded);
    std::cout << table.to_ascii();
    const double speedup = per_pair.seconds / sharded.seconds;
    std::cout << "speedup (wall-clock): " << Table::num(speedup, 2) << "x   "
              << "BFS churn cut: " << per_pair.misses << " -> "
              << sharded.misses << "\n";
  }
  return h.finish();
}
