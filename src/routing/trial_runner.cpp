#include "routing/trial_runner.hpp"

#include <algorithm>

#include "graph/diameter.hpp"
#include "runtime/worker_team.hpp"

namespace nav::routing {

std::vector<std::pair<NodeId, NodeId>> select_trial_pairs(
    const Graph& g, const TrialConfig& config, Rng& rng) {
  const NodeId n = g.num_nodes();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  switch (config.policy) {
    case TrialConfig::PairPolicy::kAllPairs:
      for (NodeId s = 0; s < n; ++s)
        for (NodeId t = 0; t < n; ++t)
          if (s != t) pairs.emplace_back(s, t);
      return pairs;
    case TrialConfig::PairPolicy::kPeripheralPlusRandom: {
      const auto peripheral = graph::peripheral_pair(g);
      if (peripheral.a != peripheral.b) {
        pairs.emplace_back(peripheral.a, peripheral.b);
        pairs.emplace_back(peripheral.b, peripheral.a);
      }
      break;
    }
    case TrialConfig::PairPolicy::kRandom:
      break;
  }
  NAV_REQUIRE(n >= 2, "pair selection needs n >= 2");
  for (std::size_t added = 0; added < config.num_pairs;) {
    const auto s = static_cast<NodeId>(random_index(rng, n));
    const auto t = static_cast<NodeId>(random_index(rng, n));
    if (s != t) {
      pairs.emplace_back(s, t);
      ++added;
    }
  }
  return pairs;
}

PairEstimate estimate_routed_pair(const Router& router,
                                  const graph::DistanceOracle& oracle,
                                  NodeId s, NodeId t,
                                  const core::AugmentationScheme* scheme,
                                  std::size_t resamples, Rng rng,
                                  bool parallel) {
  NAV_REQUIRE(resamples >= 1, "need at least one resample");
  // Warm the oracle for t once so parallel replicates share the BFS.
  (void)oracle.distances_to(t);

  std::vector<double> steps(resamples, 0.0);
  std::vector<double> longs(resamples, 0.0);
  auto body = [&](std::size_t r) {
    const auto result = router.route(s, t, scheme, rng.child(r));
    steps[r] = static_cast<double>(result.steps);
    longs[r] = static_cast<double>(result.long_links_used);
  };
  if (parallel) {
    nav::parallel_for(0, resamples, body);
  } else {
    for (std::size_t r = 0; r < resamples; ++r) body(r);
  }

  nav::RunningStats step_stats, long_stats;
  for (std::size_t r = 0; r < resamples; ++r) {
    step_stats.add(steps[r]);
    long_stats.add(longs[r]);
  }
  PairEstimate est;
  est.s = s;
  est.t = t;
  est.distance = oracle.distance(s, t);
  est.mean_steps = step_stats.mean();
  est.ci_halfwidth = step_stats.ci_halfwidth();
  est.max_steps = step_stats.max();
  est.mean_long_links = long_stats.mean();
  return est;
}

GreedyDiameterEstimate estimate_routed_diameter(
    const Router& router, const core::AugmentationScheme* scheme,
    const graph::DistanceOracle& oracle, const TrialConfig& config, Rng rng) {
  const Graph& g = router.graph();
  NAV_REQUIRE(g.num_nodes() >= 2, "graph too small to route");
  Rng pair_rng = rng.child(0xA11);
  const auto pairs = select_trial_pairs(g, config, pair_rng);
  NAV_REQUIRE(!pairs.empty(), "no source/target pairs selected");

  GreedyDiameterEstimate out;
  out.pairs.resize(pairs.size());
  // Parallelism lives inside estimate_routed_pair (over resamples); pairs
  // run sequentially so each target's BFS is computed once and reused.
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    out.pairs[p] = estimate_routed_pair(router, oracle, pairs[p].first,
                                        pairs[p].second, scheme,
                                        config.resamples, rng.child(p + 1),
                                        config.parallel);
  }
  nav::RunningStats all;
  for (const auto& pe : out.pairs) {
    all.add(pe.mean_steps);
    if (pe.mean_steps > out.max_mean_steps) {
      out.max_mean_steps = pe.mean_steps;
      out.max_ci_halfwidth = pe.ci_halfwidth;
    }
  }
  out.overall_mean_steps = all.mean();
  out.trials = pairs.size() * config.resamples;
  return out;
}

PairEstimate estimate_pair(const Graph& g,
                           const core::AugmentationScheme* scheme,
                           const graph::DistanceOracle& oracle, NodeId s,
                           NodeId t, std::size_t resamples, Rng rng,
                           bool parallel) {
  GreedyRouter router(g, oracle);
  return estimate_routed_pair(router, oracle, s, t, scheme, resamples, rng,
                              parallel);
}

GreedyDiameterEstimate estimate_greedy_diameter(
    const Graph& g, const core::AugmentationScheme* scheme,
    const graph::DistanceOracle& oracle, const TrialConfig& config, Rng rng) {
  GreedyRouter router(g, oracle);
  return estimate_routed_diameter(router, scheme, oracle, config, rng);
}

}  // namespace nav::routing
