#include "routing/trial_runner.hpp"

#include "graph/diameter.hpp"
#include "runtime/stats.hpp"

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

PairEstimate summarize_pair(NodeId s, NodeId t,
                            std::span<const RouteResult> replicates) {
  NAV_REQUIRE(!replicates.empty(), "need at least one replicate");
  nav::RunningStats step_stats, long_stats;
  for (const auto& result : replicates) {
    step_stats.add(static_cast<double>(result.steps));
    long_stats.add(static_cast<double>(result.long_links_used));
  }
  PairEstimate est;
  est.s = s;
  est.t = t;
  // Every route already resolved dist(s, t); re-querying an oracle here
  // could re-BFS targets an LRU has since evicted.
  est.distance = replicates.front().initial_distance;
  est.mean_steps = step_stats.mean();
  est.ci_halfwidth = step_stats.ci_halfwidth();
  est.max_steps = step_stats.max();
  est.mean_long_links = long_stats.mean();
  return est;
}

GreedyDiameterEstimate summarize_trials(
    std::span<const std::pair<NodeId, NodeId>> pairs, std::size_t resamples,
    std::span<const RouteResult> results) {
  NAV_REQUIRE(resamples >= 1, "need at least one resample");
  NAV_REQUIRE(results.size() == pairs.size() * resamples,
              "trial grid needs pairs x resamples results");
  GreedyDiameterEstimate out;
  out.pairs.reserve(pairs.size());
  nav::RunningStats all;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const auto& pe = out.pairs.emplace_back(
        summarize_pair(pairs[p].first, pairs[p].second,
                       results.subspan(p * resamples, resamples)));
    all.add(pe.mean_steps);
    if (pe.mean_steps > out.max_mean_steps) {
      out.max_mean_steps = pe.mean_steps;
      out.max_ci_halfwidth = pe.ci_halfwidth;
    }
  }
  out.overall_mean_steps = all.mean();
  out.trials = results.size();
  return out;
}

}  // namespace nav::routing
