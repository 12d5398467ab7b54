#include "support/trial_reference.hpp"

#include <vector>

#include "api/route_service.hpp"
#include "routing/greedy_router.hpp"
#include "runtime/stats.hpp"

namespace nav::routing {

GreedyDiameterEstimate sequential_diameter_reference(
    const Router& router, const AugmentationScheme* scheme,
    const graph::DistanceOracle& oracle, const TrialConfig& config, Rng rng) {
  Rng pair_rng = rng.child(0xA11);
  const auto pairs = select_trial_pairs(router.graph(), config, pair_rng);
  GreedyDiameterEstimate out;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const auto [s, t] = pairs[p];
    const Rng pair_stream = rng.child(p + 1);
    nav::RunningStats step_stats, long_stats;
    for (std::size_t r = 0; r < config.resamples; ++r) {
      const auto result = router.route(s, t, scheme, pair_stream.child(r));
      step_stats.add(static_cast<double>(result.steps));
      long_stats.add(static_cast<double>(result.long_links_used));
    }
    PairEstimate est;
    est.s = s;
    est.t = t;
    est.distance = oracle.distance(s, t);
    est.mean_steps = step_stats.mean();
    est.ci_halfwidth = step_stats.ci_halfwidth();
    est.max_steps = step_stats.max();
    est.mean_long_links = long_stats.mean();
    out.pairs.push_back(est);
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

PairEstimate service_pair_estimate(const Graph& g,
                                   const AugmentationScheme* scheme,
                                   const graph::DistanceOracle& oracle,
                                   NodeId s, NodeId t, std::size_t resamples,
                                   Rng rng, bool parallel) {
  const GreedyRouter router(g, oracle);
  api::RouteServiceOptions options;
  options.parallel = parallel;
  std::vector<api::RouteJob> jobs;
  for (std::size_t r = 0; r < resamples; ++r)
    jobs.push_back({s, t, rng.child(r)});
  const auto replicates = api::RouteService(g, oracle, scheme, router, options)
                              .route_jobs(std::move(jobs));
  return summarize_pair(s, t, replicates);
}

}  // namespace nav::routing
