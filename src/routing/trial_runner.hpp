// trial_runner.hpp — Monte-Carlo estimation of E(φ, s, t) and the greedy
// diameter diam(G, φ) = max_{s,t} E(φ, s, t).
//
// For each selected (s, t) pair the runner redraws the augmentation
// `resamples` times and routes once per draw (lazy sampling = one fresh
// augmented graph per trial). Pair selection:
//   * kPeripheralPlusRandom (default): the double-sweep peripheral pair —
//     which dominates the maximum in every family studied here — plus
//     uniformly random distinct pairs;
//   * kRandom: only random pairs;
//   * kAllPairs: every ordered pair with s != t (small n / tests).
//
// The estimators are parameterized over the routing process (Router): the
// `estimate_routed_*` entry points accept any registry router, while the
// classic `estimate_greedy_diameter` / `estimate_pair` names remain as
// greedy-router conveniences.
//
// Determinism: trial (pair p, replicate r) uses rng.child(p).child(r); the
// result is independent of thread count and schedule.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/greedy_router.hpp"
#include "runtime/stats.hpp"

namespace nav::routing {

struct TrialConfig {
  enum class PairPolicy { kPeripheralPlusRandom, kRandom, kAllPairs };
  PairPolicy policy = PairPolicy::kPeripheralPlusRandom;
  std::size_t num_pairs = 24;   // random pairs (ignored for kAllPairs)
  std::size_t resamples = 16;   // augmentation redraws per pair
  bool parallel = true;         // use the process-wide WorkerTeam
};

struct PairEstimate {
  NodeId s = 0;
  NodeId t = 0;
  Dist distance = 0;          // dist_G(s, t)
  double mean_steps = 0.0;    // estimate of E(φ, s, t)
  double ci_halfwidth = 0.0;  // 95% normal CI on the mean
  double max_steps = 0.0;
  double mean_long_links = 0.0;
};

struct GreedyDiameterEstimate {
  std::vector<PairEstimate> pairs;
  double max_mean_steps = 0.0;   // the greedy-diameter estimate
  double overall_mean_steps = 0.0;
  double max_ci_halfwidth = 0.0; // CI of the maximising pair
  std::size_t trials = 0;
};

/// The estimator's pair selection, exposed so batch drivers
/// (api::RouteService) can reproduce the exact trial grid: peripheral pair
/// first (policy-dependent), then random distinct pairs drawn from `rng`.
[[nodiscard]] std::vector<std::pair<NodeId, NodeId>> select_trial_pairs(
    const Graph& g, const TrialConfig& config, Rng& rng);

/// Runs the estimation under an arbitrary routing process. `scheme` may be
/// nullptr (no long links). The graph is the router's own (router.graph()),
/// so a graph/router mismatch is unrepresentable; the router must be built
/// over `oracle`.
[[nodiscard]] GreedyDiameterEstimate estimate_routed_diameter(
    const Router& router, const core::AugmentationScheme* scheme,
    const graph::DistanceOracle& oracle, const TrialConfig& config, Rng rng);

/// Single-pair estimate under an arbitrary routing process.
[[nodiscard]] PairEstimate estimate_routed_pair(
    const Router& router, const graph::DistanceOracle& oracle, NodeId s,
    NodeId t, const core::AugmentationScheme* scheme, std::size_t resamples,
    Rng rng, bool parallel = true);

/// Greedy-router convenience (the paper's process).
[[nodiscard]] GreedyDiameterEstimate estimate_greedy_diameter(
    const Graph& g, const core::AugmentationScheme* scheme,
    const graph::DistanceOracle& oracle, const TrialConfig& config, Rng rng);

/// Single-pair greedy estimate (used by tests and the phase analysis bench).
[[nodiscard]] PairEstimate estimate_pair(const Graph& g,
                                         const core::AugmentationScheme* scheme,
                                         const graph::DistanceOracle& oracle,
                                         NodeId s, NodeId t,
                                         std::size_t resamples, Rng rng,
                                         bool parallel = true);

}  // namespace nav::routing
