// trial_runner.hpp — the Monte-Carlo trial grid for E(φ, s, t) and the
// greedy diameter diam(G, φ) = max_{s,t} E(φ, s, t), and the fold that turns
// its routes into estimates.
//
// For each selected (s, t) pair the augmentation is redrawn `resamples`
// times and routed once per draw (lazy sampling = one fresh augmented graph
// per trial). Pair selection:
//   * kPeripheralPlusRandom (default): the double-sweep peripheral pair —
//     which dominates the maximum in every family studied here — plus
//     uniformly random distinct pairs;
//   * kRandom: only random pairs;
//   * kAllPairs: every ordered pair with s != t (small n / tests).
//
// The routes themselves run through api::RouteService (estimate_diameter,
// or route_jobs for a caller-built grid); this layer only selects pairs and
// folds results. Determinism: trial (pair p, replicate r) draws from
// rng.child(p + 1).child(r), and the fold reads results in grid order, so
// the estimate is independent of thread count and schedule.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "routing/router.hpp"

namespace nav::routing {

struct TrialConfig {
  enum class PairPolicy { kPeripheralPlusRandom, kRandom, kAllPairs };
  PairPolicy policy = PairPolicy::kPeripheralPlusRandom;
  std::size_t num_pairs = 24;   // random pairs (ignored for kAllPairs)
  std::size_t resamples = 16;   // augmentation redraws per pair
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

/// The trial grid's pair selection: peripheral pair first
/// (policy-dependent), then random distinct pairs drawn from `rng`.
[[nodiscard]] std::vector<std::pair<NodeId, NodeId>> select_trial_pairs(
    const Graph& g, const TrialConfig& config, Rng& rng);

/// Folds one pair's replicate routes, in index order, into its estimate.
/// `distance` is the first replicate's initial_distance. Throws
/// std::invalid_argument on an empty span.
[[nodiscard]] PairEstimate summarize_pair(
    NodeId s, NodeId t, std::span<const RouteResult> replicates);

/// Folds a pair-major grid (pair p, replicate r at results[p * resamples +
/// r]): each pair through summarize_pair, then the pair means in pair
/// order. Throws std::invalid_argument unless resamples >= 1 and
/// results.size() == pairs.size() * resamples.
[[nodiscard]] GreedyDiameterEstimate summarize_trials(
    std::span<const std::pair<NodeId, NodeId>> pairs, std::size_t resamples,
    std::span<const RouteResult> results);

}  // namespace nav::routing
