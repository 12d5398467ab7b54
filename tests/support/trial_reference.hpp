// trial_reference.hpp — Monte-Carlo helpers for tests.
//
// sequential_diameter_reference is an independent pair-by-pair estimator:
// each trial routes on the calling thread through Router::route and folds
// with its own RunningStats loop. Only the bit-identity differential test
// against api::RouteService::estimate_diameter uses it.
// service_pair_estimate is the library path for one pair (route_jobs +
// summarize_pair), which every other test drives.
#pragma once

#include <cstddef>

#include "routing/trial_runner.hpp"

namespace nav::routing {

/// Sequential reference for api::RouteService::estimate_diameter: same pair
/// selection (rng.child(0xA11)), same streams (pair p, replicate r on
/// rng.child(p + 1).child(r)), same accumulation order.
[[nodiscard]] GreedyDiameterEstimate sequential_diameter_reference(
    const Router& router, const AugmentationScheme* scheme,
    const graph::DistanceOracle& oracle, const TrialConfig& config, Rng rng);

/// E(φ, s, t) estimated by `resamples` greedy routes, replicate r on
/// rng.child(r), routed as one RouteService batch and folded by
/// summarize_pair.
[[nodiscard]] PairEstimate service_pair_estimate(
    const Graph& g, const AugmentationScheme* scheme,
    const graph::DistanceOracle& oracle, NodeId s, NodeId t,
    std::size_t resamples, Rng rng, bool parallel = true);

}  // namespace nav::routing
