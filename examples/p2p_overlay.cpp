// p2p_overlay.cpp — designing a navigable peer-to-peer overlay.
//
// Scenario: a DHT-flavoured overlay where peers sit on a base ring (cycle)
// with successor links, and each peer maintains exactly ONE extra "finger".
// Lookups are greedy: forward to the neighbour (ring or finger) closest to
// the key's owner. The question a systems designer asks: *how should the one
// finger be chosen?*
//
//   * uniform finger       -> Theta(sqrt n) lookups (the sqrt-n barrier);
//   * Theorem 2 (M,L)      -> polylog lookups (ring has pathshape 1);
//   * Theorem 4 ball       -> Õ(n^{1/3}) lookups with *zero* metadata beyond
//                             local ball sampling — and it works on any
//                             topology, not just rings (universality);
//   * kleinberg a=1        -> the 1-dimensional harmonic optimum, as the
//                             tuned-but-dimension-aware baseline.
//
// Usage: ./p2p_overlay [n=16384] [lookups=200]
#include <iostream>

#include "nav/nav.hpp"

int main(int argc, char** argv) try {
  using namespace nav;
  const graph::NodeId n =
      argc > 1 ? parse_spec_number<graph::NodeId>(argv[1], argv[1]) : 16384;
  const std::size_t lookups =
      argc > 2 ? parse_spec_number<std::size_t>(argv[2], argv[2]) : 200;

  api::EngineOptions options;
  options.cache_capacity = 64;
  auto engine = api::NavigationEngine::from_family("cycle", n, 7001, options);
  std::cout << "overlay base ring: " << engine.graph().summary() << "\n\n";

  routing::TrialConfig trials;
  trials.num_pairs = std::max<std::size_t>(4, lookups / 16);
  trials.resamples = 16;

  Table table({"finger policy", "lookup hops (max pair)", "mean hops",
               "build+run sec"});
  for (const auto& spec : {"uniform", "ml", "ball", "kleinberg:1.0"}) {
    Timer timer;
    engine.use_scheme(spec, /*scheme_seed=*/7001);
    const auto est =
        engine.estimate_diameter(trials, Rng(std::string(spec).size()));
    table.add_row({spec,
                   Table::with_ci(est.max_mean_steps, est.max_ci_halfwidth, 1),
                   Table::num(est.overall_mean_steps, 1),
                   Table::num(timer.seconds(), 2)});
  }
  std::cout << table.to_ascii() << "\n";
  std::cout << "Reading the table: uniform pays ~sqrt(n) hops; the (M,L) and\n"
               "harmonic fingers exploit the ring's line structure for polylog\n"
               "lookups; the ball finger needs no structural knowledge at all\n"
               "and still beats the sqrt(n) barrier (Theorem 4).\n";
  return 0;
} catch (const std::exception& error) {
  // Bad arguments (a non-numeric size, a graph the generators or the loader
  // reject) surface as a one-line error, matching sweep_cli.
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
