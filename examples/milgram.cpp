// milgram.cpp — a Milgram "six degrees" experiment in silico.
//
// Milgram asked people in Nebraska to forward a letter toward a Boston
// stockbroker through acquaintances. The augmented-graph model of that
// experiment: local acquaintances form a 2D torus (geography), each person
// knows one random distant contact, and everybody forwards the letter to
// whichever acquaintance is closest to the target.
//
// This example measures the resulting chain-length distribution under three
// long-range-contact models:
//   * uniform       — distance-blind random acquaintance (Peleg O(sqrt n));
//   * kleinberg a=2 — the classical navigable exponent (O(log^2 n));
//   * ball          — this paper's universal Õ(n^{1/3}) scheme.
// All chains for one model are dispatched as a single engine.route_many
// batch over the process-wide WorkerTeam.
//
// Usage: ./milgram [side=64] [chains=400]
#include <iostream>

#include "nav/nav.hpp"

int main(int argc, char** argv) try {
  using namespace nav;
  const graph::NodeId side =
      argc > 1 ? parse_spec_number<graph::NodeId>(argv[1], argv[1]) : 64;
  const std::size_t chains =
      argc > 2 ? parse_spec_number<std::size_t>(argv[2], argv[2]) : 400;

  api::EngineOptions options;
  options.cache_capacity = 16;
  api::NavigationEngine engine(graph::make_torus2d(side, side), options);
  const graph::NodeId n = engine.graph().num_nodes();
  std::cout << "acquaintance torus: " << engine.graph().summary() << " (side "
            << side << ")\n\n";

  Rng rng(1967);  // the year of the Milgram paper
  auto draw_pairs = [&](Rng pair_rng) {
    std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
    for (std::size_t c = 0; c < chains; ++c) {
      const auto s = random_index(pair_rng, n);
      auto t = random_index(pair_rng, n);
      if (t == s) t = (t + 1) % n;
      pairs.emplace_back(s, t);
    }
    return pairs;
  };

  Table table({"acquaintance model", "median chain", "mean chain", "p95",
               "longest"});
  auto run_model = [&](core::SchemePtr scheme) {
    engine.use_scheme(std::move(scheme));
    const auto pairs = draw_pairs(rng.child(engine.scheme_spec().size()));
    const auto results = engine.route_many(
        pairs, rng.child(engine.scheme_spec().size()).child(0xba7c4));
    RunningStats stats;
    std::vector<double> lengths;
    for (const auto& result : results) {
      stats.add(result.steps);
      lengths.push_back(result.steps);
    }
    table.add_row({engine.scheme_spec(),
                   Table::num(percentile(lengths, 0.5), 1),
                   Table::num(stats.mean(), 1),
                   Table::num(percentile(lengths, 0.95), 1),
                   Table::num(stats.max(), 0)});
    return results;
  };

  run_model(std::make_unique<core::UniformScheme>(engine.graph()));
  const auto kleinberg_results =
      run_model(std::make_unique<core::TorusKleinbergScheme>(side, 2.0));
  run_model(std::make_unique<core::BallScheme>(engine.graph()));
  std::cout << table.to_ascii() << "\n";

  // The famous histogram, for the navigable (Kleinberg) world.
  std::cout << "chain-length histogram, kleinberg a=2 world:\n";
  Histogram hist(0.0, 40.0, 10);
  for (const auto& result : kleinberg_results) hist.add(result.steps);
  std::cout << hist.render(46);
  std::cout << "\n(reference: Milgram's completed chains averaged ~6 hops at "
               "US population scale)\n";
  return 0;
} catch (const std::exception& error) {
  // Bad arguments (a non-numeric size, a graph the generators or the loader
  // reject) surface as a one-line error, matching sweep_cli.
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
