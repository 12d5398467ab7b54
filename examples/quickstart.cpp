// quickstart.cpp — the 60-second tour of navscheme, via the nav::api facade.
//
// Builds a graph, augments it with the paper's schemes, routes greedily, and
// prints how many steps each scheme needs. Run it:  ./quickstart [n]
#include <iostream>

#include "nav/nav.hpp"

int main(int argc, char** argv) try {
  using namespace nav;
  const graph::NodeId n =
      argc > 1 ? parse_spec_number<graph::NodeId>(argv[1], argv[1]) : 4096;

  // 1. An engine on a graph where the sqrt(n) barrier actually bites: the
  //    path. The engine owns the distance oracle (auto-selected by size).
  auto engine = api::NavigationEngine::from_family("path", n);
  std::cout << "graph: " << engine.graph().summary() << ", diameter = "
            << graph::double_sweep_lower_bound(engine.graph()) << "\n\n";

  // 2. Augment + route with each scheme; estimate the greedy diameter.
  routing::TrialConfig trials;
  trials.num_pairs = 8;
  trials.resamples = 12;

  Table table({"scheme", "greedy diameter (est)", "vs diameter"});
  for (const auto& spec : {"none", "uniform", "ml", "ball"}) {
    engine.use_scheme(spec);
    const auto est = engine.estimate_diameter(trials, Rng(42));
    table.add_row({spec,
                   Table::with_ci(est.max_mean_steps, est.max_ci_halfwidth, 1),
                   Table::num(est.max_mean_steps / static_cast<double>(n - 1), 3)});
  }
  std::cout << table.to_ascii() << "\n";
  std::cout << "Expected shape: none ~ n, uniform ~ sqrt(n), ml ~ polylog(n), "
               "ball ~ n^(1/3) polylog(n).\n";

  // 3. One-liner single route under the best scheme, with a router swap:
  //    the same engine can route NoN-style (lookahead:1) for comparison.
  engine.use_scheme("ball");
  const auto plain = engine.route(0, n - 1, Rng(7));
  engine.use_router("lookahead:1");
  const auto non = engine.route(0, n - 1, Rng(7));
  std::cout << "\nball scheme, one route 0 -> " << n - 1 << ": greedy "
            << plain.steps << " hops (" << plain.long_links_used
            << " long), lookahead:1 " << non.steps << " hops ("
            << non.long_links_used << " long)\n";
  return 0;
} catch (const std::exception& error) {
  // Bad arguments (a non-numeric size, a graph the generators or the loader
  // reject) surface as a one-line error, matching sweep_cli.
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
