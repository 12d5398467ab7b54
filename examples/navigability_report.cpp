// navigability_report.cpp — a full navigability report for any graph.
//
// Given a graph (a named generator family, or a file in the nav-graph
// format), the report prints:
//   1. basic structure (n, m, degree, diameter bound);
//   2. the decomposition portfolio's best pathshape certificate, i.e. the
//      parameter driving Theorem 2's O(ps · log² n) bound;
//   3. the measured greedy diameter under every standard scheme, next to the
//      paper's predicted bound for that scheme.
//
// Usage:
//   ./navigability_report family <name> [n=4096]     e.g. family comb 4096
//   ./navigability_report file <path>
#include <cmath>
#include <iostream>
#include <optional>
#include <string>

#include "nav/nav.hpp"

namespace {

std::string predicted_bound(const std::string& scheme, double n, double ps) {
  const double log_n = std::log2(n);
  if (scheme == "uniform") {
    return "O(sqrt n) ~ " + nav::Table::num(std::sqrt(n), 0);
  }
  if (scheme == "ml") {
    const double poly = ps * log_n * log_n;
    return "O(min{ps log^2 n, sqrt n}) ~ " +
           nav::Table::num(std::min(poly, std::sqrt(n)), 0);
  }
  if (scheme == "ball") {
    return "~O(n^1/3) ~ " + nav::Table::num(std::cbrt(n) * log_n, 0);
  }
  return "n/a";
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace nav;
  if (argc < 3) {
    std::cerr << "usage: " << argv[0] << " family <name> [n] | file <path>\n";
    std::cerr << "families:";
    for (const auto& f : graph::all_families()) std::cerr << ' ' << f.name;
    std::cerr << "\n";
    return 1;
  }

  const std::uint64_t seed = 2007;  // SPAA 2007
  api::EngineOptions options;
  options.cache_capacity = 32;
  std::string source;
  std::optional<api::NavigationEngine> engine;
  if (std::string(argv[1]) == "family") {
    const graph::NodeId n =
        argc > 3 ? parse_spec_number<graph::NodeId>(argv[3], argv[3]) : 4096;
    engine.emplace(
        api::NavigationEngine::from_family(argv[2], n, seed, options));
    source = std::string(argv[2]);
  } else if (std::string(argv[1]) == "file") {
    engine.emplace(api::NavigationEngine::from_file(argv[2], options));
    source = argv[2];
  } else {
    std::cerr << "unknown mode: " << argv[1] << "\n";
    return 1;
  }
  const auto& g = engine->graph();

  std::cout << "== navigability report: " << source << " ==\n";
  std::cout << g.summary() << ", max degree " << g.max_degree()
            << ", diameter >= " << graph::double_sweep_lower_bound(g) << "\n\n";

  // Pathshape certificate (Theorem 2's parameter).
  const auto shaped = decomp::best_path_decomposition(g);
  std::cout << "pathshape certificate: shape <= " << shaped.measures.shape
            << " via '" << shaped.method << "' (" << shaped.measures.num_bags
            << " bags, width " << shaped.measures.width << ", length "
            << shaped.measures.length << ")\n\n";

  routing::TrialConfig trials;
  trials.num_pairs = 8;
  trials.resamples = 8;

  Table table({"scheme", "measured greedy diameter", "paper bound (approx)"});
  const double n = static_cast<double>(g.num_nodes());
  for (const auto& spec : core::standard_scheme_specs()) {
    engine->use_scheme(spec, seed);
    const auto est =
        engine->estimate_diameter(trials, Rng(std::string(spec).size()));
    table.add_row({spec,
                   Table::with_ci(est.max_mean_steps, est.max_ci_halfwidth, 1),
                   predicted_bound(
                       spec, n, static_cast<double>(shaped.measures.shape))});
  }
  std::cout << table.to_ascii();
  return 0;
} catch (const std::exception& error) {
  // Bad arguments (a non-numeric size, a graph the generators or the loader
  // reject) surface as a one-line error, matching sweep_cli.
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
