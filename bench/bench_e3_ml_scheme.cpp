// bench_e3_ml_scheme.cpp — Experiment E3: Theorem 2's (M, L) scheme.
//
// Claim (Theorem 2 + Corollary 1): with M = (A+U)/2 and the max-level bag
// labeling L of a path decomposition, greedy routing takes
// O(min{ps(G)·log² n, sqrt n}) steps. On families with small pathshape
// (path: ps=1, caterpillar: ps<=2, interval: ps<=1, permutation: ps<=2,
// trees: ps = O(log n)) this is polylog — flat-ish exponent on log-log —
// while uniform stays at ~n^0.5 on the same instances. On a large-pathshape
// family (random_regular, used here as the stress case) (M,L) falls back to
// the sqrt-n / diameter envelope and never does worse than uniform by more
// than a constant.
#include "harness.hpp"

namespace {

using namespace nav;

/// Corollary 1's AT-free cases use the *model-certified* decompositions
/// (interval clique path: length <= 1; permutation cuts: length <= 2) — the
/// generic portfolio cannot see the models, so this path is hand-rolled.
void run_certified_atfree(bench::Harness& h, const std::string& which,
                          unsigned hi_exp) {
  Table table({"family", "scheme", "n", "m", "ps-cert", "greedy-diam", "ci95"});
  std::vector<double> ns, ml_steps, uniform_steps;
  for (unsigned e = 9; e <= hi_exp; ++e) {
    const graph::NodeId n = graph::NodeId{1} << e;
    Rng rng(h.seed(0xE3A) + e);
    graph::Graph g;
    decomp::PathDecomposition pd;
    if (which == "interval") {
      const auto model = graph::connected_random_interval_model(n, rng);
      g = model.to_graph();
      pd = decomp::interval_decomposition(model);
    } else {
      const auto model = graph::banded_permutation_model(n, 8, rng);
      g = model.to_graph();
      pd = decomp::permutation_decomposition(model);
    }
    const auto measures = decomp::measure_capped(g, pd, 1u << 20);
    core::MLScheme ml(g, pd);
    core::UniformScheme uniform(g);

    graph::TargetDistanceCache oracle(g, 16);
    const routing::GreedyRouter router(g, oracle);
    routing::TrialConfig trials;
    trials.num_pairs = 10;
    trials.resamples = 12;
    const auto run = [&](const core::AugmentationScheme& scheme,
                         std::vector<double>& out) {
      const auto est = api::RouteService(g, oracle, &scheme, router)
                           .estimate_diameter(trials, Rng(h.seed(0x7E3) ^ e));
      table.add_row({which, scheme.name(), Table::integer(g.num_nodes()),
                     Table::integer(g.num_edges()),
                     Table::integer(measures.shape),
                     Table::num(est.max_mean_steps, 1),
                     Table::num(est.max_ci_halfwidth, 1)});
      h.add_cell({{"family", which},
                  {"scheme", scheme.name()},
                  {"n", static_cast<std::uint64_t>(g.num_nodes())},
                  {"m", static_cast<std::uint64_t>(g.num_edges())},
                  {"ps_cert", static_cast<std::uint64_t>(measures.shape)},
                  {"greedy_diameter", est.max_mean_steps},
                  {"ci95", est.max_ci_halfwidth}});
      out.push_back(est.max_mean_steps);
    };
    run(uniform, uniform_steps);
    run(ml, ml_steps);
    ns.push_back(g.num_nodes());
  }
  std::cout << table.to_ascii();
  std::cout << "exponents: uniform "
            << Table::num(fit_power_law(ns, uniform_steps).slope, 3) << ", ml "
            << Table::num(fit_power_law(ns, ml_steps).slope, 3) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nav;
  bench::Harness h("e3", "e3_ml_scheme",
                   "E3: Theorem 2 — (M,L) routes small-pathshape families in "
                   "polylog",
                   "greedy diameter of (G,(M,L)) is "
                   "O(min{ps(G) log^2 n, sqrt n})",
                   argc, argv);
  h.group_by({"scheme", "family"});

  struct FamilyCase {
    const char* family;
    unsigned hi_exp;
    const char* expectation;
  };
  const unsigned big = h.quick() ? 12 : 16;
  const unsigned mid = h.quick() ? 11 : 13;
  const FamilyCase cases[] = {
      {"path", big, "ps=1: ml exponent well below uniform's ~0.5"},
      {"caterpillar", big, "ps<=2: same"},
      {"random_tree", h.quick() ? 12u : 15u,
       "ps=O(log n): polylog (Cor. 1: log^3)"},
      {"random_regular", mid, "large ps: min{} falls back, ml ~ uniform"},
  };

  for (const auto& c : cases) {
    if (!h.section(std::string("E3: ml vs uniform on ") + c.family)) continue;
    std::cout << "expectation: " << c.expectation << "\n";
    h.run_and_print(api::Experiment::on(c.family)
                        .sizes(bench::pow2_sizes(9, c.hi_exp))
                        .schemes({"uniform", "ml"})
                        .pairs(10)
                        .resamples(12)
                        .seed(h.seed(0xE3)));
  }

  // Corollary 1's AT-free exemplars with certified decompositions.
  for (const auto* which : {"interval", "permutation"}) {
    if (!h.section(std::string("E3: ml (certified decomposition) vs uniform "
                               "on ") +
                   which))
      continue;
    run_certified_atfree(h, which, mid);
  }

  if (h.section("E3 summary")) {
    std::cout
        << "PASS criteria: (1) on path and caterpillar (ps <= 2, sparse) the ml\n"
           "exponent is at least 0.15 below uniform's and ml wins outright at\n"
           "the largest sizes; (2) on random_tree both ride the small-diameter\n"
           "cap with ml <= uniform at the top sizes; (3) on interval and\n"
           "permutation the certified ps stays <= 2 and ml's measured values\n"
           "sit far below the ps·log^2 n bound — but connectivity forces these\n"
           "random models to be dense (avg degree ~ 2 log n), which shrinks\n"
           "uniform's constant (balls grow ~ deg·r), so the asymptotic ml-vs-\n"
           "uniform crossover lies beyond the simulated window there; (4) on\n"
           "random_regular both schemes ride the logarithmic diameter cap.\n"
           "All of (1)-(4) instantiate O(min{ps log^2 n, sqrt n}).\n";
  }
  return h.finish();
}
