// bench_e4_labelsize.cpp — Experiment E4: Theorem 3's label-size lower bound.
//
// Claim (Theorem 3): any matrix scheme on the n-node path using labels of
// eps·log n bits (i.e. k = n^eps distinct labels) has greedy diameter
// Omega(n^beta) for every beta < (1-eps)/3: with few labels, some
// Theta(n^{1-eps'}) interval contains only popular labels and therefore sees
// no expected internal shortcut.
//
// Instantiation: the natural best-effort scheme under that budget — the
// Theorem 2 matrix (A+U)/2 over a k-label universe with contiguous block
// labeling. Expected shape: the fitted exponent *increases* as eps decreases
// (eps=1 recovers the polylog scheme; eps=0 collapses to one label, i.e.
// an essentially uniform scheme at ~0.5).
#include "harness.hpp"

#include <cmath>

int main(int argc, char** argv) {
  using namespace nav;
  bench::Harness h("e4", "e4_labelsize",
                   "E4: Theorem 3 — small label alphabets reintroduce n^beta",
                   "k = n^eps labels on the path => greedy diameter "
                   "Omega(n^beta) for all beta < (1-eps)/3",
                   argc, argv);
  h.group_by({"eps", "n"});

  const unsigned hi = h.quick() ? 12 : 16;
  const double epsilons[] = {0.0, 0.25, 0.5, 0.75, 1.0};

  Table fits({"eps", "fitted exponent", "R^2", "Thm 3 floor (1-eps)/3",
              "greedy diam @ max n"});
  bool any_eps_ran = false;
  for (const double eps : epsilons) {
    if (!h.section("E4: eps = " + Table::num(eps, 2))) continue;
    any_eps_ran = true;
    Table table({"eps", "n", "k=n^eps", "greedy diam (max pair)", "ci95"});
    std::vector<double> ns, steps;
    for (unsigned e = 8; e <= hi; ++e) {
      const graph::NodeId n = graph::NodeId{1} << e;
      const auto g = graph::make_path(n);
      const auto k = core::label_budget(n, eps);
      const auto scheme = core::make_restricted_label_scheme(g, k);
      graph::TargetDistanceCache oracle(g, 16);
      const routing::GreedyRouter router(g, oracle);
      routing::TrialConfig trials;
      trials.num_pairs = 8;
      trials.resamples = 12;
      const auto est = api::RouteService(g, oracle, scheme.get(), router)
                           .estimate_diameter(trials, Rng(h.seed(0xE4) + e));
      table.add_row({Table::num(eps, 2), Table::integer(n), Table::integer(k),
                     Table::num(est.max_mean_steps, 1),
                     Table::num(est.max_ci_halfwidth, 1)});
      h.add_cell({{"eps", eps},
                  {"n", static_cast<std::uint64_t>(n)},
                  {"k", static_cast<std::uint64_t>(k)},
                  {"greedy_diameter", est.max_mean_steps},
                  {"ci95", est.max_ci_halfwidth}});
      ns.push_back(n);
      steps.push_back(est.max_mean_steps);
    }
    std::cout << table.to_ascii();
    const auto fit = fit_power_law(ns, steps);
    std::cout << "exponent fit: " << Table::num(fit.slope, 3) << "\n";
    fits.add_row({Table::num(eps, 2), Table::num(fit.slope, 3),
                  Table::num(fit.r_squared, 3),
                  Table::num((1.0 - eps) / 3.0, 3),
                  Table::num(steps.back(), 1)});
  }

  if (any_eps_ran && h.section("E4 summary: exponent vs label budget")) {
    std::cout << fits.to_ascii();
    std::cout
        << "PASS criteria: every fitted exponent sits at or above the Theorem 3\n"
           "floor (1-eps)/3 (the theorem is a lower bound; measured curves may\n"
           "be steeper), and at the largest size a bigger label budget is never\n"
           "worse beyond CI noise. Note the polylog payoff of large eps only\n"
           "separates from sqrt-n beyond n ~ 2^15 (the (1+log n)-slot hierarchy\n"
           "rows fire slowly), so small-n exponents cluster near 0.4-0.5 for\n"
           "every eps — exactly the constants-vs-asymptotics story the bound\n"
           "min{ps log^2 n, sqrt n} encodes.\n";
  }
  return h.finish();
}
