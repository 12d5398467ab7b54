// bench_micro.cpp — google-benchmark micro suite (M0): throughput of the
// primitives every experiment is built from. Informational — these numbers
// bound how large the E1..E9 grids can go on a given machine.
//
// The custom main wires the suite onto bench::Harness: besides the usual
// --benchmark_* flags, --quick caps per-benchmark time, and --jsonl emits
// BENCH_micro.json (nav-bench-trajectory-v1, one cell per benchmark run,
// every metric wall-clock/loose — the deterministic surface of a timing
// suite is its registered series, which compare_bench.py tracks through
// added/removed-series reporting and the list golden pins byte-for-byte).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hpp"
#include "nav/nav.hpp"
#include "runtime/alloc_counter.hpp"
#include "support/bfs_reference.hpp"

// Counting allocator for the whole binary: the BFS-kernel cells report a
// deterministic allocs-per-query strict metric next to their (loose)
// throughput.
NAV_DEFINE_ALLOC_COUNTER();

namespace {

using namespace nav;

void BM_GraphBuildPath(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::make_path(n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GraphBuildPath)->Arg(1 << 12)->Arg(1 << 16);

void BM_GraphBuildGnp(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::make_gnp(n, 8.0 / n, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GraphBuildGnp)->Arg(1 << 12)->Arg(1 << 16);

void BM_BfsFull(benchmark::State& state) {
  const auto g = graph::make_grid2d(static_cast<graph::NodeId>(state.range(0)),
                                    static_cast<graph::NodeId>(state.range(0)));
  graph::BfsWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ws.distances(g, 0).data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_BfsFull)->Arg(64)->Arg(256);

void BM_BallCollect(benchmark::State& state) {
  const auto g = graph::make_grid2d(256, 256);
  const auto radius = static_cast<graph::Dist>(state.range(0));
  graph::BfsWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ws.ball(g, 256 * 128 + 128, radius).order.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BallCollect)->Arg(4)->Arg(16)->Arg(64);

void BM_SampleUniform(benchmark::State& state) {
  const auto g = graph::make_path(1 << 16);
  core::UniformScheme scheme(g);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.sample_contact(100, rng));
  }
}
BENCHMARK(BM_SampleUniform);

void BM_SampleBall(benchmark::State& state) {
  const auto g = graph::make_path(1 << 16);
  core::BallScheme scheme(g);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.sample_contact(1 << 15, rng));
  }
}
BENCHMARK(BM_SampleBall);

void BM_SampleML(benchmark::State& state) {
  const auto g = graph::make_path(1 << 16);
  core::MLScheme scheme(g);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.sample_contact(1 << 15, rng));
  }
}
BENCHMARK(BM_SampleML);

void BM_SampleTorusKleinberg(benchmark::State& state) {
  core::TorusKleinbergScheme scheme(256, 2.0);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.sample_contact(1234, rng));
  }
}
BENCHMARK(BM_SampleTorusKleinberg);

void BM_RouteUniformPath(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const auto g = graph::make_path(n);
  graph::TargetDistanceCache oracle(g, 2);
  routing::GreedyRouter router(g, oracle);
  core::UniformScheme scheme(g);
  Rng rng(6);
  (void)oracle.distances_to(n - 1);  // pre-warm: measure routing, not BFS
  std::uint64_t trial = 0;
  for (auto _ : state) {
    Rng trial_rng = rng.child(trial++);
    benchmark::DoNotOptimize(router.route(0, n - 1, &scheme, trial_rng));
  }
}
BENCHMARK(BM_RouteUniformPath)->Arg(1 << 12)->Arg(1 << 16);

void BM_RouteBallPath(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const auto g = graph::make_path(n);
  graph::TargetDistanceCache oracle(g, 2);
  routing::GreedyRouter router(g, oracle);
  core::BallScheme scheme(g);
  Rng rng(7);
  (void)oracle.distances_to(n - 1);
  std::uint64_t trial = 0;
  for (auto _ : state) {
    Rng trial_rng = rng.child(trial++);
    benchmark::DoNotOptimize(router.route(0, n - 1, &scheme, trial_rng));
  }
}
BENCHMARK(BM_RouteBallPath)->Arg(1 << 12)->Arg(1 << 16);

void BM_RouteManyBatch(benchmark::State& state) {
  // Facade batch throughput: route a block of pairs through the engine's
  // worker lanes (the api entry point big sweeps are built on).
  const auto batch = static_cast<std::size_t>(state.range(0));
  auto engine = api::NavigationEngine::from_family("torus2d", 1 << 14);
  engine.use_scheme("uniform");
  const auto n = engine.graph().num_nodes();
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  Rng pair_rng(9);
  for (std::size_t i = 0; i < batch; ++i) {
    const auto s = static_cast<graph::NodeId>(random_index(pair_rng, n));
    auto t = static_cast<graph::NodeId>(random_index(pair_rng, n));
    if (t == s) t = (t + 1) % n;
    pairs.emplace_back(s, t);
  }
  std::uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.route_many(pairs, Rng(round++)));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_RouteManyBatch)->Arg(64)->Arg(512);

void BM_TreeDecomposition(benchmark::State& state) {
  Rng rng(8);
  const auto g =
      graph::make_random_tree(static_cast<graph::NodeId>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decomp::tree_path_decomposition(g));
  }
}
BENCHMARK(BM_TreeDecomposition)->Arg(1 << 10)->Arg(1 << 14);

void BM_BfsLayerDecomposition(benchmark::State& state) {
  const auto side = static_cast<graph::NodeId>(state.range(0));
  const auto g = graph::make_grid2d(side, side);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decomp::bfs_layer_decomposition(g));
  }
}
BENCHMARK(BM_BfsLayerDecomposition)->Arg(32)->Arg(128);

void BM_PathshapePortfolio(benchmark::State& state) {
  const auto g =
      graph::make_path(static_cast<graph::NodeId>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(decomp::best_path_decomposition(g));
  }
}
BENCHMARK(BM_PathshapePortfolio)->Arg(1 << 10)->Arg(1 << 13);

void BM_DiameterDoubleSweep(benchmark::State& state) {
  const auto side = static_cast<graph::NodeId>(state.range(0));
  const auto g = graph::make_grid2d(side, side);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::double_sweep_lower_bound(g));
  }
}
BENCHMARK(BM_DiameterDoubleSweep)->Arg(64)->Arg(256);

// ---- M1: BFS engine kernels ------------------------------------------------
// Hand-timed (not google-benchmark registered, so the --benchmark_list_tests
// golden stays untouched): each cell carries a deterministic allocs_per_query
// strict metric next to its loose nodes_per_sec, proving the engine kernels
// run allocation-free where the pre-engine reference pays per-call heap round
// trips. Families straddle the direction-optimizing regimes: torus2d (high
// diameter — the sweep stays top-down), hypercube and G(n,p) with mean degree
// 8 (low diameter, exploding frontiers — the sweep flips bottom-up). The
// diropt cells also carry the strict bottom_up_levels count of their timed
// sweeps, which pins the flip schedule.
void run_bfs_kernel_cells(bench::Harness& h) {
  using graph::Dist;
  using graph::NodeId;
  std::vector<unsigned> exponents{12, 16};
  if (!h.quick()) exponents.push_back(18);

  for (const unsigned e : exponents) {
    const auto n = NodeId{1} << e;
    for (const std::string& family :
         {std::string("torus2d"), std::string("hypercube"), std::string("gnp8"),
          std::string("regular16")}) {
      Rng rng(h.seed(0xB1F5) ^ e);
      graph::Graph g;
      if (family == "torus2d") {
        const auto side = NodeId{1} << (e / 2);
        g = graph::make_torus2d(side, n / side);
      } else if (family == "hypercube") {
        g = graph::make_hypercube(e);
      } else if (family == "gnp8") {
        g = graph::make_connected_gnp(n, 8.0 / static_cast<double>(n), rng);
      } else {
        // Diameter ~log n / log d: the frontier-explosion regime where the
        // bottom-up sweep pays off hardest.
        g = graph::make_random_regular(n, 16, rng);
      }

      auto& ws = graph::local_bfs_workspace();
      std::vector<Dist> out(g.num_nodes());
      const std::size_t reps = std::max<std::size_t>(
          4, (h.quick() ? (std::size_t{1} << 23) : (std::size_t{1} << 24)) / n);

      double ref_rate = 0.0;
      for (const std::string& kernel :
           {std::string("reference"), std::string("workspace"),
            std::string("diropt")}) {
        auto run_once = [&](std::size_t i) {
          // Rotate sources deterministically so no level structure is
          // accidentally cached between repetitions.
          const auto s =
              static_cast<NodeId>((i * 2654435761u) % g.num_nodes());
          if (kernel == "reference") {
            benchmark::DoNotOptimize(graph::bfs_distances_reference(g, s));
          } else if (kernel == "workspace") {
            ws.distances_into_scalar(g, s, out);
            benchmark::DoNotOptimize(out.data());
          } else {
            ws.distances_into(g, s, out);  // direction-optimizing full sweep
            benchmark::DoNotOptimize(out.data());
          }
        };
        run_once(0);  // warm: workspace growth, graph pages
        const std::uint64_t allocs_before = nav::allocation_count();
        run_once(1);
        const auto allocs_per_query =
            static_cast<double>(nav::allocation_count() - allocs_before);
        const std::uint64_t levels_before = ws.bottom_up_levels();
        nav::Timer timer;
        for (std::size_t i = 0; i < reps; ++i) run_once(i);
        const double rate =
            static_cast<double>(g.num_nodes()) * static_cast<double>(reps) /
            timer.seconds();
        const std::uint64_t bottom_up_levels =
            ws.bottom_up_levels() - levels_before;
        if (kernel == "reference") ref_rate = rate;
        const double speedup = ref_rate > 0.0 ? rate / ref_rate : 1.0;
        api::Record cell{
            {"family", family},
            {"kernel", kernel},
            {"n", static_cast<double>(g.num_nodes())},
            {"nodes_per_sec", rate},
            {"allocs_per_query", allocs_per_query},
            {"speedup", speedup}};
        if (kernel == "diropt") {
          cell.push_back(
              {"bottom_up_levels", static_cast<double>(bottom_up_levels)});
        }
        h.add_cell(cell);
        std::printf(
            "  %-9s n=2^%-2u %-10s %9.2f Mnodes/s  allocs/query %3.0f  x%.2f"
            "  bottom-up levels %llu\n",
            family.c_str(), e, kernel.c_str(), rate / 1e6, allocs_per_query,
            speedup, static_cast<unsigned long long>(bottom_up_levels));
      }
    }
  }
}

// ---- M2: parallel BFS sweep ------------------------------------------------
// Hand-timed like M1 (the --benchmark_list_tests golden stays untouched):
// one scalar-baseline cell plus one cell per worker count, family x size x
// workers. allocs_per_query is the strict metric — a warm ParallelBfs must
// never touch the allocator at any width. nodes_per_sec and
// speedup_vs_scalar are loose: they depend on the machine's core count
// (compare_bench.py reports them informationally; the 8-core targets are
// checked on the nightly full run, not gated here). Families pick the two
// parallel regimes: torus2d keeps the sweep top-down (chunk-claimed frontier
// farming), gnp8 flips it bottom-up (lane-owned bitmap word ranges).
void run_parallel_bfs_cells(bench::Harness& h) {
  using graph::Dist;
  using graph::NodeId;
  std::vector<unsigned> exponents{18, 20};
  if (!h.quick()) exponents.push_back(22);
  const std::size_t worker_grid[] = {1, 2, 4, 8};

  for (const unsigned e : exponents) {
    const auto n = NodeId{1} << e;
    for (const std::string& family :
         {std::string("torus2d"), std::string("gnp8")}) {
      Rng rng(h.seed(0xB2F5) ^ e);
      graph::Graph g;
      if (family == "torus2d") {
        const auto side = NodeId{1} << (e / 2);
        g = graph::make_torus2d(side, n / side);
      } else {
        g = graph::make_connected_gnp(n, 8.0 / static_cast<double>(n), rng);
      }
      std::vector<Dist> out(g.num_nodes());
      const std::size_t reps = std::max<std::size_t>(
          2, (h.quick() ? (std::size_t{1} << 21) : (std::size_t{1} << 23)) / n);
      auto source_at = [&](std::size_t i) {
        return static_cast<NodeId>((i * 2654435761u) % g.num_nodes());
      };

      // Scalar baseline: the production serial path (direction-optimizing
      // workspace sweep) — the reference every parallel width is scored
      // against.
      auto& ws = graph::local_bfs_workspace();
      auto scalar_once = [&](std::size_t i) {
        ws.distances_into(g, source_at(i), out);
        benchmark::DoNotOptimize(out.data());
      };
      scalar_once(0);  // warm: workspace growth, graph pages
      const std::uint64_t scalar_allocs_before = nav::allocation_count();
      scalar_once(1);
      const auto scalar_allocs =
          static_cast<double>(nav::allocation_count() - scalar_allocs_before);
      nav::Timer scalar_timer;
      for (std::size_t i = 0; i < reps; ++i) scalar_once(i);
      const double scalar_rate = static_cast<double>(g.num_nodes()) *
                                 static_cast<double>(reps) /
                                 scalar_timer.seconds();
      h.add_cell({{"family", family},
                  {"kernel", std::string("scalar")},
                  {"n", static_cast<double>(g.num_nodes())},
                  {"workers", 1.0},
                  {"nodes_per_sec", scalar_rate},
                  {"allocs_per_query", scalar_allocs},
                  {"speedup_vs_scalar", 1.0}});
      std::printf(
          "  %-7s n=2^%-2u scalar      %9.2f Mnodes/s  allocs/query %3.0f\n",
          family.c_str(), e, scalar_rate / 1e6, scalar_allocs);

      for (const std::size_t workers : worker_grid) {
        graph::ParallelPolicy policy;
        policy.num_workers = workers;
        graph::ParallelBfs sweep(policy);
        auto parallel_once = [&](std::size_t i) {
          sweep.distances_into(g, source_at(i), out);
          benchmark::DoNotOptimize(out.data());
        };
        parallel_once(0);  // warm: lazy lane start + scratch growth
        const std::uint64_t allocs_before = nav::allocation_count();
        parallel_once(1);
        const auto allocs_per_query =
            static_cast<double>(nav::allocation_count() - allocs_before);
        nav::Timer timer;
        for (std::size_t i = 0; i < reps; ++i) parallel_once(i);
        const double rate = static_cast<double>(g.num_nodes()) *
                            static_cast<double>(reps) / timer.seconds();
        const double speedup = scalar_rate > 0.0 ? rate / scalar_rate : 1.0;
        h.add_cell({{"family", family},
                    {"kernel", std::string("parallel")},
                    {"n", static_cast<double>(g.num_nodes())},
                    {"workers", static_cast<double>(workers)},
                    {"nodes_per_sec", rate},
                    {"allocs_per_query", allocs_per_query},
                    {"speedup_vs_scalar", speedup}});
        std::printf(
            "  %-7s n=2^%-2u workers=%-2zu  %9.2f Mnodes/s  allocs/query %3.0f"
            "  x%.2f\n",
            family.c_str(), e, workers, rate / 1e6, allocs_per_query, speedup);
      }
    }
  }
}

// ---- M3: sweep-kind dispatch tallies ---------------------------------------
// Deterministic STRICT cells: for each family x size a fresh workspace runs a
// fixed mix of full and bounded sweeps, and the cell records how the engine's
// dispatcher (radius promotion + direction-optimizing thresholds) classified
// them, read back through BfsWorkspace::sweep_count(). Any change to the
// cutover heuristics shows up as a strict metric diff in compare_bench.py
// instead of a silent throughput cliff. The 2^8 size sits below
// kDiroptMinNodes, so the scalar-full kind is exercised alongside diropt and
// scalar-bounded.
void run_sweep_kind_cells(bench::Harness& h) {
  using graph::Dist;
  using graph::NodeId;
  using SweepKind = graph::BfsWorkspace::SweepKind;
  std::vector<unsigned> exponents{8, 12};
  if (!h.quick()) exponents.push_back(16);
  constexpr std::size_t kFullSweeps = 3;
  constexpr std::size_t kBoundedSweeps = 5;

  for (const unsigned e : exponents) {
    const auto n = NodeId{1} << e;
    for (const std::string& family :
         {std::string("torus2d"), std::string("hypercube"), std::string("gnp8"),
          std::string("regular16")}) {
      Rng rng(h.seed(0xB3F5) ^ e);
      graph::Graph g;
      if (family == "torus2d") {
        const auto side = NodeId{1} << (e / 2);
        g = graph::make_torus2d(side, n / side);
      } else if (family == "hypercube") {
        g = graph::make_hypercube(e);
      } else if (family == "gnp8") {
        g = graph::make_connected_gnp(n, 8.0 / static_cast<double>(n), rng);
      } else {
        g = graph::make_random_regular(n, 16, rng);
      }

      graph::BfsWorkspace ws;  // fresh instance: tallies start at zero
      std::vector<Dist> out(g.num_nodes());
      const auto source_at = [&](std::size_t i) {
        return static_cast<NodeId>((i * 2654435761u) % g.num_nodes());
      };
      for (std::size_t i = 0; i < kFullSweeps; ++i) {
        ws.distances_into(g, source_at(i), out);
      }
      for (std::size_t i = 0; i < kBoundedSweeps; ++i) {
        ws.distances_into(g, source_at(i), out, Dist{4});
      }

      const auto diropt =
          ws.sweep_count(SweepKind::kDirectionOptimizing);
      const auto scalar_full = ws.sweep_count(SweepKind::kScalarFull);
      const auto scalar_bounded = ws.sweep_count(SweepKind::kScalarBounded);
      h.add_cell({{"family", family},
                  {"kernel", std::string("dispatch")},
                  {"n", static_cast<double>(g.num_nodes())},
                  {"sweeps_diropt", static_cast<double>(diropt)},
                  {"sweeps_scalar_full", static_cast<double>(scalar_full)},
                  {"sweeps_scalar_bounded",
                   static_cast<double>(scalar_bounded)}});
      std::printf(
          "  %-9s n=2^%-2u dispatch   diropt %llu  scalar_full %llu"
          "  scalar_bounded %llu\n",
          family.c_str(), e, static_cast<unsigned long long>(diropt),
          static_cast<unsigned long long>(scalar_full),
          static_cast<unsigned long long>(scalar_bounded));
    }
  }
}

// ---- M4: landmark stretch vs k ---------------------------------------------
// Deterministic STRICT cells: for each family x size, every landmark budget k
// builds the compressed backend through make_oracle and scores the triangle
// bound against exact rows over a fixed pair sample — mean and max
// multiplicative stretch plus the fraction of pairs answered exactly.
// Landmark selection (farthest-point) and the pair sample are both seeded, so
// the quality surface is bit-reproducible; only the build time is loose. The
// compression story is implicit in the key: k rows stored versus n.
void run_landmark_stretch_cells(bench::Harness& h) {
  using graph::Dist;
  using graph::NodeId;
  std::vector<unsigned> exponents{10, 12};
  if (!h.quick()) exponents.push_back(14);
  const std::size_t k_grid[] = {2, 4, 8, 16, 32};
  constexpr std::size_t kTargets = 16;
  constexpr std::size_t kSourcesPerTarget = 16;

  for (const unsigned e : exponents) {
    const auto n = NodeId{1} << e;
    for (const std::string& family :
         {std::string("torus2d"), std::string("gnp8")}) {
      Rng rng(h.seed(0xB4F5) ^ e);
      graph::Graph g;
      if (family == "torus2d") {
        const auto side = NodeId{1} << (e / 2);
        g = graph::make_torus2d(side, n / side);
      } else {
        g = graph::make_connected_gnp(n, 8.0 / static_cast<double>(n), rng);
      }
      // The sample: kTargets exact rows, kSourcesPerTarget draws each. One
      // cache with headroom keeps every exact row resident across the k loop.
      graph::TargetDistanceCache exact(g, kTargets + 1);
      Rng pair_rng(h.seed(0xB4F6) ^ e);
      std::vector<NodeId> targets;
      for (std::size_t j = 0; j < kTargets; ++j) {
        targets.push_back(
            static_cast<NodeId>(random_index(pair_rng, g.num_nodes())));
      }

      for (const std::size_t k : k_grid) {
        const std::string spec = "landmark:" + std::to_string(k) + ":farthest";
        nav::Timer build_timer;
        const auto oracle = graph::make_oracle(spec, g);
        const double build_seconds = build_timer.seconds();

        double stretch_sum = 0.0, stretch_max = 0.0;
        std::size_t pairs = 0, exact_hits = 0;
        Rng source_rng(h.seed(0xB4F7) ^ e);
        for (const NodeId t : targets) {
          const auto row = oracle->distances_to(t);
          const auto truth = exact.distances_to(t);
          for (std::size_t i = 0; i < kSourcesPerTarget; ++i) {
            auto s = static_cast<NodeId>(
                random_index(source_rng, g.num_nodes() - 1));
            if (s >= t) ++s;  // s != t: stretch needs a non-zero denominator
            const double est = static_cast<double>((*row)[s]);
            const double ref = static_cast<double>((*truth)[s]);
            const double stretch = est / ref;
            stretch_sum += stretch;
            stretch_max = std::max(stretch_max, stretch);
            exact_hits += (*row)[s] == (*truth)[s] ? 1 : 0;
            ++pairs;
          }
        }
        const double denom = static_cast<double>(pairs);
        h.add_cell({{"family", family},
                    {"oracle", spec},
                    {"landmarks", static_cast<double>(k)},
                    {"n", static_cast<double>(g.num_nodes())},
                    {"mean_stretch", stretch_sum / denom},
                    {"max_stretch", stretch_max},
                    {"exact_fraction", static_cast<double>(exact_hits) / denom},
                    {"seconds", build_seconds}});
        std::printf(
            "  %-7s n=2^%-2u k=%-3zu  stretch mean %.4f  max %.2f"
            "  exact %4.1f%%  build %.3fs\n",
            family.c_str(), e, k, stretch_sum / denom, stretch_max,
            100.0 * static_cast<double>(exact_hits) / denom, build_seconds);
      }
    }
  }
}

// ---- M5: cold ball draws --------------------------------------------------
// Hand-timed like M1. Per family a freshly built BallScheme routes one fixed
// seeded greedy stream against resident oracle rows, so the draws meet a
// cold size table and the cell times the scheme, not the oracle. Strict,
// lower-is-better counts: unbounded_entries — table entries below the
// 2^k >= n shortcut that the landmark prefill leaves to BFS — and draws
// (greedy samples one contact per hop). ms_per_route is loose: best of three
// fresh schemes. path is the adversarial case: ecc(u) >= n/2 there, so the
// bound prefills no level below the shortcut.
void run_cold_ball_cells(bench::Harness& h) {
  using graph::Dist;
  using graph::NodeId;
  const unsigned e = h.quick() ? 12 : 16;
  const auto n = NodeId{1} << e;
  constexpr std::size_t kTargets = 16;
  constexpr std::size_t kRoutesPerTarget = 16;
  constexpr int kReps = 3;

  for (const std::string& family :
       {std::string("torus2d"), std::string("gnp8"), std::string("hypercube"),
        std::string("path")}) {
    Rng rng(h.seed(0xB5F5) ^ e);
    graph::Graph g;
    if (family == "torus2d") {
      const auto side = NodeId{1} << (e / 2);
      g = graph::make_torus2d(side, n / side);
    } else if (family == "gnp8") {
      g = graph::make_connected_gnp(n, 8.0 / static_cast<double>(n), rng);
    } else if (family == "hypercube") {
      g = graph::make_hypercube(e);
    } else {
      g = graph::make_path(n);
    }
    graph::TargetDistanceCache oracle(g, kTargets);
    const routing::GreedyRouter router(g, oracle);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    Rng pair_rng(h.seed(0xB5F6) ^ e);
    for (std::size_t j = 0; j < kTargets; ++j) {
      const auto t = static_cast<NodeId>(random_index(pair_rng, n));
      (void)oracle.distances_to(t);  // resident: time draws, not BFS rows
      for (std::size_t i = 0; i < kRoutesPerTarget; ++i) {
        pairs.emplace_back(static_cast<NodeId>(random_index(pair_rng, n)), t);
      }
    }

    std::size_t unbounded_entries = 0;
    std::uint64_t draws = 0;
    double best_seconds = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const core::BallScheme scheme(g);
      if (rep == 0) {
        for (NodeId u = 0; u < n; ++u) {
          for (std::uint32_t k = 1; k <= scheme.levels(); ++k) {
            if ((Dist{1} << k) < n && scheme.cached_ball_size(u, k) == 0) {
              ++unbounded_entries;
            }
          }
        }
      }
      const Rng root(h.seed(0xB5F7));
      std::uint64_t steps = 0;
      nav::Timer timer;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        steps += router
                     .route(pairs[i].first, pairs[i].second, &scheme,
                            root.child(i))
                     .steps;
      }
      const double seconds = timer.seconds();
      if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
      draws = steps;
    }
    const double ms_per_route =
        1e3 * best_seconds / static_cast<double>(pairs.size());
    h.add_cell({{"family", family},
                {"kernel", std::string("cold-ball")},
                {"n", static_cast<double>(n)},
                {"unbounded_entries", static_cast<double>(unbounded_entries)},
                {"draws", static_cast<double>(draws)},
                {"ms_per_route", ms_per_route}});
    std::printf(
        "  %-9s n=2^%-2u cold-ball  unbounded entries %9zu  draws %6llu"
        "  %8.3f ms/route\n",
        family.c_str(), e, unbounded_entries,
        static_cast<unsigned long long>(draws), ms_per_route);
  }
}

// ---- M7: source-bounded prefetch -------------------------------------------
// (M6 is reserved for the per-layer ledger.) Hand-timed like M5. One
// RouteService-shaped wave — the distinct targets of 256 seeded uniform
// pairs — is prefetched into a fresh TargetDistanceCache twice per
// family: `prefetch-complete` sweeps every row to exhaustion
// (prefetch_into), `prefetch-bounded` stops each sweep one level past its
// deepest source (prefetch_sourced_into). Strict, lower-is-better counts:
// labeled_entries — finite entries across the wave's rows, the BFS work —
// and sweeps (cache misses, one per distinct target in both modes).
// ms_per_wave is loose: best of three fresh caches.
void run_bounded_prefetch_cells(bench::Harness& h) {
  using graph::Dist;
  using graph::NodeId;
  const unsigned e = h.quick() ? 12 : 16;
  const auto n = NodeId{1} << e;
  constexpr std::size_t kPairs = 256;
  constexpr int kReps = 3;

  for (const std::string& family :
       {std::string("torus2d"), std::string("gnp8"), std::string("path")}) {
    Rng rng(h.seed(0xB7F0) ^ e);
    graph::Graph g;
    if (family == "torus2d") {
      const auto side = NodeId{1} << (e / 2);
      g = graph::make_torus2d(side, n / side);
    } else if (family == "gnp8") {
      g = graph::make_connected_gnp(n, 8.0 / static_cast<double>(n), rng);
    } else {
      g = graph::make_path(n);
    }
    // The wave: distinct targets in first-appearance order, each with the
    // sources of its pairs.
    std::vector<NodeId> targets;
    std::vector<std::vector<NodeId>> sources;
    Rng pair_rng(h.seed(0xB7F1) ^ e);
    for (std::size_t i = 0; i < kPairs; ++i) {
      const auto s = static_cast<NodeId>(random_index(pair_rng, n));
      const auto t = static_cast<NodeId>(random_index(pair_rng, n));
      const auto it = std::find(targets.begin(), targets.end(), t);
      if (it == targets.end()) {
        targets.push_back(t);
        sources.push_back({s});
      } else {
        sources[static_cast<std::size_t>(it - targets.begin())].push_back(s);
      }
    }
    const std::vector<std::span<const NodeId>> lists(sources.begin(),
                                                     sources.end());

    for (const bool bounded : {false, true}) {
      std::size_t labeled_entries = 0;
      std::size_t sweeps = 0;
      double best_seconds = 0.0;
      for (int rep = 0; rep < kReps; ++rep) {
        const graph::TargetDistanceCache cache(g, targets.size());
        std::vector<graph::DistVecPtr> pins;
        nav::Timer timer;
        if (bounded) {
          cache.prefetch_sourced_into(targets, lists, pins);
        } else {
          cache.prefetch_into(targets, pins);
        }
        const double seconds = timer.seconds();
        if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
        labeled_entries = 0;
        for (const auto& pin : pins) {
          labeled_entries += static_cast<std::size_t>(std::count_if(
              pin->begin(), pin->end(),
              [](Dist d) { return d != graph::kInfDist; }));
        }
        sweeps = cache.misses();
      }
      const char* kernel = bounded ? "prefetch-bounded" : "prefetch-complete";
      const double ms_per_wave = 1e3 * best_seconds;
      h.add_cell({{"family", family},
                  {"kernel", std::string(kernel)},
                  {"n", static_cast<double>(n)},
                  {"pairs", static_cast<double>(kPairs)},
                  {"labeled_entries", static_cast<double>(labeled_entries)},
                  {"sweeps", static_cast<double>(sweeps)},
                  {"ms_per_wave", ms_per_wave}});
      std::printf(
          "  %-9s n=2^%-2u %-17s labeled entries %11zu  sweeps %4zu"
          "  %8.3f ms/wave\n",
          family.c_str(), e, kernel, labeled_entries, sweeps, ms_per_wave);
    }
  }
}

/// ConsoleReporter plus trajectory capture: every per-iteration run becomes
/// one harness cell keyed by benchmark name; timings and rates are loose
/// metrics by construction.
class TrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  explicit TrajectoryReporter(bench::Harness& harness) : harness_(harness) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      api::Record cell = {
          {"benchmark", run.benchmark_name()},
          {"real_time_ns", run.GetAdjustedRealTime()},
          {"cpu_time_ns", run.GetAdjustedCPUTime()},
      };
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        cell.push_back(
            {"items_per_second", static_cast<double>(items->second.value)});
      }
      harness_.add_cell(std::move(cell));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::Harness& harness_;
};

}  // namespace

int main(int argc, char** argv) {
  // No banner: google-benchmark prints its own context block, and the
  // --benchmark_list_tests output is golden-pinned byte-for-byte.
  bench::Harness h("micro", "micro", /*title=*/"", /*claim=*/"", argc, argv,
                   /*allow_unknown_flags=*/true);

  // The hand-timed BFS-kernel cells. Suppressed under --benchmark_list_tests:
  // that output is golden-pinned byte-for-byte and must stay pure.
  bool list_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_list_tests", 22) == 0) {
      list_only = true;
    }
  }
  if (!list_only && h.section("M1: BFS engine kernels (family x size)")) {
    run_bfs_kernel_cells(h);
  }
  if (!list_only &&
      h.section("M2: parallel BFS sweep (family x size x workers)")) {
    run_parallel_bfs_cells(h);
  }
  if (!list_only &&
      h.section("M3: sweep-kind dispatch tallies (family x size)")) {
    run_sweep_kind_cells(h);
  }
  if (!list_only &&
      h.section("M4: landmark stretch (family x size x k)")) {
    run_landmark_stretch_cells(h);
  }
  if (!list_only && h.section("M5: cold ball draws (family)")) {
    run_cold_ball_cells(h);
  }
  if (!list_only && h.section("M7: source-bounded prefetch (family x mode)")) {
    run_bounded_prefetch_cells(h);
  }
  // The google-benchmark cells below are recorded section-less: their series
  // keys ({benchmark: BM_*}) predate sections and stay baseline-aligned.
  h.end_section();

  // Rebuild an argv for google-benchmark: its own flags pass through
  // untouched, and --quick maps to a short per-benchmark min time so smoke
  // runs and the CI bench gate stay fast.
  std::vector<std::string> args;
  args.emplace_back(argv[0]);
  if (h.quick()) args.emplace_back("--benchmark_min_time=0.01");
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) args.emplace_back(argv[i]);
  }
  std::vector<char*> bench_argv;
  bench_argv.reserve(args.size());
  for (auto& arg : args) bench_argv.push_back(arg.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());

  TrajectoryReporter reporter(h);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return h.finish();
}
