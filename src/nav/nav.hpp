// nav/nav.hpp — the navscheme umbrella header: the whole public surface in
// one include.
//
// Bench binaries, examples, and downstream users include ONLY this header.
// The layering underneath (graph -> core -> routing -> api) remains the
// internal structure; this facade re-exports it so call sites don't wire
// subsystem headers by hand.
//
// The 60-second tour:
//
//   #include "nav/nav.hpp"
//   using namespace nav;
//
//   // One object owning graph + distance oracle + scheme + router:
//   auto engine = api::NavigationEngine::from_family("path", 4096);
//   engine.use_scheme("ball").use_router("lookahead:1");
//   auto hop_count = engine.route(0, 4095, Rng(7)).steps;
//
//   // Declarative sweep grids with structured output:
//   auto result = api::Experiment::on("cycle")
//                     .sizes({1024, 4096})
//                     .schemes({"uniform", "ball", "ml"})
//                     .routers({"greedy", "lookahead:1"})
//                     .run();
//   std::cout << result.table().to_ascii();
//
//   // Batch routing service: target-sharded oracle reuse, deterministic,
//   // always-on via submit() (see docs/ARCHITECTURE.md and docs/API.md):
//   api::RouteService service(engine);
//   auto batch = service.route_batch(pairs, Rng(9));
//
//   // Demand models + admission-controlled load driving:
//   auto zipf = workload::make_workload("zipf:1.1", engine.graph(), Rng(3));
//   workload::TrafficDriver driver(service, *zipf);
//   std::cout << driver.run(Rng(4)).table().to_ascii();
#pragma once

/// \file
/// \brief Umbrella header: the whole navscheme public surface in one
/// include.

/// \namespace nav
/// \brief Root namespace — runtime, graph, core, decomposition, routing,
/// api layers.

/// \namespace nav::api
/// \brief The facade: NavigationEngine, Experiment, RouteService,
/// ResultSink.

/// \namespace nav::workload
/// \brief Demand models (make_workload) and open-loop load driving
/// (TrafficDriver) for RouteService.

/// \namespace nav::dynamic
/// \brief Dynamic graphs: mutation streams (make_mutation_stream),
/// epoch-versioned DynamicGraph, incremental oracle invalidation
/// (DynamicOracle), and the feedback-driven RewireScheme.

/// \namespace nav::obs
/// \brief Observability: the wait-free sharded metrics Registry
/// (counters/gauges/histograms, scrape() aggregation, Prometheus and JSON
/// writers) and the NAV_TRACE span Tracer with chrome://tracing export.

// runtime — deterministic RNG, stats, tables, timing, the WorkerTeam
// runtime with its parallel_for loop, scratch pooling and slab arenas.
#include "runtime/arena.hpp"
#include "runtime/assert.hpp"
#include "runtime/discrete_distribution.hpp"
#include "runtime/parse.hpp"
#include "runtime/rng.hpp"
#include "runtime/scratch_pool.hpp"
#include "runtime/stats.hpp"
#include "runtime/table.hpp"
#include "runtime/timer.hpp"
#include "runtime/worker_team.hpp"

// graph — CSR graphs, generators, the family registry, real-graph
// ingestion, distances (exact and landmark-approximate), and the
// make_oracle backend registry.
#include "graph/bfs_engine.hpp"
#include "graph/connectivity.hpp"
#include "graph/diameter.hpp"
#include "graph/dist_slab.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/families.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/graph_io.hpp"
#include "graph/interval_model.hpp"
#include "graph/landmark_oracle.hpp"
#include "graph/oracle_factory.hpp"
#include "graph/permutation_model.hpp"

// core — augmentation schemes and the scheme registry.
#include "core/augmentation_matrix.hpp"
#include "core/ball_scheme.hpp"
#include "core/growth_scheme.hpp"
#include "core/kleinberg_scheme.hpp"
#include "core/labeling.hpp"
#include "core/level_hierarchy.hpp"
#include "core/ml_scheme.hpp"
#include "core/name_independent.hpp"
#include "core/rank_scheme.hpp"
#include "core/restricted_label_scheme.hpp"
#include "core/scheme.hpp"
#include "core/scheme_factory.hpp"
#include "core/uniform_scheme.hpp"

// decomposition — pathshape machinery behind Theorem 2.
#include "decomposition/builders.hpp"
#include "decomposition/decomposition.hpp"
#include "decomposition/exact.hpp"
#include "decomposition/interval_decomposition.hpp"
#include "decomposition/measures.hpp"
#include "decomposition/pathshape.hpp"
#include "decomposition/permutation_decomposition.hpp"
#include "decomposition/tree_path_decomposition.hpp"

// routing — routers, the router registry, Monte-Carlo estimation.
#include "routing/greedy_router.hpp"
#include "routing/lookahead_router.hpp"
#include "routing/router.hpp"
#include "routing/router_factory.hpp"
#include "routing/trial_runner.hpp"

// obs — the metrics registry (wait-free sharded counters, scrape-time
// aggregation) and the NAV_TRACE span tracer.
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// dynamic — mutation streams over epoch-versioned graphs, incremental
// oracle invalidation, and the feedback-driven rewire scheme.
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/invalidation.hpp"
#include "dynamic/mutation_stream.hpp"
#include "dynamic/rewire_scheme.hpp"

// resilience — deterministic fault injection (seeded fault schedules, the
// faulty: oracle decorator, virtual-time latency) for chaos testing the
// serving stack.
#include "resilience/fault_spec.hpp"
#include "resilience/faulty_oracle.hpp"
#include "resilience/virtual_clock.hpp"

// api — the facade: engine, experiment builder, batch service, result
// sinks, trajectory documents.
#include "api/engine.hpp"
#include "api/experiment.hpp"
#include "api/result_sink.hpp"
#include "api/route_service.hpp"
#include "api/trajectory.hpp"

// workload — demand models and admission-controlled load driving.
#include "workload/traffic_driver.hpp"
#include "workload/workload.hpp"
