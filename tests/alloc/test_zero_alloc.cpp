// Zero-allocation contracts, proven with a counting allocator. This suite
// lives in its own binary: NAV_DEFINE_ALLOC_COUNTER() replaces ::operator
// new process-wide, which is a per-program decision.
//
// Measurement discipline: warm every code path first (workspace growth,
// cache fill, thread-locals), snapshot nav::allocation_count(), run the
// steady-state operation, snapshot again — and only then assert (gtest
// macros allocate). All tests stay single-threaded so no other thread can
// perturb the counter inside a measurement window.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "api/route_service.hpp"
#include "core/ball_scheme.hpp"
#include "core/kleinberg_scheme.hpp"
#include "core/rank_scheme.hpp"
#include "core/uniform_scheme.hpp"
#include "graph/bfs_engine.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/dist_slab.hpp"
#include "graph/generators.hpp"
#include "graph/landmark_oracle.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/faulty_oracle.hpp"
#include "routing/greedy_router.hpp"
#include "runtime/alloc_counter.hpp"
#include "runtime/worker_team.hpp"
#include "support/bfs_reference.hpp"

NAV_DEFINE_ALLOC_COUNTER();

namespace nav::graph {
namespace {

TEST(ZeroAlloc, WarmWorkspaceKernelsAllocateNothing) {
  const auto g = make_grid2d(48, 48);
  BfsWorkspace ws;
  std::vector<Dist> out(g.num_nodes());
  // Warm-up: grows the queue and stamps.
  ws.distances_into(g, 0, out);
  ws.distances_into_scalar(g, 0, out);
  (void)ws.ball(g, 100, 5);
  (void)ws.eccentricity(g, 7);

  const std::uint64_t before = nav::allocation_count();
  for (NodeId s = 0; s < 32; ++s) {
    ws.distances_into(g, s, out);              // direction-optimizing sweep
    ws.distances_into_scalar(g, s, out, 6);    // bounded scalar sweep
    (void)ws.ball(g, s, 4);                    // sparse ball
    (void)ws.eccentricity(g, s);
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "a warm BfsWorkspace must perform zero heap allocations per sweep";
}

TEST(ZeroAlloc, WarmSweepsInterleavedWithSparseKernelsAllocateNothing) {
  // The direction-optimizing sweep shares its queue with ball(),
  // nth_in_order() and eccentricity(). Interleaved on one workspace, a warm
  // sweep must neither re-grow nor refill that queue — on a lean sweep that
  // never flips (grid) and on one that flips bottom-up (hypercube).
  const auto lean = make_grid2d(48, 48);
  const auto flips = make_hypercube(11);
  BfsWorkspace ws;
  std::vector<Dist> lean_out(lean.num_nodes());
  std::vector<Dist> flip_out(flips.num_nodes());
  auto interleave = [&](const Graph& g, std::vector<Dist>& out, NodeId s) {
    ws.distances_into(g, s, out);
    (void)ws.ball(g, s, 3);
    ws.distances_into(g, s + 1, out);
    (void)ws.nth_in_order(g, s, g.num_nodes() / 2);
    ws.distances_into(g, s + 2, out);
    (void)ws.eccentricity(g, s);
  };
  interleave(lean, lean_out, 0);  // warm-up: queue, stamps, bitmaps
  interleave(flips, flip_out, 0);

  const std::uint64_t lean_levels = ws.bottom_up_levels();
  const std::uint64_t lean_before = nav::allocation_count();
  for (NodeId s = 0; s < 16; ++s) interleave(lean, lean_out, s);
  const std::uint64_t lean_after = nav::allocation_count();
  const std::uint64_t flip_levels = ws.bottom_up_levels();
  const std::uint64_t flip_before = nav::allocation_count();
  for (NodeId s = 0; s < 16; ++s) interleave(flips, flip_out, s);
  const std::uint64_t flip_after = nav::allocation_count();

  EXPECT_EQ(ws.last_sweep_kind(),
            BfsWorkspace::SweepKind::kDirectionOptimizing);
  EXPECT_EQ(flip_levels, lean_levels) << "the grid sweeps must stay lean";
  EXPECT_GT(ws.bottom_up_levels(), flip_levels)
      << "the hypercube sweeps must flip bottom-up";
  EXPECT_EQ(lean_after - lean_before, 0u)
      << "a warm lean sweep must perform zero heap allocations";
  EXPECT_EQ(flip_after - flip_before, 0u)
      << "a warm flipping sweep must perform zero heap allocations";
}

TEST(ZeroAlloc, ReferenceKernelAllocatesEveryCall) {
  // Sanity check that the counter actually counts: the pre-engine reference
  // kernel heap-allocates its result and queue on every call.
  const auto g = make_grid2d(16, 16);
  (void)bfs_distances_reference(g, 0);
  const std::uint64_t before = nav::allocation_count();
  (void)bfs_distances_reference(g, 0);
  const std::uint64_t after = nav::allocation_count();
  EXPECT_GE(after - before, 2u);
}

TEST(ZeroAlloc, SteadyStateOracleHitAllocatesNothing) {
  const auto g = make_grid2d(40, 40);
  TargetDistanceCache cache(g, 4);
  const NodeId target = 123;
  (void)cache.distances_to(target);  // the one miss: BFS into an arena slot

  const std::uint64_t before = nav::allocation_count();
  Dist sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto pin = cache.distances_to(target);  // hit: pin copy + LRU bump
    sum += (*pin)[static_cast<NodeId>(i % g.num_nodes())];
    sum += cache.distance(7, target);
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "a steady-state oracle hit must perform zero heap allocations";
  EXPECT_GT(sum, 0u);  // keep the loop observable
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_GE(cache.hits(), 2000u);
}

TEST(ZeroAlloc, SteadyStateRoutingOnWarmCacheAllocatesNothing) {
  const auto g = make_grid2d(32, 32);
  TargetDistanceCache cache(g, 2);
  const routing::GreedyRouter router(g, cache);
  core::UniformScheme scheme(g);
  const NodeId target = g.num_nodes() - 1;
  Rng rng(42);
  (void)router.route(0, target, &scheme, rng.child(0));  // warms the cache

  const std::uint64_t before = nav::allocation_count();
  std::uint32_t hops = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    hops += router.route(5, target, &scheme, rng.child(i)).steps;
    hops += router.route(9, target, nullptr, rng.child(i)).steps;
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "routing against a resident target must not touch the allocator";
  EXPECT_GT(hops, 0u);
}

TEST(ZeroAlloc, WarmBallSchemeDrawsAllocateNothing) {
  // Once the calling thread's workspace has grown to n, a BallScheme draw
  // allocates nothing on any path: a level the landmark bound prefilled
  // (node-id draw), a level an earlier draw recorded (prefix draw), and a
  // cold level (a full ball BFS that records its size).
  const auto g = make_grid2d(32, 32);
  const NodeId n = g.num_nodes();
  const core::BallScheme fresh(g);  // never drawn from: the prefill alone
  const core::BallScheme scheme(g);
  (void)local_bfs_workspace().ball(g, 0, n);  // grows stamps and queue to n
  Rng warm(1);
  for (NodeId u = 0; u < n / 2; ++u) {
    for (int d = 0; d < 4; ++d) (void)scheme.sample_contact(u, warm);
  }

  Rng rng(2);
  std::size_t prefilled = 0, recorded = 0, cold = 0;
  NodeId sum = 0;
  const std::uint64_t before = nav::allocation_count();
  for (NodeId u = 0; u < n; ++u) {
    for (int d = 0; d < 2; ++d) {
      Rng peek = rng;
      const auto k = 1 + static_cast<std::uint32_t>(
                             peek.next_below(scheme.levels()));
      if (fresh.cached_ball_size(u, k) != 0) {
        ++prefilled;
      } else if (scheme.cached_ball_size(u, k) != 0) {
        ++recorded;
      } else {
        ++cold;
      }
      sum += scheme.sample_contact(u, rng);
    }
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "a warm ball-scheme draw must perform zero heap allocations";
  EXPECT_GT(prefilled, 0u);
  EXPECT_GT(recorded, 0u);
  EXPECT_GT(cold, 0u);
  EXPECT_GT(sum, 0u);  // keep the loop observable
}

TEST(ZeroAlloc, WarmKleinbergAndRankDrawsAllocateNothing) {
  // Both schemes draw off one BFS out of u per contact: Kleinberg's reads
  // the workspace's distance row, the rank scheme the BFS order in the
  // workspace queue. Once the calling thread's workspace has grown to n,
  // neither draw allocates an n-row or copies the order.
  const auto g = make_grid2d(24, 24);
  const NodeId n = g.num_nodes();
  const core::KleinbergScheme kleinberg(g, 2.0);
  const core::RankScheme rank(g);
  Rng warm(1);
  (void)kleinberg.sample_contact(0, warm);
  (void)rank.sample_contact(0, warm);

  Rng rng(2);
  NodeId sum = 0;
  const std::uint64_t before = nav::allocation_count();
  for (NodeId u = 0; u < n; u += 7) {
    sum += kleinberg.sample_contact(u, rng);
    sum += rank.sample_contact(u, rng);
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "a warm Kleinberg or rank draw must perform zero heap allocations";
  EXPECT_GT(sum, 0u);  // keep the loop observable
}

TEST(ZeroAlloc, ArenaRecyclingServesMissesWithoutRowAllocations) {
  // A miss is not allocation-free (the LRU list and hash map own nodes, the
  // slot handle owns a control block), but the distance ROW must come from a
  // recycled arena slot, never a fresh heap block — including on a FULL
  // cache, where the row is computed before the victim's slot frees (the
  // arena's +1 spare slot covers exactly that window). The byte counter is
  // the proof: one spilled row for n=4096 would add 16 KiB at a stroke,
  // while 37 misses of pure bookkeeping stay within a few KiB.
  const auto g = make_path(4096);
  TargetDistanceCache cache(g, 2);
  (void)cache.distances_to(0);
  (void)cache.distances_to(1);  // LRU now full: both slots resident
  (void)cache.distances_to(2);  // full-cache miss; must use the spare slot
  const std::uint64_t count_before = nav::allocation_count();
  const std::uint64_t bytes_before = nav::allocation_bytes();
  for (NodeId t = 3; t < 40; ++t) {
    (void)cache.distances_to(t);  // every miss evicts and recycles
  }
  const std::uint64_t count_after = nav::allocation_count();
  const std::uint64_t bytes_after = nav::allocation_bytes();
  EXPECT_LE(count_after - count_before, 37u * 4u);
  EXPECT_LT(bytes_after - bytes_before, 4096u * sizeof(Dist));
}

TEST(ZeroAlloc, WarmParallelSweepAllocatesNothing) {
  // The multi-worker sweep inherits the engine's allocation contract: the
  // worker-team startup and scratch growth happen on the FIRST sweep (the
  // one exempt moment); every warm sweep after that — parallel out-fill,
  // chunk-claimed top-down, bottom-up words, two-pass frontier rebuild —
  // must never touch the allocator, on any lane.
  const auto g = make_grid2d(48, 48);
  ParallelPolicy policy;
  policy.num_workers = 4;
  policy.serial_frontier_cutoff = 1;  // force the parallel code paths
  policy.min_diropt_nodes = 1;
  ParallelBfs sweep(policy);
  std::vector<Dist> out(g.num_nodes());
  sweep.distances_into(g, 0, out);  // warm: lazy thread start + scratch
  sweep.distances_into(g, 1, out, 7);

  const std::uint64_t before = nav::allocation_count();
  for (NodeId s = 0; s < 16; ++s) {
    sweep.distances_into(g, s, out);      // full sweep, all parallel levels
    sweep.distances_into(g, s, out, 6);   // bounded sweep
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "a warm ParallelBfs must perform zero heap allocations per sweep";
}

TEST(ZeroAlloc, WarmParallelForAllocatesNothing) {
  // The index loop dispatches through the process team's raw function
  // pointer with a stack-held claim counter: no std::function per task, no
  // shared counter on the heap. Once the team's threads are started, a loop
  // over a by-reference lambda never touches the allocator.
  std::vector<std::uint64_t> out(4096);
  const auto body = [&](std::size_t i) { out[i] = i * 2654435761u; };
  nav::parallel_for(0, out.size(), body);  // warm: team startup
  ASSERT_TRUE(nav::global_pool().thread_count() <= 1 ||
              nav::global_pool().started());

  const std::uint64_t before = nav::allocation_count();
  for (int round = 0; round < 16; ++round) {
    nav::parallel_for(0, out.size(), body);
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "a warm parallel_for must perform zero heap allocations";
}

TEST(ZeroAlloc, WarmPrefetchWaveAllocatesNothing) {
  // An all-hit prefetch wave is the oracle's steady state under RouteService:
  // dedup runs on grow-only thread scratch, residents are refcount copies
  // into a caller-reused vector — nothing may reach the allocator, at any
  // storage width.
  const auto g = make_grid2d(40, 40);
  const std::vector<NodeId> wave{5, 9, 13, 5, 21, 9};
  for (const auto width :
       {DistWidth::kU8, DistWidth::kU16, DistWidth::kU32}) {
    TargetDistanceCache cache(g, 8, ParallelPolicy::serial(), width);
    std::vector<DistVecPtr> pinned;
    cache.prefetch_into(wave, pinned);  // warm: misses, scratch, out growth
    cache.prefetch_into(wave, pinned);  // warm: the all-hit shape itself

    const std::uint64_t before = nav::allocation_count();
    for (int i = 0; i < 200; ++i) cache.prefetch_into(wave, pinned);
    const std::uint64_t after = nav::allocation_count();
    EXPECT_EQ(after - before, 0u)
        << width_token(width)
        << ": a resident prefetch wave must perform zero heap allocations";
    EXPECT_EQ(cache.misses(), 4u);  // only the first wave's distinct targets
  }
}

TEST(ZeroAlloc, ParallelMissWavesRecycleArenaRows) {
  // Waves with fewer misses than workers run each miss as one multi-worker
  // sweep; the row must still come from a recycled arena slot, never a
  // fresh heap block, at every storage width. Bookkeeping per miss stays
  // O(1): LRU node, map node, packed-slot control block — plus, at narrow
  // widths, the wide-window slot's control block and its window LRU node.
  // The byte counter proves no row was ever heap-spilled: it stays below
  // one packed row (n × width bytes), and a spilled widened row would be
  // larger still. The grid's diameter, 254, fits every width.
  const auto g = make_grid2d(128, 128);
  const std::size_t n = g.num_nodes();
  ParallelPolicy policy;
  policy.num_workers = 2;
  policy.serial_frontier_cutoff = 1;
  policy.min_diropt_nodes = 1;
  for (const auto width :
       {DistWidth::kU8, DistWidth::kU16, DistWidth::kU32}) {
    TargetDistanceCache cache(g, 2, policy, width);
    std::vector<DistVecPtr> pinned;
    std::vector<NodeId> wave(1);
    for (NodeId t = 0; t < 3; ++t) {  // warm: team start, spare slot, scratch
      wave[0] = t;
      cache.prefetch_into(wave, pinned);
    }
    pinned.clear();  // drop the last pin so its slot recycles
    const std::uint64_t count_before = nav::allocation_count();
    const std::uint64_t bytes_before = nav::allocation_bytes();
    for (NodeId t = 3; t < 40; ++t) {
      wave[0] = t;
      cache.prefetch_into(wave, pinned);  // miss, evict, recycle — every wave
      pinned.clear();
    }
    const std::uint64_t count_after = nav::allocation_count();
    const std::uint64_t bytes_after = nav::allocation_bytes();
    const std::uint64_t per_miss = width == DistWidth::kU32 ? 4u : 6u;
    EXPECT_LE(count_after - count_before, 37u * per_miss) << width_token(width);
    EXPECT_LT(bytes_after - bytes_before, n * width_bytes(width))
        << width_token(width);
  }
}

TEST(ZeroAlloc, WarmNarrowCacheHitAllocatesNothing) {
  // The compact-slab cache's steady state: a wide-window-resident row hit is
  // a refcount copy of the widened view, and a point query reads the packed
  // row directly (widen_entry, no row materialisation). Neither may touch
  // the allocator once warm.
  const auto g = make_grid2d(40, 40);
  TargetDistanceCache cache(g, 4, {}, DistWidth::kU16);
  const NodeId target = 123;
  (void)cache.distances_to(target);  // the one miss: BFS + narrow + widen

  const std::uint64_t before = nav::allocation_count();
  Dist sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto pin = cache.distances_to(target);  // wide-window hit
    sum += (*pin)[static_cast<NodeId>(i % g.num_nodes())];
    sum += cache.distance(7, target);  // packed point query
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "a warm narrow-width cache hit must perform zero heap allocations";
  EXPECT_GT(sum, 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ZeroAlloc, WarmLandmarkHitAllocatesNothing) {
  // The approximate backend inherits the oracle allocation contract: row
  // materialisation (triangle merge + patch BFS) happens on the miss; a warm
  // hit is an LRU splice plus a refcount copy, and point queries ride the
  // same row cache.
  const auto g = make_grid2d(32, 32);
  LandmarkOracle oracle(g, {});
  const NodeId target = g.num_nodes() - 1;
  (void)oracle.distances_to(target);  // the one miss

  const std::uint64_t before = nav::allocation_count();
  Dist sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto pin = oracle.distances_to(target);
    sum += (*pin)[static_cast<NodeId>(i % g.num_nodes())];
    sum += oracle.distance(5, target);
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "a warm landmark row hit must perform zero heap allocations";
  EXPECT_GT(sum, 0u);
  EXPECT_EQ(oracle.misses(), 1u);
  EXPECT_GE(oracle.hits(), 2000u);
}

TEST(ZeroAlloc, WarmMetricIncrementsAllocateNothing) {
  // The obs registry's hot-path contract: once this thread's shard exists
  // (created by the warm-up increments), counter inc, gauge set/add/set_max,
  // and histogram observe are wait-free stores — zero allocations.
  obs::Registry reg;
  const auto counter = reg.counter("alloc_test.counter");
  const auto gauge = reg.gauge("alloc_test.gauge");
  const auto hist = reg.histogram("alloc_test.hist", 0.0, 100.0, 32);
  counter.inc();      // warm: attaches this thread's shard
  gauge.set(1);
  hist.observe(1.0);

  const std::uint64_t before = nav::allocation_count();
  for (int i = 0; i < 10000; ++i) {
    counter.inc();
    counter.inc(3);
    gauge.add(2);
    gauge.sub(1);
    gauge.set_max(i);
    hist.observe(static_cast<double>(i % 150) - 10.0);  // bins + under + over
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "warm metric increments must perform zero heap allocations";
  EXPECT_EQ(counter.value(), 1u + 10000u * 4u);
}

TEST(ZeroAlloc, WarmTraceSpansAllocateNothing) {
  // Span recording promises zero-allocation-when-warm: the ring is created
  // on this thread's first recorded span, after which NAV_OBS_SPAN is a
  // clock read plus a locked ring write.
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(true);
  { NAV_OBS_SPAN("alloc-test-warm"); }  // warm: attaches this thread's ring

  const std::uint64_t before = nav::allocation_count();
  for (int i = 0; i < 1000; ++i) {
    NAV_OBS_SPAN("alloc-test-span", "i", static_cast<double>(i));
  }
  const std::uint64_t after = nav::allocation_count();
  tracer.set_enabled(false);
  EXPECT_EQ(after - before, 0u)
      << "warm span recording must perform zero heap allocations";
  EXPECT_GE(tracer.event_count(), 1001u);
  tracer.clear();
}

TEST(ZeroAlloc, DisabledTracerSpanSitesAllocateNothing) {
  // The common case — tracing off — must cost one relaxed load, no ring.
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(false);
  const std::uint64_t before = nav::allocation_count();
  for (int i = 0; i < 1000; ++i) {
    NAV_OBS_SPAN("disabled-span");
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u);
}

TEST(ZeroAlloc, InstrumentedWarmRouteHitAllocatesNothing) {
  // End-to-end: the oracle hit path now bumps registry counters
  // (oracle.cache_hits et al). A warm hit must STILL be allocation-free —
  // the instrumentation sweep is not allowed to tax the paths it observes.
  const auto g = make_grid2d(32, 32);
  TargetDistanceCache cache(g, 4);
  core::UniformScheme scheme(g);
  routing::GreedyRouter router(g, cache);
  const NodeId target = g.num_nodes() - 1;
  Rng rng(11);
  (void)router.route(0, target, &scheme, rng);  // warm: miss + shard attach

  const std::uint64_t before = nav::allocation_count();
  for (int i = 0; i < 200; ++i) {
    Rng trial(static_cast<std::uint64_t>(i));
    (void)router.route(static_cast<NodeId>(i % 31), target, &scheme, trial);
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "instrumented warm route hits must stay allocation-free";
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ZeroAlloc, WarmFaultFreeFaultyOracleHitAllocatesNothing) {
  // The resilience decorator must not tax the healthy path: with no fault
  // family active, a warm FaultyOracle hit is the base oracle's hit plus an
  // attempt-counter bump on an existing map entry — still allocation-free.
  // (Stall widening allocates by design — the heap copy IS the fault — so
  // only the fault-free posture carries the zero-alloc contract.)
  const auto g = make_grid2d(32, 32);
  TargetDistanceCache cache(g, 4);
  const resilience::FaultSpec spec;  // all probabilities zero
  const resilience::FaultyOracle faulty(cache, spec);
  core::UniformScheme scheme(g);
  routing::GreedyRouter router(g, faulty);
  const NodeId target = g.num_nodes() - 1;
  Rng rng(17);
  // Warm: the base cache miss, the attempt-counter map entry for `target`,
  // and the router's scratch.
  (void)router.route(0, target, &scheme, rng);

  const std::uint64_t before = nav::allocation_count();
  std::uint32_t hops = 0;
  for (int i = 0; i < 200; ++i) {
    Rng trial(static_cast<std::uint64_t>(i));
    hops += router.route(static_cast<NodeId>(i % 31), target, &scheme, trial)
                .steps;
    hops += faulty.distance(7, target);
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "a warm fault-free FaultyOracle hit must stay allocation-free";
  EXPECT_GT(hops, 0u);
  EXPECT_EQ(faulty.injected_failures(), 0u);
}

TEST(ZeroAlloc, WarmSourcedServiceWaveAddsOnlyPerMissBookkeeping) {
  // RouteService hands each wave's shard sources to the cache
  // (prefetch_sourced_into) through buffers reused across waves, like the
  // pins. Two batches of one shape — 8 shards x 4 jobs, in waves of 2 —
  // differ only in what the cache has to do: the first is all hits on
  // truncated rows, the second has one miss (a new truncated row) and one
  // upgrade (a shard whose source lies past its row's exact depth). The
  // second may allocate at most the per-miss LRU bookkeeping more (LRU node,
  // map node, slot control block; an upgrade also drops its old entry), and
  // no row may spill to the heap.
  const auto g = make_torus2d(64, 64);
  TargetDistanceCache cache(g, 16, ParallelPolicy::serial());
  const routing::GreedyRouter router(g, cache);
  api::RouteServiceOptions options;
  options.max_pinned_targets = 2;
  const api::RouteService service(g, cache, nullptr, router, options);
  const auto batch = [](std::span<const NodeId> targets, NodeId reach) {
    std::vector<api::RouteJob> jobs;
    for (const NodeId t : targets) {
      for (NodeId j = 0; j < 4; ++j) {
        jobs.push_back({(t + j * 64) % 4096, t, Rng(t * 4 + j)});
      }
    }
    jobs.back().source = (targets.back() + reach) % 4096;
    return jobs;
  };
  // Warm: grow the arena to all its slots, then empty the cache.
  for (NodeId t = 1000; t < 1017; ++t) (void)cache.distances_to(t);
  cache.clear();
  const NodeId resident[] = {0, 1, 2, 3, 4, 5, 6, 7};
  (void)service.route_jobs(batch(resident, 1));  // misses: truncated rows
  (void)service.route_jobs(batch(resident, 1));  // warm: the all-hit shape
  auto hits = batch(resident, 1);
  const std::uint64_t hit_before = nav::allocation_count();
  const std::uint64_t hit_bytes_before = nav::allocation_bytes();
  (void)service.route_jobs(std::move(hits));
  const std::uint64_t hit_allocs = nav::allocation_count() - hit_before;
  const std::uint64_t hit_bytes = nav::allocation_bytes() - hit_bytes_before;
  ASSERT_EQ(cache.misses(), 17u + 8u);

  // Shard 7 now needs d(7 + 2080, 7) = 32 + 32: past its row, an upgrade.
  const NodeId mixed[] = {0, 1, 2, 3, 4, 5, 300, 7};
  auto work = batch(mixed, 2080);
  const std::uint64_t count_before = nav::allocation_count();
  const std::uint64_t bytes_before = nav::allocation_bytes();
  (void)service.route_jobs(std::move(work));
  const std::uint64_t count = nav::allocation_count() - count_before;
  const std::uint64_t bytes = nav::allocation_bytes() - bytes_before;
  EXPECT_EQ(cache.misses(), 17u + 10u);
  EXPECT_LE(count, hit_allocs + 2u * 4u);
  EXPECT_LT(bytes, hit_bytes + g.num_nodes() * sizeof(Dist));
  EXPECT_NE(cache.peek(7), nullptr);    // upgraded: complete
  EXPECT_EQ(cache.peek(300), nullptr);  // new: truncated
}

}  // namespace
}  // namespace nav::graph
