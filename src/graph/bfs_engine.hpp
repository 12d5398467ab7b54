// bfs_engine.hpp — the library's one BFS surface.
//
// Every subsystem bottoms out in unweighted BFS: the distance oracle runs
// one sweep per distinct target, the Theorem 4 ball scheme samples from
// B(u, 2^k) millions of times, the rank and Kleinberg schemes read the BFS
// order or row out of u, diameter/pathshape sweep all sources, and
// lookahead routers multiply distance queries per hop. All of them run on a
// BfsWorkspace; the only other engine is ParallelBfs, the narrow-wave sweep
// of TargetDistanceCache (below).
//
// Design:
//
//   * BfsWorkspace owns grow-only scratch (a queue, epoch-stamped visited /
//     marker arrays, frontier bitmaps, one distance row). prepare() opens a
//     fresh traversal in O(1) by bumping a 16-bit generation counter — a
//     node is visited iff its stamp equals the current epoch, so nothing is
//     cleared between traversals. On epoch wraparound (every 65535
//     prepares) the stamp arrays are re-zeroed once, keeping the reset
//     amortised O(1) and the stale-stamp collision impossible (tested by a
//     >2^16-iteration stress).
//
//   * Dense kernels write a full distance row. distances_into writes
//     straight into a caller-provided span — e.g. an arena slot of the
//     distance oracle — using the output itself as the visited set;
//     distances() writes the workspace's own row, for callers that read a
//     row once. A warm workspace performs ZERO heap allocations per sweep
//     (proven by the counting-allocator test).
//
//   * distances_into with radius == kInfDist runs the direction-optimizing
//     kernel (Beamer et al., "Direction-Optimizing Breadth-First Search"):
//     when the frontier's out-edges exceed 1/alpha of the unexplored edges
//     the sweep flips to bottom-up — every unvisited node scans its own
//     neighbours for a frontier member and stops at the first hit — and
//     flips back once the frontier falls under n/beta. Top-down levels are
//     lean: they run the scalar kernel's loop with the output as the only
//     visited set, and keep no bitmap and no degree sums. Before each
//     top-down level that could flip, a max-degree bound on the Beamer test
//     decides whether a flip is possible at all; only when it is does the
//     kernel sum the exact degrees from the queue, and it builds the
//     bitmaps only when it actually flips. Every flip decision equals the
//     one exact per-level accounting would make (bottom_up_levels() lets
//     tests pin that). On low-diameter families (G(n,p), random regular)
//     where frontiers explode the flip is worth 2-4x; distances are
//     bit-identical to the scalar kernel by level synchronisation
//     (differential-tested across all families).
//
//   * Sparse kernels (ball / eccentricity / farthest) never touch O(n)
//     output: cost is O(|visited| + |edges scanned|) via the epoch stamps.
//     This is what makes the ball scheme's inner sampling loop cheap.
//
//   * The visitation primitives (prepare / try_visit / visited / mark /
//     marked / queue) are public so specialised traversals — bag-length
//     measurement in decomposition/measures.cpp, the workload ball sampler —
//     build on the same scratch instead of growing their own.
//
// Workspaces are pooled per worker thread: call local_bfs_workspace() (built
// on runtime/scratch_pool.hpp) from any thread, including nav::parallel_for
// bodies — each worker reuses its private instance with no synchronisation.
// A workspace is NOT re-entrant: one traversal at a time per instance.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/worker_team.hpp"

namespace nav::graph {

/// Farthest node from a source (smallest id among ties) and its distance.
/// Building block of the double-sweep diameter heuristic.
struct FarthestResult {
  NodeId node = kNoNode;
  Dist distance = 0;
};

class BfsWorkspace {
 public:
  // ---- lifecycle --------------------------------------------------------
  /// Opens a fresh traversal over a graph of (at least) n nodes: bumps the
  /// epoch and clears the queue. O(1) amortised; allocates only when n grows
  /// beyond every previous prepare on this instance.
  void prepare(std::size_t n);

  /// Current generation counter (diagnostics; lets the wraparound stress
  /// test assert it actually wrapped).
  [[nodiscard]] std::uint16_t epoch() const noexcept { return epoch_; }

  /// Nodes this workspace can traverse without reallocating.
  [[nodiscard]] std::size_t capacity() const noexcept { return stamp_.size(); }

  // ---- visitation primitives (valid between prepares) -------------------
  /// Marks v visited; true iff v was unvisited this epoch.
  bool try_visit(NodeId v) {
    if (stamp_[v] == epoch_) return false;
    stamp_[v] = epoch_;
    return true;
  }
  [[nodiscard]] bool visited(NodeId v) const { return stamp_[v] == epoch_; }

  /// Second, independent epoch-scoped marker channel (bag membership,
  /// source sets). Lazily sized on first use; wraps with the visited stamps.
  void mark(NodeId v);
  [[nodiscard]] bool marked(NodeId v) const {
    return v < mark_stamp_.size() && mark_stamp_[v] == epoch_;
  }

  /// Scratch queue for custom traversals (also used by the kernels below;
  /// contents are invalidated by any kernel call on this workspace).
  [[nodiscard]] std::vector<NodeId>& queue() noexcept { return queue_; }

  // ---- dense kernels (write a full distance array) -----------------------
  /// Which kernel the last dense sweep on this workspace dispatched to —
  /// the observable surface of the sparse/dense cutover (tests pin it).
  enum class SweepKind : std::uint8_t {
    kNone,                 ///< no dense sweep yet
    kScalarBounded,        ///< frontier-bounded scalar kernel (binding radius)
    kScalarFull,           ///< scalar full sweep (graph under the diropt gate)
    kDirectionOptimizing,  ///< Beamer-style hybrid full sweep
  };
  [[nodiscard]] SweepKind last_sweep_kind() const noexcept {
    return last_sweep_kind_;
  }

  /// Cumulative dense sweeps dispatched to `kind` on this workspace since
  /// construction — the per-instance tally behind last_sweep_kind(), and the
  /// surface bench_micro's strict sweep-kind gate cells read. Mirrored into
  /// the process-wide `bfs.sweep_*` registry counters.
  [[nodiscard]] std::uint64_t sweep_count(SweepKind kind) const noexcept {
    return sweep_tally_[static_cast<std::size_t>(kind)];
  }

  /// Cumulative bottom-up levels the direction-optimizing kernel has run on
  /// this workspace since construction — the observable surface of its flip
  /// schedule (distances are identical under any schedule, so tests and
  /// bench_micro's strict M1 cells pin the schedule through this count).
  [[nodiscard]] std::uint64_t bottom_up_levels() const noexcept {
    return bottom_up_levels_;
  }

  /// Single-source distances into out (size n; unreached entries get
  /// kInfDist). radius == kInfDist runs the direction-optimizing full sweep;
  /// a finite radius runs the frontier-bounded scalar kernel (nodes farther
  /// than radius keep kInfDist). A finite radius >= n-1 can never bind (all
  /// finite distances are <= n-1), so it is explicitly promoted to the
  /// unbounded direction-optimizing sweep instead of silently degrading to
  /// a bounded scan of the whole graph — last_sweep_kind() exposes the
  /// decision. Zero allocations once warm.
  ///
  /// `stop` bounds the sweep by a set of nodes instead of a fixed radius:
  /// once every stop node is labelled, at depth D = max d(source, stop), the
  /// sweep labels level D + 1 and ends, so out is exact on B(source, D + 1)
  /// and kInfDist beyond. An empty set, or one holding a node the source
  /// cannot reach, sweeps to exhaustion. Returns the depth through which out
  /// is exact: the binding radius or D + 1, or kInfDist when the sweep ran
  /// out of frontier (out is then the complete row).
  Dist distances_into(const Graph& g, NodeId source, std::span<Dist> out,
                      Dist radius = kInfDist,
                      std::span<const NodeId> stop = {});

  /// The scalar reference kernel behind distances_into — public so
  /// differential tests can pin the direction-optimizing kernel against it.
  /// Same radius, stop and return contract. 64-byte aligned like
  /// diropt_into, so an unrelated edit cannot shift the hot loop's code
  /// layout.
  __attribute__((aligned(64))) Dist distances_into_scalar(
      const Graph& g, NodeId source, std::span<Dist> out,
      Dist radius = kInfDist, std::span<const NodeId> stop = {});

  /// distances_into on the workspace's own grow-only row, for callers that
  /// read a row once: the span covers g's n nodes and stays valid until the
  /// next kernel call or prepare on this instance (the BallView::order
  /// contract). Zero allocations once warm.
  [[nodiscard]] std::span<const Dist> distances(const Graph& g, NodeId source,
                                                Dist radius = kInfDist);

  // ---- sparse kernels (cost O(|ball|), no O(n) output) -------------------
  /// The ball B(center, radius) in BFS (distance, id) order.
  struct BallView {
    /// Members in discovery order, center first. Points into the workspace
    /// queue: valid until the next kernel call or prepare on this instance.
    std::span<const NodeId> order;
    /// True when the ball swallowed the whole graph at depth <= radius; the
    /// expansion stops there (further levels cannot add members).
    bool whole_graph = false;
    /// The depth at which that happened (an eccentricity upper bound for
    /// center); 0 when whole_graph is false.
    Dist exhausted_depth = 0;
  };
  /// 64-byte aligned, like nth_in_order: the ball scheme's draws run these
  /// two loops, so pin their code layout against edits elsewhere.
  [[nodiscard]] __attribute__((aligned(64))) BallView ball(
      const Graph& g, NodeId center, Dist radius);

  /// The index-th node BFS from center discovers (center is index 0) — the
  /// same order ball() reports, which does not depend on the radius, so
  /// nth_in_order(g, c, i) == ball(g, c, R).order[i] for every R whose ball
  /// holds more than i nodes. Expansion stops as soon as that node is
  /// discovered: cost O(prefix), not O(|ball|). Requires index < the number
  /// of nodes reachable from center.
  [[nodiscard]] __attribute__((aligned(64))) NodeId nth_in_order(
      const Graph& g, NodeId center, std::size_t index);

  /// max { dist(source, v) : v reachable } without materialising distances.
  [[nodiscard]] Dist eccentricity(const Graph& g, NodeId source);

  /// Farthest reachable node (smallest id among ties) and its distance.
  [[nodiscard]] FarthestResult farthest(const Graph& g, NodeId source);

 private:
  /// 64-byte aligned: the hot BFS loop's speed depends on its code layout,
  /// so pin it against edits elsewhere in the library.
  __attribute__((aligned(64))) Dist diropt_into(
      const Graph& g, NodeId source, std::span<Dist> out,
      std::span<const NodeId> stop);
  void ensure_bitmaps(std::size_t words);

  std::vector<std::uint16_t> stamp_;       // visited iff stamp_[v] == epoch_
  std::vector<std::uint16_t> mark_stamp_;  // marked  iff mark_stamp_[v] == epoch_
  std::uint16_t epoch_ = 0;
  SweepKind last_sweep_kind_ = SweepKind::kNone;
  std::uint64_t sweep_tally_[4] = {0, 0, 0, 0};  // indexed by SweepKind
  std::uint64_t bottom_up_levels_ = 0;
  std::vector<NodeId> queue_;
  // Direction-optimizing scratch: current/next frontier and visited bitmaps,
  // filled only once a sweep flips bottom-up.
  std::vector<std::uint64_t> front_bits_, next_bits_, visited_bits_;
  std::vector<Dist> row_;  // the distances() row
};

/// The calling thread's pooled workspace (one per worker thread, via
/// runtime/scratch_pool.hpp). Safe from parallel_for bodies; never hold the
/// reference across a point where the same thread may re-enter the engine —
/// including a parallel_for whose body uses it, since lane 0 is the caller.
[[nodiscard]] BfsWorkspace& local_bfs_workspace();

// ---- multi-worker sweeps -------------------------------------------------

/// How much of the machine a parallel consumer may use. The one knob the
/// parallel sweep, the DistanceMatrix and LandmarkOracle builds, and the
/// oracle prefetch waves all hang off: num_workers == 0 means hardware
/// concurrency, 1 forces the scalar/serial path (the differential reference
/// schedule). The remaining fields are adaptivity thresholds with
/// production defaults; tests lower them to force every parallel code path
/// onto small graphs.
struct ParallelPolicy {
  /// Worker lanes (0 = one per hardware thread; 1 = serial).
  std::size_t num_workers = 0;
  /// Levels with fewer frontier nodes than this expand inline on the
  /// coordinating lane — fork/join costs more than it saves on tiny levels.
  std::size_t serial_frontier_cutoff = 1024;
  /// Graphs under this many nodes skip the bottom-up machinery entirely
  /// (mirrors the scalar engine's direction-optimizing gate).
  std::size_t min_diropt_nodes = 1024;

  /// num_workers resolved against the hardware (always >= 1).
  [[nodiscard]] std::size_t resolved_workers() const noexcept;

  /// The serial schedule: the differential-test and bench baseline.
  [[nodiscard]] static ParallelPolicy serial() noexcept {
    ParallelPolicy policy;
    policy.num_workers = 1;
    return policy;
  }
};

/// Multi-worker direction-optimizing BFS over a private WorkerTeam: the
/// narrow-wave engine of TargetDistanceCache, which runs each miss of a wave
/// with fewer misses than workers as one such sweep.
///
/// One sweep fans its levels across policy.num_workers lanes: top-down
/// levels are frontier-chunked (lanes claim fixed-size chunks off a shared
/// atomic counter — the parallel_for idiom — and claim nodes with a
/// CAS on the output distance), bottom-up levels are range-split over a
/// bitmap frontier (each lane owns a contiguous word range and tests 64
/// unvisited candidates per uint64_t word, scanning each candidate's
/// adjacency for a frontier parent). Every level ends at a barrier and the
/// next frontier is rebuilt from its bitmap in ascending node order — a
/// deterministic merge, so internal state never depends on lane
/// interleaving.
///
/// Determinism: distances are level-synchronous, so the output is
/// bit-identical to BfsWorkspace::distances_into_scalar for EVERY worker
/// count, radius, and graph — the parallel_bfs differential suite pins this
/// across all registered families. With one resolved worker the sweep
/// delegates to the scalar engine outright.
///
/// A warm instance performs zero heap allocations per sweep (scratch is
/// grow-only, the team dispatches through raw function pointers); the only
/// exempt moment is the lazy worker-team startup on the first parallel run.
/// One sweep at a time per instance. Safe from inside nav::parallel_for
/// bodies: the team is private, so its lanes never wait on the process team.
class ParallelBfs {
 public:
  explicit ParallelBfs(ParallelPolicy policy = {});

  /// Lanes this instance fans out to (>= 1).
  [[nodiscard]] std::size_t workers() const noexcept {
    return team_.thread_count();
  }

  /// The underlying fork-join team — exposed for lane-failure injection
  /// (WorkerTeam::fail_lane) in resilience tests and benches.
  [[nodiscard]] WorkerTeam& team() noexcept { return team_; }
  [[nodiscard]] const ParallelPolicy& policy() const noexcept {
    return policy_;
  }

  /// Single-source distances into out (size n; unreached entries keep
  /// kInfDist), frontier-bounded when radius binds or once every `stop`
  /// node is labelled — the parallel equivalent of
  /// BfsWorkspace::distances_into, with the same return value, and
  /// bit-identical to it (and to the scalar reference) at every worker
  /// count.
  Dist distances_into(const Graph& g, NodeId source, std::span<Dist> out,
                      Dist radius = kInfDist,
                      std::span<const NodeId> stop = {});

 private:
  struct LaneStats {
    std::uint64_t next_count = 0;
    std::uint64_t next_edges = 0;
    char pad[48];  // keep lanes off each other's cache line
  };

  void ensure_capacity(std::size_t n, std::size_t words);
  void rebuild_frontier(std::size_t words, std::size_t next_count);

  ParallelPolicy policy_;
  WorkerTeam team_;
  BfsWorkspace serial_ws_;  // the one-worker / small-graph delegate

  std::vector<NodeId> frontier_;  // current frontier, ascending node order
  std::size_t frontier_count_ = 0;
  std::vector<std::uint64_t> front_bits_, next_bits_, visited_bits_;
  std::vector<LaneStats> lane_stats_;
  std::vector<std::size_t> lane_offsets_;  // frontier-fill write positions
  std::atomic<std::size_t> chunk_next_{0};
};

}  // namespace nav::graph
