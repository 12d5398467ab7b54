#include "graph/bfs_engine.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "runtime/scratch_pool.hpp"

namespace nav::graph {

namespace {

// Process-wide sweep instrumentation. Handles are registered once; every
// increment afterwards is a wait-free store into the calling thread's shard.
// ParallelBfs metrics are touched only by the coordinating thread — lane
// threads stay registry-free so warm parallel sweeps remain zero-allocation.
struct BfsMetrics {
  obs::Counter sweep_diropt;
  obs::Counter sweep_scalar_full;
  obs::Counter sweep_scalar_bounded;
  obs::Counter parallel_sweeps;
  obs::Counter parallel_levels;
  obs::Counter inline_levels;
  obs::HistogramHandle frontier_size;
  obs::HistogramHandle lanes_active;

  BfsMetrics()
      : sweep_diropt(obs::default_registry().counter("bfs.sweep_diropt")),
        sweep_scalar_full(
            obs::default_registry().counter("bfs.sweep_scalar_full")),
        sweep_scalar_bounded(
            obs::default_registry().counter("bfs.sweep_scalar_bounded")),
        parallel_sweeps(
            obs::default_registry().counter("parallel_bfs.sweeps")),
        parallel_levels(
            obs::default_registry().counter("parallel_bfs.levels_parallel")),
        inline_levels(
            obs::default_registry().counter("parallel_bfs.levels_inline")),
        frontier_size(obs::default_registry().histogram(
            "parallel_bfs.frontier_size", 0.0, 1 << 16, 64)),
        lanes_active(obs::default_registry().histogram(
            "parallel_bfs.lanes_active", 0.0, 64.0, 64)) {}
};

BfsMetrics& bfs_metrics() {
  static BfsMetrics* m = new BfsMetrics();
  return *m;
}

// Beamer switching thresholds: go bottom-up when the frontier's out-edges
// exceed unexplored/kAlpha, back to top-down when the frontier shrinks under
// n/kBeta. Pure heuristics — distances are level-synchronous and identical
// under any schedule.
constexpr std::uint64_t kAlpha = 15;
constexpr std::uint64_t kBeta = 18;

// Below these sizes the bitmap bookkeeping outweighs any bottom-up win.
constexpr std::size_t kDiroptMinNodes = 1024;
constexpr std::uint64_t kDiroptMinDirectedEdges = 4096;

inline void set_bit(std::vector<std::uint64_t>& bits, NodeId v) {
  bits[v >> 6] |= std::uint64_t{1} << (v & 63);
}

inline bool test_bit(const std::vector<std::uint64_t>& bits, NodeId v) {
  return (bits[v >> 6] >> (v & 63)) & 1u;
}

/// The stop rule of a source-bounded sweep, run at each level end (every
/// node at depth `depth` labelled, none deeper): advances `cursor` past the
/// labelled stop nodes, and when the last one falls at this level — so
/// D = depth — moves `limit` to D + 1, the last level the sweep labels. The
/// cursor only moves forward, so a whole sweep reads each stop node once
/// plus once per level it is still missing.
inline void advance_stop(std::span<const NodeId> stop, const Dist* out,
                         Dist depth, std::size_t& cursor, Dist& limit) {
  if (cursor == stop.size()) return;
  while (cursor < stop.size() && out[stop[cursor]] != kInfDist) ++cursor;
  if (cursor == stop.size()) limit = std::min(limit, depth + 1);
}

}  // namespace

void BfsWorkspace::prepare(std::size_t n) {
  if (stamp_.size() < n) {
    stamp_.assign(n, 0);
    if (!mark_stamp_.empty()) mark_stamp_.assign(n, 0);
    epoch_ = 0;
  }
  if (++epoch_ == 0) {
    // 16-bit generation counter wrapped: stale stamps from 65535 epochs ago
    // could collide, so pay one full clear and restart at 1 (0 is reserved
    // as "never stamped"). Amortised cost: O(n / 65535) per prepare.
    std::fill(stamp_.begin(), stamp_.end(), std::uint16_t{0});
    std::fill(mark_stamp_.begin(), mark_stamp_.end(), std::uint16_t{0});
    epoch_ = 1;
  }
  queue_.clear();
}

void BfsWorkspace::mark(NodeId v) {
  if (mark_stamp_.size() < stamp_.size()) mark_stamp_.resize(stamp_.size(), 0);
  mark_stamp_[v] = epoch_;
}

Dist BfsWorkspace::distances_into(const Graph& g, NodeId source,
                                  std::span<Dist> out, Dist radius,
                                  std::span<const NodeId> stop) {
  const std::size_t n = g.num_nodes();
  // A finite radius >= n-1 can never bind (every finite distance is at most
  // n-1), so promote it to the unbounded sweep: callers passing a "huge"
  // radius get the direction-optimizing kernel instead of silently paying a
  // bounded scan of the entire graph. last_sweep_kind() exposes the decision.
  if (radius != kInfDist && n > 0 &&
      std::uint64_t{radius} >= std::uint64_t{n - 1}) {
    radius = kInfDist;
  }
  if (radius == kInfDist && n >= kDiroptMinNodes &&
      2 * g.num_edges() >= kDiroptMinDirectedEdges) {
    last_sweep_kind_ = SweepKind::kDirectionOptimizing;
    ++sweep_tally_[static_cast<std::size_t>(SweepKind::kDirectionOptimizing)];
    bfs_metrics().sweep_diropt.inc();
    return diropt_into(g, source, out, stop);
  }
  last_sweep_kind_ = radius == kInfDist ? SweepKind::kScalarFull
                                        : SweepKind::kScalarBounded;
  ++sweep_tally_[static_cast<std::size_t>(last_sweep_kind_)];
  if (last_sweep_kind_ == SweepKind::kScalarFull) {
    bfs_metrics().sweep_scalar_full.inc();
  } else {
    bfs_metrics().sweep_scalar_bounded.inc();
  }
  return distances_into_scalar(g, source, out, radius, stop);
}

Dist BfsWorkspace::distances_into_scalar(const Graph& g, NodeId source,
                                         std::span<Dist> out, Dist radius,
                                         std::span<const NodeId> stop) {
  NAV_REQUIRE(source < g.num_nodes(), "BFS source out of range");
  NAV_REQUIRE(out.size() == g.num_nodes(), "distance output size mismatch");
  // The output doubles as the visited set (unvisited == kInfDist), so the
  // dense kernels need no stamps — only the reusable queue.
  std::fill(out.begin(), out.end(), kInfDist);
  queue_.clear();
  out[source] = 0;
  queue_.push_back(source);
  // Level by level: queue_[head..level_end) is level `depth`, fully
  // labelled. `limit` is the last level to label — the radius, or D + 1
  // once the stop rule fires.
  Dist limit = radius;
  std::size_t cursor = 0;
  std::size_t head = 0;
  for (Dist depth = 0; head < queue_.size(); ++depth) {
    advance_stop(stop, out.data(), depth, cursor, limit);
    if (depth >= limit) return limit;  // children would exceed the limit
    const std::size_t level_end = queue_.size();
    const Dist next_depth = depth + 1;
    for (; head < level_end; ++head) {
      for (const NodeId v : g.neighbors(queue_[head])) {
        if (out[v] == kInfDist) {
          out[v] = next_depth;
          queue_.push_back(v);
        }
      }
    }
  }
  return kInfDist;
}

void BfsWorkspace::ensure_bitmaps(std::size_t words) {
  if (front_bits_.size() < words) {
    front_bits_.resize(words);
    next_bits_.resize(words);
    visited_bits_.resize(words);
  }
}

Dist BfsWorkspace::diropt_into(const Graph& g, NodeId source,
                               std::span<Dist> out,
                               std::span<const NodeId> stop) {
  const std::size_t n = g.num_nodes();
  NAV_REQUIRE(source < n, "BFS source out of range");
  NAV_REQUIRE(out.size() == n, "distance output size mismatch");
  std::fill(out.begin(), out.end(), kInfDist);

  const std::size_t words = (n + 63) / 64;
  ensure_bitmaps(words);
  // Bits >= n never enter the frontier; mask them out of "unvisited".
  const std::uint64_t tail_mask =
      (n % 64) ? ((std::uint64_t{1} << (n % 64)) - 1) : ~std::uint64_t{0};

  queue_.clear();
  out[source] = 0;
  queue_.push_back(source);

  // Beamer accounting, computed on demand. Top-down levels track only node
  // counts; `unexplored` is exact for every node discovered before
  // queue_[accounted], and the degrees of queue_[accounted..) are summed
  // only when the max-degree bound cannot rule a flip out. frontier_edges is
  // exact from a flip until the flip back.
  const std::uint64_t total_edges = 2 * g.num_edges();
  const std::uint64_t max_degree = g.max_degree();
  std::uint64_t unexplored = total_edges;
  std::size_t accounted = 0;
  std::uint64_t frontier_edges = 0;
  std::size_t visited_before = 0;  // nodes in levels before the current one
  std::size_t frontier_count = 1;
  std::size_t level_begin = 0;  // current level = queue_[level_begin..end)
  Dist depth = 0;
  bool bottom_up = false;
  bool growing = true;  // frontier larger than its predecessor?
  bool bits_live = false;  // visited_bits_ opened this sweep?
  Dist limit = kInfDist;  // last level to label (the stop rule sets it)
  std::size_t cursor = 0;

  while (frontier_count > 0) {
    // Every node at `depth` is labelled here, in either direction.
    advance_stop(stop, out.data(), depth, cursor, limit);
    if (depth >= limit) return limit;
    // Beamer's switch gate needs both conditions: a frontier rich in
    // out-edges AND still growing. Past the sweep's midpoint frontiers
    // shrink while unexplored edges run out, and flipping there would make
    // every tail level scan all remaining unvisited nodes fruitlessly.
    if (!bottom_up && growing) {
      // Every degree is at most max_degree, so frontier_count * max_degree
      // bounds the frontier's edges from above and total_edges -
      // visited_before * max_degree bounds the unexplored edges from below.
      // Integer division is monotone: when the bound fails, the exact test
      // fails too. On regular graphs the bound is the exact test.
      const std::size_t level_end = queue_.size();
      const std::uint64_t seen_high = visited_before * max_degree;
      const std::uint64_t unexplored_low =
          seen_high < total_edges ? total_edges - seen_high : 0;
      if (frontier_count * max_degree > unexplored_low / kAlpha) {
        for (; accounted < level_begin; ++accounted) {
          unexplored -= g.degree(queue_[accounted]);
        }
        frontier_edges = 0;
        for (std::size_t i = level_begin; i < level_end; ++i) {
          frontier_edges += g.degree(queue_[i]);
        }
        if (frontier_edges > unexplored / kAlpha) {
          // Flip to bottom-up: the queue holds every node discovered since
          // the sweep began (or since the last flip back, with the rest
          // already in visited_bits_), the current level at its tail.
          if (!bits_live) {
            std::fill(visited_bits_.begin(), visited_bits_.begin() + words,
                      0u);
            bits_live = true;
          }
          std::fill(front_bits_.begin(), front_bits_.begin() + words, 0u);
          for (std::size_t i = 0; i < level_end; ++i) {
            set_bit(visited_bits_, queue_[i]);
          }
          for (std::size_t i = level_begin; i < level_end; ++i) {
            set_bit(front_bits_, queue_[i]);
          }
          bottom_up = true;
        } else {
          unexplored -= frontier_edges;
          accounted = level_end;
        }
      }
    }

    if (bottom_up) {
      // Bottom-up level: every unvisited node scans its own neighbours for a
      // frontier member and stops at the first hit.
      ++bottom_up_levels_;
      std::fill(next_bits_.begin(), next_bits_.begin() + words, 0u);
      std::size_t next_count = 0;
      std::uint64_t next_edges = 0;
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t unvisited = ~visited_bits_[w];
        if (w == words - 1) unvisited &= tail_mask;
        while (unvisited != 0) {
          const auto bit = static_cast<unsigned>(std::countr_zero(unvisited));
          unvisited &= unvisited - 1;
          const auto v = static_cast<NodeId>(w * 64 + bit);
          for (const NodeId u : g.neighbors(v)) {
            if (test_bit(front_bits_, u)) {
              out[v] = depth + 1;
              set_bit(next_bits_, v);
              ++next_count;
              next_edges += g.degree(v);
              break;
            }
          }
        }
      }
      // Newly found nodes enter visited after the scan (a level must not see
      // its own members as frontier candidates' "visited").
      for (std::size_t w = 0; w < words; ++w) visited_bits_[w] |= next_bits_[w];
      std::swap(front_bits_, next_bits_);
      unexplored -= frontier_edges;
      visited_before += frontier_count;
      growing = next_count > frontier_count;
      frontier_count = next_count;
      frontier_edges = next_edges;
      ++depth;
      if (frontier_count > 0 && !growing && frontier_count < n / kBeta) {
        // Flip back: rebuild the queue from the frontier bitmap. unexplored
        // is exact up to the new frontier, which now opens the queue.
        queue_.clear();
        for (std::size_t w = 0; w < words; ++w) {
          std::uint64_t bits = front_bits_[w];
          while (bits != 0) {
            const auto bit = static_cast<unsigned>(std::countr_zero(bits));
            bits &= bits - 1;
            queue_.push_back(static_cast<NodeId>(w * 64 + bit));
          }
        }
        level_begin = 0;
        accounted = 0;
        bottom_up = false;
      }
    } else {
      // Top-down level: the scalar kernel's loop, with out[] as the only
      // visited set.
      const std::size_t level_end = queue_.size();
      const Dist next_depth = depth + 1;
      for (std::size_t i = level_begin; i < level_end; ++i) {
        for (const NodeId v : g.neighbors(queue_[i])) {
          if (out[v] == kInfDist) {
            out[v] = next_depth;
            queue_.push_back(v);
          }
        }
      }
      level_begin = level_end;
      visited_before += frontier_count;
      const std::size_t next_count = queue_.size() - level_end;
      growing = next_count > frontier_count;
      frontier_count = next_count;
      ++depth;
    }
  }
  return kInfDist;
}

std::span<const Dist> BfsWorkspace::distances(const Graph& g, NodeId source,
                                              Dist radius) {
  const std::size_t n = g.num_nodes();
  if (row_.size() < n) row_.resize(n);
  const std::span<Dist> row{row_.data(), n};
  distances_into(g, source, row, radius);
  return row;
}

BfsWorkspace::BallView BfsWorkspace::ball(const Graph& g, NodeId center,
                                          Dist radius) {
  NAV_REQUIRE(center < g.num_nodes(), "ball center out of range");
  const std::size_t n = g.num_nodes();
  prepare(n);
  try_visit(center);
  queue_.push_back(center);
  std::size_t head = 0;
  std::size_t level_end = 1;
  Dist depth = 0;
  BallView view;
  while (head < queue_.size() && depth < radius) {
    while (head < level_end) {
      const NodeId u = queue_[head++];
      for (const NodeId v : g.neighbors(u)) {
        if (try_visit(v)) queue_.push_back(v);
      }
    }
    ++depth;
    level_end = queue_.size();
    if (queue_.size() == n) {
      // The ball swallowed the graph: no later level can add members, and
      // depth is an eccentricity upper bound for the center.
      view.whole_graph = true;
      view.exhausted_depth = depth;
      break;
    }
  }
  view.order = {queue_.data(), queue_.size()};
  return view;
}

NodeId BfsWorkspace::nth_in_order(const Graph& g, NodeId center,
                                  std::size_t index) {
  NAV_REQUIRE(center < g.num_nodes(), "ball center out of range");
  prepare(g.num_nodes());
  try_visit(center);
  queue_.push_back(center);
  // A FIFO queue expanded node by node discovers in the same order as the
  // level-by-level ball() loop; later pushes never move queue_[index].
  for (std::size_t head = 0; queue_.size() <= index; ++head) {
    NAV_REQUIRE(head < queue_.size(), "index beyond the reachable set");
    for (const NodeId v : g.neighbors(queue_[head])) {
      if (try_visit(v)) queue_.push_back(v);
    }
  }
  return queue_[index];
}

Dist BfsWorkspace::eccentricity(const Graph& g, NodeId source) {
  NAV_REQUIRE(source < g.num_nodes(), "BFS source out of range");
  prepare(g.num_nodes());
  try_visit(source);
  queue_.push_back(source);
  std::size_t head = 0;
  std::size_t level_end = 1;
  Dist ecc = 0;
  while (head < queue_.size()) {
    while (head < level_end) {
      const NodeId u = queue_[head++];
      for (const NodeId v : g.neighbors(u)) {
        if (try_visit(v)) queue_.push_back(v);
      }
    }
    if (queue_.size() > level_end) ++ecc;  // a new, non-empty level exists
    level_end = queue_.size();
  }
  return ecc;
}

FarthestResult BfsWorkspace::farthest(const Graph& g, NodeId source) {
  NAV_REQUIRE(source < g.num_nodes(), "BFS source out of range");
  prepare(g.num_nodes());
  try_visit(source);
  queue_.push_back(source);
  std::size_t head = 0;
  std::size_t level_end = 1;
  std::size_t level_begin = 0;
  Dist ecc = 0;
  while (head < queue_.size()) {
    while (head < level_end) {
      const NodeId u = queue_[head++];
      for (const NodeId v : g.neighbors(u)) {
        if (try_visit(v)) queue_.push_back(v);
      }
    }
    if (queue_.size() > level_end) {
      ++ecc;
      level_begin = level_end;  // the new last level starts here
    }
    level_end = queue_.size();
  }
  // queue_[level_begin..end) holds exactly the nodes at distance ecc;
  // smallest id among them matches the reference's ascending-id scan.
  NodeId best = queue_[level_begin];
  for (std::size_t i = level_begin + 1; i < queue_.size(); ++i) {
    best = std::min(best, queue_[i]);
  }
  return {best, ecc};
}

BfsWorkspace& local_bfs_workspace() {
  return nav::thread_scratch<BfsWorkspace>();
}

// ---- multi-worker sweeps -------------------------------------------------

std::size_t ParallelPolicy::resolved_workers() const noexcept {
  return num_workers == 0 ? WorkerTeam::default_threads() : num_workers;
}

ParallelBfs::ParallelBfs(ParallelPolicy policy)
    : policy_(policy), team_(policy.resolved_workers()) {}

void ParallelBfs::ensure_capacity(std::size_t n, std::size_t words) {
  if (frontier_.size() < n) frontier_.resize(n);
  if (front_bits_.size() < words) {
    front_bits_.resize(words);
    next_bits_.resize(words);
    visited_bits_.resize(words);
  }
  const std::size_t lanes = team_.thread_count();
  if (lane_stats_.size() < lanes) lane_stats_.resize(lanes);
  if (lane_offsets_.size() < lanes + 1) lane_offsets_.resize(lanes + 1);
}

void ParallelBfs::rebuild_frontier(std::size_t words, std::size_t next_count) {
  frontier_count_ = next_count;
  if (next_count == 0) return;
  const std::size_t lanes = team_.thread_count();
  if (next_count < policy_.serial_frontier_cutoff) {
    // Small frontier: one ascending scan on the coordinating lane.
    std::size_t pos = 0;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = front_bits_[w];
      while (bits != 0) {
        const auto bit = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        frontier_[pos++] = static_cast<NodeId>(w * 64 + bit);
      }
    }
    return;
  }
  // Deterministic two-pass merge: each lane popcounts its word range, lane 0
  // prefix-sums the counts into write offsets, then every lane fills its
  // slice. The result is the ascending-id node list regardless of lane count
  // or interleaving — the canonical frontier order the determinism tests pin.
  team_.run([&](std::size_t lane) {
    const std::size_t w0 = words * lane / lanes;
    const std::size_t w1 = words * (lane + 1) / lanes;
    std::size_t count = 0;
    for (std::size_t w = w0; w < w1; ++w) {
      count += static_cast<std::size_t>(std::popcount(front_bits_[w]));
    }
    lane_offsets_[lane + 1] = count;
  });
  lane_offsets_[0] = 0;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    lane_offsets_[lane + 1] += lane_offsets_[lane];
  }
  NAV_ASSERT(lane_offsets_[lanes] == next_count);
  team_.run([&](std::size_t lane) {
    const std::size_t w0 = words * lane / lanes;
    const std::size_t w1 = words * (lane + 1) / lanes;
    std::size_t pos = lane_offsets_[lane];
    for (std::size_t w = w0; w < w1; ++w) {
      std::uint64_t bits = front_bits_[w];
      while (bits != 0) {
        const auto bit = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        frontier_[pos++] = static_cast<NodeId>(w * 64 + bit);
      }
    }
  });
}

Dist ParallelBfs::distances_into(const Graph& g, NodeId source,
                                 std::span<Dist> out, Dist radius,
                                 std::span<const NodeId> stop) {
  const std::size_t n = g.num_nodes();
  NAV_REQUIRE(source < n, "BFS source out of range");
  NAV_REQUIRE(out.size() == n, "distance output size mismatch");
  // Same radius promotion as the workspace dispatcher: a bound that cannot
  // bind is treated as unbounded so both engines agree on the cutover.
  if (radius != kInfDist && n > 0 &&
      std::uint64_t{radius} >= std::uint64_t{n - 1}) {
    radius = kInfDist;
  }
  const std::size_t lanes = team_.thread_count();
  if (lanes <= 1 || n < 2) {
    return serial_ws_.distances_into(g, source, out, radius, stop);
  }

  const std::size_t words = (n + 63) / 64;
  ensure_capacity(n, words);
  const std::uint64_t tail_mask =
      (n % 64) ? ((std::uint64_t{1} << (n % 64)) - 1) : ~std::uint64_t{0};

  // Parallel out-fill, each lane a contiguous range: on NUMA hosts this is
  // the first touch of a caller-fresh slab, so pages land near the lanes
  // that sweep them.
  Dist* const dist = out.data();
  team_.run([&](std::size_t lane) {
    const std::size_t lo = n * lane / lanes;
    const std::size_t hi = n * (lane + 1) / lanes;
    std::fill(dist + lo, dist + hi, kInfDist);
  });
  std::fill(visited_bits_.begin(), visited_bits_.begin() + words, 0u);
  std::fill(front_bits_.begin(), front_bits_.begin() + words, 0u);

  dist[source] = 0;
  set_bit(front_bits_, source);
  set_bit(visited_bits_, source);
  frontier_[0] = source;
  frontier_count_ = 1;

  const bool allow_bottom_up = radius == kInfDist &&
                               n >= policy_.min_diropt_nodes &&
                               2 * g.num_edges() >= kDiroptMinDirectedEdges;

  std::uint64_t unexplored = 2 * g.num_edges();
  std::uint64_t frontier_edges = g.degree(source);
  bool growing = true;
  bool bottom_up = false;
  Dist depth = 0;

  // Coordinator-only instrumentation: lane closures never touch the registry,
  // so warm parallel sweeps stay zero-allocation and lane code stays lean.
  // Per-level counts accumulate locally and post once at sweep end.
  bfs_metrics().parallel_sweeps.inc();
  std::uint64_t levels_parallel = 0;
  std::uint64_t levels_inline = 0;
  // The last level to label: the radius, or D + 1 once the stop rule fires
  // (checked after each level's barrier, when the level is fully labelled).
  Dist limit = radius;
  std::size_t cursor = 0;

  while (frontier_count_ > 0) {
    advance_stop(stop, dist, depth, cursor, limit);
    if (depth >= limit) break;  // children would exceed the limit
    if (allow_bottom_up) {
      // The scalar engine's Beamer hysteresis, verbatim: flip down only
      // while the frontier is rich AND growing, flip back once it shrinks
      // under n/beta. Pure heuristics — output is schedule-independent.
      if (!bottom_up && growing && frontier_edges > unexplored / kAlpha) {
        bottom_up = true;
      } else if (bottom_up && !growing && frontier_count_ < n / kBeta) {
        bottom_up = false;
      }
    }

    std::fill(next_bits_.begin(), next_bits_.begin() + words, 0u);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      lane_stats_[lane].next_count = 0;
      lane_stats_[lane].next_edges = 0;
    }
    const Dist next_depth = depth + 1;

    if (bottom_up) {
      // Bottom-up, range-split: each lane owns a contiguous word range of
      // the bitmaps, testing 64 unvisited candidates per uint64_t word; a
      // candidate joins the level when any neighbour sits in the frontier
      // bitmap. All writes (dist, next word) hit lane-owned slots, so the
      // level is race-free with plain stores.
      team_.run([&](std::size_t lane) {
        const std::size_t w0 = words * lane / lanes;
        const std::size_t w1 = words * (lane + 1) / lanes;
        std::uint64_t count = 0;
        std::uint64_t edges = 0;
        for (std::size_t w = w0; w < w1; ++w) {
          std::uint64_t unvisited = ~visited_bits_[w];
          if (w == words - 1) unvisited &= tail_mask;
          std::uint64_t found = 0;
          while (unvisited != 0) {
            const auto bit = static_cast<unsigned>(std::countr_zero(unvisited));
            unvisited &= unvisited - 1;
            const auto v = static_cast<NodeId>(w * 64 + bit);
            for (const NodeId u : g.neighbors(v)) {
              if (test_bit(front_bits_, u)) {
                dist[v] = next_depth;
                found |= std::uint64_t{1} << bit;
                ++count;
                edges += g.degree(v);
                break;
              }
            }
          }
          if (found != 0) next_bits_[w] = found;
        }
        lane_stats_[lane].next_count = count;
        lane_stats_[lane].next_edges = edges;
      });
    } else if (frontier_count_ < policy_.serial_frontier_cutoff) {
      // Tiny level: fork/join overhead would dominate, expand inline.
      std::uint64_t count = 0;
      std::uint64_t edges = 0;
      for (std::size_t i = 0; i < frontier_count_; ++i) {
        const NodeId u = frontier_[i];
        for (const NodeId v : g.neighbors(u)) {
          if (dist[v] == kInfDist) {
            dist[v] = next_depth;
            set_bit(next_bits_, v);
            ++count;
            edges += g.degree(v);
          }
        }
      }
      lane_stats_[0].next_count = count;
      lane_stats_[0].next_edges = edges;
    } else {
      // Top-down, frontier-chunked: lanes claim fixed-size chunks off a
      // shared counter (the parallel_for idiom) and claim nodes
      // with a CAS on the output distance — the winner also publishes the
      // node into the next-frontier bitmap with an atomic fetch_or. Every
      // winner writes the same value (next_depth), so the output cannot
      // depend on which lane wins a race.
      chunk_next_.store(0, std::memory_order_relaxed);
      team_.run([&](std::size_t lane) {
        constexpr std::size_t kChunk = 64;
        std::uint64_t count = 0;
        std::uint64_t edges = 0;
        while (true) {
          const std::size_t begin =
              chunk_next_.fetch_add(kChunk, std::memory_order_relaxed);
          if (begin >= frontier_count_) break;
          const std::size_t end = std::min(frontier_count_, begin + kChunk);
          for (std::size_t i = begin; i < end; ++i) {
            const NodeId u = frontier_[i];
            for (const NodeId v : g.neighbors(u)) {
              std::atomic_ref<Dist> slot(dist[v]);
              if (slot.load(std::memory_order_relaxed) != kInfDist) continue;
              Dist expected = kInfDist;
              if (slot.compare_exchange_strong(expected, next_depth,
                                               std::memory_order_relaxed)) {
                std::atomic_ref<std::uint64_t>(next_bits_[v >> 6])
                    .fetch_or(std::uint64_t{1} << (v & 63),
                              std::memory_order_relaxed);
                ++count;
                edges += g.degree(v);
              }
            }
          }
        }
        lane_stats_[lane].next_count = count;
        lane_stats_[lane].next_edges = edges;
      });
    }

    const bool expanded_inline =
        !bottom_up && frontier_count_ < policy_.serial_frontier_cutoff;
    std::size_t next_count = 0;
    std::uint64_t next_edges = 0;
    std::size_t active_lanes = 0;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      next_count += static_cast<std::size_t>(lane_stats_[lane].next_count);
      next_edges += lane_stats_[lane].next_edges;
      if (lane_stats_[lane].next_count > 0) ++active_lanes;
    }
    if (expanded_inline) {
      ++levels_inline;
    } else {
      ++levels_parallel;
      bfs_metrics().lanes_active.observe(static_cast<double>(active_lanes));
    }
    bfs_metrics().frontier_size.observe(
        static_cast<double>(frontier_count_));
    // The level barrier has passed: fold the level into visited, make its
    // bitmap the new frontier, and rebuild the node list in ascending order.
    for (std::size_t w = 0; w < words; ++w) visited_bits_[w] |= next_bits_[w];
    std::swap(front_bits_, next_bits_);
    const std::size_t prev_count = frontier_count_;
    rebuild_frontier(words, next_count);

    unexplored -= std::min<std::uint64_t>(unexplored, frontier_edges);
    growing = next_count > prev_count;
    frontier_edges = next_edges;
    ++depth;
  }

  if (levels_parallel > 0) bfs_metrics().parallel_levels.inc(levels_parallel);
  if (levels_inline > 0) bfs_metrics().inline_levels.inc(levels_inline);
  return frontier_count_ > 0 ? limit : kInfDist;
}

}  // namespace nav::graph
