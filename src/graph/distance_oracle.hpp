// distance_oracle.hpp — distance services for the greedy router.
//
// Greedy routing only ever asks "dist_G(x, t)" for the *current target* t,
// and only near the route: every hop strictly descends, so a route from s
// reads distances that can change a decision only inside B(t, d(s, t) + 1)
// (the contract Router::route_resolved documents). A batch that knows its
// sources can therefore ask for rows exact only that far
// (prefetch_sourced_into). Two strategies, behind one interface:
//   * DistanceMatrix — all-pairs table (parallel all-source BFS). O(n²) words;
//     right choice for n up to ~2·10⁴ and for tests needing arbitrary queries.
//   * TargetDistanceCache — one BFS per distinct target, LRU-capped. Right
//     choice for big sweeps where each target serves thousands of trials.
//
// Storage is packed rows at a declared width (dist_slab.hpp): both oracles
// keep n × width_bytes(width) bytes per target row, and u32 is simply the
// width whose rows are read in place as Dist — no copy, no second code path.
// The cache carves its rows out of an arena (runtime/arena.hpp) sized by
// MemoryBudget, and a steady-state miss BFS-fills a recycled slot, so the
// O(n) row never touches the heap (the BFS runs on the worker thread's
// pooled BfsWorkspace, also allocation-free; only O(1) LRU/map bookkeeping
// nodes are allocated per miss, and hits allocate nothing at all).
//
// distances_to() hands out a shared-ownership DistVecPtr so a routing episode
// can keep the row alive even if the cache evicts the entry concurrently —
// the slot returns to the arena only when the last pin drops.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/bfs_engine.hpp"
#include "graph/dist_slab.hpp"
#include "graph/graph.hpp"
#include "runtime/arena.hpp"

namespace nav::graph {

/// Read-only view of one target's distance vector (size n, indexed by node).
/// Converts implicitly to std::span<const Dist> — the type
/// Router::route_resolved takes.
class DistView {
 public:
  DistView() = default;
  DistView(const Dist* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  [[nodiscard]] const Dist& operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const Dist* data() const noexcept { return data_; }
  [[nodiscard]] const Dist* begin() const noexcept { return data_; }
  [[nodiscard]] const Dist* end() const noexcept { return data_ + size_; }
  operator std::span<const Dist>() const noexcept { return {data_, size_}; }

  /// Element-wise equality against any contiguous Dist range (vectors
  /// convert): the form differential tests want.
  friend bool operator==(const DistView& a, std::span<const Dist> b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  const Dist* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Shared-ownership handle to one target's distance row. Holding it pins the
/// underlying storage — an arena slot or matrix-slab row — even if a caching
/// oracle evicts the entry concurrently. Pointer-like: *p is the DistView,
/// p->size() works, handles compare by identity (same storage).
class DistVecPtr {
 public:
  DistVecPtr() = default;
  DistVecPtr(std::shared_ptr<const Dist> data, std::size_t size) noexcept
      : owner_(std::move(data)), view_(owner_.get(), size) {}

  [[nodiscard]] const DistView& operator*() const noexcept { return view_; }
  [[nodiscard]] const DistView* operator->() const noexcept { return &view_; }
  explicit operator bool() const noexcept { return owner_ != nullptr; }

  /// Identity (not element) comparison, matching shared_ptr semantics:
  /// handles are equal iff they pin the same storage.
  friend bool operator==(const DistVecPtr& a, const DistVecPtr& b) noexcept {
    return a.owner_ == b.owner_;
  }
  friend bool operator==(const DistVecPtr& a, std::nullptr_t) noexcept {
    return a.owner_ == nullptr;
  }

 private:
  std::shared_ptr<const Dist> owner_;
  DistView view_;
};

/// Abstract distance-to-target service (thread-safe).
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  /// True when the oracle returns exact graph distances. Approximate
  /// backends (LandmarkOracle's triangle upper bound) override to false;
  /// routers read this once at construction to swap the strict-descent
  /// invariant (which only an exact field guarantees) for stall-tolerant
  /// termination.
  [[nodiscard]] virtual bool exact() const noexcept { return true; }

  /// dist_G(u, target); kInfDist when unreachable.
  [[nodiscard]] virtual Dist distance(NodeId u, NodeId target) const = 0;

  /// Full distance vector towards `target` (size n), shared ownership.
  /// The graphs here are undirected, so this is also the distance vector
  /// *from* `target`; one BFS serves every query sharing the target.
  [[nodiscard]] virtual DistVecPtr distances_to(NodeId target) const = 0;

  /// Batch interface: materialises (or fetches) the vectors for `targets`
  /// into `out` (cleared and resized to targets.size()), pinned, in input
  /// order. out[i] stays valid for as long as the caller holds it,
  /// independent of any cache eviction — the contract RouteService target
  /// shards rely on. Duplicate targets are allowed and share one vector.
  /// Callers reusing `out` across waves pay no allocation for the container
  /// once it has grown to the largest wave. The base implementation loops
  /// distances_to; caching oracles override it to batch the misses.
  virtual void prefetch_into(std::span<const NodeId> targets,
                             std::vector<DistVecPtr>& out) const;

  /// Source-bounded prefetch_into: out[i] only has to be exact on
  /// B(targets[i], D + 1), where D = max over sources[i] of
  /// d(s, targets[i]) — every distance a route from one of those sources
  /// reads (Router::route_resolved). Entries farther out may read kInfDist.
  /// `sources` has one list per target; an empty list asks for the
  /// complete row, and so does a source the target cannot reach. Rows are
  /// pinned exactly as in prefetch_into. The base implementation forwards
  /// to prefetch_into, so every oracle that does not override it hands out
  /// complete rows, which satisfy this contract trivially.
  virtual void prefetch_sourced_into(
      std::span<const NodeId> targets,
      std::span<const std::span<const NodeId>> sources,
      std::vector<DistVecPtr>& out) const;
};

/// Dense all-pairs table. Memory: one n² byte slab at the chosen storage
/// width (4-byte Dist by default, read in place; 1- or 2-byte packed rows
/// for low-diameter graphs — see dist_slab.hpp), rows aliased or widened
/// out of it. Built with a parallel all-source BFS sweep at construction:
/// rows are farmed to the process-wide WorkerTeam (capped by the policy) and
/// the slab is handed out UNINITIALISED, so each page is first touched by
/// the lane that BFS-fills it — on NUMA hosts the rows land near the cores
/// that wrote them. The policy also caps rebuild_rows/rebuild_all.
/// Distances are level-synchronous, so the slab is byte-identical for every
/// worker count (the determinism suite hashes it to prove this).
///
/// Narrow widths are a pure storage decision: distance() and distances_to()
/// still speak Dist (single entries widen in place; full rows materialise a
/// widened copy), and a row whose true distances exceed the width's
/// max_finite makes construction/rebuild throw std::invalid_argument
/// instead of storing a saturated lie.
class DistanceMatrix final : public DistanceOracle {
 public:
  explicit DistanceMatrix(const Graph& g, ParallelPolicy policy = {},
                          DistWidth width = DistWidth::kU32);

  [[nodiscard]] Dist distance(NodeId u, NodeId target) const override;
  [[nodiscard]] DistVecPtr distances_to(NodeId target) const override;

  [[nodiscard]] NodeId num_nodes() const noexcept { return n_; }
  /// Storage width of the backing slab.
  [[nodiscard]] DistWidth width() const noexcept { return width_; }

  /// The backing slab: n*n entries, row-major by target. Determinism tests
  /// hash this to pin worker-count independence byte for byte. Only the
  /// default u32 storage exposes Dist entries directly; narrow matrices
  /// throw (use packed_slab()).
  [[nodiscard]] std::span<const Dist> slab() const {
    NAV_REQUIRE(width_ == DistWidth::kU32,
                "slab() needs u32 storage; narrow widths expose packed_slab()");
    return {reinterpret_cast<const Dist*>(slab_.get()),
            static_cast<std::size_t>(n_) * n_};
  }

  /// The packed backing bytes at any width (n*n*width_bytes(width())).
  [[nodiscard]] std::span<const std::uint8_t> packed_slab() const noexcept;

  /// Recomputes the given targets' rows in place against `g` (which must
  /// have the same node count) — the incremental-repair hook for
  /// dynamic::DynamicOracle. Rows are written through the shared slab, so
  /// callers must guarantee quiescence: no concurrent queries, and no
  /// outstanding pins expected to keep their pre-mutation values.
  void rebuild_rows(const Graph& g, std::span<const NodeId> targets);

  /// Recomputes every row (the full-flush reference path).
  void rebuild_all(const Graph& g);

 private:
  /// The packed bytes of `target`'s row.
  [[nodiscard]] std::uint8_t* row(NodeId target) const noexcept;
  void fill_row(const Graph& g, NodeId target);
  void check_saturation() const;

  NodeId n_;
  ParallelPolicy policy_;
  DistWidth width_;
  /// n_ rows of n_ entries at width_bytes(width_) bytes each.
  std::shared_ptr<std::uint8_t[]> slab_;
  std::atomic<bool> saturated_{false};
};

/// Cache sizing by bytes instead of entry count: the number of resident
/// target vectors becomes budget / (n × sizeof(Dist)), clamped to >= 1.
struct MemoryBudget {
  /// Total bytes the cache may spend on distance vectors.
  std::size_t bytes = 64u << 20;
};

/// Per-target BFS cache with LRU eviction over packed arena rows.
///
/// Every resident target owns one packed row of n × width_bytes(width)
/// bytes (dist_slab.hpp). At u32 that row IS the Dist row: the BFS writes
/// it in place and distances_to hands out an aliasing handle to it. Narrow
/// widths pack at 1 or 2 bytes per entry, so the same MemoryBudget keeps 4x
/// (or 2x) more targets resident; routers still consume Dist rows, so a
/// small window of widened rows (kWideWindow slots, LRU over the resident
/// set) backs distances_to there, and a warm working set is served by
/// refcount copies — zero allocations — while the packed rows carry the
/// capacity. distance() reads single packed entries in place at every width
/// and never widens a row. A BFS row whose true distances exceed the width's
/// max_finite throws std::invalid_argument.
///
/// Rows from a sourced wave (prefetch_sourced_into) are exact only through
/// their entry's exact_through depth; they serve sourced requests they
/// cover, and anything else — distances_to, a deeper request, a point query
/// past that depth — recomputes the complete row once (an upgrade, counted
/// as a miss). A truncated row can fit a narrow width its complete row
/// overflows; its upgrade then throws like any saturated miss.
class TargetDistanceCache final : public DistanceOracle {
 public:
  /// Widened rows kept alive for narrow-width caches (u32 rows need none):
  /// enough for every in-flight prefetch shard of a RouteService wave to pin
  /// its row while staying far below the packed capacity the budget buys.
  static constexpr std::size_t kWideWindow = 16;

  /// `capacity` = number of target distance vectors kept alive in the cache.
  /// The arena holds capacity + 1 packed rows (slabs grow lazily towards
  /// it): the spare serves the miss-on-full-cache window where the new row
  /// is computed before the victim's slot frees. `policy` caps how much of
  /// the machine prefetch waves may use.
  explicit TargetDistanceCache(const Graph& g, std::size_t capacity = 64,
                               ParallelPolicy policy = {},
                               DistWidth width = DistWidth::kU32);

  /// Sizes the LRU from a byte budget via capacity_for_budget.
  TargetDistanceCache(const Graph& g, MemoryBudget budget,
                      ParallelPolicy policy = {},
                      DistWidth width = DistWidth::kU32);

  /// Entry count affordable under `budget` for n-node vectors at a storage
  /// width (>= 1: the cache always keeps at least the vector it just
  /// computed). Narrow rows cost width_bytes(width) per entry, so the budget
  /// buys proportionally more resident targets.
  [[nodiscard]] static std::size_t capacity_for_budget(
      MemoryBudget budget, NodeId n,
      DistWidth width = DistWidth::kU32) noexcept;

  [[nodiscard]] Dist distance(NodeId u, NodeId target) const override;
  [[nodiscard]] DistVecPtr distances_to(NodeId target) const override;

  /// Batched miss handling, adaptive in the policy: a wave with at least as
  /// many distinct misses as workers farms whole rows across the process
  /// team with nav::parallel_for (safe from any thread: see the busy-team
  /// rule in runtime/worker_team.hpp); a narrower wave runs each miss as
  /// one multi-worker ParallelBfs sweep instead, so a single cold target
  /// still saturates the machine. Resident targets are bumped, not
  /// recomputed, and a warm all-hit wave performs ZERO heap allocations
  /// (dedup runs on thread-pooled scratch, pins are refcount copies).
  /// Returned pins outlive eviction, so a batch larger than the capacity is
  /// still served correctly — the LRU just ends at its capacity. (Pins in
  /// excess of the arena budget spill to plain heap rows; they free on
  /// release rather than recycling.) Every width runs this one body: only
  /// the row a miss's BFS writes (the packed row itself at u32, a window
  /// slot otherwise) and whether it is then packed depend on the width.
  void prefetch_into(std::span<const NodeId> targets,
                     std::vector<DistVecPtr>& out) const override;

  /// The same wave body with a stop set per target: a miss runs a
  /// source-bounded sweep (BfsWorkspace::distances_into with `stop`), which
  /// labels B(t, D + 1) and stops, and the entry records that depth as its
  /// exact_through. A resident row serves a sourced request when it is
  /// complete or when every source s has row[s] < exact_through; otherwise
  /// the target is recomputed as a complete row (an "upgrade", counted as a
  /// miss), so a target is upgraded at most once per residency.
  /// Duplicate targets merge their source lists.
  void prefetch_sourced_into(std::span<const NodeId> targets,
                             std::span<const std::span<const NodeId>> sources,
                             std::vector<DistVecPtr>& out) const override;

  /// Number of resident vectors the LRU may hold.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Storage width of resident rows.
  [[nodiscard]] DistWidth width() const noexcept { return width_; }
  /// Queries served from a resident vector.
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  /// Queries that had to run a BFS.
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }

  // ---- invalidation surface (dynamic::DynamicOracle) ----------------------
  /// Snapshot of the currently resident targets, LRU order (front = most
  /// recently used). The set a mutation's tightness test scans.
  [[nodiscard]] std::vector<NodeId> resident_targets() const;

  /// The resident row for `target` without bumping the LRU or the hit/miss
  /// counters; empty handle when not resident. Lets the invalidation scan
  /// read rows without perturbing cache telemetry or eviction order. A row
  /// a sourced wave left exact only near its sources is not handed out
  /// either (empty handle): peek never answers from beyond exact_through.
  [[nodiscard]] DistVecPtr peek(NodeId target) const;

  /// Drops `target` if resident (its arena slot recycles once the last pin
  /// drops); returns whether anything was evicted. Stale rows removed this
  /// way recompute lazily on the next query — against the *current* graph.
  bool erase(NodeId target);

  /// Drops every resident row (the full-flush reference path).
  void clear();

 private:
  struct Entry {
    std::list<NodeId>::iterator lru_it;
    /// The packed row (n × width_bytes entries): an arena slot or a spill.
    std::shared_ptr<std::uint8_t> packed;
    /// The Dist row distances_to hands out. u32: an aliasing handle to
    /// `packed` (read in place, always set). Narrow: the widened copy while
    /// this target is inside the wide window, empty otherwise.
    DistVecPtr distances;
    /// Valid iff windowed(): this target's position in wide_lru_.
    std::list<NodeId>::iterator wide_it;
    /// The depth through which the row is exact: kInfDist for a complete
    /// row, D + 1 for one a source-bounded sweep stopped early (entries past
    /// it read kInfDist whatever their true distance). distances_to,
    /// distance() and peek() never answer from beyond it.
    Dist exact_through = kInfDist;
  };

  /// The one prefetch body: `sources` is empty (every row complete) or
  /// holds one stop list per target.
  void prefetch_wave(std::span<const NodeId> targets,
                     std::span<const std::span<const NodeId>> sources,
                     std::vector<DistVecPtr>& out) const;

  // All *_locked helpers run under mutex_.
  /// True when `entry`'s row is exact on B(t, d(s, t) + 1) for every s in
  /// `sources`; an empty list asks for the complete row.
  [[nodiscard]] bool covers(const Entry& entry,
                            std::span<const NodeId> sources) const noexcept;
  /// True when `entry` holds a wide-window slot (narrow widths only).
  [[nodiscard]] bool windowed(const Entry& entry) const noexcept;
  /// A packed-row slot (heap spill when every arena slot is pinned).
  [[nodiscard]] std::shared_ptr<std::uint8_t> acquire_packed() const;
  /// The Dist row for `packed`: at u32 the packed row itself; at narrow
  /// widths a wide-window slot, evicting other entries' widened copies (LRU)
  /// when the window is full, spilling when every slot is pinned.
  [[nodiscard]] std::shared_ptr<Dist> staging_row_locked(
      const std::shared_ptr<std::uint8_t>& packed) const;
  /// A hit: bumps the LRU (and the window) and returns the resident row.
  DistVecPtr serve_locked(NodeId target, Entry& entry) const;
  /// The resident row without bumping the LRU, widening a packed-only
  /// narrow entry into the window.
  DistVecPtr resident_row_locked(NodeId target, Entry& entry) const;
  /// Installs a freshly computed row for `target` at the LRU front,
  /// replacing a resident row that did not cover its request.
  DistVecPtr install_locked(NodeId target, std::shared_ptr<Dist> row,
                            std::shared_ptr<std::uint8_t> packed,
                            Dist exact_through) const;
  /// Drops one resident entry (its slots recycle once the last pin drops).
  void erase_locked(std::unordered_map<NodeId, Entry>::iterator it) const;
  /// Evicts main-LRU overflow, maintaining the wide window and the
  /// eviction counter.
  void evict_overflow_locked() const;

  const Graph& graph_;
  std::size_t capacity_;
  ParallelPolicy policy_;
  DistWidth width_;
  /// The packed rows: capacity + 1 slots of n × width_bytes(width) bytes.
  mutable SlabArena<std::uint8_t> arena_;
  /// Narrow widths only: the wide window, min(capacity, kWideWindow) + 1
  /// widened Dist rows. A u32 cache reserves none.
  mutable std::optional<SlabArena<Dist>> window_;
  mutable std::mutex mutex_;
  mutable std::list<NodeId> lru_;  // front = most recently used
  /// Narrow storage: targets with a live widened copy, front = most recent.
  mutable std::list<NodeId> wide_lru_;
  mutable std::unordered_map<NodeId, Entry> cache_;
  mutable std::size_t hits_ = 0, misses_ = 0;
  // Lazily-built multi-worker engine for prefetch waves with fewer misses
  // than workers. ParallelBfs is not re-entrant, so concurrent such waves
  // serialise on engine_mutex_ — never held with mutex_.
  mutable std::mutex engine_mutex_;
  mutable std::unique_ptr<ParallelBfs> engine_;
};

}  // namespace nav::graph
