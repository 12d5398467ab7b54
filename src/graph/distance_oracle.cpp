#include "graph/distance_oracle.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "graph/bfs_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/scratch_pool.hpp"
#include "runtime/worker_team.hpp"

namespace nav::graph {

namespace {

// Library-level oracle telemetry lands in the process-wide registry: every
// oracle instance feeds the same `oracle.*` series (route_server scrapes
// them via --metrics-out). Handles are registered once (magic static);
// increments are wait-free shard writes, mirroring — not replacing — the
// per-instance hits()/misses() accessors.
struct OracleMetrics {
  obs::Counter hits = obs::default_registry().counter("oracle.cache_hits");
  obs::Counter misses = obs::default_registry().counter("oracle.cache_misses");
  obs::Counter evictions = obs::default_registry().counter("oracle.evictions");
  obs::Counter pin_spills =
      obs::default_registry().counter("oracle.pin_spills");
  obs::Counter matrix_rows =
      obs::default_registry().counter("oracle.matrix_rows_built");
  obs::HistogramHandle wave_width =
      obs::default_registry().histogram("oracle.wave_width", 0.0, 512.0, 64);
  obs::HistogramHandle wave_misses =
      obs::default_registry().histogram("oracle.wave_misses", 0.0, 512.0, 64);
};

OracleMetrics& oracle_metrics() {
  static OracleMetrics metrics;
  return metrics;
}

// Per-thread Dist-typed staging row for narrow-width slabs: the BFS kernel
// writes full Dist rows, which are then packed to the storage width. Grow
// only, so warm fills allocate nothing.
struct WideRowScratch {
  std::vector<Dist> row;
};

std::span<Dist> wide_row_scratch(std::size_t n) {
  auto& scratch = nav::thread_scratch<WideRowScratch>();
  if (scratch.row.size() < n) scratch.row.resize(n);
  return {scratch.row.data(), n};
}

[[noreturn]] void throw_width_saturated(DistWidth width) {
  throw std::invalid_argument(
      std::string("distance exceeds ") + width_token(width) +
      " storage (max finite " + std::to_string(max_finite(width)) +
      "); declare a wider oracle width");
}

}  // namespace

void DistanceOracle::prefetch_into(std::span<const NodeId> targets,
                                   std::vector<DistVecPtr>& out) const {
  out.clear();
  out.reserve(targets.size());
  for (const NodeId t : targets) out.push_back(distances_to(t));
}

DistanceMatrix::DistanceMatrix(const Graph& g, ParallelPolicy policy,
                               DistWidth width)
    : n_(g.num_nodes()), policy_(policy), width_(width) {
  NAV_OBS_SPAN("oracle.matrix_build", "rows", static_cast<double>(n_));
  const std::size_t cells = static_cast<std::size_t>(n_) * n_;
  // Deliberately uninitialised (default-init, not value-init): every entry
  // is BFS-filled below, and skipping the zero pass means the first touch of
  // each row happens on the worker that computes it — on NUMA hosts the
  // pages land near that worker's socket.
  if (width_ == DistWidth::kU32) {
    slab_ = std::shared_ptr<Dist[]>(new Dist[cells]);
  } else {
    packed_ = std::shared_ptr<std::uint8_t[]>(
        new std::uint8_t[cells * width_bytes(width_)]);
  }
  nav::parallel_for(
      0, n_, [&](std::size_t t) { fill_row(g, static_cast<NodeId>(t)); },
      policy_.resolved_workers());
  check_saturation();
  // Counted from the coordinator, not the loop's lanes: one shard write
  // instead of n, and lane threads stay metrics-free (the warm-parallel
  // zero-allocation contract).
  oracle_metrics().matrix_rows.inc(n_);
}

void DistanceMatrix::fill_row(const Graph& g, NodeId target) {
  const std::size_t n = n_;
  if (width_ == DistWidth::kU32) {
    // Each worker reuses its pooled workspace; rows are disjoint slab slices.
    local_bfs_workspace().distances_into(
        g, target, {slab_.get() + static_cast<std::size_t>(target) * n, n});
    return;
  }
  // Narrow storage: BFS into the thread's Dist staging row, then pack it.
  // Saturation is flagged, not thrown — workers must not throw across the
  // parallel_for; the coordinator turns the flag into an error.
  const std::span<Dist> wide = wide_row_scratch(n);
  local_bfs_workspace().distances_into(g, target, wide);
  if (narrow_row(wide, width_,
                 packed_.get() +
                     static_cast<std::size_t>(target) * n * width_bytes(width_))) {
    saturated_.store(true, std::memory_order_relaxed);
  }
}

void DistanceMatrix::check_saturation() const {
  if (saturated_.load(std::memory_order_relaxed)) {
    throw_width_saturated(width_);
  }
}

Dist DistanceMatrix::distance(NodeId u, NodeId target) const {
  NAV_ASSERT(u < n_ && target < n_);
  if (width_ == DistWidth::kU32) {
    return slab_[static_cast<std::size_t>(target) * n_ + u];
  }
  return widen_entry(
      packed_.get() + static_cast<std::size_t>(target) * n_ * width_bytes(width_),
      width_, u);
}

DistVecPtr DistanceMatrix::distances_to(NodeId target) const {
  NAV_ASSERT(target < n_);
  if (width_ == DistWidth::kU32) {
    // Aliasing handle: pins the whole slab, views one row.
    return {std::shared_ptr<const Dist>(
                slab_, slab_.get() + static_cast<std::size_t>(target) * n_),
            n_};
  }
  // Narrow storage keeps no Dist rows: materialise a widened copy. Point
  // queries should use distance(), which reads packed entries in place.
  const std::size_t n = n_;
  std::shared_ptr<Dist> row(new Dist[n], std::default_delete<Dist[]>());
  widen_row(packed_.get() + static_cast<std::size_t>(target) * n * width_bytes(width_),
            width_, {row.get(), n});
  return {std::move(row), n};
}

std::span<const std::uint8_t> DistanceMatrix::packed_slab() const noexcept {
  const std::size_t cells = static_cast<std::size_t>(n_) * n_;
  if (width_ == DistWidth::kU32) {
    return {reinterpret_cast<const std::uint8_t*>(slab_.get()),
            cells * sizeof(Dist)};
  }
  return {packed_.get(), cells * width_bytes(width_)};
}

void DistanceMatrix::rebuild_rows(const Graph& g,
                                  std::span<const NodeId> targets) {
  NAV_REQUIRE(g.num_nodes() == n_, "rebuild graph/matrix size mismatch");
  NAV_OBS_SPAN("oracle.rebuild_rows", "rows",
               static_cast<double>(targets.size()));
  nav::parallel_for(
      0, targets.size(),
      [&](std::size_t i) {
        NAV_ASSERT(targets[i] < n_);
        fill_row(g, targets[i]);
      },
      policy_.resolved_workers());
  check_saturation();
  oracle_metrics().matrix_rows.inc(targets.size());
}

void DistanceMatrix::rebuild_all(const Graph& g) {
  NAV_REQUIRE(g.num_nodes() == n_, "rebuild graph/matrix size mismatch");
  NAV_OBS_SPAN("oracle.rebuild_all", "rows", static_cast<double>(n_));
  nav::parallel_for(
      0, n_, [&](std::size_t t) { fill_row(g, static_cast<NodeId>(t)); },
      policy_.resolved_workers());
  check_saturation();
  oracle_metrics().matrix_rows.inc(n_);
}

TargetDistanceCache::TargetDistanceCache(const Graph& g, std::size_t capacity,
                                         ParallelPolicy policy,
                                         DistWidth width)
    : graph_(g),
      capacity_(capacity == 0 ? 1 : capacity),
      policy_(policy),
      width_(width),
      // u32: one Dist-row slot per resident entry plus a spare (a miss on a
      // full cache computes its row BEFORE evicting, so without the spare
      // every such miss would spill to the heap). Narrow: the Dist arena is
      // only the widened window; packed_arena_ carries the capacity.
      arena_(width == DistWidth::kU32
                 ? capacity_ + 1
                 : std::min(capacity_, kWideWindow) + 1,
             g.num_nodes()) {
  if (width_ != DistWidth::kU32) {
    packed_arena_.emplace(
        capacity_ + 1,
        static_cast<std::size_t>(g.num_nodes()) * width_bytes(width_));
  }
}

TargetDistanceCache::TargetDistanceCache(const Graph& g, MemoryBudget budget,
                                         ParallelPolicy policy,
                                         DistWidth width)
    : TargetDistanceCache(g, capacity_for_budget(budget, g.num_nodes(), width),
                          policy, width) {}

std::size_t TargetDistanceCache::capacity_for_budget(MemoryBudget budget,
                                                     NodeId n) noexcept {
  return capacity_for_budget(budget, n, DistWidth::kU32);
}

std::size_t TargetDistanceCache::capacity_for_budget(MemoryBudget budget,
                                                     NodeId n,
                                                     DistWidth width) noexcept {
  const std::size_t vector_bytes = std::max<std::size_t>(
      1, static_cast<std::size_t>(n) * width_bytes(width));
  return std::max<std::size_t>(1, budget.bytes / vector_bytes);
}

Dist TargetDistanceCache::distance(NodeId u, NodeId target) const {
  if (width_ == DistWidth::kU32) return (*distances_to(target))[u];
  NAV_ASSERT(u < graph_.num_nodes() && target < graph_.num_nodes());
  {
    std::lock_guard lock(mutex_);
    const auto it = cache_.find(target);
    if (it != cache_.end()) {
      ++hits_;
      oracle_metrics().hits.inc();
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      // Point query straight off the packed row: no widening, no
      // allocation — the narrow cache's fast path.
      return widen_entry(it->second.packed.get(), width_, u);
    }
  }
  return (*narrow_distances_to(target))[u];
}

std::shared_ptr<Dist> TargetDistanceCache::acquire_slot() const {
  // Steady state: a recycled arena slot (O(1) control-block bookkeeping).
  // When every slot is pinned (a prefetch wave larger than the budget),
  // spill to a plain heap row — correctness never depends on the arena
  // having room.
  std::shared_ptr<Dist> row = arena_.try_acquire();
  if (row == nullptr) {
    const std::size_t n = graph_.num_nodes();
    row = std::shared_ptr<Dist>(new Dist[n], std::default_delete<Dist[]>());
    // Already off the zero-allocation path (the row itself came from the
    // heap), so the counter costs nothing extra.
    oracle_metrics().pin_spills.inc();
  }
  return row;
}

DistVecPtr TargetDistanceCache::compute_row(NodeId target) const {
  const std::size_t n = graph_.num_nodes();
  std::shared_ptr<Dist> row = acquire_slot();
  local_bfs_workspace().distances_into(graph_, target, {row.get(), n});
  return {std::move(row), n};
}

DistVecPtr TargetDistanceCache::compute_row_with(ParallelBfs& engine,
                                                 NodeId target) const {
  const std::size_t n = graph_.num_nodes();
  std::shared_ptr<Dist> row = acquire_slot();
  engine.distances_into(graph_, target, {row.get(), n});
  return {std::move(row), n};
}

// ---- narrow-width internals -----------------------------------------------

std::shared_ptr<Dist> TargetDistanceCache::acquire_wide_locked() const {
  std::shared_ptr<Dist> slot = arena_.try_acquire();
  while (slot == nullptr && !wide_lru_.empty()) {
    // Window full: drop the least-recently-widened copy. Its slot recycles
    // immediately unless a caller still pins the row — then the drop frees
    // nothing and the loop moves to the next victim.
    const NodeId victim = wide_lru_.back();
    wide_lru_.pop_back();
    const auto it = cache_.find(victim);
    NAV_ASSERT(it != cache_.end());
    it->second.distances = DistVecPtr{};
    slot = arena_.try_acquire();
  }
  if (slot == nullptr) {
    slot = std::shared_ptr<Dist>(new Dist[graph_.num_nodes()],
                                 std::default_delete<Dist[]>());
    oracle_metrics().pin_spills.inc();
  }
  return slot;
}

std::shared_ptr<std::uint8_t> TargetDistanceCache::acquire_packed() const {
  std::shared_ptr<std::uint8_t> slot = packed_arena_->try_acquire();
  if (slot == nullptr) {
    slot = std::shared_ptr<std::uint8_t>(
        new std::uint8_t[packed_arena_->slot_size()],
        std::default_delete<std::uint8_t[]>());
    oracle_metrics().pin_spills.inc();
  }
  return slot;
}

DistVecPtr TargetDistanceCache::ensure_wide_locked(NodeId target,
                                                   Entry& entry) const {
  std::shared_ptr<Dist> wide = acquire_wide_locked();
  const std::size_t n = graph_.num_nodes();
  widen_row(entry.packed.get(), width_, {wide.get(), n});
  entry.distances = DistVecPtr{std::move(wide), n};
  wide_lru_.push_front(target);
  entry.wide_it = wide_lru_.begin();
  return entry.distances;
}

DistVecPtr TargetDistanceCache::install_narrow_locked(
    NodeId target, std::shared_ptr<Dist> wide,
    std::shared_ptr<std::uint8_t> packed) const {
  const std::size_t n = graph_.num_nodes();
  lru_.push_front(target);
  Entry entry;
  entry.lru_it = lru_.begin();
  entry.distances = DistVecPtr{std::move(wide), n};
  entry.packed = std::move(packed);
  wide_lru_.push_front(target);
  entry.wide_it = wide_lru_.begin();
  DistVecPtr result = entry.distances;
  cache_.emplace(target, std::move(entry));
  const std::size_t evicted = evict_overflow_locked();
  if (evicted > 0) oracle_metrics().evictions.inc(evicted);
  return result;
}

std::size_t TargetDistanceCache::evict_overflow_locked() const {
  std::size_t evicted = 0;
  while (cache_.size() > capacity_) {
    const NodeId victim = lru_.back();
    lru_.pop_back();
    const auto it = cache_.find(victim);
    if (it->second.distances != nullptr) wide_lru_.erase(it->second.wide_it);
    cache_.erase(it);  // slots recycle once the last pins drop
    ++evicted;
  }
  return evicted;
}

void TargetDistanceCache::throw_saturated() const {
  throw_width_saturated(width_);
}

DistVecPtr TargetDistanceCache::narrow_distances_to(NodeId target) const {
  NAV_ASSERT(target < graph_.num_nodes());
  const std::size_t n = graph_.num_nodes();
  {
    std::lock_guard lock(mutex_);
    const auto it = cache_.find(target);
    if (it != cache_.end()) {
      ++hits_;
      oracle_metrics().hits.inc();
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      if (it->second.distances != nullptr) {
        // Wide-resident hit: a refcount copy, zero allocations.
        wide_lru_.splice(wide_lru_.begin(), wide_lru_, it->second.wide_it);
        return it->second.distances;
      }
      // Packed-only hit: widen into the window under the lock (an O(n)
      // decode — much cheaper than the BFS a miss would pay).
      return ensure_wide_locked(target, it->second);
    }
    ++misses_;
    oracle_metrics().misses.inc();
  }
  // Miss: wide slot first (window eviction needs the lock), BFS outside it.
  std::shared_ptr<Dist> wide;
  {
    std::lock_guard lock(mutex_);
    wide = acquire_wide_locked();
  }
  local_bfs_workspace().distances_into(graph_, target, {wide.get(), n});
  std::shared_ptr<std::uint8_t> packed = acquire_packed();
  if (narrow_row({wide.get(), n}, width_, packed.get())) throw_saturated();
  std::lock_guard lock(mutex_);
  const auto it = cache_.find(target);
  if (it != cache_.end()) {  // lost the race: keep the winner's row
    if (it->second.distances != nullptr) return it->second.distances;
    return ensure_wide_locked(target, it->second);
  }
  return install_narrow_locked(target, std::move(wide), std::move(packed));
}

DistVecPtr TargetDistanceCache::distances_to(NodeId target) const {
  if (width_ != DistWidth::kU32) return narrow_distances_to(target);
  NAV_ASSERT(target < graph_.num_nodes());
  {
    std::lock_guard lock(mutex_);
    const auto it = cache_.find(target);
    if (it != cache_.end()) {
      ++hits_;
      oracle_metrics().hits.inc();
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // bump to front
      return it->second.distances;
    }
    ++misses_;
    oracle_metrics().misses.inc();
  }
  // BFS outside the lock: concurrent misses on the same target may compute it
  // twice; both results are identical, the second insert wins harmlessly.
  DistVecPtr dist = compute_row(target);
  std::lock_guard lock(mutex_);
  const auto it = cache_.find(target);
  if (it != cache_.end()) return it->second.distances;  // lost the race
  lru_.push_front(target);
  cache_.emplace(target, Entry{lru_.begin(), dist, nullptr, {}});
  while (cache_.size() > capacity_) {
    const NodeId victim = lru_.back();
    lru_.pop_back();
    cache_.erase(victim);  // the slot recycles once the last pin drops
    oracle_metrics().evictions.inc();
  }
  return dist;
}

std::vector<NodeId> TargetDistanceCache::resident_targets() const {
  std::lock_guard lock(mutex_);
  return {lru_.begin(), lru_.end()};
}

DistVecPtr TargetDistanceCache::peek(NodeId target) const {
  std::lock_guard lock(mutex_);
  const auto it = cache_.find(target);
  if (it == cache_.end()) return {};
  if (width_ == DistWidth::kU32 || it->second.distances != nullptr) {
    return it->second.distances;
  }
  // Packed-only resident on a narrow cache: hand out a private widened copy
  // without perturbing the window (peek must not change cache state).
  const std::size_t n = graph_.num_nodes();
  std::shared_ptr<Dist> row(new Dist[n], std::default_delete<Dist[]>());
  widen_row(it->second.packed.get(), width_, {row.get(), n});
  return {std::move(row), n};
}

bool TargetDistanceCache::erase(NodeId target) {
  std::lock_guard lock(mutex_);
  const auto it = cache_.find(target);
  if (it == cache_.end()) return false;
  if (width_ != DistWidth::kU32 && it->second.distances != nullptr) {
    wide_lru_.erase(it->second.wide_it);
  }
  lru_.erase(it->second.lru_it);
  cache_.erase(it);  // the slot recycles once the last pin drops
  return true;
}

void TargetDistanceCache::clear() {
  std::lock_guard lock(mutex_);
  lru_.clear();
  wide_lru_.clear();
  cache_.clear();
}

namespace {

// Grow-only per-thread scratch for TargetDistanceCache::prefetch_into: an
// open-addressing probe table for intra-wave dedup plus the miss lists. No
// node-based containers, so a warm all-hit wave allocates nothing.
struct PrefetchScratch {
  std::vector<std::size_t> table;      // probe slot -> input index + 1; 0 = empty
  std::vector<std::size_t> first_of;   // input index -> first occurrence index
  std::vector<NodeId> missing;         // distinct targets needing a BFS
  std::vector<std::size_t> miss_slot;  // their positions in the output
  std::vector<DistVecPtr> fresh;       // rows computed for `missing`
  // Narrow-width waves: pre-acquired storage for the misses.
  std::vector<std::shared_ptr<Dist>> wide_slots;
  std::vector<std::shared_ptr<std::uint8_t>> packed_slots;
};

/// Sizes the dedup probe table for a wave; returns the hash shift.
unsigned prepare_dedup(PrefetchScratch& scratch, std::size_t wave) {
  std::size_t cap = 16;
  while (cap < wave * 2) cap <<= 1;
  if (scratch.table.size() < cap) scratch.table.resize(cap);
  std::fill(scratch.table.begin(), scratch.table.begin() + cap, std::size_t{0});
  if (scratch.first_of.size() < wave) scratch.first_of.resize(wave);
  scratch.missing.clear();
  scratch.miss_slot.clear();
  return 64u - static_cast<unsigned>(std::countr_zero(cap));
}

/// Dedup probe: returns the first-occurrence index of targets[i] (i itself
/// when this is the first sighting).
std::size_t dedup_probe(PrefetchScratch& scratch,
                        std::span<const NodeId> targets, std::size_t i,
                        unsigned shift) {
  const NodeId t = targets[i];
  const std::size_t cap = std::size_t{1}
                          << (64u - shift);  // table size in use
  std::size_t slot = static_cast<std::size_t>(
      (std::uint64_t{t} * 0x9E3779B97F4A7C15ull) >> shift);
  while (true) {
    const std::size_t stored = scratch.table[slot];
    if (stored == 0) {
      scratch.table[slot] = i + 1;
      scratch.first_of[i] = i;
      return i;
    }
    if (targets[stored - 1] == t) {
      scratch.first_of[i] = stored - 1;
      return stored - 1;
    }
    slot = (slot + 1) & (cap - 1);
  }
}

}  // namespace

void TargetDistanceCache::narrow_prefetch_into(
    std::span<const NodeId> targets, std::vector<DistVecPtr>& out) const {
  NAV_OBS_SPAN("oracle.prefetch_wave", "targets",
               static_cast<double>(targets.size()));
  out.clear();
  out.resize(targets.size());
  if (targets.empty()) return;
  oracle_metrics().wave_width.observe(static_cast<double>(targets.size()));

  auto& scratch = nav::thread_scratch<PrefetchScratch>();
  const unsigned shift = prepare_dedup(scratch, targets.size());
  const std::size_t n = graph_.num_nodes();

  // Pass 1 (under the lock): dedup, serve residents (widening packed-only
  // rows into the window), list misses, and pre-acquire their storage —
  // window eviction needs the lock anyway, so the misses leave this pass
  // holding both their Dist staging slot and their packed slot.
  std::size_t wave_hits = 0;
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const NodeId t = targets[i];
      NAV_ASSERT(t < graph_.num_nodes());
      if (dedup_probe(scratch, targets, i, shift) != i) {
        ++hits_;  // served by the first occurrence's row
        ++wave_hits;
        continue;
      }
      const auto it = cache_.find(t);
      if (it != cache_.end()) {
        ++hits_;
        ++wave_hits;
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        if (it->second.distances != nullptr) {
          wide_lru_.splice(wide_lru_.begin(), wide_lru_, it->second.wide_it);
          out[i] = it->second.distances;
        } else {
          out[i] = ensure_wide_locked(t, it->second);
        }
      } else {
        ++misses_;
        scratch.missing.push_back(t);
        scratch.miss_slot.push_back(i);
      }
    }
    scratch.wide_slots.clear();
    scratch.packed_slots.clear();
    scratch.wide_slots.resize(scratch.missing.size());
    scratch.packed_slots.resize(scratch.missing.size());
    for (std::size_t k = 0; k < scratch.missing.size(); ++k) {
      scratch.wide_slots[k] = acquire_wide_locked();
      scratch.packed_slots[k] = acquire_packed();
    }
  }
  if (wave_hits > 0) oracle_metrics().hits.inc(wave_hits);
  if (!scratch.missing.empty()) {
    oracle_metrics().misses.inc(scratch.missing.size());
  }
  oracle_metrics().wave_misses.observe(
      static_cast<double>(scratch.missing.size()));

  // Pass 2 (no lock): BFS + pack each distinct miss, adaptive in the policy.
  // Saturation is flagged (loop bodies are noexcept by policy) and thrown by
  // the coordinator after the fan-out.
  std::atomic<bool> saturated{false};
  const auto fill = [&](std::size_t k) {
    const std::span<Dist> wide{scratch.wide_slots[k].get(), n};
    local_bfs_workspace().distances_into(graph_, scratch.missing[k], wide);
    if (narrow_row(wide, width_, scratch.packed_slots[k].get())) {
      saturated.store(true, std::memory_order_relaxed);
    }
  };
  const std::size_t workers = policy_.resolved_workers();
  if (workers > 1 && scratch.missing.size() >= workers) {
    nav::parallel_for(0, scratch.missing.size(), fill, workers);
  } else if (workers > 1 && !scratch.missing.empty()) {
    // Narrow wave: each miss as one multi-worker sweep; packing stays on
    // the coordinator.
    std::lock_guard engine_lock(engine_mutex_);
    if (engine_ == nullptr) engine_ = std::make_unique<ParallelBfs>(policy_);
    for (std::size_t k = 0; k < scratch.missing.size(); ++k) {
      const std::span<Dist> wide{scratch.wide_slots[k].get(), n};
      engine_->distances_into(graph_, scratch.missing[k], wide);
      if (narrow_row(wide, width_, scratch.packed_slots[k].get())) {
        saturated.store(true, std::memory_order_relaxed);
      }
    }
  } else {
    for (std::size_t k = 0; k < scratch.missing.size(); ++k) fill(k);
  }
  if (saturated.load(std::memory_order_relaxed)) {
    scratch.wide_slots.clear();
    scratch.packed_slots.clear();
    throw_saturated();
  }

  // Pass 3 (under the lock): install the new rows, newest-first LRU.
  if (!scratch.missing.empty()) {
    std::lock_guard lock(mutex_);
    for (std::size_t k = 0; k < scratch.missing.size(); ++k) {
      const NodeId t = scratch.missing[k];
      const auto it = cache_.find(t);
      if (it != cache_.end()) {  // a concurrent caller raced us: keep theirs
        out[scratch.miss_slot[k]] =
            it->second.distances != nullptr
                ? it->second.distances
                : ensure_wide_locked(t, it->second);
        continue;
      }
      out[scratch.miss_slot[k]] =
          install_narrow_locked(t, std::move(scratch.wide_slots[k]),
                                std::move(scratch.packed_slots[k]));
    }
  }
  scratch.wide_slots.clear();
  scratch.packed_slots.clear();

  // Final pass: duplicates alias their first occurrence's pin.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (scratch.first_of[i] != i) out[i] = out[scratch.first_of[i]];
  }
}

void TargetDistanceCache::prefetch_into(std::span<const NodeId> targets,
                                        std::vector<DistVecPtr>& out) const {
  if (width_ != DistWidth::kU32) {
    narrow_prefetch_into(targets, out);
    return;
  }
  NAV_OBS_SPAN("oracle.prefetch_wave", "targets",
               static_cast<double>(targets.size()));
  out.clear();
  out.resize(targets.size());
  if (targets.empty()) return;
  oracle_metrics().wave_width.observe(static_cast<double>(targets.size()));

  auto& scratch = nav::thread_scratch<PrefetchScratch>();
  const unsigned shift = prepare_dedup(scratch, targets.size());

  // Pass 1 (under the lock): dedup the wave, serve residents, list misses.
  // Registry increments are batched per wave (one shard write per counter,
  // after the loop) instead of per target.
  std::size_t wave_hits = 0;
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const NodeId t = targets[i];
      NAV_ASSERT(t < graph_.num_nodes());
      if (dedup_probe(scratch, targets, i, shift) != i) {
        ++hits_;  // served by the first occurrence's row
        ++wave_hits;
        continue;
      }
      const auto it = cache_.find(t);
      if (it != cache_.end()) {
        ++hits_;
        ++wave_hits;
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        out[i] = it->second.distances;
      } else {
        ++misses_;
        scratch.missing.push_back(t);
        scratch.miss_slot.push_back(i);
      }
    }
  }
  if (wave_hits > 0) oracle_metrics().hits.inc(wave_hits);
  if (!scratch.missing.empty()) {
    oracle_metrics().misses.inc(scratch.missing.size());
  }
  oracle_metrics().wave_misses.observe(
      static_cast<double>(scratch.missing.size()));

  // Pass 2 (no lock): BFS the distinct misses, adaptively in the policy.
  auto& fresh = scratch.fresh;
  fresh.clear();
  fresh.resize(scratch.missing.size());
  const std::size_t workers = policy_.resolved_workers();
  if (workers > 1 && scratch.missing.size() >= workers) {
    // Wide wave: farm whole rows across the lanes, one scalar sweep each —
    // this is the batched-prefetch win over miss-by-miss distances_to.
    nav::parallel_for(
        0, scratch.missing.size(),
        [&](std::size_t k) { fresh[k] = compute_row(scratch.missing[k]); },
        workers);
  } else if (workers > 1 && !scratch.missing.empty()) {
    // Narrow wave: fewer misses than workers, so row farming would idle
    // most lanes — run each miss as one multi-worker sweep instead.
    std::lock_guard engine_lock(engine_mutex_);
    if (engine_ == nullptr) engine_ = std::make_unique<ParallelBfs>(policy_);
    for (std::size_t k = 0; k < scratch.missing.size(); ++k) {
      fresh[k] = compute_row_with(*engine_, scratch.missing[k]);
    }
  } else {
    for (std::size_t k = 0; k < scratch.missing.size(); ++k) {
      fresh[k] = compute_row(scratch.missing[k]);
    }
  }

  // Pass 3 (under the lock): install the new vectors, newest-first LRU.
  if (!scratch.missing.empty()) {
    std::lock_guard lock(mutex_);
    for (std::size_t k = 0; k < scratch.missing.size(); ++k) {
      const NodeId t = scratch.missing[k];
      const auto it = cache_.find(t);
      if (it != cache_.end()) {  // a concurrent caller raced us: keep theirs
        out[scratch.miss_slot[k]] = it->second.distances;
        continue;
      }
      lru_.push_front(t);
      cache_.emplace(t, Entry{lru_.begin(), fresh[k], nullptr, {}});
      out[scratch.miss_slot[k]] = fresh[k];
    }
    std::size_t wave_evictions = 0;
    while (cache_.size() > capacity_) {
      const NodeId victim = lru_.back();
      lru_.pop_back();
      cache_.erase(victim);
      ++wave_evictions;
    }
    if (wave_evictions > 0) oracle_metrics().evictions.inc(wave_evictions);
  }
  fresh.clear();  // drop the scratch pins: rows now live via cache_/out

  // Final pass: duplicates alias their first occurrence's pin.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (scratch.first_of[i] != i) out[i] = out[scratch.first_of[i]];
  }
}

}  // namespace nav::graph
