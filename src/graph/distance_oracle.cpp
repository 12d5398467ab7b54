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

/// Packs a BFS-filled staging row into its packed row. u32 rows are BFS'd
/// in place, so there is nothing to pack. True when the row saturated.
bool pack_staged(std::span<const Dist> staged, DistWidth width,
                 std::uint8_t* packed) {
  return width != DistWidth::kU32 && narrow_row(staged, width, packed);
}

/// A Dist handle over one packed row: at u32 the row itself (aliasing
/// `owner`, no copy), at narrow widths a private widened copy.
template <typename Owner>
DistVecPtr packed_row_view(const Owner& owner, const std::uint8_t* row,
                           DistWidth width, std::size_t n) {
  if (width == DistWidth::kU32) {
    return {std::shared_ptr<const Dist>(owner,
                                        reinterpret_cast<const Dist*>(row)),
            n};
  }
  std::shared_ptr<Dist> copy(new Dist[n], std::default_delete<Dist[]>());
  widen_row(row, width, {copy.get(), n});
  return {std::move(copy), n};
}

/// A heap row for a pin past the arena's slot budget. Correctness never
/// depends on the arena having room; the counter costs nothing extra, since
/// the row itself already left the zero-allocation path.
template <typename T>
std::shared_ptr<T> spill_row(const SlabArena<T>& arena) {
  oracle_metrics().pin_spills.inc();
  return std::shared_ptr<T>(new T[arena.slot_size()],
                            std::default_delete<T[]>());
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

void DistanceOracle::prefetch_sourced_into(
    std::span<const NodeId> targets,
    std::span<const std::span<const NodeId>> sources,
    std::vector<DistVecPtr>& out) const {
  (void)sources;  // complete rows are exact everywhere
  prefetch_into(targets, out);
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
  slab_ = std::shared_ptr<std::uint8_t[]>(
      new std::uint8_t[cells * width_bytes(width_)]);
  nav::parallel_for(
      0, n_, [&](std::size_t t) { fill_row(g, static_cast<NodeId>(t)); },
      policy_.resolved_workers());
  check_saturation();
  // Counted from the coordinator, not the loop's lanes: one shard write
  // instead of n, and lane threads stay metrics-free (the warm-parallel
  // zero-allocation contract).
  oracle_metrics().matrix_rows.inc(n_);
}

std::uint8_t* DistanceMatrix::row(NodeId target) const noexcept {
  return slab_.get() +
         static_cast<std::size_t>(target) * n_ * width_bytes(width_);
}

void DistanceMatrix::fill_row(const Graph& g, NodeId target) {
  const std::size_t n = n_;
  std::uint8_t* const packed = row(target);
  // Each worker reuses its pooled workspace; rows are disjoint slab slices.
  // u32 rows are BFS-filled in place, narrow rows are packed from the
  // workspace row. Saturation is flagged, not thrown — workers must not
  // throw across the parallel_for; the coordinator turns the flag into an
  // error.
  auto& ws = local_bfs_workspace();
  if (width_ == DistWidth::kU32) {
    ws.distances_into(g, target, {reinterpret_cast<Dist*>(packed), n});
  } else if (narrow_row(ws.distances(g, target), width_, packed)) {
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
  return widen_entry(row(target), width_, u);
}

DistVecPtr DistanceMatrix::distances_to(NodeId target) const {
  NAV_ASSERT(target < n_);
  // u32: an aliasing handle that pins the whole slab and views one row.
  // Narrow: a widened copy — point queries should use distance(), which
  // reads packed entries in place.
  return packed_row_view(slab_, row(target), width_, n_);
}

std::span<const std::uint8_t> DistanceMatrix::packed_slab() const noexcept {
  return {slab_.get(),
          static_cast<std::size_t>(n_) * n_ * width_bytes(width_)};
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
      // One packed row per resident entry plus a spare: a miss on a full
      // cache computes its row BEFORE evicting, so without the spare every
      // such miss would spill to the heap.
      arena_(capacity_ + 1,
             static_cast<std::size_t>(g.num_nodes()) * width_bytes(width)) {
  // u32 rows are read in place; only narrow widths need widened copies.
  if (width_ != DistWidth::kU32) {
    window_.emplace(std::min(capacity_, kWideWindow) + 1, g.num_nodes());
  }
}

TargetDistanceCache::TargetDistanceCache(const Graph& g, MemoryBudget budget,
                                         ParallelPolicy policy,
                                         DistWidth width)
    : TargetDistanceCache(g, capacity_for_budget(budget, g.num_nodes(), width),
                          policy, width) {}

std::size_t TargetDistanceCache::capacity_for_budget(MemoryBudget budget,
                                                     NodeId n,
                                                     DistWidth width) noexcept {
  const std::size_t vector_bytes = std::max<std::size_t>(
      1, static_cast<std::size_t>(n) * width_bytes(width));
  return std::max<std::size_t>(1, budget.bytes / vector_bytes);
}

Dist TargetDistanceCache::distance(NodeId u, NodeId target) const {
  NAV_ASSERT(u < graph_.num_nodes() && target < graph_.num_nodes());
  {
    std::lock_guard lock(mutex_);
    const auto it = cache_.find(target);
    if (it != cache_.end()) {
      // Point query straight off the packed row: no widening, no pin, no
      // allocation. A labelled entry is exact; an unlabelled one is only
      // known to be unreachable on a complete row — past a truncated row's
      // exact_through, distances_to upgrades the row instead.
      const Dist d = widen_entry(it->second.packed.get(), width_, u);
      if (d != kInfDist || it->second.exact_through == kInfDist) {
        ++hits_;
        oracle_metrics().hits.inc();
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        return d;
      }
    }
  }
  return (*distances_to(target))[u];
}

bool TargetDistanceCache::covers(
    const Entry& entry, std::span<const NodeId> sources) const noexcept {
  if (entry.exact_through == kInfDist) return true;
  if (sources.empty()) return false;
  // row[s] < exact_through: s is labelled (so row[s] = d(s, t) exactly)
  // and B(t, d(s, t) + 1) lies inside the exact region.
  return std::all_of(sources.begin(), sources.end(), [&](NodeId s) {
    return widen_entry(entry.packed.get(), width_, s) < entry.exact_through;
  });
}

bool TargetDistanceCache::windowed(const Entry& entry) const noexcept {
  return width_ != DistWidth::kU32 && entry.distances != nullptr;
}

std::shared_ptr<std::uint8_t> TargetDistanceCache::acquire_packed() const {
  // Steady state: a recycled arena slot (O(1) control-block bookkeeping).
  std::shared_ptr<std::uint8_t> slot = arena_.try_acquire();
  return slot != nullptr ? slot : spill_row(arena_);
}

std::shared_ptr<Dist> TargetDistanceCache::staging_row_locked(
    const std::shared_ptr<std::uint8_t>& packed) const {
  // u32: the BFS writes the packed row itself, which is then read in place.
  if (width_ == DistWidth::kU32) {
    return {packed, reinterpret_cast<Dist*>(packed.get())};
  }
  // Narrow: a wide-window slot. When the window is full, drop the
  // least-recently-widened copy; its slot recycles immediately unless a
  // caller still pins the row — then the drop frees nothing and the loop
  // moves to the next victim.
  std::shared_ptr<Dist> slot = window_->try_acquire();
  while (slot == nullptr && !wide_lru_.empty()) {
    const NodeId victim = wide_lru_.back();
    wide_lru_.pop_back();
    const auto it = cache_.find(victim);
    NAV_ASSERT(it != cache_.end());
    it->second.distances = DistVecPtr{};
    slot = window_->try_acquire();
  }
  return slot != nullptr ? slot : spill_row(*window_);
}

DistVecPtr TargetDistanceCache::serve_locked(NodeId target,
                                             Entry& entry) const {
  lru_.splice(lru_.begin(), lru_, entry.lru_it);
  if (windowed(entry)) {
    wide_lru_.splice(wide_lru_.begin(), wide_lru_, entry.wide_it);
  }
  return resident_row_locked(target, entry);
}

DistVecPtr TargetDistanceCache::resident_row_locked(NodeId target,
                                                    Entry& entry) const {
  // u32 and wide-resident rows: a refcount copy, zero allocations.
  if (entry.distances != nullptr) return entry.distances;
  // Packed-only narrow row: widen it into the window under the lock (an
  // O(n) decode — much cheaper than the BFS a miss would pay).
  const std::size_t n = graph_.num_nodes();
  std::shared_ptr<Dist> wide = staging_row_locked(entry.packed);
  widen_row(entry.packed.get(), width_, {wide.get(), n});
  entry.distances = DistVecPtr{std::move(wide), n};
  wide_lru_.push_front(target);
  entry.wide_it = wide_lru_.begin();
  return entry.distances;
}

DistVecPtr TargetDistanceCache::install_locked(
    NodeId target, std::shared_ptr<Dist> row,
    std::shared_ptr<std::uint8_t> packed, Dist exact_through) const {
  const auto resident = cache_.find(target);
  if (resident != cache_.end()) erase_locked(resident);
  lru_.push_front(target);
  Entry entry{lru_.begin(), std::move(packed),
              DistVecPtr{std::move(row), graph_.num_nodes()}, {},
              exact_through};
  if (windowed(entry)) {
    wide_lru_.push_front(target);
    entry.wide_it = wide_lru_.begin();
  }
  DistVecPtr result = entry.distances;
  cache_.emplace(target, std::move(entry));
  return result;
}

void TargetDistanceCache::evict_overflow_locked() const {
  std::size_t evicted = 0;
  while (cache_.size() > capacity_) {
    const NodeId victim = lru_.back();
    lru_.pop_back();
    const auto it = cache_.find(victim);
    if (windowed(it->second)) wide_lru_.erase(it->second.wide_it);
    cache_.erase(it);  // slots recycle once the last pins drop
    ++evicted;
  }
  if (evicted > 0) oracle_metrics().evictions.inc(evicted);
}

void TargetDistanceCache::erase_locked(
    std::unordered_map<NodeId, Entry>::iterator it) const {
  if (windowed(it->second)) wide_lru_.erase(it->second.wide_it);
  lru_.erase(it->second.lru_it);
  cache_.erase(it);  // the slots recycle once the last pins drop
}

DistVecPtr TargetDistanceCache::distances_to(NodeId target) const {
  NAV_ASSERT(target < graph_.num_nodes());
  const std::size_t n = graph_.num_nodes();
  std::shared_ptr<std::uint8_t> packed;
  std::shared_ptr<Dist> row;
  {
    std::lock_guard lock(mutex_);
    const auto it = cache_.find(target);
    // A complete resident row is a hit; a truncated one is upgraded to a
    // complete row below, as a miss.
    if (it != cache_.end() && it->second.exact_through == kInfDist) {
      ++hits_;
      oracle_metrics().hits.inc();
      return serve_locked(target, it->second);
    }
    ++misses_;
    oracle_metrics().misses.inc();
    // Storage first (window eviction needs the lock), BFS outside it.
    packed = acquire_packed();
    row = staging_row_locked(packed);
  }
  // Concurrent misses on the same target may compute it twice; both rows
  // are identical, and the second install keeps the first complete one.
  local_bfs_workspace().distances_into(graph_, target, {row.get(), n});
  if (pack_staged({row.get(), n}, width_, packed.get())) {
    throw_width_saturated(width_);
  }
  std::lock_guard lock(mutex_);
  const auto it = cache_.find(target);
  if (it != cache_.end() && it->second.exact_through == kInfDist) {
    return resident_row_locked(target, it->second);  // lost the race
  }
  DistVecPtr result =
      install_locked(target, std::move(row), std::move(packed), kInfDist);
  evict_overflow_locked();
  return result;
}

std::vector<NodeId> TargetDistanceCache::resident_targets() const {
  std::lock_guard lock(mutex_);
  return {lru_.begin(), lru_.end()};
}

DistVecPtr TargetDistanceCache::peek(NodeId target) const {
  std::lock_guard lock(mutex_);
  const auto it = cache_.find(target);
  if (it == cache_.end() || it->second.exact_through != kInfDist) return {};
  if (it->second.distances != nullptr) return it->second.distances;
  // Packed-only resident on a narrow cache: hand out a private widened copy
  // without perturbing the window (peek must not change cache state).
  return packed_row_view(it->second.packed, it->second.packed.get(), width_,
                         graph_.num_nodes());
}

bool TargetDistanceCache::erase(NodeId target) {
  std::lock_guard lock(mutex_);
  const auto it = cache_.find(target);
  if (it == cache_.end()) return false;
  erase_locked(it);
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
  // Sourced waves: each distinct target's merged stop list, indexed by its
  // first occurrence — stop[stop_begin[f] .. + stop_len[f]); empty asks for
  // the complete row.
  std::vector<NodeId> stop;
  std::vector<std::size_t> stop_begin, stop_len;
  std::vector<NodeId> missing;         // distinct targets needing a BFS
  std::vector<std::size_t> miss_slot;  // their positions in the output
  // Per miss: the stop set its sweep runs with (empty for a complete row,
  // which every upgrade is) and the depth through which the result is exact.
  std::vector<std::span<const NodeId>> miss_stop;
  std::vector<Dist> exact_through;
  // Storage pre-acquired for the misses: the packed rows and the Dist rows
  // their BFS writes (the packed rows themselves at u32).
  std::vector<std::shared_ptr<std::uint8_t>> packed;
  std::vector<std::shared_ptr<Dist>> staged;
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
  scratch.miss_stop.clear();
  return 64u - static_cast<unsigned>(std::countr_zero(cap));
}

/// Dedup probe: records the first-occurrence index of targets[i] in
/// first_of[i] (i itself when this is the first sighting).
void dedup_probe(PrefetchScratch& scratch, std::span<const NodeId> targets,
                 std::size_t i, unsigned shift) {
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
      return;
    }
    if (targets[stored - 1] == t) {
      scratch.first_of[i] = stored - 1;
      return;
    }
    slot = (slot + 1) & (cap - 1);
  }
}

/// Merges the stop lists of each distinct target's occurrences into one
/// list per first occurrence (first_of must be filled). A target any of
/// whose occurrences asks for the complete row gets an empty list.
void merge_stop_lists(PrefetchScratch& scratch,
                      std::span<const std::span<const NodeId>> sources) {
  constexpr std::size_t kComplete = ~std::size_t{0};
  const std::size_t wave = sources.size();
  auto& len = scratch.stop_len;
  auto& begin = scratch.stop_begin;
  len.assign(wave, 0);
  if (begin.size() < wave) begin.resize(wave);
  for (std::size_t i = 0; i < wave; ++i) {
    std::size_t& f_len = len[scratch.first_of[i]];
    if (f_len == kComplete) continue;
    f_len = sources[i].empty() ? kComplete : f_len + sources[i].size();
  }
  std::size_t total = 0;
  for (std::size_t i = 0; i < wave; ++i) {
    if (scratch.first_of[i] != i) continue;
    if (len[i] == kComplete) len[i] = 0;
    begin[i] = total;
    total += len[i];
  }
  scratch.stop.resize(total);
  // Fill, advancing each list's begin as its write cursor, then rewind.
  for (std::size_t i = 0; i < wave; ++i) {
    const std::size_t f = scratch.first_of[i];
    if (len[f] == 0) continue;
    std::copy(sources[i].begin(), sources[i].end(),
              scratch.stop.begin() + static_cast<std::ptrdiff_t>(begin[f]));
    begin[f] += sources[i].size();
  }
  for (std::size_t i = 0; i < wave; ++i) {
    if (scratch.first_of[i] == i) begin[i] -= len[i];
  }
}

}  // namespace

void TargetDistanceCache::prefetch_into(std::span<const NodeId> targets,
                                        std::vector<DistVecPtr>& out) const {
  prefetch_wave(targets, {}, out);
}

void TargetDistanceCache::prefetch_sourced_into(
    std::span<const NodeId> targets,
    std::span<const std::span<const NodeId>> sources,
    std::vector<DistVecPtr>& out) const {
  NAV_REQUIRE(sources.size() == targets.size(),
              "one source list per prefetch target");
  prefetch_wave(targets, sources, out);
}

void TargetDistanceCache::prefetch_wave(
    std::span<const NodeId> targets,
    std::span<const std::span<const NodeId>> sources,
    std::vector<DistVecPtr>& out) const {
  NAV_OBS_SPAN("oracle.prefetch_wave", "targets",
               static_cast<double>(targets.size()));
  out.clear();
  out.resize(targets.size());
  if (targets.empty()) return;
  oracle_metrics().wave_width.observe(static_cast<double>(targets.size()));

  auto& scratch = nav::thread_scratch<PrefetchScratch>();
  const unsigned shift = prepare_dedup(scratch, targets.size());
  const std::size_t n = graph_.num_nodes();
  for (std::size_t i = 0; i < targets.size(); ++i) {
    NAV_ASSERT(targets[i] < graph_.num_nodes());
    dedup_probe(scratch, targets, i, shift);
  }
  if (!sources.empty()) merge_stop_lists(scratch, sources);
  // What the first occurrence f's row must cover (empty: the complete row).
  const auto request = [&](std::size_t f) -> std::span<const NodeId> {
    if (sources.empty()) return {};
    return {scratch.stop.data() + scratch.stop_begin[f], scratch.stop_len[f]};
  };

  // Pass 1 (under the lock): serve residents that cover their request, list
  // misses and upgrades, and pre-acquire their storage — window eviction
  // needs the lock anyway. Registry increments are batched per wave (one
  // shard write per counter, after the loop) instead of per target.
  std::size_t wave_hits = 0;
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const NodeId t = targets[i];
      if (scratch.first_of[i] != i) {
        ++hits_;  // served by the first occurrence's row
        ++wave_hits;
        continue;
      }
      const auto it = cache_.find(t);
      if (it != cache_.end() && covers(it->second, request(i))) {
        ++hits_;
        ++wave_hits;
        out[i] = serve_locked(t, it->second);
        continue;
      }
      // A miss sweeps only as far as its sources need; a resident row too
      // shallow for them is upgraded to the complete row, so the target
      // cannot be upgraded again while it stays resident.
      ++misses_;
      scratch.missing.push_back(t);
      scratch.miss_slot.push_back(i);
      scratch.miss_stop.push_back(
          it != cache_.end() ? std::span<const NodeId>{} : request(i));
    }
    scratch.packed.resize(scratch.missing.size());
    scratch.staged.resize(scratch.missing.size());
    scratch.exact_through.resize(scratch.missing.size());
    for (std::size_t k = 0; k < scratch.missing.size(); ++k) {
      scratch.packed[k] = acquire_packed();
      scratch.staged[k] = staging_row_locked(scratch.packed[k]);
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
  const auto fill = [&](auto& bfs, std::size_t k) {
    const std::span<Dist> row{scratch.staged[k].get(), n};
    scratch.exact_through[k] = bfs.distances_into(
        graph_, scratch.missing[k], row, kInfDist, scratch.miss_stop[k]);
    if (pack_staged(row, width_, scratch.packed[k].get())) {
      saturated.store(true, std::memory_order_relaxed);
    }
  };
  const std::size_t workers = policy_.resolved_workers();
  if (workers > 1 && scratch.missing.size() >= workers) {
    // Wide wave: farm whole rows across the lanes, one scalar sweep each —
    // this is the batched-prefetch win over miss-by-miss distances_to.
    nav::parallel_for(
        0, scratch.missing.size(),
        [&](std::size_t k) { fill(local_bfs_workspace(), k); }, workers);
  } else if (workers > 1 && !scratch.missing.empty()) {
    // Narrow wave: fewer misses than workers, so row farming would idle
    // most lanes — run each miss as one multi-worker sweep instead.
    std::lock_guard engine_lock(engine_mutex_);
    if (engine_ == nullptr) engine_ = std::make_unique<ParallelBfs>(policy_);
    for (std::size_t k = 0; k < scratch.missing.size(); ++k) fill(*engine_, k);
  } else {
    for (std::size_t k = 0; k < scratch.missing.size(); ++k) {
      fill(local_bfs_workspace(), k);
    }
  }
  if (saturated.load(std::memory_order_relaxed)) {
    scratch.packed.clear();
    scratch.staged.clear();
    throw_width_saturated(width_);
  }

  // Pass 3 (under the lock): install the new rows, newest-first LRU. A row
  // a concurrent caller installed meanwhile is kept when it covers this
  // wave's request; otherwise ours replaces it.
  if (!scratch.missing.empty()) {
    std::lock_guard lock(mutex_);
    for (std::size_t k = 0; k < scratch.missing.size(); ++k) {
      const NodeId t = scratch.missing[k];
      const std::size_t slot = scratch.miss_slot[k];
      const auto it = cache_.find(t);
      if (it != cache_.end() && covers(it->second, request(slot))) {
        out[slot] = resident_row_locked(t, it->second);
        continue;
      }
      out[slot] = install_locked(t, std::move(scratch.staged[k]),
                                 std::move(scratch.packed[k]),
                                 scratch.exact_through[k]);
    }
    evict_overflow_locked();
  }
  // Drop the scratch pins: rows now live via cache_/out.
  scratch.packed.clear();
  scratch.staged.clear();

  // Final pass: duplicates alias their first occurrence's pin.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (scratch.first_of[i] != i) out[i] = out[scratch.first_of[i]];
  }
}

}  // namespace nav::graph
