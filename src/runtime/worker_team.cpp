#include "runtime/worker_team.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "runtime/assert.hpp"

namespace nav {

namespace {

// Counted on the dispatching (coordinator) thread only — worker lanes never
// touch the registry, keeping warm run() calls allocation-free.
obs::Counter& team_dispatches() {
  static obs::Counter* c =
      new obs::Counter(obs::default_registry().counter("worker_team.dispatches"));
  return *c;
}

}  // namespace

WorkerTeam::WorkerTeam(std::size_t lanes)
    : lanes_(lanes == 0 ? default_threads() : lanes),
      failed_(lanes_, 0),
      gen_failed_(lanes_, 0) {}

WorkerTeam::~WorkerTeam() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_go_.notify_all();
  for (auto& thread : threads_) thread.join();
}

std::size_t WorkerTeam::default_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

WorkerTeam& global_pool() {
  static WorkerTeam team;
  return team;
}

void WorkerTeam::fail_lane(std::size_t lane, std::uint64_t after_dispatches) {
  NAV_REQUIRE(lane >= 1 && lane < lanes_,
              "fail_lane needs a worker lane in [1, thread_count())");
  std::lock_guard lock(mutex_);
  if (after_dispatches == 0) {
    failed_[lane] = 1;
    any_failed_ = true;
  } else {
    pending_failures_.emplace_back(lane, after_dispatches);
  }
}

void WorkerTeam::heal_lanes() {
  std::lock_guard lock(mutex_);
  std::fill(failed_.begin(), failed_.end(), std::uint8_t{0});
  pending_failures_.clear();
  any_failed_ = false;
}

std::size_t WorkerTeam::failed_lanes() const {
  std::lock_guard lock(mutex_);
  return static_cast<std::size_t>(
      std::count(failed_.begin(), failed_.end(), std::uint8_t{1}));
}

void WorkerTeam::run_raw(void (*fn)(void*, std::size_t), void* ctx) {
  if (lanes_ > 1 && busy_.exchange(true, std::memory_order_acquire)) {
    // Busy team (another thread's run, or a nested run from one of our own
    // lane bodies): cover every lane on the caller, the same path a failed
    // lane takes. Not a dispatch — no counter, no countdown, no wait.
    for (std::size_t lane = 0; lane < lanes_; ++lane) fn(ctx, lane);
    return;
  }
  team_dispatches().inc();
  if (lanes_ <= 1) {
    fn(ctx, 0);
    return;
  }
  if (!started_) {
    // Lazy startup: the one moment a team allocates. Kernels warm a team
    // before entering their measured (allocation-free) steady state.
    threads_.reserve(lanes_ - 1);
    for (std::size_t lane = 1; lane < lanes_; ++lane) {
      threads_.emplace_back([this, lane] { worker_loop(lane); });
    }
    started_ = true;
  }
  bool take_over = false;
  {
    std::lock_guard lock(mutex_);
    // Countdown-triggered failures fire at dispatch boundaries, so a
    // "lose lane 2 after 3 sweeps" injection is deterministic: dispatch
    // counts are a pure function of the kernel's level structure.
    if (!pending_failures_.empty()) {
      // A countdown of N survives exactly N dispatches: activate when it
      // reaches zero BEFORE this dispatch, decrement otherwise.
      for (auto it = pending_failures_.begin();
           it != pending_failures_.end();) {
        if (it->second == 0) {
          failed_[it->first] = 1;
          any_failed_ = true;
          it = pending_failures_.erase(it);
        } else {
          --it->second;
          ++it;
        }
      }
    }
    // Latch this generation's failure snapshot: lanes read gen_failed_ for
    // the generation they latched, never the live mask. Same-size vector
    // assign — element copy, no allocation.
    gen_failed_ = failed_;
    take_over = any_failed_;
    fn_ = fn;
    ctx_ = ctx;
    remaining_ = lanes_ - 1;
    ++generation_;
  }
  cv_go_.notify_all();
  fn(ctx, 0);  // the caller is lane 0
  if (take_over) {
    // Coverage guarantee: execute every failed lane's body on the
    // coordinator, after lane 0's own share. Writes in team kernels are
    // lane-owned or idempotent, so output bits do not depend on which
    // thread ran the lane — only liveness does.
    for (std::size_t lane = 1; lane < lanes_; ++lane) {
      if (gen_failed_[lane] != 0) fn(ctx, lane);
    }
  }
  {
    std::unique_lock lock(mutex_);
    cv_done_.wait(lock, [this] { return remaining_ == 0; });
  }
  busy_.store(false, std::memory_order_release);
}

void WorkerTeam::worker_loop(std::size_t lane) {
  std::uint64_t seen = 0;
  while (true) {
    void (*fn)(void*, std::size_t);
    void* ctx;
    bool failed;
    {
      std::unique_lock lock(mutex_);
      cv_go_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      fn = fn_;
      ctx = ctx_;
      failed = gen_failed_[lane] != 0;
    }
    // A failed lane keeps the barrier protocol (latch, decrement, notify)
    // but skips the body — the coordinator runs it instead.
    if (!failed) fn(ctx, lane);
    bool last;
    {
      std::lock_guard lock(mutex_);
      last = --remaining_ == 0;
    }
    if (last) cv_done_.notify_one();
  }
}

}  // namespace nav
