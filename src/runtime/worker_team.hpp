// worker_team.hpp — the library's one parallel runtime: a persistent
// fork-join team plus the atomic-claim index loop built on it.
//
// WorkerTeam is a fixed set of lanes (caller thread = lane 0 plus
// thread_count()-1 private threads) that execute one body per run() call and
// rejoin at an internal barrier. Dispatch is a raw function pointer + context
// pointer — no std::function, no queue nodes — so a warm run() performs ZERO
// heap allocations, which is what lets the parallel kernels keep the
// engine's allocation-free contract (tests/alloc). Threads start lazily on
// the first run() that needs them ("worker-pool startup" is the one moment
// the zero-allocation proofs exempt) and park on a condition variable
// between runs.
//
// nav::parallel_for(begin, end, body) farms independent work items (rows of
// a DistanceMatrix, pairs of a batch, resamples of a trial) over the
// process-wide team: every lane claims the next unclaimed index from one
// stack-held atomic counter, so a long iteration occupies one lane while the
// rest drain the remainder. Determinism contract: body(i) must derive all
// randomness from the index i (e.g. `rng.child(i)`) and write only slots it
// owns by index, never key anything on thread identity. Under that contract
// results are identical for any team width and any schedule.
//
// Busy-team rule: a run() that finds its team busy — another thread's run is
// in flight, or the call comes from inside one of the team's own lane
// bodies — executes every lane's body on the calling thread, in lane order,
// instead of waiting. So run() and parallel_for are safe from any thread and
// at any nesting depth: a nested or concurrent loop never deadlocks, it just
// runs serially. Because lane 0 is the calling thread, a body may share the
// caller's thread_scratch<T> instances: never hold a scratch instance across
// a loop whose body uses the same type.
//
// Lane-failure injection (nav::resilience): fail_lane() marks a worker lane
// failed, optionally after a countdown of dispatches (so a test can lose a
// lane MID-sweep at a deterministic point). A failed lane still participates
// in the barrier protocol — it latches each generation and decrements the
// join counter — but skips the body; the coordinator (lane 0) executes the
// skipped lane's body after its own, so every lane index in
// [0, thread_count()) is still executed exactly once per run(). Kernels
// whose writes are lane-owned or idempotent (ParallelBfs bottom-up ranges,
// frontier rebuild prefix sums, CAS-published depths, claim-loop slots)
// therefore produce BIT-IDENTICAL output with and without failed lanes —
// only the thread that ran the range differs.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace nav {

class WorkerTeam {
 public:
  /// A team of `lanes` lanes (0 = default_threads()). Lane 0 is the caller
  /// of run(); lanes-1 private threads are started lazily by the first run()
  /// on a team wider than one lane.
  explicit WorkerTeam(std::size_t lanes = 0);

  /// Joins the private threads (after draining any parked run).
  ~WorkerTeam();

  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  /// Total lanes, including the calling thread's lane 0.
  [[nodiscard]] std::size_t thread_count() const noexcept { return lanes_; }

  /// A sensible default width for this machine (hardware_concurrency, >= 1).
  [[nodiscard]] static std::size_t default_threads() noexcept;

  /// True once the private threads have been spawned (diagnostics; the
  /// zero-allocation tests warm the team first and assert this).
  [[nodiscard]] bool started() const noexcept { return started_; }

  /// Runs body(lane) on every lane in [0, thread_count()) concurrently —
  /// lane 0 on the calling thread — and returns when ALL lanes have
  /// finished (a full barrier). A busy team runs every lane on the caller
  /// (see the header comment). `body` must not throw (lanes are
  /// noexcept-by-policy). Zero heap allocations once the threads are
  /// started.
  template <typename F>
  void run(F&& body) {
    using Body = std::remove_reference_t<F>;
    run_raw(
        [](void* ctx, std::size_t lane) noexcept {
          (*static_cast<Body*>(ctx))(lane);
        },
        std::addressof(body));
  }

  /// Fault injection: marks worker lane `lane` (1 <= lane < thread_count())
  /// failed once `after_dispatches` further dispatches have completed
  /// healthily (0 = the very next run() already runs degraded). Only real
  /// dispatches count down; busy-team inline runs do not. From then on the
  /// lane's body is executed by the coordinator instead — full work
  /// coverage, bit-identical kernel output (see the header comment). Lane 0
  /// is the caller and cannot fail. Thread-safe; takes effect at dispatch
  /// boundaries only, so a sweep in flight is never torn mid-generation.
  void fail_lane(std::size_t lane, std::uint64_t after_dispatches = 0);

  /// Clears every injected lane failure (pending and active).
  void heal_lanes();

  /// Worker lanes currently marked failed.
  [[nodiscard]] std::size_t failed_lanes() const;

 private:
  void run_raw(void (*fn)(void*, std::size_t), void* ctx);
  void worker_loop(std::size_t lane);

  std::size_t lanes_;
  // Set while a dispatch is in flight. An atomic flag rather than a mutex:
  // the nested run() that must see it can come from lane 0's own thread.
  // Its acquire/release pairs also order started_ and threads_.
  std::atomic<bool> busy_{false};
  bool started_ = false;
  std::vector<std::thread> threads_;

  mutable std::mutex mutex_;
  std::condition_variable cv_go_;    // a new generation is ready
  std::condition_variable cv_done_;  // a lane finished the generation
  void (*fn_)(void*, std::size_t) = nullptr;
  void* ctx_ = nullptr;
  std::uint64_t generation_ = 0;  // bumped per run(); lanes latch onto it
  std::size_t remaining_ = 0;     // worker lanes still inside the generation
  bool stop_ = false;

  // Lane-failure injection state (all under mutex_). failed_/gen_failed_
  // are sized at construction so marking and latching never allocate;
  // gen_failed_ is the per-generation snapshot lanes and the coordinator
  // read (stable for the whole generation — fail_lane during a sweep only
  // affects the NEXT dispatch).
  std::vector<std::uint8_t> failed_;
  std::vector<std::uint8_t> gen_failed_;
  std::vector<std::pair<std::size_t, std::uint64_t>> pending_failures_;
  bool any_failed_ = false;
};

/// The process-wide team, default_threads() wide, created on first use and
/// alive until process exit.
WorkerTeam& global_pool();

/// Runs body(i) for every i in [begin, end) over global_pool() and returns
/// when all are done. Lanes claim indices one at a time from a shared atomic
/// counter; lanes >= max_lanes (0 = the whole team) do no work, so a caller
/// can honour a graph::ParallelPolicy narrower than the team. One lane or
/// one index runs inline on the caller. Follows the determinism contract
/// and busy-team rule of the header comment; zero heap allocations once the
/// team is warm.
template <typename F>
void parallel_for(std::size_t begin, std::size_t end, F&& body,
                  std::size_t max_lanes = 0) {
  if (begin >= end) return;
  WorkerTeam& team = global_pool();
  const std::size_t lanes =
      max_lanes == 0 ? team.thread_count()
                     : std::min(max_lanes, team.thread_count());
  if (lanes <= 1 || end - begin == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{begin};
  team.run([&](std::size_t lane) {
    if (lane >= lanes) return;
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < end;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
  });
}

}  // namespace nav
