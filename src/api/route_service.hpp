// route_service.hpp — always-on batch routing with target-sharded oracle
// prefetch.
//
// At cache-oracle sizes (n above EngineOptions::dense_oracle_limit) routing
// a mixed batch pair by pair thrashes the TargetDistanceCache: each pair
// whose target has been evicted pays a fresh BFS, so a batch with T distinct
// targets can cost far more than T BFS runs. RouteService executes every
// batch as follows:
//
//   1. shard the batch by target (order of first appearance),
//   2. prefetch shard targets in waves through the oracle's batch interface
//      (one parallel BFS sweep over the misses; the returned vectors stay
//      pinned for the wave, immune to LRU eviction), passing each shard's
//      sources (prefetch_sourced_into) so a miss's sweep stops one level
//      past its deepest source — every distance its routes can read,
//   3. flatten the wave's routable pairs into one (slot, job) list in shard
//      order, request order within a shard,
//   4. execute that list across the process-wide WorkerTeam with per-pair
//      dynamic scheduling (nav::parallel_for), each pair routing through its
//      shard's pinned vector (Router::route_resolved), so the oracle is
//      never queried from inside a loop body. Scheduling pairs rather than
//      whole shards keeps every lane busy when skewed demand piles most of
//      a batch onto one hot target; the sequential path walks the same
//      list in order.
//
// Net effect: exactly one BFS per distinct target per batch, whatever the
// cache capacity, concurrency, or request order. Batch execution follows
// the busy-team rule (runtime/worker_team.hpp), so route_batch is safe from
// any thread, including from inside a parallel_for body.
//
// Determinism: pair i of a batch draws from rng.child(i) whatever shard it
// lands in, and routes are pure functions of (s, t, scheme, rng state), so
// the results are bit-identical to routing the pairs one by one — the test
// suite asserts this across batch and wave splits.
//
// Telemetry lives in one place: the `route_service.*` registry metrics
// (metrics(), queue_stats()) for the service's lifetime, RouteReport for a
// single batch.
//
// "Always-on": submit() enqueues a batch on an internal service thread and
// returns a std::future, so a driver can keep feeding mixed-size batches
// while earlier ones execute (examples/route_server.cpp). The service thread
// is started lazily on first submit and drained on destruction.
//
// Admission (RouteServiceOptions::admission) bounds the submit() queue for
// open-loop drivers (workload::TrafficDriver):
//   * Unbounded — the original FIFO: every batch is queued, no backpressure;
//   * Bounded{max_queued_pairs} — submit() blocks the producer until the
//     queue has room (an oversized batch is still admitted when the queue is
//     empty, so a single batch can never deadlock);
//   * Shed{deadline_seconds} — batches that waited in the queue longer than
//     the deadline are dropped at dequeue: their future fails with ShedError
//     and the service moves on. When the submitter supplies a virtual
//     arrival time (submit's vtime overload) AND virtual_pair_cost_seconds
//     is set, the wait is evaluated in VIRTUAL time — a deterministic
//     function of arrival times and batch sizes, never of scheduler luck;
//   * Adaptive{slo_seconds} — an AIMD controller over an admitted-work
//     window: a batch whose virtual backlog would overflow the window is
//     rejected at dequeue (ShedError with Reason::kRejected); each served
//     batch's virtual sojourn is compared against the SLO, shrinking the
//     window multiplicatively on a breach and growing it additively
//     otherwise. Fully virtual-time driven, hence deterministic.
// queue_stats() exposes the live depth and the admission counters;
// pause()/resume() freeze dequeueing so tests and drain-style drivers can
// fill the queue deterministically.
//
// Resilience (RouteServiceOptions::resilience): when the oracle injects
// transient faults (resilience::FaultyOracle, "faulty:" specs), batch
// execution retries the FAILED SUBSET of each prefetch wave with
// exponential virtual-time backoff, falls back to a degraded oracle/router
// pair when retries or the batch's deadline budget are exhausted, and
// reports a per-pair DegradationStatus in RouteReport. With a fault-free
// oracle the try block costs nothing until a TransientOracleError flies.
#pragma once

/// \file
/// \brief RouteService: always-on batch routing with target-sharded oracle
/// prefetch.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "obs/metrics.hpp"
#include "routing/router.hpp"
#include "routing/trial_runner.hpp"
#include "runtime/assert.hpp"

namespace nav::api {

/// One routing job: a (source, target) pair plus the private rng stream the
/// route consumes. Batch drivers that need a custom stream layout (e.g. the
/// trial estimator's pair×replicate grid) build jobs directly; plain batches
/// go through route_batch, which derives job i's stream as rng.child(i).
struct RouteJob {
  /// Start node of the route.
  graph::NodeId source = 0;
  /// Destination node; jobs sharing a target share one BFS.
  graph::NodeId target = 0;
  /// Private randomness for this route's lazy contact draws.
  Rng rng;
};

/// Thrown through a submit() future when admission drops the batch: Shed
/// (it aged past the deadline in the queue) or Adaptive (the controller's
/// window had no room). Carries the structured context of the drop — wait,
/// batch size, queue depth — so drivers can aggregate without parsing what().
class ShedError : public std::runtime_error {
 public:
  /// Why the batch was dropped.
  enum class Reason : std::uint8_t {
    kDeadline,  ///< Shed: queued longer than the policy deadline
    kRejected   ///< Adaptive: admitting it would overflow the AIMD window
  };

  ShedError(Reason reason, double waited_seconds, std::size_t batch_pairs,
            std::size_t queue_depth_pairs)
      : std::runtime_error(
            "batch of " + std::to_string(batch_pairs) + " pairs " +
            (reason == Reason::kDeadline ? "shed after " : "rejected after ") +
            std::to_string(waited_seconds) + "s in queue (" +
            std::to_string(queue_depth_pairs) + " pairs behind it)"),
        reason_(reason),
        waited_seconds_(waited_seconds),
        batch_pairs_(batch_pairs),
        queue_depth_pairs_(queue_depth_pairs) {}

  /// Deadline aging (Shed) vs window rejection (Adaptive).
  [[nodiscard]] Reason reason() const noexcept { return reason_; }
  /// How long the batch waited before the drop — wall-clock seconds under
  /// wall evaluation, virtual seconds under virtual-time evaluation.
  [[nodiscard]] double waited_seconds() const noexcept {
    return waited_seconds_;
  }
  /// Pairs in the dropped batch.
  [[nodiscard]] std::size_t batch_pairs() const noexcept {
    return batch_pairs_;
  }
  /// Pairs still queued behind the batch at the moment it was dropped.
  [[nodiscard]] std::size_t queue_depth_pairs() const noexcept {
    return queue_depth_pairs_;
  }

 private:
  Reason reason_;
  double waited_seconds_;
  std::size_t batch_pairs_;
  std::size_t queue_depth_pairs_;
};

/// Admission policy for the submit() queue (route_batch/route_jobs run on
/// the caller's thread and are never queued, so admission does not apply).
struct AdmissionPolicy {
  /// How submit() reacts when demand outruns the service.
  enum class Kind : std::uint8_t {
    kUnbounded,  ///< queue every batch (the original FIFO)
    kBounded,    ///< block the producer until the queue has room
    kShed,       ///< drop batches that queued longer than the deadline
    kAdaptive    ///< AIMD window targeting a p99 virtual-sojourn SLO
  };
  /// Selected behaviour; the other fields apply per kind.
  Kind kind = Kind::kUnbounded;
  /// kBounded: max pairs waiting in the queue. A batch larger than the bound
  /// is admitted when the queue is empty (no single-batch deadlock).
  std::size_t max_queued_pairs = 0;
  /// kShed: a batch that waited longer than this many seconds is shed at
  /// dequeue (its future fails with ShedError). Wall-clock seconds unless
  /// the submitter supplied a virtual arrival time AND
  /// RouteServiceOptions::virtual_pair_cost_seconds is set, in which case
  /// the wait is virtual (deterministic).
  double deadline_seconds = 0.0;
  /// kAdaptive: the controller's target — a served batch whose virtual
  /// sojourn (arrival -> completion) exceeds this breaches the SLO and
  /// shrinks the window. Requires virtual arrival times and
  /// virtual_pair_cost_seconds > 0 (checked at construction).
  double slo_seconds = 0.0;
  /// kAdaptive: initial admitted-work window, in pairs.
  std::size_t adaptive_start_pairs = 1024;
  /// kAdaptive: the window never shrinks below this floor (so the service
  /// keeps serving SOMETHING under any overload).
  std::size_t adaptive_min_pairs = 64;
  /// kAdaptive: additive window growth per SLO-respecting batch.
  std::size_t adaptive_increase_pairs = 64;
  /// kAdaptive: multiplicative window decrease on an SLO breach (in (0,1)).
  double adaptive_beta = 0.5;

  /// The original unbounded FIFO (default).
  [[nodiscard]] static AdmissionPolicy unbounded() { return {}; }
  /// Backpressure: block submit() while `max_queued_pairs` pairs wait.
  /// bounded(0) is the degenerate-but-valid full serialization: every batch
  /// waits for an empty queue.
  [[nodiscard]] static AdmissionPolicy bounded(std::size_t max_queued_pairs) {
    AdmissionPolicy policy;
    policy.kind = Kind::kBounded;
    policy.max_queued_pairs = max_queued_pairs;
    return policy;
  }
  /// Load shedding: drop batches older than `deadline_seconds` at dequeue.
  /// Throws std::invalid_argument on a negative deadline (which would shed
  /// every batch — say shed(0.0) if that is really what you mean).
  [[nodiscard]] static AdmissionPolicy shed(double deadline_seconds) {
    NAV_REQUIRE(deadline_seconds >= 0.0, "shed deadline must be >= 0");
    AdmissionPolicy policy;
    policy.kind = Kind::kShed;
    policy.deadline_seconds = deadline_seconds;
    return policy;
  }
  /// SLO-driven adaptive admission: AIMD over an admitted-work window in
  /// pairs, targeting a virtual-sojourn SLO of `slo_seconds` per batch.
  /// Deterministic: every decision is a pure function of virtual arrival
  /// times, batch sizes, and FIFO order.
  [[nodiscard]] static AdmissionPolicy adaptive(double slo_seconds) {
    NAV_REQUIRE(slo_seconds > 0.0, "adaptive SLO must be > 0");
    AdmissionPolicy policy;
    policy.kind = Kind::kAdaptive;
    policy.slo_seconds = slo_seconds;
    return policy;
  }
};

/// Live queue depth plus cumulative admission counters (queue_stats()).
/// Since the obs migration this struct is a point-in-time VIEW over the
/// service's metrics registry — the counters live in `route_service.*`
/// registry metrics and queue_stats() materialises them under the queue
/// mutex, so the values stay bit-identical to the pre-registry struct.
struct QueueStats {
  std::size_t queued_batches = 0;     ///< batches waiting right now
  std::size_t queued_pairs = 0;       ///< pairs waiting right now
  std::size_t peak_queued_pairs = 0;  ///< high-water mark of queued_pairs
  std::size_t submitted_batches = 0;  ///< batches ever accepted by submit()
  std::size_t submitted_pairs = 0;    ///< pairs ever accepted by submit()
  std::size_t executed_batches = 0;   ///< batches dequeued and routed
  std::size_t shed_batches = 0;       ///< batches aged out by Shed admission
  std::size_t shed_pairs = 0;         ///< pairs aged out by Shed admission
  std::size_t rejected_batches = 0;   ///< batches refused by Adaptive window
  std::size_t rejected_pairs = 0;     ///< pairs refused by Adaptive window
  std::size_t blocked_submits = 0;    ///< submits that had to wait (Bounded)
  // Degradation counters (resilience.* metrics; zero on a fault-free stack).
  std::size_t retries = 0;             ///< prefetch retry rounds taken
  std::size_t fallback_pairs = 0;      ///< pairs routed via the fallback
  std::size_t deadline_breaches = 0;   ///< batches whose budget ran out
  std::size_t degraded_pairs = 0;      ///< pairs completed degraded
  std::size_t failed_pairs = 0;        ///< pairs with no usable row at all
  std::size_t slo_breaches = 0;        ///< Adaptive: served-over-SLO batches
  std::size_t adaptive_window_pairs = 0;  ///< Adaptive: live window size
};

/// How a pair's route was produced, per RouteReport entry. Order matters:
/// later values are strictly worse, so drivers can fold with std::max.
enum class DegradationStatus : std::uint8_t {
  kExact,     ///< routed on the primary oracle's row and reached the target
  kDegraded,  ///< completed, but via fallback rows, a stalled (bound-only)
              ///< row that did not reach, or a tolerated-unreachable pair
  kShed,      ///< never executed: dropped by Shed/Adaptive admission
  kFailed     ///< executed but unroutable: no usable distance row survived
};

/// Degraded-mode knobs: what the service does when the oracle throws
/// resilience::TransientOracleError mid-batch. Defaults keep retrying
/// enabled everywhere (the retry loop is free when no fault fires) and the
/// fallback chain empty. Whether a target that survives neither retries nor
/// the fallback fails the batch or only its own pairs is
/// RouteServiceOptions::tolerate_unreachable.
struct ResilienceOptions {
  /// Retry rounds per prefetch wave before giving up on a target. Each
  /// round retries only the still-failing subset (the oracle's partial-
  /// success contract fills everything else), so convergence is per-target.
  std::size_t max_retries = 3;
  /// Virtual backoff before retry round k: base * 2^(k-1) seconds, advanced
  /// on the global virtual clock — deterministic, never a real sleep.
  double backoff_base_seconds = 1e-3;
  /// Per-batch degradation budget in virtual seconds (0 = unlimited): once
  /// a batch has accumulated this much injected virtual time, remaining
  /// faulted targets skip further retries and go straight to the fallback.
  double batch_deadline_seconds = 0.0;
  /// Degraded oracle consulted for targets whose retries are exhausted
  /// (e.g. a landmark oracle — approximate but fault-free). Must outlive
  /// the service. nullptr = no fallback tier.
  const graph::DistanceOracle* fallback_oracle = nullptr;
  /// Router used for fallback rows; must accept inexact distances
  /// (Router{exact = false}). nullptr falls back to the primary router.
  const routing::Router* fallback_router = nullptr;
};

/// Execution knobs for RouteService.
struct RouteServiceOptions {
  /// Execute routes across the process-wide WorkerTeam; false routes
  /// everything on the calling thread (still sharded, still the same
  /// results).
  bool parallel = true;
  /// Shards execute in waves of at most this many targets; each wave's
  /// distance vectors are prefetched in one batch and pinned for the wave's
  /// duration, bounding peak pinned memory at
  /// max_pinned_targets × n × sizeof(Dist) bytes per batch.
  std::size_t max_pinned_targets = 512;
  /// How submit() admits batches when demand outruns the service.
  AdmissionPolicy admission;
  /// The degradation posture: report pairs the service cannot route as
  /// RouteResult{reached = false, initial_distance = kInfDist, steps = 0}
  /// per pair instead of failing the whole batch. A pair whose source is
  /// unreachable on its target's row is kDegraded (std::invalid_argument
  /// otherwise); a pair whose target has no usable row after the retries
  /// and the fallback tier is kFailed (the oracle's TransientOracleError
  /// otherwise). Edge failures can disconnect pairs mid-run and faults can
  /// outlive their retries; a robustness bench wants the success *rate*,
  /// not an exception.
  bool tolerate_unreachable = false;
  /// Registry the service records its `route_service.*` metrics into.
  /// nullptr (default) gives the service a private registry — multiple
  /// services never collide on metric names — reachable via metrics().
  /// Pass &obs::default_registry() to fold the service into the process-wide
  /// scrape surface (what examples/route_server.cpp does for --metrics-out).
  obs::Registry* metrics = nullptr;
  /// Virtual service cost per pair, in seconds. 0 keeps the historical
  /// wall-clock admission semantics untouched. > 0 (with vtime submits)
  /// switches Shed aging and the Adaptive controller to virtual time:
  /// a batch of P pairs "costs" P * this, plus any virtual time the fault
  /// layer injected while executing it.
  double virtual_pair_cost_seconds = 0.0;
  /// Degraded-mode behaviour under transient oracle faults.
  ResilienceOptions resilience;
};

/// A batch's results plus its per-pair degradation story — what
/// route_batch_report returns and what submit() paths tally into the
/// resilience counters. With a fault-free oracle every status is kExact
/// (or kDegraded only for tolerated-unreachable pairs).
struct RouteReport {
  /// Route result i corresponds to input pair i, as in route_batch.
  std::vector<routing::RouteResult> results;
  /// status[i] classifies how results[i] was produced.
  std::vector<DegradationStatus> status;
  std::size_t exact_pairs = 0;     ///< status == kExact
  std::size_t degraded_pairs = 0;  ///< status == kDegraded
  std::size_t failed_pairs = 0;    ///< status == kFailed
  /// Prefetch retry rounds this batch consumed.
  std::size_t retries = 0;
  /// Pairs routed through the fallback oracle/router tier.
  std::size_t fallback_pairs = 0;
  /// True when the batch's virtual deadline budget ran out mid-execution.
  bool deadline_breached = false;
};

/// Batch routing engine over one graph + oracle + scheme + router. All
/// referenced components must outlive the service; the service itself is
/// immutable apart from its metrics and safe for concurrent route_batch
/// calls.
class RouteService {
 public:
  /// Wraps explicit components (the Experiment per-cell path). `scheme` may
  /// be null: local links only.
  RouteService(const graph::Graph& g, const graph::DistanceOracle& oracle,
               const core::AugmentationScheme* scheme,
               const routing::Router& router, RouteServiceOptions options = {});

  /// Wraps a NavigationEngine's current components. The engine must outlive
  /// the service and keep its scheme/router selection unchanged meanwhile.
  explicit RouteService(const NavigationEngine& engine,
                        RouteServiceOptions options = {});

  /// Drains the submit() queue (every returned future completes), then
  /// stops the service thread.
  ~RouteService();

  /// Non-copyable: the service owns a queue and (lazily) a thread.
  RouteService(const RouteService&) = delete;
  /// Non-copyable: the service owns a queue and (lazily) a thread.
  RouteService& operator=(const RouteService&) = delete;

  /// Routes a batch; result i corresponds to pairs[i] and draws from
  /// rng.child(i) — bit-identical to routing the pairs one by one.
  [[nodiscard]] std::vector<routing::RouteResult> route_batch(
      std::span<const std::pair<graph::NodeId, graph::NodeId>> pairs,
      Rng rng) const;

  /// Core primitive: executes pre-built jobs (result i = jobs[i]), sharded
  /// by target. Used by route_batch and the estimator.
  [[nodiscard]] std::vector<routing::RouteResult> route_jobs(
      std::vector<RouteJob> jobs) const;

  /// route_batch plus the per-pair degradation story: statuses, retry and
  /// fallback tallies, deadline verdict. Same results, same determinism.
  [[nodiscard]] RouteReport route_batch_report(
      std::span<const std::pair<graph::NodeId, graph::NodeId>> pairs,
      Rng rng) const;

  /// Enqueues a batch on the service thread and returns its future. Batches
  /// execute FIFO; each still fans its routes across the worker lanes.
  /// Admission applies here (see RouteServiceOptions::admission): Bounded
  /// may block the caller until the queue has room; Shed may later fail the
  /// returned future with ShedError. Throws std::invalid_argument when the
  /// service is stopping (including producers woken from a Bounded wait by
  /// destruction).
  [[nodiscard]] std::future<std::vector<routing::RouteResult>> submit(
      std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs, Rng rng);

  /// submit() with a VIRTUAL arrival time (seconds on the driver's virtual
  /// axis, e.g. workload::ArrivalSchedule times). When
  /// options().virtual_pair_cost_seconds > 0, Shed aging and the Adaptive
  /// controller evaluate this batch in virtual time — bit-identical across
  /// runs and machines. Arrival times must be non-decreasing across
  /// submits (FIFO order is the virtual order).
  [[nodiscard]] std::future<std::vector<routing::RouteResult>> submit(
      std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs, Rng rng,
      double arrival_vtime);

  /// Freezes dequeueing: submitted batches accumulate (and age, under Shed)
  /// until resume(). Lets tests and drain-style drivers build a queue of
  /// known depth deterministically. Destruction drains even while paused.
  void pause();

  /// Resumes dequeueing after pause().
  void resume();

  /// Live queue depth and cumulative admission counters — a snapshot view
  /// over the `route_service.*` registry metrics (see metrics()).
  [[nodiscard]] QueueStats queue_stats() const;

  /// The registry this service records into: the injected one
  /// (RouteServiceOptions::metrics) or the service's own. Scrape it for the
  /// queue/admission counters plus the sojourn and execution histograms.
  [[nodiscard]] obs::Registry& metrics() const { return *metrics_; }

  /// Greedy-diameter estimation, the library's one Monte-Carlo path: pairs
  /// from routing::select_trial_pairs(rng.child(0xA11)), the whole pair ×
  /// replicate grid routed as one target-sharded batch (pair p, replicate
  /// r on rng.child(p + 1).child(r)), folded by routing::summarize_trials.
  /// The numbers do not depend on options().parallel or the schedule.
  [[nodiscard]] routing::GreedyDiameterEstimate estimate_diameter(
      const routing::TrialConfig& config, Rng rng) const;

  /// Estimation over caller-selected pairs (the Experiment workload axis:
  /// pairs come from a workload::Workload instead of select_trial_pairs).
  /// Streams and accumulation order match the selecting overload exactly —
  /// pair p, replicate r still draws from rng.child(p + 1).child(r) — so
  /// passing the select_trial_pairs output reproduces it bit for bit.
  [[nodiscard]] routing::GreedyDiameterEstimate estimate_diameter(
      const routing::TrialConfig& config, Rng rng,
      const std::vector<std::pair<graph::NodeId, graph::NodeId>>& pairs)
      const;

  /// The options the service was built with (drivers read the virtual pair
  /// cost and the admission policy back).
  [[nodiscard]] const RouteServiceOptions& options() const noexcept {
    return options_;
  }

  /// Virtual sojourn (arrival -> completion, virtual seconds) of every
  /// batch served so far through the vtime submit path, in completion
  /// order. Drivers slice this to compute windowed p99s against an SLO.
  [[nodiscard]] std::vector<double> virtual_sojourns() const;

 private:
  [[nodiscard]] std::vector<routing::RouteResult> execute_jobs(
      const std::vector<RouteJob>& jobs, bool parallel,
      RouteReport* report) const;

  struct PendingBatch {
    std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
    Rng rng;
    std::promise<std::vector<routing::RouteResult>> promise;
    /// When the batch entered the queue (Shed measures its wait from here).
    std::chrono::steady_clock::time_point enqueued_at;
    /// Virtual arrival time (submit's vtime overload); valid iff has_vtime.
    double arrival_vtime = 0.0;
    bool has_vtime = false;
  };

  /// submit() body shared by both overloads.
  [[nodiscard]] std::future<std::vector<routing::RouteResult>> submit_impl(
      PendingBatch batch);

  /// Registers the `resilience.*` counters on first use (under
  /// queue_mutex_); a fault-free service never registers them, keeping its
  /// scrape schema byte-identical to the pre-resilience service.
  void ensure_resilience_metrics() const;

  void service_loop();

  const graph::Graph& graph_;
  const graph::DistanceOracle& oracle_;
  const core::AugmentationScheme* scheme_;  // may be null
  const routing::Router& router_;
  RouteServiceOptions options_;

  // Metric storage. The owned registry backs metrics_ unless options.metrics
  // injected an external one; handles are registered once at construction.
  // Every queue counter/gauge is written ONLY under queue_mutex_, so
  // queue_stats() (which reads under the same mutex) sees exact values —
  // the mutex provides the happens-before the relaxed shard cells need.
  obs::Registry owned_metrics_;
  obs::Registry* metrics_ = nullptr;
  obs::Counter submitted_batches_;
  obs::Counter submitted_pairs_;
  obs::Counter executed_batches_;
  obs::Counter shed_batches_;
  obs::Counter shed_pairs_;
  obs::Counter rejected_batches_;
  obs::Counter rejected_pairs_;
  obs::Counter blocked_submits_;
  obs::Gauge queued_batches_;
  obs::Gauge queued_pairs_;
  obs::Gauge peak_queued_pairs_;
  obs::HistogramHandle batch_pairs_hist_;
  obs::HistogramHandle queue_wait_ms_hist_;
  obs::HistogramHandle exec_ms_hist_;
  // Resilience counters (`resilience.*`): written on the thread that ran
  // execute_jobs, after the batch completes — never from loop bodies.
  // Registered LAZILY on the first degradation event (so a fault-free
  // service's scrape schema is unchanged); mutable because registration may
  // happen inside const execute_jobs. Adaptive handles register at
  // construction, but only under the kAdaptive policy.
  mutable obs::Counter retries_;
  mutable obs::Counter fallback_routes_;
  mutable obs::Counter deadline_breaches_;
  mutable obs::Counter degraded_pairs_;
  mutable obs::Counter failed_pairs_;
  mutable bool resilience_metrics_registered_ = false;
  obs::Counter slo_breaches_;
  obs::Gauge adaptive_window_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;        // work available / stopping
  std::condition_variable queue_space_cv_;  // room freed (Bounded waiters)
  std::deque<PendingBatch> queue_;
  bool stopping_ = false;
  bool paused_ = false;
  std::thread service_thread_;  // started lazily by submit()

  // Virtual-time serving state (all under queue_mutex_). vfree_ is the
  // virtual instant the single logical server becomes free; the Adaptive
  // window and the sojourn log are pure functions of (arrival vtimes, batch
  // sizes, FIFO order, injected fault latency) — no wall clock anywhere.
  double vfree_ = 0.0;
  std::size_t adaptive_window_pairs_ = 0;  // 0 until first adaptive dequeue
  std::vector<double> virtual_sojourns_;
};

}  // namespace nav::api
