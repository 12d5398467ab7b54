// perfbench.cpp — the repository benchmark: api::RouteService end to end.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One run builds the serving stack (torus2d graph, `auto` oracle, the
// workload's scheme, greedy router, RouteService), warms it, drives it with
// pre-generated batches, checks every result, and prints a human-readable
// report followed by ONE JSON line (the last line of stdout):
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics, measured by wrapping the oracle, scheme and router in forwarding
// decorators (spans kept in memory) and by deltas of the public
// obs::default_registry() scrape around the measured window; --spans-out
// writes the traced run's spans, folded per batch, as CSV. Exit status is
// non-zero when any correctness check fails.
//
// Workloads (see README.md for why each exists):
//   ball-zipf         n=16384, ball scheme, zipf:1.5 demand, 256-pair
//                     batches, whole backlog queued at once;
//   uniform-spread    n=65536, uniform scheme, uniform demand, 256-pair
//                     batches, whole backlog queued at once;
//   ball-interactive  n=16384, ball scheme, uniform demand, 2-pair batches,
//                     open-loop Poisson arrivals at 250 batches/s (run by
//                     hand: not in BENCHMARK.json, README.md says why).
// Flood workloads size their backlog as seconds x a nominal rate, so the
// amount of work — and with it every count and the result digest — is a pure
// function of (workload, seed, seconds).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "nav/nav.hpp"

namespace {

using nav::Rng;
using nav::graph::NodeId;
using nav::routing::RouteResult;
using Clock = std::chrono::steady_clock;
using Pair = std::pair<NodeId, NodeId>;

// ------------------------------------------------------------ workloads ----

struct WorkloadSpec {
  const char* name;
  NodeId n;
  const char* scheme;
  const char* demand;
  std::size_t batch_pairs;
  /// Open loop: Poisson arrivals at this many batches/s. 0 = flood: the
  /// whole backlog is submitted at once.
  double arrival_rate;
  /// Flood only: backlog = seconds x this many routes, rounded to batches.
  /// Calibrated so a run measures about `seconds` on a 4-core host.
  double nominal_routes_per_s;
  /// Untimed 256-pair warm-up batches (ball: fills the lazy eccentricity
  /// cache; all: thread-pool workspaces and oracle slabs).
  std::size_t warm_batches;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"ball-zipf", 16384, "ball", "zipf:1.5", 256, 0.0, 11000.0, 48},
    {"uniform-spread", 65536, "uniform", "uniform", 256, 0.0, 4200.0, 8},
    {"ball-interactive", 16384, "ball", "uniform", 2, 250.0, 0.0, 48},
};

constexpr const char* kGraphFamily = "torus2d";
constexpr const char* kOracleSpec = "auto";
constexpr const char* kRouterSpec = "greedy";
constexpr std::size_t kWarmBatchPairs = 256;
/// Setups per untraced run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 3;
/// Pairs re-routed through the serial reference after timing.
constexpr std::size_t kVerifyPairs = 1024;
/// The bound of routes_per_s in BENCHMARK.json: the steadiness guard flags
/// a run whose first- and second-half rates differ by more than this share.
constexpr double kHalvesBound = 0.25;

/// Inputs generated from --seed before anything is timed.
struct Inputs {
  std::vector<std::vector<Pair>> batches;
  /// Seconds after the run's start at which batch b is due (0 for floods).
  std::vector<double> due;
  std::vector<std::vector<Pair>> warm;
  Rng graph_rng;
  Rng route_rng;  ///< batch b routes with route_rng.child(b)
  Rng warm_rng;   ///< warm batch b routes with warm_rng.child(b)
  Rng scheme_rng;
  Rng verify_rng;
};

Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed, double seconds) {
  const Rng master(seed);
  Inputs in;
  in.graph_rng = master.child(0);
  in.route_rng = master.child(4);
  in.warm_rng = master.child(5);
  in.scheme_rng = master.child(6);
  in.verify_rng = master.child(7);
  Rng graph_rng = in.graph_rng;
  const nav::graph::Graph g =
      nav::graph::family(kGraphFamily).make(w.n, graph_rng);
  // One demand model (one popularity permutation) for warm-up and measured
  // batches; the two draw from separate streams.
  const auto demand = nav::workload::make_workload(w.demand, g, master.child(1));
  Rng draw = master.child(2);
  if (w.arrival_rate > 0.0) {
    Rng arrivals = master.child(3);
    for (double t = 0.0;;) {
      t += -std::log1p(-arrivals.next_double()) / w.arrival_rate;
      if (t >= seconds) break;
      in.due.push_back(t);
      in.batches.push_back(demand->batch(w.batch_pairs, draw));
    }
  } else {
    const auto count = static_cast<std::size_t>(std::max(
        1.0, std::round(seconds * w.nominal_routes_per_s /
                        static_cast<double>(w.batch_pairs))));
    for (std::size_t b = 0; b < count; ++b) {
      in.due.push_back(0.0);
      in.batches.push_back(demand->batch(w.batch_pairs, draw));
    }
  }
  Rng warm_draw = master.child(8);
  for (std::size_t b = 0; b < w.warm_batches; ++b) {
    in.warm.push_back(demand->batch(kWarmBatchPairs, warm_draw));
  }
  return in;
}

// ------------------------------------------------------------- tracing ----

enum class SpanKind : std::uint8_t { kPrefetch, kRoute };

struct Span {
  SpanKind kind;
  std::uint32_t batch;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t targets = 0;    ///< prefetch: targets in the wave
  std::uint64_t draws = 0;      ///< route: sample_contact calls
  std::uint64_t sample_ns = 0;  ///< route: time inside sample_contact
  std::uint64_t hops = 0;       ///< route: RouteResult::steps
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// In-memory span store: one buffer per recording thread, merged on drain.
/// Recording takes no lock after a thread's first span; drain() runs only
/// while the service is quiescent (every batch collected), so the pool
/// threads' writes happen-before it through the futures' synchronisation.
class SpanLog {
 public:
  void record(const Span& span) { buffer().push_back(span); }

  [[nodiscard]] std::vector<Span> drain() {
    std::lock_guard lock(mutex_);
    std::vector<Span> all;
    for (auto& buf : buffers_) {
      all.insert(all.end(), buf->begin(), buf->end());
      buf->clear();
    }
    return all;
  }

 private:
  std::vector<Span>& buffer() {
    thread_local std::vector<Span>* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard lock(mutex_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      buffers_.back()->reserve(1 << 16);
      mine = buffers_.back().get();
    }
    return *mine;
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

SpanLog& span_log() {
  static SpanLog log;  // one traced stack per process
  return log;
}

/// Per-thread tally of the contact draws made by the route in flight.
struct DrawTally {
  std::uint64_t draws = 0;
  std::uint64_t ns = 0;
};
thread_local DrawTally tls_draws;

/// Batch index of the wave in flight. RouteService executes batches FIFO
/// on one thread and each benchmark batch fits one prefetch wave, so the
/// k-th prefetch call opens batch k and every route_resolved that follows
/// (until the next prefetch) belongs to it.
std::atomic<std::uint32_t> g_batch{0};
std::atomic<std::uint32_t> g_prefetches{0};

class TracedOracle final : public nav::graph::DistanceOracle {
 public:
  explicit TracedOracle(const DistanceOracle& inner) : inner_(inner) {}
  [[nodiscard]] bool exact() const noexcept override { return inner_.exact(); }
  [[nodiscard]] nav::graph::Dist distance(NodeId u, NodeId t) const override {
    return inner_.distance(u, t);
  }
  [[nodiscard]] nav::graph::DistVecPtr distances_to(NodeId t) const override {
    return inner_.distances_to(t);
  }
  void prefetch_into(std::span<const NodeId> targets,
                     std::vector<nav::graph::DistVecPtr>& out) const override {
    const std::uint32_t batch = g_prefetches.fetch_add(1);
    g_batch.store(batch);
    const std::int64_t start = now_ns();
    inner_.prefetch_into(targets, out);
    span_log().record({.kind = SpanKind::kPrefetch,
                       .batch = batch,
                       .start_ns = start,
                       .end_ns = now_ns(),
                       .targets = targets.size()});
  }

 private:
  const DistanceOracle& inner_;
};

class TracedScheme final : public nav::core::AugmentationScheme {
 public:
  explicit TracedScheme(const AugmentationScheme& inner) : inner_(inner) {}
  [[nodiscard]] NodeId sample_contact(NodeId u, Rng& rng) const override {
    const auto start = Clock::now();
    const NodeId v = inner_.sample_contact(u, rng);
    tls_draws.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
    ++tls_draws.draws;
    return v;
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] double probability(NodeId u, NodeId v) const override {
    return inner_.probability(u, v);
  }
  [[nodiscard]] std::vector<double> probability_row(NodeId u) const override {
    return inner_.probability_row(u);
  }
  [[nodiscard]] NodeId num_nodes() const override { return inner_.num_nodes(); }

 private:
  const AugmentationScheme& inner_;
};

class TracedRouter final : public nav::routing::Router {
 public:
  explicit TracedRouter(const Router& inner) : inner_(inner) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] const nav::graph::Graph& graph() const noexcept override {
    return inner_.graph();
  }
  [[nodiscard]] RouteResult route(NodeId s, NodeId t,
                                  const nav::core::AugmentationScheme* scheme,
                                  Rng rng, bool record_trace) const override {
    return inner_.route(s, t, scheme, rng, record_trace);
  }
  [[nodiscard]] RouteResult route_resolved(
      NodeId s, NodeId t, std::span<const nav::graph::Dist> target_dist,
      const nav::core::AugmentationScheme* scheme, Rng rng,
      bool record_trace) const override {
    tls_draws = {};
    const std::uint32_t batch = g_batch.load();
    const std::int64_t start = now_ns();
    RouteResult r =
        inner_.route_resolved(s, t, target_dist, scheme, rng, record_trace);
    span_log().record({.kind = SpanKind::kRoute,
                       .batch = batch,
                       .start_ns = start,
                       .end_ns = now_ns(),
                       .draws = tls_draws.draws,
                       .sample_ns = tls_draws.ns,
                       .hops = r.steps});
    return r;
  }

 private:
  const Router& inner_;
};

// --------------------------------------------------------------- stack ----

/// The serving stack. Traced stacks route through the decorators; the bare
/// components stay reachable for the serial reference.
struct Stack {
  nav::graph::Graph graph;
  std::unique_ptr<nav::graph::DistanceOracle> oracle;
  nav::core::SchemePtr scheme;
  nav::routing::RouterPtr router;
  std::unique_ptr<TracedOracle> traced_oracle;
  std::unique_ptr<TracedScheme> traced_scheme;
  std::unique_ptr<TracedRouter> traced_router;
  std::unique_ptr<nav::api::RouteService> service;
};

/// Drains every future, rethrowing the first failure after all complete.
void wait_all(std::vector<std::future<std::vector<RouteResult>>>& futures) {
  for (auto& f : futures) f.wait();
  for (auto& f : futures) (void)f.get();
}

std::unique_ptr<Stack> build_stack(const WorkloadSpec& w, const Inputs& in,
                                   bool traced) {
  auto st = std::make_unique<Stack>();
  Rng graph_rng = in.graph_rng;
  st->graph = nav::graph::family(kGraphFamily).make(w.n, graph_rng);
  st->oracle = nav::graph::make_oracle(kOracleSpec, st->graph);
  Rng scheme_rng = in.scheme_rng;
  st->scheme = nav::core::make_scheme(w.scheme, st->graph, scheme_rng);
  st->router = nav::routing::make_router(kRouterSpec, st->graph, *st->oracle);
  nav::api::RouteServiceOptions options;
  options.metrics = &nav::obs::default_registry();
  if (traced) {
    st->traced_oracle = std::make_unique<TracedOracle>(*st->oracle);
    st->traced_scheme = std::make_unique<TracedScheme>(*st->scheme);
    st->traced_router = std::make_unique<TracedRouter>(*st->router);
    st->service = std::make_unique<nav::api::RouteService>(
        st->graph, *st->traced_oracle, st->traced_scheme.get(),
        *st->traced_router, options);
  } else {
    st->service = std::make_unique<nav::api::RouteService>(
        st->graph, *st->oracle, st->scheme.get(), *st->router, options);
  }
  std::vector<std::future<std::vector<RouteResult>>> futures;
  for (std::size_t b = 0; b < in.warm.size(); ++b) {
    futures.push_back(st->service->submit(in.warm[b], in.warm_rng.child(b)));
  }
  wait_all(futures);
  return st;
}

// ------------------------------------------------------------- the pass ----

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

/// One measured round. Flood rounds submit their batches at once and start
/// when the previous round has drained; open-loop rounds are consecutive
/// windows of one continuous arrival schedule. Metrics are medians over
/// rounds, so a burst of interference from outside the process moves one
/// round, not the reported figure.
struct Round {
  double routes = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< flood rounds only
  std::vector<double> sojourn_ms;
};

struct PassResult {
  std::vector<std::vector<RouteResult>> results;  ///< empty = batch failed
  std::vector<double> sojourn_ms;                 ///< per batch, from due
  std::vector<double> late_ms;                    ///< submit - due
  std::vector<Round> rounds;
  double wall_s = 0.0;  ///< sum over submit-to-drain segments
  double submit_s = 0.0;
  double cpu_s = 0.0;
};

/// Runs batches [lo, hi) as one segment: submits each on its schedule
/// (sleeping until `t0 + due`; floods are all due at t0) and collects them
/// with a blocking waiter thread. Returns the segment's wall time.
double run_segment(nav::api::RouteService& service, const Inputs& in,
                   std::size_t lo, std::size_t hi, PassResult& out) {
  std::vector<std::future<std::vector<RouteResult>>> futures(hi - lo);
  std::vector<Clock::time_point> ready(hi - lo);
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t published = lo;  // guarded by mutex, as is aborted
  bool aborted = false;
  std::thread collector([&] {
    for (std::size_t b = lo; b < hi; ++b) {
      {
        std::unique_lock lock(mutex);
        cv.wait(lock, [&] { return aborted || published > b; });
        if (published <= b) return;
      }
      futures[b - lo].wait();
      ready[b - lo] = Clock::now();
      try {
        out.results[b] = futures[b - lo].get();
      } catch (const std::exception& e) {
        // Left empty: summarize() counts the batch's pairs as failed.
        std::cerr << "batch " << b << " failed: " << e.what() << "\n";
      }
    }
  });

  // A short lead so the first arrival is not already late.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto due_at = [&](std::size_t b) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(in.due[b]));
  };
  try {
    for (std::size_t b = lo; b < hi; ++b) {
      std::this_thread::sleep_until(due_at(b));
      const Clock::time_point start = Clock::now();
      out.late_ms[b] =
          std::chrono::duration<double, std::milli>(start - due_at(b)).count();
      auto future = service.submit(in.batches[b], in.route_rng.child(b));
      out.submit_s +=
          std::chrono::duration<double>(Clock::now() - start).count();
      {
        std::lock_guard lock(mutex);
        futures[b - lo] = std::move(future);
        published = b + 1;
      }
      cv.notify_one();
    }
  } catch (...) {
    {
      std::lock_guard lock(mutex);
      aborted = true;
    }
    cv.notify_one();
    collector.join();
    throw;
  }
  collector.join();
  for (std::size_t b = lo; b < hi; ++b) {
    out.sojourn_ms[b] =
        std::chrono::duration<double, std::milli>(ready[b - lo] - due_at(b))
            .count();
  }
  const double wall =
      std::chrono::duration<double>(ready.back() - t0).count();
  out.wall_s += wall;
  return wall;
}

PassResult run_pass(nav::api::RouteService& service, const Inputs& in,
                    const WorkloadSpec& w, double seconds) {
  const std::size_t count = in.batches.size();
  PassResult out;
  out.results.resize(count);
  out.late_ms.resize(count);
  out.sojourn_ms.resize(count);
  const auto routes_in = [&](std::size_t lo, std::size_t hi) {
    double routes = 0.0;
    for (std::size_t b = lo; b < hi; ++b) {
      routes += static_cast<double>(out.results[b].size());
    }
    return routes;
  };
  // About one round per second of measurement.
  const auto rounds = static_cast<std::size_t>(
      std::clamp(std::round(seconds), 2.0, 60.0));
  const double cpu0 = cpu_seconds();
  if (w.arrival_rate > 0.0) {
    run_segment(service, in, 0, count, out);
    std::size_t lo = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      const double end = seconds * static_cast<double>(r + 1) / rounds;
      std::size_t hi = lo;
      while (hi < count && (r + 1 == rounds || in.due[hi] < end)) ++hi;
      Round& round = out.rounds.emplace_back();
      round.routes = routes_in(lo, hi);
      round.wall_s = seconds / rounds;
      round.sojourn_ms.assign(out.sojourn_ms.begin() + lo,
                              out.sojourn_ms.begin() + hi);
      lo = hi;
    }
  } else {
    for (std::size_t r = 0; r < rounds; ++r) {
      const std::size_t lo = r * count / rounds;
      const std::size_t hi = (r + 1) * count / rounds;
      if (lo == hi) continue;
      const double c0 = cpu_seconds();
      Round& round = out.rounds.emplace_back();
      round.wall_s = run_segment(service, in, lo, hi, out);
      round.cpu_s = cpu_seconds() - c0;
      round.routes = routes_in(lo, hi);
      round.sojourn_ms.assign(out.sojourn_ms.begin() + lo,
                              out.sojourn_ms.begin() + hi);
    }
  }
  out.cpu_s = cpu_seconds() - cpu0;
  return out;
}

// -------------------------------------------------------------- checks ----

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool same_result(const RouteResult& a, const RouteResult& b) {
  return a.steps == b.steps && a.long_links_used == b.long_links_used &&
         a.initial_distance == b.initial_distance && a.reached == b.reached;
}

/// Per-pair checks and aggregates over one pass.
struct Summary {
  std::size_t pairs = 0;      ///< pairs submitted
  std::size_t completed = 0;  ///< pairs whose batch completed
  std::size_t bad = 0;        ///< unreached / steps > dist / missing
  std::uint64_t hops = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
};

Summary summarize(const Inputs& in, const PassResult& pass) {
  Summary s;
  for (std::size_t b = 0; b < in.batches.size(); ++b) {
    s.pairs += in.batches[b].size();
    const auto& rs = pass.results[b];
    if (rs.size() != in.batches[b].size()) {
      s.bad += in.batches[b].size();
      continue;
    }
    for (const RouteResult& r : rs) {
      ++s.completed;
      s.hops += r.steps;
      if (!r.reached || r.steps > r.initial_distance) ++s.bad;
      s.digest = fnv1a(s.digest, r.steps);
      s.digest = fnv1a(s.digest, r.long_links_used);
      s.digest = fnv1a(s.digest, r.initial_distance);
      s.digest = fnv1a(s.digest, r.reached ? 1 : 0);
    }
  }
  return s;
}

/// Re-routes a deterministic sample of batches pair by pair through
/// Router::route on the bare components (serial, oracle distances_to, no
/// prefetch, no pool) and counts results that differ bit for bit.
std::size_t verify_sample(const Stack& st, const Inputs& in,
                          const PassResult& pass, std::size_t* checked) {
  const std::size_t count = in.batches.size();
  std::vector<bool> pick(count, false);
  pick.front() = pick.back() = true;
  std::size_t budget = in.batches.front().size() + in.batches.back().size();
  Rng rng = in.verify_rng;
  for (std::size_t tries = 0; budget < kVerifyPairs && tries < 4 * count;
       ++tries) {
    const auto b = static_cast<std::size_t>(rng.next_below(count));
    if (pick[b]) continue;
    pick[b] = true;
    budget += in.batches[b].size();
  }
  std::size_t mismatches = 0;
  *checked = 0;
  for (std::size_t b = 0; b < count; ++b) {
    if (!pick[b] || pass.results[b].size() != in.batches[b].size()) continue;
    const Rng batch_rng = in.route_rng.child(b);
    for (std::size_t i = 0; i < in.batches[b].size(); ++i) {
      const auto [s, t] = in.batches[b][i];
      const RouteResult ref =
          st.router->route(s, t, st.scheme.get(), batch_rng.child(i));
      ++*checked;
      if (!same_result(ref, pass.results[b][i])) ++mismatches;
    }
  }
  return mismatches;
}

// ------------------------------------------------------------- metrics ----

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // not a measurement: refuse it
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Registry deltas around the measured window.
struct Scrape {
  nav::obs::MetricsSnapshot snap = nav::obs::default_registry().scrape();

  [[nodiscard]] double counter(const std::string& name) const {
    const auto* c = snap.find_counter(name);
    return c ? static_cast<double>(c->value) : 0.0;
  }
  [[nodiscard]] std::pair<double, double> histogram(
      const std::string& name) const {
    const auto* h = snap.find_histogram(name);
    return h ? std::pair{h->sum, static_cast<double>(h->total())}
             : std::pair{0.0, 0.0};
  }
};

double delta(const Scrape& a, const Scrape& b, const std::string& name) {
  return b.counter(name) - a.counter(name);
}

/// Mean of the histogram's observations between the two scrapes.
double hist_mean(const Scrape& a, const Scrape& b, const std::string& name) {
  const auto [sa, na] = a.histogram(name);
  const auto [sb, nb] = b.histogram(name);
  return nb > na ? (sb - sa) / (nb - na) : 0.0;
}

double hist_sum(const Scrape& a, const Scrape& b, const std::string& name) {
  return b.histogram(name).first - a.histogram(name).first;
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "error: " << why
            << "\nusage: perfbench --workload <ball-zipf|uniform-spread|"
               "ball-interactive> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans-out <csv>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) try {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  for (const auto& [key, _] : args) {
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "spans-out") {
      usage("unknown flag --" + key);
    }
  }
  if (args.size() != 4 + args.count("spans-out")) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  const std::string spans_out = args.count("spans-out") ? args["spans-out"] : "";
  const WorkloadSpec* found = nullptr;
  for (const auto& w : kWorkloads) {
    if (args["workload"] == w.name) found = &w;
  }
  if (found == nullptr) usage("unknown workload " + args["workload"]);
  const WorkloadSpec& w = *found;
  const auto seed = nav::parse_spec_number<std::uint64_t>(args["seed"], "seed");
  const auto seconds =
      nav::parse_spec_number<double>(args["seconds"], "seconds");
  if (!(seconds > 0.0 && seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  if (args["trace"] != "0" && args["trace"] != "1") usage("--trace is 0 or 1");
  const bool trace = args["trace"] == "1";
  // One prefetch wave per batch: the decorators' batch attribution and the
  // api self-time split rely on it.
  if (w.batch_pairs > nav::api::RouteServiceOptions{}.max_pinned_targets) {
    usage("batch larger than one prefetch wave");
  }

  const Inputs in = make_inputs(w, seed, seconds);
  if (in.batches.empty()) usage("--seconds too short: no batch is due");
  const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
  std::cout << "# perfbench workload=" << w.name << " seed=" << seed
            << " seconds=" << seconds << " trace=" << (trace ? 1 : 0) << "\n"
            << "# host: nproc=" << nproc << " cpu=\"" << cpu_model()
            << "\" compiler=\"" << PERFBENCH_COMPILER
            << "\" build=" << PERFBENCH_BUILD_TYPE << "\n"
            << "# graph=" << kGraphFamily << " n=" << w.n
            << " scheme=" << w.scheme << " oracle=" << kOracleSpec
            << " router=" << kRouterSpec << " demand=" << w.demand
            << " batch_pairs=" << w.batch_pairs << " arrivals="
            << (w.arrival_rate > 0.0
                    ? "poisson:" + std::to_string(w.arrival_rate) + "/s"
                    : std::string("flood"))
            << " batches=" << in.batches.size()
            << " warm_batches=" << in.warm.size() << "\n";

  std::vector<Metric> metrics;
  std::size_t failed = 0;
  bool correct = true;
  const auto fail = [&](const std::string& what, std::size_t n) {
    std::cerr << "correctness: " << what << " (" << n << ")\n";
    failed += n;
    correct = false;
  };

  // Untraced pass: the end-to-end numbers (trace 0), or the baseline the
  // traced pass is compared against (trace 1).
  std::vector<double> setups;
  const auto timed_build = [&] {
    const auto start = Clock::now();
    auto built = build_stack(w, in, /*traced=*/false);
    setups.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    return built;
  };
  std::unique_ptr<Stack> stack = timed_build();
  const Scrape before_u;
  const PassResult pass = run_pass(*stack->service, in, w, seconds);
  const Scrape after_u;
  const Summary sum = summarize(in, pass);
  std::size_t checked = 0;
  const std::size_t mismatches = verify_sample(*stack, in, pass, &checked);
  if (sum.bad != 0) fail("pairs unreached, over-long or missing", sum.bad);
  if (mismatches != 0) fail("serial reference mismatches", mismatches);
  const double exec_u = hist_sum(before_u, after_u, "route_service.exec_ms");
  // Read before the repeat setups below: rebuilt stacks land in other
  // allocator arenas, which would make the peak depend on thread timing.
  const double rss_mb = peak_rss_mb();

  const double routes = static_cast<double>(sum.completed);
  const double hops_mean =
      routes > 0 ? static_cast<double>(sum.hops) / routes : 0.0;
  const auto round_median = [&](auto&& f) {
    std::vector<double> v;
    for (const Round& r : pass.rounds) v.push_back(f(r));
    return median(std::move(v));
  };
  const bool open_loop = w.arrival_rate > 0.0;
  // Steadiness guard: completed-route rate over the first and second half
  // of the rounds.
  double half_routes[2] = {0.0, 0.0}, half_wall[2] = {0.0, 0.0};
  for (std::size_t r = 0; r < pass.rounds.size(); ++r) {
    const int h = 2 * r < pass.rounds.size() ? 0 : 1;
    half_routes[h] += pass.rounds[r].routes;
    half_wall[h] += pass.rounds[r].wall_s;
  }
  const double rate_first = half_routes[0] / half_wall[0];
  const double rate_second = half_routes[1] / half_wall[1];
  const double halves_gap = std::abs(rate_first - rate_second) /
                            std::max(rate_first, rate_second);
  const double failed_share =
      static_cast<double>(failed) / static_cast<double>(sum.pairs);

  std::printf("routes=%zu digest=%016llx hops_mean=%.6f verified=%zu "
              "failed_share=%.6f\n",
              sum.completed, static_cast<unsigned long long>(sum.digest),
              hops_mean, checked, failed_share);
  std::printf("halves routes_per_s first=%.1f second=%.1f gap=%.3f%s\n",
              rate_first, rate_second, halves_gap,
              halves_gap > kHalvesBound ? " UNSTEADY" : "");
  std::printf("rounds routes_per_s/sojourn_p90_ms:");
  for (const Round& r : pass.rounds) {
    std::printf(" %.0f/%.2f", r.routes / r.wall_s,
                quantile(r.sojourn_ms, 0.9));
  }
  std::printf("\nsojourn_p99_ms=%.3f over %zu batches\n",
              quantile(pass.sojourn_ms, 0.99), pass.sojourn_ms.size());

  if (!trace) {
    // Further setups, timed only: setup_s is their median with the first.
    while (setups.size() < kSetupRepeats) {
      stack.reset();
      stack = timed_build();
    }
    metrics = {
        {"setup_s", median(setups), "s"},
        {"routes_per_s",
         open_loop ? routes / pass.wall_s : round_median([](const Round& r) {
           return r.routes / r.wall_s;
         }),
         "routes/s"},
        {"sojourn_p50_ms",
         round_median([](const Round& r) { return quantile(r.sojourn_ms, 0.5); }),
         "ms"},
        {"sojourn_p90_ms",
         round_median([](const Round& r) { return quantile(r.sojourn_ms, 0.9); }),
         "ms"},
        {"cpu_ms_per_route",
         open_loop ? pass.cpu_s * 1000.0 / routes
                   : round_median([](const Round& r) {
                       return r.cpu_s * 1000.0 / r.routes;
                     }),
         "ms"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"hops_mean", hops_mean, "hops"},
    };
  } else {
    // Traced pass on a second, identically built and warmed stack.
    auto traced = build_stack(w, in, /*traced=*/true);
    (void)span_log().drain();  // warm-up spans
    g_prefetches.store(0);
    const Scrape before;
    const PassResult tpass = run_pass(*traced->service, in, w, seconds);
    const Scrape after;
    const Summary tsum = summarize(in, tpass);
    if (tsum.bad != 0) fail("traced pairs unreached or missing", tsum.bad);
    if (tsum.digest != sum.digest || tsum.hops != sum.hops) {
      fail("traced results differ from untraced", 1);
    }
    std::printf("traced routes=%zu digest=%016llx hops_mean=%.6f\n",
                tsum.completed, static_cast<unsigned long long>(tsum.digest),
                tsum.completed > 0 ? static_cast<double>(tsum.hops) /
                                         static_cast<double>(tsum.completed)
                                   : 0.0);
    const std::vector<Span> spans = span_log().drain();

    double prefetch_s = 0.0, route_busy_s = 0.0, sample_s = 0.0;
    std::uint64_t prefetch_calls = 0, prefetch_targets = 0, draws = 0,
                  span_hops = 0, span_routes = 0;
    const std::size_t count = in.batches.size();
    // Per batch: its prefetch span, and the extent and totals of its routes.
    struct BatchRoutes {
      std::int64_t start_ns = INT64_MAX;
      std::int64_t end_ns = 0;
      std::uint64_t routes = 0, draws = 0, hops = 0, sample_ns = 0;
    };
    std::vector<Span> batch_prefetch(count);
    std::vector<BatchRoutes> batch_routes(count);
    for (const Span& s : spans) {
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      if (s.kind == SpanKind::kPrefetch) {
        ++prefetch_calls;
        prefetch_targets += s.targets;
        prefetch_s += dur;
        if (s.batch < count) batch_prefetch[s.batch] = s;
      } else {
        ++span_routes;
        route_busy_s += dur;
        sample_s += static_cast<double>(s.sample_ns) * 1e-9;
        draws += s.draws;
        span_hops += s.hops;
        if (s.batch < count) {
          BatchRoutes& r = batch_routes[s.batch];
          r.start_ns = std::min(r.start_ns, s.start_ns);
          r.end_ns = std::max(r.end_ns, s.end_ns);
          ++r.routes;
          r.draws += s.draws;
          r.hops += s.hops;
          r.sample_ns += s.sample_ns;
        }
      }
    }
    double route_phase_s = 0.0;
    for (const BatchRoutes& r : batch_routes) {
      if (r.end_ns > r.start_ns) {
        route_phase_s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
      }
    }
    if (!spans_out.empty()) {
      std::ofstream csv(spans_out);
      csv << "batch,sojourn_ms,prefetch_start_ns,prefetch_end_ns,targets,"
             "routes_start_ns,routes_end_ns,routes,draws,hops,sample_ns\n";
      for (std::size_t b = 0; b < count; ++b) {
        const Span& p = batch_prefetch[b];
        const BatchRoutes& r = batch_routes[b];
        csv << b << ',' << tpass.sojourn_ms[b] << ',' << p.start_ns << ','
            << p.end_ns << ',' << p.targets << ',' << r.start_ns << ','
            << r.end_ns << ',' << r.routes << ',' << r.draws << ','
            << r.hops << ',' << r.sample_ns << '\n';
      }
      if (!csv) throw std::runtime_error("cannot write " + spans_out);
      std::printf("batch spans written to %s\n", spans_out.c_str());
    }
    if (draws != span_hops) fail("scheme.draws != routing.hops", 1);
    if (span_routes != tsum.completed) {
      fail("routing.routes != completed routes", 1);
    }
    if (prefetch_calls != count) fail("prefetch calls != batches", 1);

    const double exec_s = hist_sum(before, after, "route_service.exec_ms") /
                          1000.0;
    const double misses = delta(before, after, "oracle.cache_misses");
    const double hits = delta(before, after, "oracle.cache_hits");
    const double threads =
        static_cast<double>(nav::global_pool().thread_count());
    const double self_route_s = route_busy_s - sample_s;
    metrics = {
        {"api.batches", static_cast<double>(count), "count"},
        {"api.submit_s", tpass.submit_s, "s"},
        {"api.queue_wait_ms_mean",
         hist_mean(before, after, "route_service.queue_wait_ms"), "ms"},
        {"api.exec_ms_mean", hist_mean(before, after, "route_service.exec_ms"),
         "ms"},
        {"api.self_s", exec_s - prefetch_s - route_phase_s, "s"},
        {"oracle.prefetch_calls", static_cast<double>(prefetch_calls),
         "count"},
        {"oracle.prefetch_targets", static_cast<double>(prefetch_targets),
         "count"},
        {"oracle.prefetch_s", prefetch_s, "s"},
        {"oracle.cache_misses", misses, "count"},
        {"oracle.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
         "ratio"},
        {"oracle.evictions", delta(before, after, "oracle.evictions"),
         "count"},
        {"oracle.us_per_miss", misses > 0 ? prefetch_s * 1e6 / misses : 0.0,
         "us"},
        {"bfs.sweep_diropt", delta(before, after, "bfs.sweep_diropt"),
         "count"},
        {"parallel_bfs.sweeps", delta(before, after, "parallel_bfs.sweeps"),
         "count"},
        {"parallel_bfs.levels_parallel",
         delta(before, after, "parallel_bfs.levels_parallel"), "count"},
        {"parallel_bfs.levels_inline",
         delta(before, after, "parallel_bfs.levels_inline"), "count"},
        {"runtime.threads", threads, "count"},
        {"worker_team.dispatches",
         delta(before, after, "worker_team.dispatches"), "count"},
        {"runtime.route_lane_util",
         route_phase_s > 0 ? route_busy_s / (threads * route_phase_s) : 0.0,
         "ratio"},
        {"runtime.cpu_util", tpass.cpu_s / (tpass.wall_s * nproc), "ratio"},
        {"scheme.draws", static_cast<double>(draws), "count"},
        {"scheme.busy_s", sample_s, "s"},
        {"scheme.ns_per_draw",
         draws > 0 ? sample_s * 1e9 / static_cast<double>(draws) : 0.0, "ns"},
        {"routing.routes", static_cast<double>(span_routes), "count"},
        {"routing.hops", static_cast<double>(span_hops), "count"},
        {"routing.busy_s", route_busy_s, "s"},
        {"routing.self_s", self_route_s, "s"},
        {"routing.ns_per_hop_self",
         span_hops > 0 ? self_route_s * 1e9 / static_cast<double>(span_hops)
                       : 0.0,
         "ns"},
        {"driver.wall_s", tpass.wall_s, "s"},
        {"driver.late_ms_p99", quantile(tpass.late_ms, 0.99), "ms"},
        {"trace.overhead_pct", exec_u > 0 ? (exec_s * 1000.0 / exec_u - 1.0) *
                                                100.0
                                          : 0.0,
         "%"},
    };
  }

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(sum.pairs) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    json += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
            json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
