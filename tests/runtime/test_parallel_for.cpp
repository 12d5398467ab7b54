// test_parallel_for.cpp — the one parallel runtime: nav::parallel_for over
// the process-wide WorkerTeam covers every index exactly once, is
// schedule-independent for index-keyed bodies, honours max_lanes, and — by
// the busy-team rule — completes when nested or issued from two threads at
// once.
#include "runtime/worker_team.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "runtime/rng.hpp"

namespace nav {
namespace {

std::set<std::thread::id> threads_touched(std::size_t max_lanes) {
  std::mutex mutex;
  std::set<std::thread::id> ids;
  parallel_for(
      0, 256,
      [&](std::size_t) {
        std::lock_guard lock(mutex);
        ids.insert(std::this_thread::get_id());
      },
      max_lanes);
  return ids;
}

TEST(WorkerTeam, ThreadCountReported) {
  WorkerTeam team(3);
  EXPECT_EQ(team.thread_count(), 3u);
  EXPECT_EQ(global_pool().thread_count(), WorkerTeam::default_threads());
}

TEST(WorkerTeam, DefaultThreadsPositive) {
  EXPECT_GE(WorkerTeam::default_threads(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  int calls = 0;
  parallel_for(5, 5, [&](std::size_t) { ++calls; });
  parallel_for(7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, NonZeroBegin) {
  std::atomic<std::size_t> sum{0};
  parallel_for(10, 20, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), std::size_t{145});  // 10+...+19
}

TEST(ParallelFor, ResultIndependentOfThreadCount) {
  // Deterministic body keyed by index: results must agree across widths.
  auto run = [](std::size_t lanes) {
    std::vector<std::uint64_t> out(512);
    parallel_for(
        0, 512,
        [&](std::size_t i) {
          Rng rng = Rng(77).child(i);
          out[i] = rng();
        },
        lanes);
    return out;
  };
  const auto one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(4));
}

TEST(ParallelFor, GlobalPoolWorks) {
  std::atomic<int> counter{0};
  parallel_for(0, 64, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ParallelFor, ManySmallBatches) {
  std::atomic<int> counter{0};
  for (int round = 0; round < 20; ++round) {
    parallel_for(0, 10, [&](std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ParallelFor, MaxLanesBoundsTheThreadsTouched) {
  const auto caller_only = threads_touched(1);
  ASSERT_EQ(caller_only.size(), 1u);
  EXPECT_EQ(*caller_only.begin(), std::this_thread::get_id());
  for (const std::size_t k : {2u, 3u}) {
    EXPECT_LE(threads_touched(k).size(), k) << "max_lanes=" << k;
  }
}

TEST(ParallelFor, NestedLoopCompletes) {
  // A loop issued from inside a loop body finds the team busy and runs on
  // the body's own thread instead of waiting for lanes that wait on it.
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 100;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  parallel_for(0, kOuter, [&](std::size_t i) {
    parallel_for(0, kInner,
                 [&](std::size_t j) { hits[i * kInner + j].fetch_add(1); });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ConcurrentLoopsFromTwoThreadsComplete) {
  // Two threads loop on the process team at once: whichever finds it busy
  // covers its loop on its own thread. Both finish, every index once.
  constexpr std::size_t kIndices = 2000;
  constexpr int kRounds = 50;
  std::vector<std::atomic<int>> a(kIndices), b(kIndices);
  const auto loop = [](std::vector<std::atomic<int>>& hits) {
    for (int round = 0; round < kRounds; ++round) {
      parallel_for(0, hits.size(),
                   [&](std::size_t i) { hits[i].fetch_add(1); });
    }
  };
  std::thread first(loop, std::ref(a));
  std::thread second(loop, std::ref(b));
  first.join();
  second.join();
  for (std::size_t i = 0; i < kIndices; ++i) {
    EXPECT_EQ(a[i].load(), kRounds) << i;
    EXPECT_EQ(b[i].load(), kRounds) << i;
  }
}

TEST(WorkerTeam, BusyInlineRunDoesNotAdvanceFailCountdown) {
  // Lane 1 fails after 2 healthy dispatches. A nested run() from lane 0's
  // body during dispatch 0 is a busy-team inline run, not a dispatch: it
  // covers every lane on the caller and leaves the countdown alone, so the
  // takeover still lands on dispatch 2.
  WorkerTeam team(3);
  team.run([](std::size_t) {});  // start the workers
  team.fail_lane(1, 2);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> nested_ran_by;
  std::vector<bool> taken_over;
  for (int dispatch = 0; dispatch < 3; ++dispatch) {
    std::vector<std::thread::id> ran_by(3);
    team.run([&](std::size_t lane) {
      ran_by[lane] = std::this_thread::get_id();
      if (lane == 0 && dispatch == 0) {
        team.run([&](std::size_t) {
          nested_ran_by.push_back(std::this_thread::get_id());
        });
      }
    });
    taken_over.push_back(ran_by[1] == caller);
  }
  EXPECT_EQ(nested_ran_by, std::vector<std::thread::id>(3, caller));
  EXPECT_EQ(taken_over, (std::vector<bool>{false, false, true}));
  EXPECT_EQ(team.failed_lanes(), 1u);
}

}  // namespace
}  // namespace nav
