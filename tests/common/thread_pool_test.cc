#include "common/thread_pool.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace dpbr {
namespace {

TEST(ThreadPoolTest, NumThreadsCountsTheCaller) {
  for (size_t n : {1u, 2u, 8u}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.num_threads(), n);
  }
}

// 21k back-to-back dispatches with index counts cycling 1..17 and gaps
// alternating between none (workers still spinning on the last job) and
// ~100 us, past the spin budget (workers parked): a worker that wakes
// late must never run a stale or half-published job, and no index may be
// lost or repeated.
TEST(ThreadPoolTest, PublishRaceStress) {
  using Clock = std::chrono::steady_clock;
  constexpr size_t kCallsPerPool = 7000;
  constexpr size_t kMaxCount = 17;
  for (size_t threads : {2u, 3u, 8u}) {
    ThreadPool pool(threads);
    std::array<std::atomic<int>, kMaxCount> hits{};
    size_t bad_calls = 0;
    for (size_t k = 0; k < kCallsPerPool; ++k) {
      size_t n = 1 + k % kMaxCount;
      size_t base = k % 5;
      ParallelFor(pool, base, base + n,
                  [&](size_t i) { hits[i - base].fetch_add(1); });
      bool ok = true;
      for (size_t i = 0; i < kMaxCount; ++i) {
        ok &= hits[i].exchange(0) == (i < n ? 1 : 0);
      }
      if (!ok) ++bad_calls;
      if (k % 2 == 1) {
        // Not sleep_for: a sleep this short overshoots by its timer slack.
        auto until = Clock::now() + std::chrono::microseconds(100);
        while (Clock::now() < until) std::this_thread::yield();
      }
    }
    EXPECT_EQ(bad_calls, 0u) << "pool " << threads;
  }
}

// A ParallelFor issued from inside a body runs inline on that body's
// thread and is not counted, whether the body runs on the caller or on a
// worker, and whichever pool the nested call targets.
TEST(ThreadPoolTest, NestedCallsRunInlineOnCallerAndWorker) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::array<bool, 2> on_caller{};
  std::array<uint64_t, 2> nested_dispatches{};
  std::array<bool, 2> nested_inline{};
  uint64_t before = ParallelDispatchCount();
  ParallelFor(pool, 0, 2, [&](size_t i) {
    // Rendezvous: both indices run at once, so one is on the caller and
    // the other on the pool's single worker.
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
    const std::thread::id self = std::this_thread::get_id();
    on_caller[i] = self == caller;
    uint64_t d0 = ParallelDispatchCount();
    bool same_thread = true;
    ParallelFor(pool, 0, 8, [&](size_t) {
      same_thread &= std::this_thread::get_id() == self;
    });
    ParallelFor(0, 8, [&](size_t) {
      same_thread &= std::this_thread::get_id() == self;
    });
    nested_dispatches[i] = ParallelDispatchCount() - d0;
    nested_inline[i] = same_thread;
  });
  EXPECT_EQ(ParallelDispatchCount() - before, 1u);
  EXPECT_NE(on_caller[0], on_caller[1]);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(nested_dispatches[i], 0u) << "index " << i;
    EXPECT_TRUE(nested_inline[i]) << "index " << i;
  }
}

// Two threads outside the pool dispatching to it at the same time: the
// one that finds it occupied runs inline, and both see exact coverage.
TEST(ThreadPoolTest, ConcurrentExternalDispatchersBothCover) {
  ThreadPool pool(4);
  constexpr size_t kCalls = 2000;
  constexpr size_t kN = 64;
  std::array<size_t, 2> bad_calls{};
  auto dispatcher = [&](size_t t) {
    std::vector<std::atomic<int>> hits(kN);
    for (size_t k = 0; k < kCalls; ++k) {
      ParallelFor(pool, 0, kN, [&](size_t i) { hits[i].fetch_add(1); });
      bool ok = true;
      for (auto& h : hits) ok &= h.exchange(0) == 1;
      if (!ok) ++bad_calls[t];
    }
  };
  std::thread a(dispatcher, 0);
  std::thread b(dispatcher, 1);
  a.join();
  b.join();
  EXPECT_EQ(bad_calls[0], 0u);
  EXPECT_EQ(bad_calls[1], 0u);
}

// The destructor wakes parked workers and stops spinning ones.
TEST(ThreadPoolTest, DestroysPromptlyWhetherWorkersParkOrSpin) {
  using Clock = std::chrono::steady_clock;
  for (bool parked : {true, false}) {
    Clock::duration took{};
    {
      auto pool = std::make_unique<ThreadPool>(4);
      std::vector<int> out(16);
      ParallelFor(*pool, 0, out.size(), [&](size_t i) { out[i] = 1; });
      // Far beyond the spin budget, so every worker has parked.
      if (parked) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      auto t0 = Clock::now();
      pool.reset();
      took = Clock::now() - t0;
    }
    EXPECT_LT(took, std::chrono::seconds(1)) << "parked " << parked;
  }
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(pool, 0, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(pool, 5, 5, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, ComputesSameResultAsSerial) {
  // The FL trainer depends on this: per-index RNG streams make parallel
  // execution bit-identical to serial execution.
  const size_t kN = 64;
  std::vector<double> serial(kN), parallel(kN);
  for (size_t i = 0; i < kN; ++i) {
    SplitRng rng(42, {i});
    serial[i] = rng.Gaussian();
  }
  ThreadPool pool(8);
  ParallelFor(pool, 0, kN, [&](size_t i) {
    SplitRng rng(42, {i});
    parallel[i] = rng.Gaussian();
  });
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelForTest, GlobalPoolWorks) {
  std::vector<int> out(100, 0);
  ParallelFor(0, out.size(), [&](size_t i) { out[i] = static_cast<int>(i); });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

TEST(ThreadPoolTest, DefaultSizeFollowsAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  size_t allowed = static_cast<size_t>(CPU_COUNT(&saved));
  EXPECT_EQ(ThreadPool::DefaultSize(), std::min<size_t>(allowed, 16));

  // Narrow this thread's mask to its first allowed CPU, as
  // `taskset -c <cpu>` would.
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  size_t pinned = ThreadPool::DefaultSize();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
}

TEST(ParallelForTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;
  ParallelFor(pool, 0, 5,
              [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace dpbr
