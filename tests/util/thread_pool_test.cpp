#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/check.h"

namespace nfv::util {
namespace {

std::vector<std::size_t> test_thread_counts() {
  const std::size_t hw = ThreadPool::resolve_threads(0);
  std::vector<std::size_t> counts = {1, 2, 4};
  if (hw != 1 && hw != 2 && hw != 4) counts.push_back(hw);
  return counts;
}

TEST(ThreadPoolTest, EmptyAndReversedRangesAreNoOps) {
  for (const std::size_t threads : test_thread_counts()) {
    ThreadPool pool(threads);
    std::atomic<int> calls{0};
    pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
    pool.parallel_for(9, 3, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, StressEveryIndexRunsExactlyOnce) {
  constexpr std::size_t kTasks = 10000;
  for (const std::size_t threads : test_thread_counts()) {
    ThreadPool pool(threads);
    ASSERT_EQ(pool.size(), threads);
    // Slot-addressed writes: index i touches only slots[i], the pool's
    // determinism contract.
    std::vector<int> slots(kTasks, 0);
    pool.parallel_for(0, kTasks, [&](std::size_t i) { slots[i] += 1; });
    const long total =
        std::accumulate(slots.begin(), slots.end(), 0L);
    EXPECT_EQ(total, static_cast<long>(kTasks)) << "threads=" << threads;
    for (std::size_t i = 0; i < kTasks; ++i) {
      ASSERT_EQ(slots[i], 1) << "index " << i << " threads=" << threads;
    }
  }
}

TEST(ThreadPoolTest, NonZeroRangeBaseIsRespected) {
  for (const std::size_t threads : test_thread_counts()) {
    ThreadPool pool(threads);
    std::vector<int> slots(100, 0);
    pool.parallel_for(40, 100, [&](std::size_t i) { slots[i] += 1; });
    for (std::size_t i = 0; i < 40; ++i) EXPECT_EQ(slots[i], 0);
    for (std::size_t i = 40; i < 100; ++i) EXPECT_EQ(slots[i], 1);
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesAndLowestIndexWins) {
  for (const std::size_t threads : test_thread_counts()) {
    ThreadPool pool(threads);
    std::vector<int> slots(64, 0);
    try {
      pool.parallel_for(0, 64, [&](std::size_t i) {
        slots[i] += 1;
        if (i == 11) throw std::runtime_error("boom at 11");
        if (i == 47) throw std::runtime_error("boom at 47");
      });
      FAIL() << "expected exception, threads=" << threads;
    } catch (const std::runtime_error& e) {
      // Deterministic: the lowest failing index is rethrown — exactly the
      // exception the serial loop would have surfaced first.
      EXPECT_STREQ(e.what(), "boom at 11") << "threads=" << threads;
    }
    // Every index still ran exactly once despite the failures.
    for (std::size_t i = 0; i < slots.size(); ++i) {
      EXPECT_EQ(slots[i], 1) << "index " << i << " threads=" << threads;
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForIsRejected) {
  ThreadPool pool(4);
  std::atomic<int> rejections{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    try {
      pool.parallel_for(0, 2, [](std::size_t) {});
    } catch (const CheckError&) {
      ++rejections;
    }
  });
  EXPECT_EQ(rejections.load(), 8);

  // Rejection is thread-based, so a *different* pool is refused from
  // inside a region just the same (this is what keeps the blocked matmul
  // from re-entering the global pool underneath the pipeline fan-out).
  ThreadPool other(2);
  std::atomic<int> cross_rejections{0};
  pool.parallel_for(0, 4, [&](std::size_t) {
    try {
      other.parallel_for(0, 2, [](std::size_t) {});
    } catch (const CheckError&) {
      ++cross_rejections;
    }
  });
  EXPECT_EQ(cross_rejections.load(), 4);
}

TEST(ThreadPoolTest, InParallelRegionFlag) {
  EXPECT_FALSE(ThreadPool::in_parallel_region());

  // Multi-thread pool: tasks observe the region flag...
  ThreadPool pool(4);
  std::atomic<int> inside{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    if (ThreadPool::in_parallel_region()) ++inside;
  });
  EXPECT_EQ(inside.load(), 8);
  EXPECT_FALSE(ThreadPool::in_parallel_region());

  // ...while a size-1 pool runs inline as plain serial code, leaving
  // code below it free to fan out on another pool.
  ThreadPool serial(1);
  bool inline_flag = true;
  serial.parallel_for(0, 1, [&](std::size_t) {
    inline_flag = ThreadPool::in_parallel_region();
  });
  EXPECT_FALSE(inline_flag);
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  std::vector<int> slots(256, 0);
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(0, slots.size(),
                      [&](std::size_t i) { slots[i] += 1; });
  }
  for (const int count : slots) EXPECT_EQ(count, 50);
}

TEST(ThreadPoolTest, ResolveThreadsPrecedence) {
  // Explicit request wins outright.
  EXPECT_EQ(ThreadPool::resolve_threads(3), 3u);
  // Auto consults NFVPRED_THREADS before hardware concurrency.
  ::setenv("NFVPRED_THREADS", "5", 1);
  EXPECT_EQ(ThreadPool::resolve_threads(0), 5u);
  ::setenv("NFVPRED_THREADS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  ::unsetenv("NFVPRED_THREADS");
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
}

TEST(ThreadPoolTest, ConcurrentTopLevelCallsSerialize) {
  // Two raw threads issuing jobs against the same pool must both complete
  // (the pool queues whole jobs; it never interleaves two job slots).
  ThreadPool pool(4);
  std::vector<int> a(512, 0), b(512, 0);
  std::thread t1([&] {
    for (int round = 0; round < 10; ++round) {
      pool.parallel_for(0, a.size(), [&](std::size_t i) { a[i] += 1; });
    }
  });
  std::thread t2([&] {
    for (int round = 0; round < 10; ++round) {
      pool.parallel_for(0, b.size(), [&](std::size_t i) { b[i] += 1; });
    }
  });
  t1.join();
  t2.join();
  for (const int count : a) EXPECT_EQ(count, 10);
  for (const int count : b) EXPECT_EQ(count, 10);
}

}  // namespace
}  // namespace nfv::util
