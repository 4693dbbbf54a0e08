// Ring-buffer semantics (MPSC): FIFO order, bounded capacity with
// try-push backpressure, close/drain behaviour, and multi-threaded stress
// runs that TSan checks for data races (ctest -L concurrency).
#include "util/mpsc_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace nfv::util {
namespace {

TEST(MpscQueueTest, FifoOrderAndBackpressure) {
  MpscQueue<int> queue(3);  // rounds up to 4
  EXPECT_EQ(queue.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.try_push(i));
  EXPECT_FALSE(queue.try_push(99));
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(queue.try_pop(out));
  // Space freed: pushes work again.
  EXPECT_TRUE(queue.try_push(7));
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 7);
}

TEST(MpscQueueTest, BlockingHandoffAcrossThreads) {
  // Tiny capacity forces the producer through the blocking-push
  // (backpressure) path many times; the blocking consumer must still see
  // every value exactly once, in order, and stop only after the close.
  constexpr int kItems = 20000;
  MpscQueue<int> queue(2);
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) ASSERT_TRUE(queue.push(i));
    queue.close();
  });
  int expected = 0;
  int out = -1;
  while (queue.pop(out)) {
    ASSERT_EQ(out, expected);
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
}

TEST(MpscQueueTest, CloseDrainsBeforeReportingExhaustion) {
  MpscQueue<int> queue(8);
  EXPECT_TRUE(queue.push(1));
  queue.close();
  EXPECT_FALSE(queue.push(2));
  int out = -1;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_FALSE(queue.pop(out));
}

TEST(MpscQueueTest, ManyProducersLoseNothingAndKeepPerProducerOrder) {
  // 4 producers push tagged sequences through a deliberately small ring;
  // the single consumer must observe every item exactly once AND each
  // producer's items in order — the property per-vPE warning
  // determinism rests on.
  constexpr std::size_t kProducers = 4;
  constexpr int kPerProducer = 5000;
  MpscQueue<std::pair<std::size_t, int>> queue(8);

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.push({p, i}));
      }
    });
  }

  std::vector<int> next(kProducers, 0);
  std::size_t total = 0;
  std::pair<std::size_t, int> out;
  while (total < kProducers * kPerProducer) {
    if (queue.try_pop(out)) {
      ASSERT_LT(out.first, kProducers);
      ASSERT_EQ(out.second, next[out.first]) << "producer " << out.first;
      ++next[out.first];
      ++total;
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& producer : producers) producer.join();
  EXPECT_FALSE(queue.try_pop(out));
  for (std::size_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next[p], kPerProducer);
  }
}

template <typename Queue>
void expect_deterministic_stall_counting() {
  Queue queue(4);
  EXPECT_EQ(queue.stall_count(), 0u);
  EXPECT_EQ(queue.depth(), 0u);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(queue.try_push(i));
  EXPECT_EQ(queue.depth(), 4u);
  EXPECT_EQ(queue.depth(), queue.capacity());  // never exceeds capacity
  // Every failed try_push on the full ring counts exactly once.
  EXPECT_FALSE(queue.try_push(99));
  EXPECT_FALSE(queue.try_push(99));
  EXPECT_FALSE(queue.try_push(99));
  EXPECT_EQ(queue.stall_count(), 3u);
  int out = -1;
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(queue.depth(), 3u);
  // Space available again: success does not touch the counter.
  EXPECT_TRUE(queue.try_push(5));
  EXPECT_EQ(queue.stall_count(), 3u);
}

TEST(MpscQueueTest, TryPushStallCountingIsDeterministic) {
  expect_deterministic_stall_counting<MpscQueue<int>>();
}

template <typename Queue>
void expect_wraparound_fifo_at_capacity() {
  // Drive the indices far past one lap of the ring: FIFO order, the full/
  // empty edges, and the depth gauge must all survive wrap-around.
  Queue queue(4);
  int next_push = 0;
  int next_pop = 0;
  int out = -1;
  for (int lap = 0; lap < 6; ++lap) {
    while (queue.try_push(int{next_push})) ++next_push;  // fill to the brim
    EXPECT_EQ(queue.depth(), queue.capacity()) << "lap " << lap;
    EXPECT_FALSE(queue.try_push(next_push)) << "lap " << lap;
    // Drain half, refill, drain all: exercises every head/tail phase.
    for (std::size_t i = 0; i < queue.capacity() / 2; ++i) {
      ASSERT_TRUE(queue.try_pop(out));
      EXPECT_EQ(out, next_pop++);
    }
    while (queue.try_push(int{next_push})) ++next_push;
    while (queue.try_pop(out)) {
      EXPECT_EQ(out, next_pop++);
      EXPECT_LE(queue.depth(), queue.capacity());
    }
    EXPECT_EQ(queue.depth(), 0u) << "lap " << lap;
  }
  EXPECT_EQ(next_push, next_pop);
  EXPECT_GT(next_push, static_cast<int>(3 * queue.capacity()));
}

TEST(MpscQueueTest, WrapAroundAtCapacityKeepsFifoAndGauge) {
  expect_wraparound_fifo_at_capacity<MpscQueue<int>>();
}

TEST(MpscQueueTest, BlockingPushCountsOneStallPerEpisodeNotPerSpin) {
  // A blocked push() spins/sleeps many times before space frees up; the
  // stall counter must report ONE backpressure episode, not thousands of
  // retry iterations.
  MpscQueue<int> queue(2);
  ASSERT_TRUE(queue.push(0));
  ASSERT_TRUE(queue.push(1));
  EXPECT_EQ(queue.stall_count(), 0u);
  std::thread consumer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    int out = -1;
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out, 0);
  });
  ASSERT_TRUE(queue.push(2));  // blocks ~20ms on the full ring
  consumer.join();
  EXPECT_LE(queue.stall_count(), 1u);
}

template <typename Queue>
void expect_gauges_sane_under_stress(std::size_t producers) {
  // Producers + consumer + a sampler hammering the observability surface:
  // the depth gauge must never exceed capacity or underflow ("go
  // negative" would wrap to a huge size_t), and stall_count must be
  // monotonic. TSan (ctest -L concurrency) checks the accesses race-free.
  constexpr int kPerProducer = 4000;
  Queue queue(8);
  std::atomic<bool> done{false};

  std::thread sampler([&] {
    std::uint64_t last_stalls = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::size_t depth = queue.depth();
      EXPECT_LE(depth, queue.capacity());
      const std::uint64_t stalls = queue.stall_count();
      EXPECT_GE(stalls, last_stalls);
      last_stalls = stalls;
    }
  });

  std::vector<std::thread> workers;
  for (std::size_t p = 0; p < producers; ++p) {
    workers.emplace_back([&queue] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (!queue.try_push(int{i})) {
          ASSERT_TRUE(queue.push(int{i}));
        }
      }
    });
  }
  std::size_t total = 0;
  int out = -1;
  while (total < producers * kPerProducer) {
    if (queue.try_pop(out)) {
      ++total;
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& worker : workers) worker.join();
  done.store(true, std::memory_order_release);
  sampler.join();
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(MpscQueueTest, DepthGaugeStaysInBoundsUnderStress) {
  expect_gauges_sane_under_stress<MpscQueue<int>>(3);
}

}  // namespace
}  // namespace nfv::util
