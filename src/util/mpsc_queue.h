// Bounded multi-producer queue (Vyukov-style bounded ring).
//
// Two async-ingest edges need many writers and one reader:
//  - line routing: several producer threads feeding one shard-worker's
//    input queue;
//  - warning publication: every shard worker pushing StreamWarnings into
//    the single queue the caller drains.
//
// Each ring cell carries a sequence counter; a producer claims a slot
// with one fetch-free CAS on the tail ticket and publishes the payload by
// release-storing the cell sequence, so producers never contend on a lock
// and the consumer never observes a half-written cell. The implementation
// is the classic Dmitry Vyukov bounded MPMC design (safe a fortiori for
// our MPSC use), lock-free in the practical sense: no mutexes anywhere,
// and a stalled thread can only delay the slots it has claimed.
//
// Per-producer FIFO is preserved: pushes from one thread claim strictly
// increasing tickets, and the consumer pops in ticket order — the
// property the deterministic ingest mode relies on (a vPE's events flow
// producer → one worker → warning queue without reordering).
//
// Backpressure modes:
//  - try_push/try_pop never block: try_push returns false when the ring
//    is full (or closed) so the producer can shed or buffer load;
//  - push/pop block with a yield/sleep backoff until space/data arrives,
//    bounding producer memory at `capacity()` items end-to-end.
//
// close() fails further pushes while pop drains remaining items before
// reporting exhaustion.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>

namespace nfv::util {

namespace queue_detail {

/// Wait strategy for the ring and its spinning callers: spin briefly,
/// then yield, then sleep — single-core friendly (the peer thread needs
/// the CPU to make the awaited progress).
inline void backoff(unsigned& round) {
  if (round < 8) {
    // brief spin
  } else if (round < 64) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  ++round;
}

inline std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace queue_detail

template <typename T>
class MpscQueue {
 public:
  /// Capacity is rounded up to the next power of two (min 2).
  explicit MpscQueue(std::size_t capacity)
      : capacity_(queue_detail::round_up_pow2(capacity < 2 ? 2 : capacity)),
        mask_(capacity_ - 1),
        cells_(std::make_unique<Cell[]>(capacity_)) {
    for (std::size_t i = 0; i < capacity_; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// Queue-depth gauge for observability: any thread may sample it while
  /// producers and the consumer run. Reads head BEFORE tail so a racy
  /// sample cannot underflow, and clamps to capacity() (concurrent
  /// pops+pushes between the two reads could otherwise overshoot). Exact
  /// when quiescent.
  std::size_t depth() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t d = tail >= head ? tail - head : 0;
    return d > capacity_ ? capacity_ : d;
  }
  std::size_t size() const { return depth(); }

  /// Backpressure-stall counter: how many times a producer found the
  /// ring full — once per failed try_push(), and once per blocking
  /// push() episode (the internal retry spin does NOT inflate it).
  std::uint64_t stall_count() const {
    return stalls_.load(std::memory_order_relaxed);
  }

  /// Any thread. False when the ring is full or the queue is closed — and
  /// then `value` is NOT consumed (an rvalue argument is only moved from
  /// on success), so blocking wrappers can safely retry with it.
  bool try_push(T&& value) { return try_push_impl(value, true); }
  bool try_push(const T& value) {
    T copy(value);
    return try_push_impl(copy, true);
  }

  /// Any thread. Blocks until space is available; false if the queue was
  /// closed before the item could be enqueued.
  bool push(T value) {
    unsigned round = 0;
    bool count_stall = true;
    for (;;) {
      if (try_push_impl(value, count_stall)) return true;
      count_stall = false;  // one stall per blocking episode
      if (closed_.load(std::memory_order_acquire)) return false;
      queue_detail::backoff(round);
    }
  }

  /// Consumer. False when the ring is empty. (The pop side is written to
  /// the full MPMC protocol, so a second consumer would also be safe.)
  bool try_pop(T& out) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos + 1);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          out = std::move(cell.value);
          cell.seq.store(pos + capacity_, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // empty (or the producer hasn't published yet)
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Consumer. Blocks until an item arrives; false only when the queue is
  /// closed AND fully drained.
  bool pop(T& out) {
    unsigned round = 0;
    for (;;) {
      if (try_pop(out)) return true;
      if (closed_.load(std::memory_order_acquire)) {
        // close() is sequenced after every producer's final push that it
        // is meant to cover; re-check once so those pushes are not lost.
        return try_pop(out);
      }
      queue_detail::backoff(round);
    }
  }

  void close() { closed_.store(true, std::memory_order_release); }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

 private:
  bool try_push_impl(T& value, bool count_stall) {
    if (closed_.load(std::memory_order_relaxed)) return false;
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = std::move(value);
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded pos; retry with it.
      } else if (dif < 0) {
        // Full: the slot still holds an unpopped item.
        if (count_stall) stalls_.fetch_add(1, std::memory_order_relaxed);
        return false;
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  struct Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(64) std::atomic<std::size_t> head_{0};  // pop ticket
  alignas(64) std::atomic<std::size_t> tail_{0};  // push ticket
  alignas(64) std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> stalls_{0};  // full-ring push attempts
};

}  // namespace nfv::util
