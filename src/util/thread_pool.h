// Deterministic fork-join parallelism for work that splits into
// independent units: the per-group training and per-vPE scoring fan-out of
// run_pipeline, the per-vPE trace synthesis of simulate_fleet and the
// per-threshold sweep of precision_recall_curve. The ml kernels run on
// their calling thread and never reach a pool.
//
// Design constraints (see README "Parallel execution & determinism"):
//  - Results must be bit-identical to the serial path for any thread
//    count. parallel_for therefore only distributes *indices*; every index
//    writes to its own pre-sized output slot and no reduction happens
//    inside the pool. Work is claimed dynamically (atomic chunk counter),
//    which is safe precisely because outputs are slot-addressed.
//  - Exceptions propagate deterministically: every index runs exactly
//    once, and the exception thrown by the *lowest* failing index is
//    rethrown on the calling thread — the same exception the serial loop
//    would have surfaced first.
//  - Nesting is rejected. A parallel_for issued from inside a running
//    parallel region throws CheckError instead of deadlocking; code that
//    may be reached from inside tasks (simulate_fleet,
//    precision_recall_curve) consults in_parallel_region() and runs its
//    loop inline instead.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nfv::util {

/// Fixed-size fork-join pool. `threads` counts the calling thread: a pool
/// of size N keeps N−1 workers and the caller participates in every job,
/// so size 1 means "run inline, spawn nothing" — the serial path.
class ThreadPool {
 public:
  /// `threads == 0` resolves via resolve_threads(0) (NFVPRED_THREADS or
  /// hardware concurrency).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return threads_; }

  /// Run fn(i) exactly once for every i in [begin, end), blocking until
  /// all indices completed. Deterministic given slot-addressed outputs
  /// (fn(i) must only write state owned by index i). Throws CheckError if
  /// called from inside a running parallel region.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// True while the current thread is executing inside a multi-threaded
  /// parallel region (worker thread, or the caller participating in its
  /// own job). Callers use this to run inline rather than nest.
  static bool in_parallel_region();

  /// RAII marker declaring the current thread part of a parallel region,
  /// so code underneath that consults in_parallel_region() runs inline
  /// instead of fanning out on a pool. Restores the previous state on
  /// destruction, so nesting is harmless.
  class ScopedRegion {
   public:
    ScopedRegion();
    ~ScopedRegion();
    ScopedRegion(const ScopedRegion&) = delete;
    ScopedRegion& operator=(const ScopedRegion&) = delete;

   private:
    bool previous_;
  };

  /// Resolve a requested thread count: explicit requests win, 0 means
  /// "auto" = NFVPRED_THREADS if set (and > 0), else hardware
  /// concurrency, else 1.
  static std::size_t resolve_threads(std::size_t requested);

 private:
  void worker_loop();
  void run_chunks(const std::function<void(std::size_t)>& fn,
                  std::size_t end);
  void record_error(std::size_t index);

  std::size_t threads_ = 1;
  std::vector<std::thread> workers_;

  // Serializes whole jobs: concurrent top-level parallel_for calls on the
  // same pool queue behind each other instead of corrupting the job slot.
  std::mutex job_mutex_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;           // bumped once per job
  std::size_t finished_workers_ = 0;  // workers done with current epoch
  bool stop_ = false;

  // Current job (valid while a job is in flight; guarded by mu_ for
  // publication, read-only afterwards).
  const std::function<void(std::size_t)>* job_fn_ = nullptr;
  std::size_t job_end_ = 0;
  std::size_t job_chunk_ = 1;
  std::atomic<std::size_t> next_index_{0};

  std::mutex error_mu_;
  std::exception_ptr error_;
  std::size_t error_index_ = 0;
};

/// Owned long-running threads for service-style work (queue-draining
/// shard workers), complementing ThreadPool's fork-join jobs: fork-join
/// workers must never block indefinitely, while a service loop runs for
/// the lifetime of a runtime object. Each thread runs fn(index) exactly
/// once; join() (or destruction) blocks until every loop returns — the
/// caller is responsible for signalling its loops to exit first (e.g. by
/// closing their input queues).
class ServiceThreads {
 public:
  ServiceThreads() = default;
  ~ServiceThreads() { join(); }

  ServiceThreads(const ServiceThreads&) = delete;
  ServiceThreads& operator=(const ServiceThreads&) = delete;

  /// Spawn `count` threads running fn(0..count-1). May only be called on
  /// an empty (never-started or joined) instance.
  void start(std::size_t count, std::function<void(std::size_t)> fn);

  /// Block until all loops return. Idempotent.
  void join();

  std::size_t size() const { return threads_.size(); }

 private:
  std::vector<std::thread> threads_;
};

/// The process's one pool: run_pipeline, simulate_fleet and
/// precision_recall_curve fan out on it. Lazily created at
/// resolve_threads(0) size (NFVPRED_THREADS, else hardware concurrency);
/// set_global_threads (the CLI's --threads) resizes it. Not intended to be
/// resized concurrently with use.
ThreadPool& global_pool();

/// Replace the global pool with one of the given size (0 = auto). Call
/// from startup code (CLI flag parsing), not from inside parallel work.
void set_global_threads(std::size_t threads);

}  // namespace nfv::util
