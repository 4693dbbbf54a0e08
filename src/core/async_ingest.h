// Asynchronous streaming ingest runtime.
//
// The paper's deployment vision is "a runtime predictive analysis system
// running in parallel with existing reactive monitoring systems" (§1).
// AsyncIngest is that runtime at production line rates: producer threads
// hand raw syslog lines (or pre-parsed events) to per-vPE monitor shards
// over bounded MPSC rings; shard workers stage lines into per-worker
// StreamMonitorGroup micro-batches and flush each one through a single
// fused scoring call on a size-or-deadline trigger; warnings come back
// over a lock-free MPSC queue the caller drains.
//
// Topology and determinism
// ------------------------
//   producers --MPSC--> worker[shard % workers] --> StreamMonitorGroup
//                                                          |  flush()
//   caller  <--- lock-free MPSC warning queue <------------+
//
// Every vPE shard is pinned to exactly one worker, and each worker drains
// its queue FIFO, so a vPE's lines are mined, staged, scored and
// cluster-tracked in submission order no matter how many workers run.
// Scores do not depend on micro-batch composition (no detector reads the
// vocabulary at score time, and the fused scorer is bit-identical to
// per-window scoring), so the per-vPE warning stream
// is byte-for-byte the one a serial StreamMonitor replay produces — for
// any worker count, flush_batch, or deadline. Only the interleaving of
// DIFFERENT vPEs' warnings in the drain is scheduling-dependent;
// merge_warnings_by_vpe() restores a canonical order.
//
// Every shard tree resolves against one fleet-wide token arena
// (util::SharedInterner) and delegates template storage to one
// fleet-wide template forest (logproc::SharedSignatureForest), so the
// heavily overlapping fleet token and template sets are stored once
// instead of per vPE. Mining depends on token text, never on numeric ids
// or storage location, so sharing never moves a warning (pinned by
// miner_equivalence_test and the determinism tests).
//
// Backpressure: submit() blocks when the target worker's queue is full,
// so queued input is bounded by workers × queue_capacity items.
//
// Detector swap (monthly update / post-update adaptation) uses an epoch
// barrier: swap_detector() parks every worker between micro-batches
// (queues drained, groups flushed), installs the new model, and resumes —
// honoring the read-only-detector contract of src/core/streaming.h. The
// runtime takes ownership of every swapped-in model and frees a replaced
// one only at the next barrier, once no worker can still read it.
//
// Observability + control plane
// -----------------------------
// The runtime is not a black box (the NFVMonitor idiom): every worker
// keeps per-shard counters and one ingest-to-scored latency histogram in
// worker-local memory (zero allocation, no atomics on the hot path) and
// publishes them into seqlock-guarded slots at micro-batch boundaries —
// so snapshot() returns, at any moment and from any thread, a stats cut
// in which each worker's counters are mutually consistent at its latest
// completed micro-batch ("epoch-consistent"). A publish walks only the
// shards touched since the previous one (a worker-local dirty list: lines
// staged or scored), so its cost is O(shards touched), at most about
// flush_batch per flush, not O(shards owned); an untouched shard's
// one-cache-line slot (lines, warnings, tree bytes) already holds its
// current values.
// Latency is kept per worker, not per shard: every line of a micro-batch
// shares one scored stamp, so a shard's latency is its worker's batch
// latency, and the stats memory grows with the workers, not the fleet.
// The worker's 48 histogram buckets publish with its counters, so they
// are current at every published epoch (latency total <= the worker's
// lines in any live cut, equal after flush()). The histogram is always
// on: one clock read per submit and one per flushed batch. Queue-depth
// gauges and backpressure-stall counters come from the rings themselves.
// Latency is measured submit -> micro-batch scored; warnings are
// published inside that interval, so the histogram upper-bounds
// ingest-to-warning latency for every warning in the batch.
// Instrumentation never feeds back into scoring: warning streams stay
// byte-for-byte the serial replay. stats_json() dumps a summary (totals,
// workers with queue and latency, warning queue, fleet memory, retrain,
// model, fleet latency) whose size does not grow with the fleet; one row
// per shard comes only on request (stats_json(true)).
//
// The worker loop is: pop, stage, flush on size or deadline, park at the
// epoch barrier, exit on close. Runtime commands are the barrier ones —
// flush(), swap_detector(), stop() — plus snapshot()/stats_json() ("dump
// stats"), which never stop a worker. stop() drains every queued line
// before the workers exit: no submitted line is ever lost.
//
// Threading rules: any number of threads may submit, and any thread may
// call snapshot(), stats_json(), stats() — including concurrently with
// stop(). One designated caller thread owns the rest of the control
// plane — start/flush/swap_detector/stop/drain_warnings — and must not
// submit concurrently with flush/swap/stop (workers quiesce by draining
// their queues, which never happens under a firehose).
//
// Online continual learning (config.online_retrain)
// -------------------------------------------------
// The paper's answer to temporal dynamics — monthly incremental training
// plus transfer learning after software updates (§1.3, Fig. 11) — runs
// INSIDE the runtime: each worker's StreamMonitorGroup taps the staged
// (shard, time, template-id) stream at micro-batch flush into a bounded
// MPSC ring (lossy by design: overflow increments a drop counter, never
// stalls a worker), and a background trainer thread keeps the most recent
// `retrain_samples` events per shard as its fine-tuning corpus. Every
// `retrain_interval_lines` scored lines (or on request_retrain()) it
// fine-tunes a private shadow copy of the installed LstmDetector —
// update() on the warm path, adapt() (freeze lower layers, fine-tune the
// top) when at least 5% of the sampled events carry template ids the
// installed model has never seen, the update-shift signature —
// re-quantizes it when config().quantize is set, and installs a copy
// through the same epoch barrier as swap_detector(): detection never
// stops during retrain. Installed generations are owned by the runtime; a
// replaced generation moves to a retired list and is freed only at the
// NEXT epoch barrier, after every worker has provably stopped referencing
// it (snapshot() never dereferences the detector at all — it reads a
// cached ModelMemoryStats refreshed at swap time).
//
// Determinism contract with retrain: disabled, warning streams stay
// byte-for-byte the serial replay. Enabled, swap epochs partition each
// per-vPE stream, and every epoch is byte-identical to a serial replay
// that scores it with that epoch's model (pinned by the continual suite);
// WHERE the swaps land in the stream is scheduling-dependent. A
// caller-driven swap_detector() on such a runtime throws: the trainer's
// lineage would silently fork from whatever the caller installed.
//
// The trainer's install quiesces on the same barrier as flush(): under a
// saturating firehose that never lets a worker's queue drain, an install
// waits for the first natural gap. Producers pacing below queue capacity
// (the deployment regime) yield such gaps continuously.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "core/runtime_stats.h"
#include "core/streaming.h"
#include "logproc/signature_tree.h"
#include "util/interner.h"
#include "util/mpsc_queue.h"
#include "util/thread_pool.h"

namespace nfv::core {

class LstmDetector;

struct AsyncIngestConfig {
  /// Shard workers; 0 resolves like the thread pool (NFVPRED_THREADS or
  /// hardware concurrency), then clamps to the shard count.
  std::size_t workers = 0;
  /// Bounded capacity of each worker's input queue (rounded up to a power
  /// of two). Full queue = backpressure.
  std::size_t queue_capacity = 4096;
  /// Flush a worker's staged micro-batch once it holds this many lines...
  std::size_t flush_batch = 64;
  /// ...or once this much wall-clock time passed since the batch's first
  /// line while the queue is idle (0 = flush whenever the queue is empty).
  /// Neither trigger affects scores or warnings, only latency/GEMM size.
  std::chrono::microseconds flush_deadline{2000};
  /// Bounded capacity of the warning queue. Overflowing warnings spill
  /// losslessly (and still in per-vPE order) into per-worker buffers, so
  /// an undrained caller never blocks or crashes the workers.
  std::size_t warning_capacity = 4096;
  /// Online continual learning: run the background trainer thread (see
  /// the file comment). Requires the detector passed to the constructor
  /// to be an LstmDetector (checked at start()).
  bool online_retrain = false;
  /// Fire a retrain round each time this many additional lines have been
  /// scored runtime-wide (0 disables the interval trigger; rounds then
  /// run only on request_retrain()).
  std::uint64_t retrain_interval_lines = 50000;
  /// Per-shard recency window: the trainer fine-tunes on at most this
  /// many of the most recently sampled events per shard, so the corpus
  /// tracks the live distribution and memory stays bounded.
  std::size_t retrain_samples = 2048;
  /// Capacity of the bounded flush-tap ring between workers and the
  /// trainer. Overflow is dropped and counted (RetrainStats), never
  /// blocking the scoring path.
  std::size_t retrain_tap_capacity = 16384;
};

struct AsyncIngestStats {
  std::uint64_t lines_submitted = 0;
  std::uint64_t lines_scored = 0;  // lines that went through a flush
  std::uint64_t flushes = 0;
  std::uint64_t warnings_published = 0;
};

class AsyncIngest {
 public:
  /// `detector` (and any detector swapped in later) must be a per-log
  /// detector; a per-document one throws util::CheckError (check_per_log).
  /// It stays caller-owned and must outlive the runtime.
  explicit AsyncIngest(const AnomalyDetector* detector,
                       AsyncIngestConfig config = {});
  ~AsyncIngest();

  AsyncIngest(const AsyncIngest&) = delete;
  AsyncIngest& operator=(const AsyncIngest&) = delete;

  /// Register a per-vPE shard (its own signature tree + StreamMonitor)
  /// before start(); returns the shard id used by submit().
  std::size_t add_shard(std::int32_t vpe, StreamMonitorConfig config);

  /// Launch the shard workers. add_shard() is frozen from here on.
  void start();
  bool started() const { return started_; }

  /// Route one raw syslog line to `shard` (template mined online by that
  /// shard's worker). Blocks while the worker's queue is full; the line
  /// is never dropped. Producer threads only.
  void submit(std::size_t shard, nfv::util::SimTime time, std::string line);

  /// Pre-parsed variant of submit(). A negative template id throws
  /// util::CheckError here, on the producer's thread, before the line is
  /// counted or queued.
  void submit_parsed(std::size_t shard, const logproc::ParsedLog& log);

  /// Move every published warning into `out` (appended); returns how many.
  /// Warnings from one vPE arrive in emission order; across vPEs the
  /// interleaving follows scheduling. Caller thread only.
  std::size_t drain_warnings(std::vector<StreamWarning>& out);

  /// Barrier: returns once every line submitted so far has been scored
  /// and every staged micro-batch flushed. Requires producers to be
  /// quiet for the duration of the call. Caller thread only.
  void flush();

  /// Epoch barrier + model swap: quiesces all workers between
  /// micro-batches (implies flush()), swaps the detector on every shard
  /// monitor and worker group, and resumes. The runtime owns the model
  /// from here on and keeps it alive after replacement on a
  /// retired-generation list freed at the NEXT epoch barrier, so no
  /// straggler can ever read a destroyed model. Caller thread only;
  /// serialized against flush()/stop(). Throws util::CheckError, before
  /// quiescing anything, on a runtime started with online_retrain (the
  /// trainer owns the installed lineage there).
  void swap_detector(std::unique_ptr<const AnomalyDetector> detector);

  /// The detector generation currently scoring every shard. After a swap
  /// the pointer stays valid from the moment it is observed until one
  /// epoch barrier after a later swap replaces it (and at least until the
  /// runtime is destroyed when no further swap happens). Any thread.
  const AnomalyDetector* installed_detector() const {
    return detector_.load(std::memory_order_acquire);
  }

  /// Ask the trainer for an immediate retrain round, in addition to the
  /// interval trigger. online_retrain only; any thread.
  void request_retrain();
  /// Block until the trainer has completed at least `rounds` retrain
  /// rounds since start() (a round counts even when the sampled corpus
  /// was empty and nothing was installed — check RetrainStats::swaps).
  /// online_retrain only; control-plane thread only.
  void wait_retrain_rounds(std::uint64_t rounds);

  /// Final flush, worker shutdown, join. With online_retrain the free
  /// pages of every malloc arena then go back to the OS (glibc), so a
  /// process that restarts runtimes does not keep one trainer working set
  /// per arena its trainers were handed. Idempotent; also run by the
  /// destructor. Pending warnings stay drainable afterwards.
  void stop();

  /// Epoch-consistent stats snapshot, readable while workers run (and
  /// after stop()): per-worker counters + latency histograms and compact
  /// per-shard counters as of each worker's latest published micro-batch
  /// boundary, plus sampled queue gauges. Any thread; lock-free on the
  /// workers.
  RuntimeStatsSnapshot snapshot() const;
  /// The snapshot rendered as JSON ("dump stats" runtime command; schema
  /// in README "Runtime observability"): the summary, plus one row per
  /// shard when `shard_rows` is set.
  std::string stats_json(bool shard_rows = false) const {
    return to_json(snapshot(), shard_rows);
  }

  std::size_t shards() const { return shards_.size(); }
  std::size_t workers() const { return worker_count_; }
  /// The shard's online-mined template dictionary. Do not call while
  /// workers may be ingesting raw lines for this shard (quiesce first).
  const logproc::SignatureTree& tree(std::size_t shard) const;
  /// Mutable access for pre-seeding templates (canonical id priming)
  /// before start() — or while quiesced, under the same rule as above.
  logproc::SignatureTree& mutable_tree(std::size_t shard);
  /// The fleet-wide token arena every shard tree resolves against (never
  /// null). Safe to read from any thread (lock-free reader contract in
  /// util/interner.h).
  const nfv::util::SharedInterner* token_arena() const {
    return &token_arena_;
  }
  /// The fleet-wide template forest every shard tree delegates template
  /// storage to (never null). Safe to read from any thread (lock-free
  /// reader contract in logproc/shared_forest.h).
  const logproc::SharedSignatureForest* template_forest() const {
    return &template_forest_;
  }
  AsyncIngestStats stats() const;

 private:
  struct Item {
    std::uint32_t shard = 0;
    bool raw = false;
    logproc::ParsedLog log;  // time doubles as the raw line's timestamp
    std::string line;
    std::uint64_t enqueue_ns = 0;  // steady-clock submit stamp
  };

  struct Shard {
    std::int32_t vpe = -1;
    std::unique_ptr<logproc::SignatureTree> tree;
    std::unique_ptr<StreamMonitor> monitor;
    // Published stats slot, one cache line: written (relaxed) by the
    // owning worker under its seqlock at micro-batch boundaries, read by
    // snapshot().
    struct alignas(64) Slot {
      std::atomic<std::uint64_t> lines{0};
      std::atomic<std::uint64_t> warnings{0};
      std::atomic<std::uint64_t> tree_bytes{0};
    };
    Slot pub;
  };

  struct Worker {
    explicit Worker(std::size_t queue_capacity) : queue(queue_capacity) {}
    nfv::util::MpscQueue<Item> queue;
    std::vector<std::size_t> shard_ids;
    // Lossless spillover for warnings that found the warning queue full;
    // a worker keeps spilling until the caller drains the buffer, so
    // per-vPE warning order survives overflow.
    std::mutex overflow_mu;
    std::vector<StreamWarning> overflow;
    bool overflowing = false;  // guarded by overflow_mu
    // Seqlock over this worker's published stats (its own slot AND its
    // shards' slots): odd while a publish is in progress.
    alignas(64) std::atomic<std::uint64_t> stat_seq{0};
    std::atomic<std::uint64_t> stat_epoch{0};
    std::atomic<std::uint64_t> stat_lines{0};
    std::atomic<std::uint64_t> stat_flushes{0};
    std::array<std::atomic<std::uint64_t>, LatencyHistogram::kBuckets>
        stat_latency{};
  };

  // One tapped template-id event, as queued from a worker's flush to the
  // trainer thread.
  struct TapSample {
    std::uint32_t shard = 0;
    std::int32_t template_id = -1;
    std::int64_t time_seconds = 0;
  };

  void worker_loop(std::size_t index);
  void trainer_loop();
  /// Epoch-barrier install shared by swap_detector() and the trainer.
  /// Caller must hold control_mu_. Frees generations retired at an
  /// earlier barrier, installs `detector` (taking ownership), refreshes
  /// the cached ModelMemoryStats, and returns the exact lines_scored
  /// count at the barrier (the swap epoch). `drain_pending` must be false
  /// off the control-plane thread.
  std::uint64_t install_detector(
      std::unique_ptr<const AnomalyDetector> detector, bool drain_pending);
  void publish_warning(std::size_t worker, const StreamWarning& warning);
  void push_item(std::size_t shard, Item item);
  void quiesce(bool drain_pending = true);
  void release();
  void drain_queue_into_pending();

  std::atomic<const AnomalyDetector*> detector_;
  AsyncIngestConfig config_;
  // Fleet-wide token arena and template forest; constructed before any
  // shard tree and destroyed after them (member order), satisfying the
  // arena/forest-outlive-trees contract. The forest is declared after the
  // arena it references, so it is destroyed first.
  nfv::util::SharedInterner token_arena_;
  logproc::SharedSignatureForest template_forest_{&token_arena_};
  std::size_t worker_count_ = 0;
  bool started_ = false;
  bool stopped_ = false;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // Shard -> worker, assigned once by start(): producers route a line with
  // one load from this flat array instead of touching the shard's own
  // (at fleet scale, cold) heap object.
  std::vector<std::uint32_t> shard_worker_;
  nfv::util::ServiceThreads threads_;

  nfv::util::MpscQueue<StreamWarning> warning_queue_;
  std::vector<StreamWarning> pending_warnings_;  // caller thread only

  // Epoch barrier (quiesce/release) + shutdown flag.
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> epoch_requested_{0};
  std::mutex barrier_mu_;
  std::condition_variable parked_cv_;    // worker -> caller
  std::condition_variable released_cv_;  // caller -> worker
  std::uint64_t epoch_released_ = 0;     // guarded by barrier_mu_
  std::size_t parked_ = 0;               // guarded by barrier_mu_

  // Stats.
  std::atomic<std::uint64_t> lines_submitted_{0};
  std::atomic<std::uint64_t> lines_scored_{0};
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> warnings_published_{0};

  // Control-plane serialization: flush / swap_detector / stop on the
  // caller thread vs the trainer's installs all contend for the one epoch
  // barrier; this mutex makes them take it one at a time.
  std::mutex control_mu_;
  // Detector generations the runtime owns (every swap_detector() and
  // trainer install; the constructor's detector stays caller-owned).
  // owned_current_ is the installed generation, null until the first
  // swap; replaced generations park in retired_ until the next epoch
  // barrier proves no worker can still reference them. Guarded by
  // control_mu_.
  std::unique_ptr<const AnomalyDetector> owned_current_;
  std::vector<std::unique_ptr<const AnomalyDetector>> retired_;
  // Cached footprint of the installed detector, refreshed at construction
  // and at every install — snapshot() reads this instead of dereferencing
  // detector_, so a concurrent swap can never expose it to a dying model.
  mutable std::mutex model_mem_mu_;
  ModelMemoryStats model_mem_;  // guarded by model_mem_mu_

  // Online-retrain trainer (online_retrain only; null/empty otherwise).
  std::unique_ptr<nfv::util::MpscQueue<TapSample>> tap_queue_;
  std::unique_ptr<LstmDetector> lineage_;  // trainer thread only
  std::thread trainer_;
  std::mutex trainer_mu_;
  std::condition_variable trainer_cv_;  // request/stop -> trainer
  std::condition_variable rounds_cv_;   // trainer -> wait_retrain_rounds
  bool trainer_stop_ = false;           // guarded by trainer_mu_
  std::uint64_t retrain_requests_ = 0;  // guarded by trainer_mu_
  std::atomic<std::uint64_t> samples_seen_{0};
  std::atomic<std::uint64_t> samples_dropped_{0};
  std::atomic<std::uint64_t> retrain_buffered_{0};
  std::atomic<std::uint64_t> retrain_rounds_{0};
  std::atomic<std::uint64_t> adapt_rounds_{0};
  std::atomic<std::uint64_t> retrain_swaps_{0};
  std::atomic<std::uint64_t> last_swap_lines_{0};
  std::atomic<std::uint64_t> train_ns_{0};
};

/// Canonical deterministic order for a drained warning batch: stable
/// partition by vPE (per-vPE emission order untouched). Concatenating the
/// per-vPE serial warning streams in ascending vPE order yields exactly
/// this — the "per-vPE merge" the determinism tests compare against.
std::vector<StreamWarning> merge_warnings_by_vpe(
    std::vector<StreamWarning> warnings);

}  // namespace nfv::core
