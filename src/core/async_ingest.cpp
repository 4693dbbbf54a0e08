#include "core/async_ingest.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <thread>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/lstm_detector.h"
#include "util/check.h"

namespace nfv::core {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// Return the free pages of every malloc arena to the OS. glibc gives each
// thread its own arena and keeps an exited thread's free memory resident
// for whichever thread it next hands that arena to. The online trainer
// leaves ~20 MB of freed training buffers in its arena, and the next
// runtime's trainer is not always handed the same arena, so without this
// each restart could strand one more copy of that working set, by chance.
// Only runtimes that ran a trainer call it: the workers' own transients
// are small, and a trimmed heap costs the next runtime page faults.
void release_free_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace

AsyncIngest::AsyncIngest(const AnomalyDetector* detector,
                         AsyncIngestConfig config)
    : detector_(detector),
      config_(config),
      warning_queue_(config.warning_capacity) {
  check_per_log(detector);
  NFV_CHECK(config_.flush_batch >= 1, "flush_batch must be >= 1");
  NFV_CHECK(config_.queue_capacity >= 1, "queue_capacity must be >= 1");
  model_mem_ = detector->model_memory();
}

AsyncIngest::~AsyncIngest() {
  if (started_) stop();
}

std::size_t AsyncIngest::add_shard(std::int32_t vpe,
                                   StreamMonitorConfig config) {
  NFV_CHECK(!started_, "add_shard after start()");
  const std::size_t index = shards_.size();
  auto shard = std::make_unique<Shard>();
  shard->vpe = vpe;
  shard->tree = std::make_unique<logproc::SignatureTree>(
      logproc::SignatureTreeConfig{}, &token_arena_, &template_forest_);
  shard->monitor = std::make_unique<StreamMonitor>(
      vpe, detector_.load(std::memory_order_relaxed), shard->tree.get(),
      config, [this, index](const StreamWarning& warning) {
        publish_warning(shard_worker_[index], warning);
      });
  shards_.push_back(std::move(shard));
  shard_worker_.push_back(0);  // assigned by start()
  return index;
}

void AsyncIngest::start() {
  NFV_CHECK(!started_, "start() called twice");
  NFV_CHECK(!shards_.empty(), "start() with no shards registered");
  worker_count_ = std::min(
      nfv::util::ThreadPool::resolve_threads(config_.workers),
      shards_.size());
  workers_.reserve(worker_count_);
  for (std::size_t w = 0; w < worker_count_; ++w) {
    workers_.push_back(std::make_unique<Worker>(config_.queue_capacity));
  }
  // Static per-vPE sharding: a vPE's lines always flow through the same
  // worker, which is what keeps per-vPE processing order — and with it
  // the deterministic warning stream — independent of the worker count.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::size_t w = s % worker_count_;
    shard_worker_[s] = static_cast<std::uint32_t>(w);
    workers_[w]->shard_ids.push_back(s);
  }
  if (config_.online_retrain) {
    const auto* lstm = dynamic_cast<const LstmDetector*>(
        detector_.load(std::memory_order_relaxed));
    NFV_CHECK(lstm != nullptr && lstm->trained(),
              "online_retrain requires a trained LstmDetector");
    NFV_CHECK(config_.retrain_samples >= 1, "retrain_samples must be >= 1");
    // The trainer's private lineage: it fine-tunes THIS copy each round
    // and installs copies of it, so its teacher can never be freed out
    // from under it by a swap.
    lineage_ = lstm->clone_as_teacher();
    tap_queue_ = std::make_unique<nfv::util::MpscQueue<TapSample>>(
        config_.retrain_tap_capacity);
  }
  started_ = true;
  threads_.start(worker_count_, [this](std::size_t w) { worker_loop(w); });
  if (config_.online_retrain) {
    trainer_ = std::thread([this] { trainer_loop(); });
  }
}

void AsyncIngest::push_item(std::size_t shard, Item item) {
  NFV_CHECK(started_ && !stopped_, "submit outside start()..stop()");
  NFV_CHECK(shard < shards_.size(), "unknown shard " << shard);
  item.enqueue_ns = now_ns();
  lines_submitted_.fetch_add(1, std::memory_order_relaxed);
  const bool pushed =
      workers_[shard_worker_[shard]]->queue.push(std::move(item));
  NFV_CHECK(pushed, "submit raced with stop()");
}

bool AsyncIngest::try_push_item(std::size_t shard, Item&& item) {
  NFV_CHECK(started_ && !stopped_, "submit outside start()..stop()");
  NFV_CHECK(shard < shards_.size(), "unknown shard " << shard);
  item.enqueue_ns = now_ns();
  if (!workers_[shard_worker_[shard]]->queue.try_push(std::move(item))) {
    rejected_submits_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  lines_submitted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void AsyncIngest::submit(std::size_t shard, nfv::util::SimTime time,
                         std::string line) {
  Item item;
  item.shard = static_cast<std::uint32_t>(shard);
  item.raw = true;
  item.log.time = time;
  item.line = std::move(line);
  push_item(shard, std::move(item));
}

bool AsyncIngest::try_submit(std::size_t shard, nfv::util::SimTime time,
                             std::string line) {
  Item item;
  item.shard = static_cast<std::uint32_t>(shard);
  item.raw = true;
  item.log.time = time;
  item.line = std::move(line);
  return try_push_item(shard, std::move(item));
}

void AsyncIngest::submit_parsed(std::size_t shard,
                                const logproc::ParsedLog& log) {
  // Checked on the producer's thread: a worker has no caller to throw to,
  // so a negative id reaching the scorer there would end the process.
  NFV_CHECK(log.template_id >= 0,
            "negative template id " << log.template_id);
  Item item;
  item.shard = static_cast<std::uint32_t>(shard);
  item.log = log;
  push_item(shard, std::move(item));
}

void AsyncIngest::publish_warning(std::size_t worker,
                                  const StreamWarning& warning) {
  warnings_published_.fetch_add(1, std::memory_order_relaxed);
  Worker& w = *workers_[worker];
  std::lock_guard<std::mutex> lock(w.overflow_mu);
  // Once a warning spilled, later ones from this worker must spill too
  // until the caller drains the buffer — pushing them to the (re-emptied)
  // queue would reorder them ahead of the spilled ones.
  if (w.overflowing || !warning_queue_.try_push(warning)) {
    w.overflow.push_back(warning);
    w.overflowing = true;
  }
}

std::size_t AsyncIngest::drain_warnings(std::vector<StreamWarning>& out) {
  std::size_t count = pending_warnings_.size();
  out.insert(out.end(), pending_warnings_.begin(), pending_warnings_.end());
  pending_warnings_.clear();
  StreamWarning warning;
  while (warning_queue_.try_pop(warning)) {
    out.push_back(warning);
    ++count;
  }
  // Queue drained first, then spillovers: everything in a worker's
  // overflow buffer was published after everything it managed to queue.
  for (auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->overflow_mu);
    count += worker->overflow.size();
    out.insert(out.end(), worker->overflow.begin(), worker->overflow.end());
    worker->overflow.clear();
    worker->overflowing = false;
  }
  return count;
}

void AsyncIngest::drain_queue_into_pending() {
  StreamWarning warning;
  while (warning_queue_.try_pop(warning)) {
    pending_warnings_.push_back(warning);
  }
}

void AsyncIngest::quiesce(bool drain_pending) {
  epoch_requested_.fetch_add(1, std::memory_order_release);
  std::unique_lock<std::mutex> lock(barrier_mu_);
  while (parked_ < worker_count_) {
    parked_cv_.wait_for(lock, std::chrono::microseconds(200));
    if (!drain_pending) continue;  // trainer: pending_warnings_ is the
                                   // caller thread's — never touch it
    // Keep the warning queue moving so workers flushing their final
    // micro-batches can't wedge on a full queue + full spill pattern.
    lock.unlock();
    drain_queue_into_pending();
    lock.lock();
  }
}

void AsyncIngest::release() {
  {
    std::lock_guard<std::mutex> lock(barrier_mu_);
    epoch_released_ = epoch_requested_.load(std::memory_order_acquire);
    parked_ = 0;
  }
  released_cv_.notify_all();
}

void AsyncIngest::flush() {
  NFV_CHECK(started_, "flush() before start()");
  if (stopped_) return;
  std::lock_guard<std::mutex> control(control_mu_);
  quiesce();  // workers only park with empty queues and flushed batches
  // Every worker has passed a barrier since any generation was retired,
  // so nothing can still reference them.
  retired_.clear();
  release();
}

std::uint64_t AsyncIngest::install_detector(
    const AnomalyDetector* detector,
    std::unique_ptr<const AnomalyDetector> owned, bool drain_pending) {
  check_per_log(detector);
  NFV_CHECK(started_, "swap_detector() before start()");
  NFV_CHECK(!stopped_, "swap_detector() after stop()");
  // Footprint read BEFORE the install: the model is still exclusively the
  // caller's/trainer's, so no reader can race this.
  const ModelMemoryStats mem = detector->model_memory();
  quiesce(drain_pending);
  const std::uint64_t scored_at_barrier =
      lines_scored_.load(std::memory_order_relaxed);
  // Generations retired at an EARLIER barrier are now provably
  // unreferenced: every worker has parked (and re-read detector_ on its
  // last wake) since they were replaced.
  retired_.clear();
  // Workers are parked between micro-batches: nothing is staged and no
  // score() call is in flight, so mutating the detector pointers here
  // honours the read-only-detector contract. Each worker re-reads
  // detector_ and refreshes its group when it resumes.
  detector_.store(detector, std::memory_order_release);
  for (auto& shard : shards_) shard->monitor->set_detector(detector);
  if (owned_current_) retired_.push_back(std::move(owned_current_));
  owned_current_ = std::move(owned);
  {
    std::lock_guard<std::mutex> lock(model_mem_mu_);
    model_mem_ = mem;
  }
  release();
  return scored_at_barrier;
}

void AsyncIngest::swap_detector(const AnomalyDetector* detector) {
  std::lock_guard<std::mutex> control(control_mu_);
  install_detector(detector, nullptr, /*drain_pending=*/true);
}

void AsyncIngest::swap_detector_owned(
    std::unique_ptr<const AnomalyDetector> detector) {
  std::lock_guard<std::mutex> control(control_mu_);
  // Read the raw pointer before handing off ownership: function-argument
  // evaluation order is unspecified, so detector.get() inline with
  // std::move(detector) may read the moved-from pointer.
  const AnomalyDetector* raw = detector.get();
  install_detector(raw, std::move(detector), /*drain_pending=*/true);
}

void AsyncIngest::stop() {
  if (!started_ || stopped_) return;
  // Retire the trainer first, while the workers are still alive: it may
  // be mid-quiesce for an install, and that barrier needs live workers
  // to complete. A round in flight finishes (install included) before
  // the join returns.
  if (trainer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(trainer_mu_);
      trainer_stop_ = true;
    }
    trainer_cv_.notify_all();
    trainer_.join();
  }
  std::lock_guard<std::mutex> control(control_mu_);
  closed_.store(true, std::memory_order_release);
  // Close queues first so any producer stuck in a blocking submit fails
  // fast instead of waiting on workers that are about to exit (workers
  // still drain every already-queued item before returning).
  for (auto& worker : workers_) worker->queue.close();
  // Unpark any worker sitting at a barrier from a concurrent quiesce —
  // by contract there is none (single control thread), but be safe.
  release();
  threads_.join();
  stopped_ = true;
  drain_queue_into_pending();
  // The trainer and the workers have exited: the trainer's freed training
  // buffers are garbage now (see release_free_heap()).
  if (config_.online_retrain) release_free_heap();
  // Owned generations (current and retired) stay alive until destruction:
  // installed_detector() remains dereferenceable after stop().
}

const logproc::SignatureTree& AsyncIngest::tree(std::size_t shard) const {
  NFV_CHECK(shard < shards_.size(), "unknown shard " << shard);
  return *shards_[shard]->tree;
}

logproc::SignatureTree& AsyncIngest::mutable_tree(std::size_t shard) {
  NFV_CHECK(shard < shards_.size(), "unknown shard " << shard);
  return *shards_[shard]->tree;
}

AsyncIngestStats AsyncIngest::stats() const {
  AsyncIngestStats stats;
  stats.lines_submitted = lines_submitted_.load(std::memory_order_relaxed);
  stats.lines_scored = lines_scored_.load(std::memory_order_relaxed);
  stats.flushes = flushes_.load(std::memory_order_relaxed);
  stats.warnings_published =
      warnings_published_.load(std::memory_order_relaxed);
  stats.rejected_submits = rejected_submits_.load(std::memory_order_relaxed);
  return stats;
}

void AsyncIngest::enqueue_command(std::size_t shard, ShardCommand::Kind kind) {
  NFV_CHECK(started_ && !stopped_, "control command outside start()..stop()");
  NFV_CHECK(shard < shards_.size(), "unknown shard " << shard);
  Worker& worker = *workers_[shard_worker_[shard]];
  // Raise the gauge BEFORE the push: a worker that pops the command can
  // only ever observe pending >= 1, so wait_commands() never reports done
  // while a command is still in flight.
  worker.commands_pending.fetch_add(1, std::memory_order_release);
  ShardCommand cmd;
  cmd.kind = kind;
  cmd.shard = static_cast<std::uint32_t>(shard);
  const bool pushed = worker.commands.push(cmd);
  NFV_CHECK(pushed, "command mailbox closed");  // never closed in practice
}

void AsyncIngest::pause_shard(std::size_t shard) {
  enqueue_command(shard, ShardCommand::Kind::kPause);
}

void AsyncIngest::resume_shard(std::size_t shard) {
  enqueue_command(shard, ShardCommand::Kind::kResume);
}

void AsyncIngest::wait_commands() {
  NFV_CHECK(started_, "wait_commands() before start()");
  unsigned round = 0;
  for (;;) {
    bool pending = false;
    for (const auto& worker : workers_) {
      if (worker->commands_pending.load(std::memory_order_acquire) != 0) {
        pending = true;
        break;
      }
    }
    if (!pending) return;
    nfv::util::queue_detail::backoff(round);
  }
}

bool AsyncIngest::shard_paused(std::size_t shard) const {
  NFV_CHECK(shard < shards_.size(), "unknown shard " << shard);
  return shards_[shard]->pub.paused.load(std::memory_order_acquire);
}

RuntimeStatsSnapshot AsyncIngest::snapshot() const {
  RuntimeStatsSnapshot snap;
  const AsyncIngestStats totals = stats();
  snap.totals.lines_submitted = totals.lines_submitted;
  snap.totals.lines_scored = totals.lines_scored;
  snap.totals.flushes = totals.flushes;
  snap.totals.warnings_published = totals.warnings_published;
  snap.totals.rejected_submits = totals.rejected_submits;

  // Model memory of the detector currently scoring every shard (shared;
  // a swap makes later snapshots report the new model's footprint). Read
  // from the swap-time cache, never through detector_: a straggler
  // snapshot must not dereference a generation a concurrent
  // swap_detector_owned / trainer install is about to retire and free.
  ModelMemoryStats model_mem;
  {
    std::lock_guard<std::mutex> lock(model_mem_mu_);
    model_mem = model_mem_;
  }

  snap.model = model_mem;
  snap.shards.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    snap.shards[s].shard = s;
    snap.shards[s].vpe = shards_[s]->vpe;
    snap.shards[s].worker = shard_worker_[s];
    snap.shards[s].model_bytes_fp32 = model_mem.weight_bytes_fp32;
    snap.shards[s].model_bytes_quantized = model_mem.weight_bytes_quantized;
    snap.shards[s].model_quantized = model_mem.quantized;
  }

  const auto read_shard_slots = [&](std::size_t s) {
    ShardStatsSnapshot& sh = snap.shards[s];
    const Shard::Slot& pub = shards_[s]->pub;
    sh.paused = pub.paused.load(std::memory_order_relaxed);
    sh.lines = pub.lines.load(std::memory_order_relaxed);
    sh.warnings = pub.warnings.load(std::memory_order_relaxed);
    sh.held = pub.held.load(std::memory_order_relaxed);
    sh.tree_bytes = pub.tree_bytes.load(std::memory_order_relaxed);
  };

  snap.workers.resize(workers_.size());
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const Worker& worker = *workers_[w];
    WorkerStatsSnapshot& ws = snap.workers[w];
    ws.worker = w;
    // Seqlock read of this worker's published cut (its slot + its shards'
    // slots): retry while a publish is in progress or completed between
    // our two fence-separated seq reads. After stop() the final publish
    // happened-before the join, so this converges on the first pass.
    unsigned round = 0;
    for (;;) {
      const std::uint64_t s1 = worker.stat_seq.load(std::memory_order_acquire);
      if ((s1 & 1) == 0) {
        ws.epoch = worker.stat_epoch.load(std::memory_order_relaxed);
        ws.lines = worker.stat_lines.load(std::memory_order_relaxed);
        ws.flushes = worker.stat_flushes.load(std::memory_order_relaxed);
        for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
          ws.latency.buckets[i] =
              worker.stat_latency[i].load(std::memory_order_relaxed);
        }
        for (const std::size_t s : worker.shard_ids) read_shard_slots(s);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (worker.stat_seq.load(std::memory_order_relaxed) == s1) break;
      }
      nfv::util::queue_detail::backoff(round);
    }
    ws.queue.depth = worker.queue.depth();
    ws.queue.capacity = worker.queue.capacity();
    ws.queue.stalls = worker.queue.stall_count();
  }
  if (workers_.empty()) {
    // Before start(): no writers exist, the slots are all zero — except
    // tree bytes, which can be read directly (no worker owns the tree
    // yet) so pre-seeded templates show up in the memory cut.
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      read_shard_slots(s);
      snap.shards[s].tree_bytes = shards_[s]->tree->memory_bytes();
    }
  }

  snap.warning_queue.depth = warning_queue_.depth();
  snap.warning_queue.capacity = warning_queue_.capacity();
  snap.warning_queue.stalls = warning_queue_.stall_count();

  // Fleet memory cut: the arena and forest are read directly (their byte
  // counters are atomics) and counted ONCE fleet-wide, per-shard tree
  // bytes come from the seqlock-published slots above — so the aggregate
  // is consistent with the per-shard rows and shared structures are
  // never re-summed per shard.
  FleetMemoryStats& mem = snap.memory;
  mem.shards = shards_.size();
  mem.arena_bytes = token_arena_.bytes();
  mem.arena_tokens = token_arena_.size();
  mem.forest_bytes = template_forest_.bytes();
  mem.forest_templates = template_forest_.size();
  for (const ShardStatsSnapshot& sh : snap.shards) {
    mem.tree_bytes_total += sh.tree_bytes;
    mem.tree_bytes_max = std::max(mem.tree_bytes_max, sh.tree_bytes);
  }
  mem.finalize_bytes_per_vpe();  // zero-shard snapshots report 0, not NaN

  RetrainStats& rt = snap.retrain;
  rt.enabled = config_.online_retrain;
  rt.samples_seen = samples_seen_.load(std::memory_order_relaxed);
  rt.samples_dropped = samples_dropped_.load(std::memory_order_relaxed);
  rt.buffered_events = retrain_buffered_.load(std::memory_order_relaxed);
  rt.rounds = retrain_rounds_.load(std::memory_order_relaxed);
  rt.adapt_rounds = adapt_rounds_.load(std::memory_order_relaxed);
  rt.swaps = retrain_swaps_.load(std::memory_order_relaxed);
  rt.last_swap_lines_scored = last_swap_lines_.load(std::memory_order_relaxed);
  rt.train_seconds =
      static_cast<double>(train_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return snap;
}

void AsyncIngest::worker_loop(std::size_t index) {
  Worker& worker = *workers_[index];
  const std::chrono::microseconds flush_deadline = config_.flush_deadline;

  // Per-worker micro-batching group over this worker's shards only.
  const AnomalyDetector* detector = detector_.load(std::memory_order_acquire);
  StreamMonitorGroup group(detector);
  if (tap_queue_) {
    // Online-retrain sample tap: every staged entry, at flush, into the
    // bounded trainer ring. A full ring drops the sample (counted) —
    // sampling pressure must never stall the scoring path.
    group.set_sample_tap([this, &worker](std::size_t local,
                                         nfv::util::SimTime time,
                                         std::int32_t template_id) {
      TapSample sample;
      sample.shard = static_cast<std::uint32_t>(worker.shard_ids[local]);
      sample.template_id = template_id;
      sample.time_seconds = time.seconds;
      samples_seen_.fetch_add(1, std::memory_order_relaxed);
      if (!tap_queue_->try_push(std::move(sample))) {
        samples_dropped_.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::size_t> local_of_shard(shards_.size(), 0);
  // Worker-local control/observability state per owned shard, indexed by
  // the group's local id (plain memory: no atomics on the hot path).
  struct LocalShard {
    Shard* shard = nullptr;
    std::vector<Item> hold;  // parked lines of a paused shard, in order
    bool paused = false;
    bool listed = false;  // on the dirty list
  };
  std::vector<LocalShard> locals(worker.shard_ids.size());
  // Shards touched since the last publish, each at most once. Every shard
  // starts listed, so the first publish fills every slot (pre-seeded tree
  // bytes included); from then on an unlisted shard's slots already hold
  // its current values and a publish costs O(shards touched), not
  // O(shards owned).
  std::vector<std::size_t> dirty;
  dirty.reserve(worker.shard_ids.size());
  const auto mark = [&](std::size_t local) {
    if (locals[local].listed) return;
    locals[local].listed = true;
    dirty.push_back(local);
  };
  for (std::size_t i = 0; i < worker.shard_ids.size(); ++i) {
    const std::size_t s = worker.shard_ids[i];
    const std::size_t local = group.add(shards_[s]->monitor.get());
    NFV_CHECK(local == i, "group local ids must follow registration order");
    local_of_shard[s] = local;
    locals[i].shard = shards_[s].get();
    mark(local);
  }

  // (local id, submit stamp) of each staged line; latencies are recorded
  // against one clock read taken right after the batch is scored.
  std::vector<std::pair<std::size_t, std::uint64_t>> staged;
  LatencyHistogram latency;  // every line this worker scored
  std::uint64_t lines_local = 0;
  std::uint64_t flushes_local = 0;
  std::uint64_t epoch_local = 0;
  bool holds_dirty = false;  // held-lines gauge changed since last publish
  Clock::time_point batch_start{};
  std::uint64_t seen_epoch = 0;
  unsigned idle_round = 0;

  // Seqlock publish of this worker's cut: the worker counters and
  // histogram buckets, then every listed shard's counters and gauges.
  const auto publish_stats = [&] {
    const std::uint64_t seq = worker.stat_seq.load(std::memory_order_relaxed);
    worker.stat_seq.store(seq + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    ++epoch_local;
    worker.stat_epoch.store(epoch_local, std::memory_order_relaxed);
    worker.stat_lines.store(lines_local, std::memory_order_relaxed);
    worker.stat_flushes.store(flushes_local, std::memory_order_relaxed);
    const auto& buckets = latency.buckets();
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      worker.stat_latency[i].store(buckets[i], std::memory_order_relaxed);
    }
    for (const std::size_t local : dirty) {
      LocalShard& ls = locals[local];
      ls.listed = false;
      Shard::Slot& pub = ls.shard->pub;
      pub.paused.store(ls.paused, std::memory_order_relaxed);
      pub.lines.store(ls.shard->monitor->lines_ingested(),
                      std::memory_order_relaxed);
      pub.warnings.store(ls.shard->monitor->warnings_raised(),
                         std::memory_order_relaxed);
      pub.held.store(ls.hold.size(), std::memory_order_relaxed);
      pub.tree_bytes.store(ls.shard->tree->memory_bytes(),
                           std::memory_order_relaxed);
    }
    worker.stat_seq.store(seq + 2, std::memory_order_release);
    dirty.clear();
    holds_dirty = false;
  };

  const auto flush_group = [&] {
    if (staged.empty()) return;
    group.flush();
    flushes_.fetch_add(1, std::memory_order_relaxed);
    lines_scored_.fetch_add(staged.size(), std::memory_order_relaxed);
    ++flushes_local;
    const std::uint64_t scored = now_ns();
    for (const auto& [local, submitted] : staged) {
      // Re-listed here too: an idle publish between staging and this
      // flush already unlisted the shard, but its warnings change only
      // now.
      mark(local);
      latency.record(scored > submitted ? scored - submitted : 0);
    }
    staged.clear();
    publish_stats();
  };

  const auto process_item = [&](Item&& item) {
    if (staged.empty()) batch_start = Clock::now();
    const std::size_t local = local_of_shard[item.shard];
    mark(local);
    staged.emplace_back(local, item.enqueue_ns);
    ++lines_local;
    if (item.raw) {
      group.ingest(local, item.log.time, item.line);
    } else {
      group.ingest_parsed(local, item.log);
    }
    if (staged.size() >= config_.flush_batch) flush_group();
  };

  // Drain the command mailbox at a micro-batch boundary. The staged batch
  // is flushed first so a pause/resume never splits one, and the pending
  // gauge only drops AFTER each command's effect (including hold-buffer
  // replay) is complete AND published — that is what wait_commands()
  // certifies, so shard_paused()/snapshot() right after it see the effect.
  const auto apply_commands = [&] {
    flush_group();
    ShardCommand cmd;
    std::uint64_t applied = 0;
    while (worker.commands.try_pop(cmd)) {
      const std::size_t local = local_of_shard[cmd.shard];
      LocalShard& ls = locals[local];
      mark(local);
      if (cmd.kind == ShardCommand::Kind::kPause) {
        ls.paused = true;
      } else if (ls.paused) {
        ls.paused = false;
        // Replay held lines in submission order: the shard's stream is
        // exactly what an unpaused run would have processed by now.
        std::vector<Item> hold = std::move(ls.hold);
        ls.hold.clear();
        for (Item& held : hold) process_item(std::move(held));
      }
      ++applied;
    }
    publish_stats();
    worker.commands_pending.fetch_sub(applied, std::memory_order_release);
  };

  for (;;) {
    if (worker.commands_pending.load(std::memory_order_acquire) != 0) {
      apply_commands();
      continue;
    }

    // Read the epoch request BEFORE the pop: once a request is seen, every
    // line submitted before it is visible to the pop, so the barrier below
    // never parks with such a line still queued (read after a failed pop,
    // it could see a request issued right behind a last submit).
    const std::uint64_t requested =
        epoch_requested_.load(std::memory_order_acquire);
    Item item;
    if (worker.queue.try_pop(item)) {
      idle_round = 0;
      const std::size_t local = local_of_shard[item.shard];
      LocalShard& ls = locals[local];
      if (ls.paused) {
        ls.hold.push_back(std::move(item));
        mark(local);
        holds_dirty = true;
        continue;
      }
      process_item(std::move(item));
      continue;
    }

    // Queue momentarily empty: flush a ripe micro-batch (deadline 0 =
    // flush immediately for minimum latency; batching then only engages
    // under backlog).
    if (!staged.empty() &&
        (flush_deadline.count() <= 0 ||
         Clock::now() - batch_start >= flush_deadline)) {
      flush_group();
      continue;
    }

    // Epoch barrier: park with everything flushed and stats published,
    // wait for release, then refresh the detector (it may have been
    // swapped while parked). Held lines of paused shards stay held —
    // flush()'s guarantee covers lines that have reached a monitor.
    if (requested != seen_epoch) {
      flush_group();
      publish_stats();
      seen_epoch = requested;
      {
        std::unique_lock<std::mutex> lock(barrier_mu_);
        ++parked_;
        parked_cv_.notify_all();
        released_cv_.wait(lock, [&] {
          return epoch_released_ >= seen_epoch ||
                 closed_.load(std::memory_order_acquire);
        });
      }
      const AnomalyDetector* current =
          detector_.load(std::memory_order_acquire);
      if (current != detector) {
        detector = current;
        group.set_detector(detector);
      }
      continue;
    }

    if (closed_.load(std::memory_order_acquire)) {
      // Drain-and-exit: apply any last commands, force-resume every
      // paused shard (replaying its hold in order), then one final queue
      // sweep in case items raced the close — no submitted line is lost.
      apply_commands();
      for (std::size_t local = 0; local < locals.size(); ++local) {
        LocalShard& ls = locals[local];
        if (ls.paused || !ls.hold.empty()) {
          ls.paused = false;
          mark(local);
          std::vector<Item> hold = std::move(ls.hold);
          ls.hold.clear();
          for (Item& held : hold) process_item(std::move(held));
        }
      }
      while (worker.queue.try_pop(item)) process_item(std::move(item));
      flush_group();
      publish_stats();
      return;
    }

    if (holds_dirty) {
      // Idle with lines parked since the last boundary: let snapshot
      // readers see the held gauge.
      publish_stats();
      continue;
    }

    nfv::util::queue_detail::backoff(idle_round);
  }
}

void AsyncIngest::request_retrain() {
  NFV_CHECK(config_.online_retrain, "request_retrain without online_retrain");
  NFV_CHECK(started_ && !stopped_, "request_retrain outside start()..stop()");
  {
    std::lock_guard<std::mutex> lock(trainer_mu_);
    ++retrain_requests_;
  }
  trainer_cv_.notify_all();
}

void AsyncIngest::wait_retrain_rounds(std::uint64_t rounds) {
  NFV_CHECK(config_.online_retrain,
            "wait_retrain_rounds without online_retrain");
  NFV_CHECK(started_, "wait_retrain_rounds before start()");
  std::unique_lock<std::mutex> lock(trainer_mu_);
  rounds_cv_.wait(lock, [&] {
    return retrain_rounds_.load(std::memory_order_acquire) >= rounds;
  });
}

void AsyncIngest::trainer_loop() {
  // Per-shard recency windows: the newest retrain_samples events of each
  // shard's tapped template-id stream, oldest evicted first. Bounded
  // memory, and the corpus tracks the live distribution.
  std::vector<std::deque<TapSample>> buffers(shards_.size());
  std::uint64_t buffered = 0;
  std::uint64_t serviced_requests = 0;
  std::uint64_t last_trigger_lines = 0;

  for (;;) {
    TapSample sample;
    while (tap_queue_->try_pop(sample)) {
      std::deque<TapSample>& buffer = buffers[sample.shard];
      buffer.push_back(sample);
      if (buffer.size() > config_.retrain_samples) {
        buffer.pop_front();
      } else {
        ++buffered;
      }
    }
    retrain_buffered_.store(buffered, std::memory_order_relaxed);

    bool run_round = false;
    {
      std::unique_lock<std::mutex> lock(trainer_mu_);
      if (trainer_stop_) return;
      if (retrain_requests_ > serviced_requests) {
        ++serviced_requests;
        run_round = true;
      } else if (config_.retrain_interval_lines > 0) {
        const std::uint64_t scored =
            lines_scored_.load(std::memory_order_relaxed);
        if (scored - last_trigger_lines >= config_.retrain_interval_lines) {
          last_trigger_lines = scored;
          run_round = true;
        }
      }
      if (!run_round) {
        trainer_cv_.wait_for(lock, std::chrono::milliseconds(1));
        continue;
      }
    }

    // --- One retrain round -------------------------------------------
    // Materialize the sampled corpus as per-shard streams; every shard's
    // events are already in submission order (FIFO tap, FIFO ring).
    const std::size_t installed_vocab = lineage_->model().config().vocab;
    std::vector<std::vector<logproc::ParsedLog>> streams;
    std::int32_t max_id = -1;
    std::uint64_t total = 0;
    std::uint64_t novel = 0;
    for (const std::deque<TapSample>& buffer : buffers) {
      if (buffer.empty()) continue;
      std::vector<logproc::ParsedLog>& stream = streams.emplace_back();
      stream.reserve(buffer.size());
      for (const TapSample& s : buffer) {
        stream.push_back({nfv::util::SimTime{s.time_seconds}, s.template_id});
        max_id = std::max(max_id, s.template_id);
        ++total;
        if (s.template_id >= 0 &&
            static_cast<std::size_t>(s.template_id) >= installed_vocab) {
          ++novel;
        }
      }
    }

    bool installed = false;
    if (total > 0) {
      const std::size_t vocab = std::max(
          installed_vocab, static_cast<std::size_t>(max_id) + 1);
      const double novel_fraction =
          static_cast<double>(novel) / static_cast<double>(total);
      const bool take_adapt_path =
          novel_fraction >= config_.adapt_novel_fraction;
      std::vector<LogView> views(streams.begin(), streams.end());
      const std::uint64_t t0 = now_ns();
      bool trained_ok = true;
      try {
        // The monthly-style warm path vs the post-update transfer path
        // (freeze lower layers, fine-tune the top). Both grow the vocab
        // to cover newly mined templates and re-quantize when the
        // lineage's config says so.
        if (take_adapt_path) {
          lineage_->adapt(views, vocab);
        } else {
          lineage_->update(views, vocab);
        }
      } catch (const std::exception&) {
        // A corrupt slice must not kill the trainer or the install the
        // NEXT round makes; detection continues on the current model.
        trained_ok = false;
      }
      train_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
      if (trained_ok) {
        if (take_adapt_path) {
          adapt_rounds_.fetch_add(1, std::memory_order_relaxed);
        }
        std::unique_ptr<LstmDetector> shadow = lineage_->clone_as_teacher();
        const AnomalyDetector* raw = shadow.get();
        std::lock_guard<std::mutex> control(control_mu_);
        if (!stopped_) {
          const std::uint64_t swap_epoch =
              install_detector(raw, std::move(shadow),
                               /*drain_pending=*/false);
          last_swap_lines_.store(swap_epoch, std::memory_order_relaxed);
          retrain_swaps_.fetch_add(1, std::memory_order_relaxed);
          installed = true;
        }
      }
    }
    (void)installed;
    {
      std::lock_guard<std::mutex> lock(trainer_mu_);
      retrain_rounds_.fetch_add(1, std::memory_order_release);
    }
    rounds_cv_.notify_all();
  }
}

std::vector<StreamWarning> merge_warnings_by_vpe(
    std::vector<StreamWarning> warnings) {
  std::stable_sort(warnings.begin(), warnings.end(),
                   [](const StreamWarning& a, const StreamWarning& b) {
                     return a.vpe < b.vpe;
                   });
  return warnings;
}

}  // namespace nfv::core
