// Observability primitives for the async ingest runtime.
//
// The paper's deployment story (§1.3) assumes an operator can watch the
// predictor while it runs. This module is the measurement substrate in
// the NFVMonitor idiom: fixed-bucket latency histograms a worker can
// update with zero allocation and no atomics on the hot path, plain
// snapshot structs the control plane fills at epoch boundaries, and a
// JSON dump of them. Latency is kept per worker, not per shard, and the
// dump is a summary whose size does not grow with the fleet; shard rows
// come only on request (to_json's shard_rows).
//
// Histogram semantics
// -------------------
// Power-of-two buckets over nanoseconds: bucket 0 holds exactly the
// value 0 and bucket i (i >= 1) holds [2^(i-1), 2^i); the top bucket
// absorbs everything above its floor. Recording is one bit-scan plus one
// increment into a fixed array — no allocation, ever. Quantiles are
// computed at snapshot time from the merged bucket counts with linear
// interpolation inside the bucket, so a reported pXX is always within
// one bucket width of the exact order statistic (pinned by
// tests/core/runtime_stats_test.cpp against a scalar reference).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/detector.h"

namespace nfv::core {

/// Single-writer latency histogram (see file comment for the bucket
/// layout). Not thread-safe: each shard worker owns one and publishes a
/// copy at micro-batch boundaries.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  void record(std::uint64_t nanos) { ++buckets_[bucket_index(nanos)]; }
  void clear() { buckets_.fill(0); }

  const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }

  static std::size_t bucket_index(std::uint64_t nanos) {
    const std::size_t w = static_cast<std::size_t>(std::bit_width(nanos));
    return w < kBuckets ? w : kBuckets - 1;
  }
  /// Inclusive lower bound of bucket i.
  static std::uint64_t bucket_floor(std::size_t i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  /// Exclusive upper bound of bucket i (the top bucket is open-ended and
  /// reports its nominal boundary).
  static std::uint64_t bucket_ceil(std::size_t i) {
    return i == 0 ? 1 : std::uint64_t{1} << i;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
};

/// Plain (copyable, non-atomic) histogram state as captured by a stats
/// snapshot; supports cross-worker merging and quantile extraction.
struct HistogramSnapshot {
  std::array<std::uint64_t, LatencyHistogram::kBuckets> buckets{};

  std::uint64_t total() const;
  void merge(const HistogramSnapshot& other);

  /// Interpolated quantile in nanoseconds, q in [0,1]; 0 when empty.
  /// Matches nfv::util::quantile's rank convention (linear interpolation
  /// at rank q*(n-1)) up to the bucket resolution.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p99() const { return quantile(0.99); }
  double p999() const { return quantile(0.999); }
};

/// Gauge + counters for one bounded ring.
struct QueueStatsSnapshot {
  std::uint64_t depth = 0;     // sampled; clamped to [0, capacity]
  std::uint64_t capacity = 0;
  std::uint64_t stalls = 0;    // full-ring push attempts (backpressure)
};

/// One shard worker's cut, consistent at its last micro-batch boundary.
struct WorkerStatsSnapshot {
  std::size_t worker = 0;
  std::uint64_t epoch = 0;    // published micro-batch boundaries
  std::uint64_t lines = 0;    // lines ingested across this worker's shards
  std::uint64_t flushes = 0;  // micro-batches scored
  QueueStatsSnapshot queue;   // this worker's input ring
  // Ingest -> scored/warning-published (ns) of every line this worker
  // scored. Every line of a micro-batch shares one scored stamp, so a
  // shard's latency is its worker's batch latency; total() <= lines in
  // any cut, equal after flush().
  HistogramSnapshot latency;
};

/// One vPE shard's cut, consistent with its owning worker's epoch.
struct ShardStatsSnapshot {
  std::size_t shard = 0;
  std::int32_t vpe = -1;
  std::size_t worker = 0;
  std::uint64_t lines = 0;     // lines ingested (incl. window warm-up)
  std::uint64_t warnings = 0;  // warning signatures raised
  // Resident bytes of this shard's PER-VPE mining state (private interner
  // tier + signatures + leaf table + scratch; the shared token arena is
  // reported once, fleet-wide, in FleetMemoryStats).
  std::uint64_t tree_bytes = 0;
  // The runtime-wide RuntimeStatsSnapshot::model, repeated per row for
  // readers that predate it; not part of the JSON dump.
  std::uint64_t model_bytes_fp32 = 0;
  std::uint64_t model_bytes_quantized = 0;  // 0 = fp32-only scoring
  bool model_quantized = false;
};

/// Global totals (live counters) as already exposed by AsyncIngest.
struct RuntimeTotals {
  std::uint64_t lines_submitted = 0;
  std::uint64_t lines_scored = 0;
  std::uint64_t flushes = 0;
  std::uint64_t warnings_published = 0;
};

/// Fleet-level memory aggregates over the template-mining side of the
/// runtime: the shared token arena and shared template forest (each
/// counted ONCE, however many vPEs resolve against them — never
/// re-summed per shard) plus the sum/max of per-shard tree bytes (whose
/// memory_bytes() deliberately exclude the shared structures).
/// bytes_per_vpe is the benchmark ledger's memory figure:
/// (arena + forest + sum of tree bytes) / shards — model weights are
/// reported separately in RuntimeStatsSnapshot::model (also shared
/// fleet-wide, so adding them here would double-count per vPE).
struct FleetMemoryStats {
  std::uint64_t arena_bytes = 0;
  std::uint64_t arena_tokens = 0;
  std::uint64_t forest_bytes = 0;
  std::uint64_t forest_templates = 0;
  std::uint64_t tree_bytes_total = 0;  // sum over shards
  std::uint64_t tree_bytes_max = 0;    // worst shard
  std::uint64_t shards = 0;
  double bytes_per_vpe = 0.0;

  /// Recompute bytes_per_vpe from the aggregate fields. Zero shards (a
  /// never-started or empty runtime) reports 0.0 — never NaN/inf, so the
  /// JSON dump of an empty snapshot always round-trips through the
  /// parser.
  void finalize_bytes_per_vpe();
};

/// Online continual-learning counters (the trainer thread's cut). All
/// zeros — and enabled=false — when the runtime was built without
/// online_retrain.
struct RetrainStats {
  bool enabled = false;
  /// Template-id events offered to the trainer's tap at micro-batch
  /// flush; dropped = the slice lost to a full tap ring (lossy by
  /// design — sampling pressure must never stall the scoring path).
  std::uint64_t samples_seen = 0;
  std::uint64_t samples_dropped = 0;
  /// Events currently buffered in the per-shard recency windows.
  std::uint64_t buffered_events = 0;
  /// Completed retrain rounds (warm update() path + adapt() path) and
  /// how many of them took the update-shift adapt path.
  std::uint64_t rounds = 0;
  std::uint64_t adapt_rounds = 0;
  /// Shadow models installed through the epoch barrier, and the global
  /// lines_scored count at the moment of the last install (the swap
  /// epoch: every line at or beyond it is scored by the new model).
  std::uint64_t swaps = 0;
  std::uint64_t last_swap_lines_scored = 0;
  /// Wall-clock seconds spent fine-tuning shadow models (training only —
  /// scoring never waits on this).
  double train_seconds = 0.0;
};

/// Everything the control plane reports in one epoch-consistent read:
/// per-worker cuts are each consistent at that worker's latest published
/// micro-batch boundary (seqlock-verified), queue gauges are sampled.
struct RuntimeStatsSnapshot {
  RuntimeTotals totals;
  std::vector<WorkerStatsSnapshot> workers;
  std::vector<ShardStatsSnapshot> shards;  // indexed by shard id
  QueueStatsSnapshot warning_queue;
  FleetMemoryStats memory;
  RetrainStats retrain;
  ModelMemoryStats model;  // the detector scoring every shard

  /// Fleet-wide latency view: all workers' histograms merged.
  HistogramSnapshot merged_latency() const;
};

/// JSON document for the runtime `dump stats` command (schema in the
/// README's "Runtime observability" section): the summary, whose size
/// does not grow with the fleet, plus one row per shard when `shard_rows`
/// is set. Latency quantiles are reported in microseconds; buckets are
/// emitted sparsely.
std::string to_json(const RuntimeStatsSnapshot& snapshot,
                    bool shard_rows = false);

}  // namespace nfv::core
