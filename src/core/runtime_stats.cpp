#include "core/runtime_stats.h"

#include <cmath>

#include "util/json.h"

namespace nfv::core {

std::uint64_t HistogramSnapshot::total() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t n : buckets) sum += n;
  return sum;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
}

double HistogramSnapshot::quantile(double q) const {
  const std::uint64_t n = total();
  if (n == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank convention of util::quantile: the exact quantile sits at
  // fractional rank q*(n-1) of the sorted values. Walk the cumulative
  // counts to the bucket containing that rank and interpolate linearly
  // inside it.
  const double rank = q * static_cast<double>(n - 1);
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    const double last_rank = static_cast<double>(before + in_bucket - 1);
    if (rank <= last_rank) {
      const double lo = static_cast<double>(LatencyHistogram::bucket_floor(i));
      const double hi = static_cast<double>(LatencyHistogram::bucket_ceil(i));
      double within =
          in_bucket == 1
              ? 0.0
              : (rank - static_cast<double>(before)) /
                    static_cast<double>(in_bucket - 1);
      // A fractional rank straddling two buckets lands here with a
      // within just outside [0,1]; clamp so the result stays inside the
      // bucket that contains the upper order statistic.
      if (within < 0.0) within = 0.0;
      if (within > 1.0) within = 1.0;
      return lo + within * (hi - lo);
    }
    before += in_bucket;
  }
  // rank points past the last occupied bucket (only reachable through
  // floating-point edge cases): report the top occupied bucket's ceiling.
  for (std::size_t i = buckets.size(); i-- > 0;) {
    if (buckets[i] != 0) {
      return static_cast<double>(LatencyHistogram::bucket_ceil(i));
    }
  }
  return 0.0;
}

void FleetMemoryStats::finalize_bytes_per_vpe() {
  bytes_per_vpe =
      shards == 0
          ? 0.0
          : static_cast<double>(arena_bytes + forest_bytes +
                                tree_bytes_total) /
                static_cast<double>(shards);
}

HistogramSnapshot RuntimeStatsSnapshot::merged_latency() const {
  HistogramSnapshot merged;
  for (const WorkerStatsSnapshot& worker : workers) {
    merged.merge(worker.latency);
  }
  return merged;
}

namespace {

void write_queue(nfv::util::JsonWriter& w, const QueueStatsSnapshot& q) {
  w.begin_object();
  w.kv("depth", q.depth);
  w.kv("capacity", q.capacity);
  w.kv("stalls", q.stalls);
  w.end_object();
}

void write_histogram(nfv::util::JsonWriter& w, const HistogramSnapshot& h) {
  w.begin_object();
  w.kv("count", h.total());
  w.kv("p50_us", h.p50() / 1000.0);
  w.kv("p99_us", h.p99() / 1000.0);
  w.kv("p999_us", h.p999() / 1000.0);
  // Sparse bucket dump: upper bound (exclusive, ns) -> count.
  w.key("buckets").begin_array();
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    if (h.buckets[i] == 0) continue;
    w.begin_object();
    w.kv("le_ns", LatencyHistogram::bucket_ceil(i));
    w.kv("count", h.buckets[i]);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

std::string to_json(const RuntimeStatsSnapshot& snapshot, bool shard_rows) {
  nfv::util::JsonWriter w;
  w.begin_object();

  w.key("totals").begin_object();
  w.kv("lines_submitted", snapshot.totals.lines_submitted);
  w.kv("lines_scored", snapshot.totals.lines_scored);
  w.kv("flushes", snapshot.totals.flushes);
  w.kv("warnings_published", snapshot.totals.warnings_published);
  w.kv("rejected_submits", snapshot.totals.rejected_submits);
  w.end_object();

  w.key("workers").begin_array();
  for (const WorkerStatsSnapshot& worker : snapshot.workers) {
    w.begin_object();
    w.kv("worker", worker.worker);
    w.kv("epoch", worker.epoch);
    w.kv("lines", worker.lines);
    w.kv("flushes", worker.flushes);
    w.key("queue");
    write_queue(w, worker.queue);
    w.key("latency");
    write_histogram(w, worker.latency);
    w.end_object();
  }
  w.end_array();

  w.key("warning_queue");
  write_queue(w, snapshot.warning_queue);

  w.key("memory").begin_object();
  w.kv("arena_bytes", snapshot.memory.arena_bytes);
  w.kv("arena_tokens", snapshot.memory.arena_tokens);
  w.kv("forest_bytes", snapshot.memory.forest_bytes);
  w.kv("forest_templates", snapshot.memory.forest_templates);
  w.kv("tree_bytes_total", snapshot.memory.tree_bytes_total);
  w.kv("tree_bytes_max", snapshot.memory.tree_bytes_max);
  w.kv("shards", snapshot.memory.shards);
  // Belt-and-braces: a hand-built snapshot may carry NaN/inf here (e.g. a
  // zero-shard division upstream); the dump must stay parseable.
  w.kv("bytes_per_vpe", std::isfinite(snapshot.memory.bytes_per_vpe)
                            ? snapshot.memory.bytes_per_vpe
                            : 0.0);
  w.end_object();

  w.key("retrain").begin_object();
  w.kv("enabled", snapshot.retrain.enabled);
  w.kv("samples_seen", snapshot.retrain.samples_seen);
  w.kv("samples_dropped", snapshot.retrain.samples_dropped);
  w.kv("buffered_events", snapshot.retrain.buffered_events);
  w.kv("rounds", snapshot.retrain.rounds);
  w.kv("adapt_rounds", snapshot.retrain.adapt_rounds);
  w.kv("swaps", snapshot.retrain.swaps);
  w.kv("last_swap_lines_scored", snapshot.retrain.last_swap_lines_scored);
  w.kv("train_seconds", snapshot.retrain.train_seconds);
  w.end_object();

  w.key("model").begin_object();
  w.kv("weight_bytes_fp32", snapshot.model.weight_bytes_fp32);
  w.kv("weight_bytes_quantized", snapshot.model.weight_bytes_quantized);
  w.kv("quantized", snapshot.model.quantized);
  w.end_object();

  w.key("latency");
  write_histogram(w, snapshot.merged_latency());

  w.key("shards").begin_array();
  if (shard_rows) {
    for (const ShardStatsSnapshot& shard : snapshot.shards) {
      w.begin_object();
      w.kv("shard", shard.shard);
      w.kv("vpe", shard.vpe);
      w.kv("worker", shard.worker);
      w.kv("paused", shard.paused);
      w.kv("lines", shard.lines);
      w.kv("warnings", shard.warnings);
      w.kv("held", shard.held);
      w.kv("tree_bytes", shard.tree_bytes);
      w.end_object();
    }
  }
  w.end_array();

  w.end_object();
  return w.str();
}

}  // namespace nfv::core
