// Observability substrate: the power-of-two latency histogram's bucket
// layout, merge and quantile math against a scalar reference, the
// end-to-end guarantee that a stats snapshot of an AsyncIngest run is
// deterministic — the same trace produces the same final per-shard
// counters for ANY worker count, with the workers' histograms accounting
// for every submitted line — and the JSON dump: a summary whose size does
// not grow with the fleet, plus one row per shard on request.
// (ctest -L observability.)
#include "core/runtime_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/async_ingest.h"
#include "core/lstm_detector.h"
#include "util/json.h"

namespace nfv::core {
namespace {

TEST(LatencyHistogramTest, BucketLayoutIdentities) {
  // Bucket 0 holds exactly 0; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(LatencyHistogram::bucket_index(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_index(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_index(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_index(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_index(4), 3u);
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(LatencyHistogram::bucket_index(LatencyHistogram::bucket_floor(i)),
              i)
        << "floor of bucket " << i;
    EXPECT_EQ(
        LatencyHistogram::bucket_index(LatencyHistogram::bucket_ceil(i) - 1),
        i)
        << "last value of bucket " << i;
  }
  // Everything past the top bucket's floor clamps into the top bucket.
  EXPECT_EQ(LatencyHistogram::bucket_index(~std::uint64_t{0}),
            LatencyHistogram::kBuckets - 1);
  // Boundaries tile the line: ceil(i) == floor(i+1).
  for (std::size_t i = 0; i + 1 < LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(LatencyHistogram::bucket_ceil(i),
              LatencyHistogram::bucket_floor(i + 1));
  }
}

TEST(LatencyHistogramTest, RecordClearAndMergeAreBucketwise) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (std::uint64_t v : {0ull, 1ull, 7ull, 8ull, 1023ull}) a.record(v);
  for (std::uint64_t v : {7ull, 100000ull}) b.record(v);

  HistogramSnapshot sa;
  sa.buckets = a.buckets();
  HistogramSnapshot sb;
  sb.buckets = b.buckets();
  EXPECT_EQ(sa.total(), 5u);
  EXPECT_EQ(sb.total(), 2u);

  HistogramSnapshot merged = sa;
  merged.merge(sb);
  EXPECT_EQ(merged.total(), 7u);
  for (std::size_t i = 0; i < merged.buckets.size(); ++i) {
    EXPECT_EQ(merged.buckets[i], sa.buckets[i] + sb.buckets[i]) << i;
  }

  a.clear();
  sa.buckets = a.buckets();
  EXPECT_EQ(sa.total(), 0u);
}

TEST(HistogramSnapshotTest, QuantileEdgeCases) {
  HistogramSnapshot empty;
  EXPECT_EQ(empty.quantile(0.5), 0.0);

  // One value: every quantile lands in that value's bucket.
  LatencyHistogram one;
  one.record(777);
  HistogramSnapshot s;
  s.buckets = one.buckets();
  const std::size_t bucket = LatencyHistogram::bucket_index(777);
  for (double q : {0.0, 0.5, 0.999, 1.0}) {
    EXPECT_GE(s.quantile(q),
              static_cast<double>(LatencyHistogram::bucket_floor(bucket)));
    EXPECT_LE(s.quantile(q),
              static_cast<double>(LatencyHistogram::bucket_ceil(bucket)));
  }
  // Out-of-range q clamps instead of misbehaving.
  EXPECT_EQ(s.quantile(-1.0), s.quantile(0.0));
  EXPECT_EQ(s.quantile(2.0), s.quantile(1.0));
}

TEST(HistogramSnapshotTest, QuantileTracksScalarReferenceWithinOneBucket) {
  // Deterministic pseudo-random latencies spanning many octaves.
  std::vector<std::uint64_t> values;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 4096; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(x % (1ull << (5 + i % 30)));
  }
  LatencyHistogram hist;
  for (const std::uint64_t v : values) hist.record(v);
  HistogramSnapshot snap;
  snap.buckets = hist.buckets();
  ASSERT_EQ(snap.total(), values.size());

  std::vector<std::uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    // Scalar reference (util::quantile convention): fractional rank
    // q*(n-1); the histogram answer must stay within the bucket span of
    // the two order statistics bracketing that rank.
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const std::uint64_t lo =
        sorted[static_cast<std::size_t>(std::floor(rank))];
    const std::uint64_t hi = sorted[static_cast<std::size_t>(std::ceil(rank))];
    const double got = snap.quantile(q);
    EXPECT_GE(got, static_cast<double>(LatencyHistogram::bucket_floor(
                       LatencyHistogram::bucket_index(lo))))
        << "q=" << q;
    EXPECT_LE(got, static_cast<double>(LatencyHistogram::bucket_ceil(
                       LatencyHistogram::bucket_index(hi))))
        << "q=" << q;
  }
}

// ---------------------------------------------------------------------
// Snapshot-under-load determinism. A trivial deterministic detector keeps
// the test about the runtime's accounting, not about model math.
// ---------------------------------------------------------------------

class StepDetector final : public AnomalyDetector {
 public:
  void fit(std::span<const LogView>, std::size_t) override {}
  void update(std::span<const LogView>, std::size_t) override {}
  void adapt(std::span<const LogView>, std::size_t) override {}
  void score_windows(std::span<const logproc::ParsedLog> windows,
                     std::size_t window_events, WindowScratch&,
                     std::span<double> out) const override {
    for (std::size_t w = 0; w < out.size(); ++w) {
      out[w] = windows[(w + 1) * window_events - 1].template_id >= 100 ? 50.0
                                                                       : 0.0;
    }
  }
  bool trained() const override { return true; }
  DetectorKind kind() const override { return DetectorKind::kLstm; }
  EventGranularity granularity() const override {
    return EventGranularity::kPerLog;
  }
};

logproc::ParsedLog trace_log(std::size_t vpe, std::size_t i) {
  logproc::ParsedLog log;
  log.time = nfv::util::SimTime{static_cast<std::int64_t>(i) * 30};
  // Occasional adjacent pairs of "anomalous" ids (>= 100) so warning
  // clusters actually form; everything else cycles benign ids.
  if (i % 41 == 20 || i % 41 == 21) {
    log.template_id = static_cast<std::int32_t>(100 + vpe);
  } else {
    log.template_id = static_cast<std::int32_t>((i + vpe * 3) % 17);
  }
  return log;
}

TEST(RuntimeStatsSnapshotTest, SameTraceSameFinalCountersForAnyWorkerCount) {
  constexpr std::size_t kVpes = 5;
  constexpr std::size_t kLines = 600;
  StepDetector detector;

  std::vector<ShardStatsSnapshot> reference;
  std::uint64_t reference_latency = 0;
  for (const std::size_t workers : {1u, 2u, 3u}) {
    AsyncIngestConfig config;
    config.workers = workers;
    config.flush_batch = 16;
    config.queue_capacity = 64;
    AsyncIngest ingest(&detector, config);
    StreamMonitorConfig monitor;
    monitor.threshold = 10.0;
    monitor.window = 4;
    for (std::size_t v = 0; v < kVpes; ++v) {
      ingest.add_shard(static_cast<std::int32_t>(v), monitor);
    }
    ingest.start();
    for (std::size_t i = 0; i < kLines; ++i) {
      for (std::size_t v = 0; v < kVpes; ++v) {
        ingest.submit_parsed(v, trace_log(v, i));
      }
    }
    ingest.flush();

    // Queryable while running: the post-flush snapshot already has every
    // line accounted for, before stop() was ever called.
    const RuntimeStatsSnapshot live = ingest.snapshot();
    EXPECT_EQ(live.totals.lines_scored, kVpes * kLines);
    ingest.stop();

    const RuntimeStatsSnapshot snap = ingest.snapshot();
    EXPECT_EQ(snap.totals.lines_submitted, kVpes * kLines);
    EXPECT_EQ(snap.totals.lines_scored, kVpes * kLines);
    ASSERT_EQ(snap.shards.size(), kVpes);
    ASSERT_EQ(snap.workers.size(), std::min(workers, kVpes));

    std::uint64_t worker_lines = 0;
    std::uint64_t worker_latency = 0;
    for (const WorkerStatsSnapshot& w : snap.workers) {
      EXPECT_GT(w.epoch, 0u) << "worker " << w.worker;
      EXPECT_EQ(w.queue.depth, 0u) << "worker " << w.worker;
      EXPECT_GT(w.queue.capacity, 0u) << "worker " << w.worker;
      // Every line the worker ingested was latency-recorded.
      EXPECT_EQ(w.latency.total(), w.lines) << "worker " << w.worker;
      worker_lines += w.lines;
      worker_latency += w.latency.total();
    }
    EXPECT_EQ(worker_lines, kVpes * kLines);
    EXPECT_EQ(worker_latency, snap.totals.lines_scored);

    std::uint64_t warnings = 0;
    for (std::size_t v = 0; v < kVpes; ++v) {
      const ShardStatsSnapshot& shard = snap.shards[v];
      EXPECT_EQ(shard.shard, v);
      EXPECT_EQ(shard.vpe, static_cast<std::int32_t>(v));
      EXPECT_EQ(shard.worker, v % snap.workers.size());
      // Every submitted line was ingested.
      EXPECT_EQ(shard.lines, kLines) << "shard " << v;
      warnings += shard.warnings;
    }
    EXPECT_GT(warnings, 0u) << "vacuous trace: no warning clusters";
    EXPECT_EQ(warnings, snap.totals.warnings_published);
    EXPECT_EQ(snap.merged_latency().total(), kVpes * kLines);

    // Determinism across worker counts: identical per-shard counters.
    if (reference.empty()) {
      reference = snap.shards;
      reference_latency = snap.merged_latency().total();
    } else {
      EXPECT_EQ(snap.merged_latency().total(), reference_latency)
          << "workers=" << workers;
      for (std::size_t v = 0; v < kVpes; ++v) {
        EXPECT_EQ(snap.shards[v].lines, reference[v].lines)
            << "workers=" << workers << " shard " << v;
        EXPECT_EQ(snap.shards[v].warnings, reference[v].warnings)
            << "workers=" << workers << " shard " << v;
      }
    }
  }
}

/// A started-and-flushed runtime of `shards` shards, each fed `lines`
/// trace lines.
void run_trace(AsyncIngest& ingest, std::size_t shards, std::size_t lines) {
  StreamMonitorConfig monitor;
  monitor.threshold = 10.0;
  monitor.window = 4;
  for (std::size_t v = 0; v < shards; ++v) {
    ingest.add_shard(static_cast<std::int32_t>(v), monitor);
  }
  ingest.start();
  for (std::size_t i = 0; i < lines; ++i) {
    for (std::size_t v = 0; v < shards; ++v) {
      ingest.submit_parsed(v, trace_log(v, i));
    }
  }
  ingest.flush();
}

TEST(RuntimeStatsSnapshotTest, JsonDumpRoundTripsThroughTheParser) {
  StepDetector detector;
  AsyncIngestConfig config;
  config.workers = 2;
  AsyncIngest ingest(&detector, config);
  run_trace(ingest, 3, 300);
  const std::string json = ingest.stats_json();
  const std::string detailed = ingest.stats_json(/*shard_rows=*/true);
  ingest.stop();

  std::string error;
  const auto doc = nfv::util::json_parse(json, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << json;
  const nfv::util::JsonValue* totals = doc->find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->find("lines_scored")->number, 900.0);
  // The summary carries no shard rows.
  const nfv::util::JsonValue* shards = doc->find("shards");
  ASSERT_NE(shards, nullptr);
  EXPECT_TRUE(shards->items.empty());
  // Each worker reports the latency of every line it scored.
  const nfv::util::JsonValue* workers = doc->find("workers");
  ASSERT_NE(workers, nullptr);
  ASSERT_EQ(workers->items.size(), 2u);
  double worker_count = 0.0;
  for (const nfv::util::JsonValue& worker : workers->items) {
    ASSERT_NE(worker.find("latency"), nullptr);
    EXPECT_EQ(worker.find("latency")->find("count")->number,
              worker.find("lines")->number);
    worker_count += worker.find("latency")->find("count")->number;
  }
  EXPECT_EQ(worker_count, 900.0);
  const nfv::util::JsonValue* latency = doc->find("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->find("count")->number, 900.0);
  EXPECT_GT(latency->find("buckets")->items.size(), 0u);

  // A detail document round-trips too, with one compact row per shard.
  const auto detail_doc = nfv::util::json_parse(detailed, &error);
  ASSERT_TRUE(detail_doc.has_value()) << error << "\n" << detailed;
  const nfv::util::JsonValue* rows = detail_doc->find("shards");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->items.size(), 3u);
  for (std::size_t v = 0; v < 3; ++v) {
    const nfv::util::JsonValue& row = rows->items[v];
    // Rows come in shard id order.
    EXPECT_EQ(row.find("shard")->number, static_cast<double>(v));
    EXPECT_EQ(row.find("vpe")->number, static_cast<double>(v));
    EXPECT_EQ(row.find("lines")->number, 300.0);
    ASSERT_NE(row.find("warnings"), nullptr);
    ASSERT_NE(row.find("tree_bytes"), nullptr);
    EXPECT_EQ(row.find("latency"), nullptr);
    EXPECT_EQ(row.find("model"), nullptr);
  }
}

// The stats plane's cost grows with the work done, not with the fleet:
// for the same 40,000 lines, the default dump of a 10,000-shard runtime
// carries no shard rows, and with the sparse histogram bucket lists
// stripped (up to 48 entries per histogram; they follow the latency
// spread of the host, not the fleet) it stays within 2x of a 100-shard
// one's.
TEST(RuntimeStatsSnapshotTest, SummaryJsonSizeDoesNotGrowWithTheFleet) {
  constexpr std::size_t kTotalLines = 40000;
  StepDetector detector;
  AsyncIngestConfig config;
  config.workers = 2;
  std::size_t bytes[2] = {0, 0};
  const std::size_t fleets[2] = {100, 10000};
  for (int f = 0; f < 2; ++f) {
    AsyncIngest ingest(&detector, config);
    run_trace(ingest, fleets[f], kTotalLines / fleets[f]);
    const std::string json = ingest.stats_json();
    RuntimeStatsSnapshot snap = ingest.snapshot();
    ingest.stop();
    ASSERT_EQ(snap.shards.size(), fleets[f]);
    ASSERT_EQ(snap.totals.lines_scored, kTotalLines);

    std::string error;
    const auto doc = nfv::util::json_parse(json, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_TRUE(doc->find("shards")->items.empty());
    EXPECT_EQ(doc->find("workers")->items.size(), config.workers);
    EXPECT_LE(doc->find("latency")->find("buckets")->items.size(),
              LatencyHistogram::kBuckets);
    for (const nfv::util::JsonValue& worker : doc->find("workers")->items) {
      EXPECT_LE(worker.find("latency")->find("buckets")->items.size(),
                LatencyHistogram::kBuckets);
    }

    for (WorkerStatsSnapshot& worker : snap.workers) worker.latency = {};
    bytes[f] = to_json(snap).size();
  }
  EXPECT_LE(bytes[1], 2 * bytes[0])
      << "100 shards: " << bytes[0] << " B, 10k shards: " << bytes[1] << " B";
}

// Fleet-memory aggregates: the snapshot and its JSON dump must report
// the shared structures (arena, forest) exactly ONCE fleet-wide — never
// re-summed per shard — plus per-shard tree bytes and the combined
// bytes/vPE figure.
TEST(RuntimeStatsSnapshotTest, FleetMemoryAggregatesInSnapshotAndJson) {
  StepDetector detector;
  AsyncIngestConfig config;
  config.workers = 2;
  AsyncIngest ingest(&detector, config);
  StreamMonitorConfig monitor;
  monitor.threshold = 10.0;
  monitor.window = 4;
  for (std::size_t v = 0; v < 3; ++v) {
    ingest.add_shard(static_cast<std::int32_t>(v), monitor);
  }
  ingest.start();
  // Raw lines (not pre-parsed) so the shard trees actually mine and the
  // token arena fills.
  for (std::size_t i = 0; i < 200; ++i) {
    for (std::size_t v = 0; v < 3; ++v) {
      ingest.submit(v, nfv::util::SimTime{static_cast<std::int64_t>(i)},
                    "daemon restarted peer 10.0." + std::to_string(v) + "." +
                        std::to_string(i % 7) + " session up");
    }
  }
  ingest.flush();
  const RuntimeStatsSnapshot snap = ingest.snapshot();
  const std::string json = ingest.stats_json(/*shard_rows=*/true);
  ingest.stop();

  EXPECT_EQ(snap.memory.shards, 3u);
  std::uint64_t total = 0, max_tree = 0;
  for (const ShardStatsSnapshot& shard : snap.shards) {
    EXPECT_GT(shard.tree_bytes, 0u);
    total += shard.tree_bytes;
    max_tree = std::max(max_tree, shard.tree_bytes);
  }
  EXPECT_EQ(snap.memory.tree_bytes_total, total);
  EXPECT_EQ(snap.memory.tree_bytes_max, max_tree);
  ASSERT_NE(ingest.token_arena(), nullptr);
  EXPECT_GT(snap.memory.arena_tokens, 2u);
  EXPECT_GT(snap.memory.arena_bytes, 0u);
  ASSERT_NE(ingest.template_forest(), nullptr);
  EXPECT_GT(snap.memory.forest_templates, 0u);
  EXPECT_GT(snap.memory.forest_bytes, 0u);
  // Counted once: the aggregates are the live structures' own byte
  // counters, independent of the shard count.
  EXPECT_EQ(snap.memory.arena_bytes, ingest.token_arena()->bytes());
  EXPECT_EQ(snap.memory.forest_bytes, ingest.template_forest()->bytes());
  // bytes/vPE amortizes each shared structure exactly once over the
  // fleet: (arena + forest + per-shard trees) / shards.
  EXPECT_NEAR(snap.memory.bytes_per_vpe,
              static_cast<double>(snap.memory.arena_bytes +
                                  snap.memory.forest_bytes + total) /
                  3.0,
              1.0);

  std::string error;
  const auto doc = nfv::util::json_parse(json, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << json;
  const nfv::util::JsonValue* memory = doc->find("memory");
  ASSERT_NE(memory, nullptr);
  EXPECT_EQ(memory->find("forest_bytes")->number,
            static_cast<double>(snap.memory.forest_bytes));
  EXPECT_EQ(memory->find("forest_templates")->number,
            static_cast<double>(snap.memory.forest_templates));
  EXPECT_EQ(memory->find("tree_bytes_total")->number,
            static_cast<double>(total));
  // Round trip: the parsed bytes_per_vpe reproduces the once-counted
  // aggregate formula bit-for-bit within JSON double precision.
  EXPECT_NEAR(memory->find("bytes_per_vpe")->number,
              snap.memory.bytes_per_vpe, 1e-6);
  const nfv::util::JsonValue* shards = doc->find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->items.size(), 3u);
  for (const nfv::util::JsonValue& shard : shards->items) {
    EXPECT_GT(shard.find("tree_bytes")->number, 0.0);
  }
}

TEST(RuntimeStatsSnapshotTest, EmptySnapshotJsonRoundTripsWithFiniteFields) {
  // A default-constructed snapshot models a never-started / zero-shard
  // runtime: bytes_per_vpe must finalize to 0.0 (not NaN from 0/0) and
  // the JSON dump must parse cleanly with every field present.
  RuntimeStatsSnapshot empty;
  empty.memory.finalize_bytes_per_vpe();
  EXPECT_EQ(empty.memory.shards, 0u);
  EXPECT_EQ(empty.memory.bytes_per_vpe, 0.0);
  EXPECT_TRUE(std::isfinite(empty.memory.bytes_per_vpe));

  const std::string json = to_json(empty);
  std::string error;
  const auto doc = nfv::util::json_parse(json, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << json;
  const nfv::util::JsonValue* memory = doc->find("memory");
  ASSERT_NE(memory, nullptr);
  EXPECT_EQ(memory->find("bytes_per_vpe")->number, 0.0);
  const nfv::util::JsonValue* retrain = doc->find("retrain");
  ASSERT_NE(retrain, nullptr);
  EXPECT_FALSE(retrain->find("enabled")->boolean);
  EXPECT_EQ(retrain->find("samples_seen")->number, 0.0);
  EXPECT_EQ(retrain->find("swaps")->number, 0.0);
  EXPECT_EQ(retrain->find("train_seconds")->number, 0.0);
}

TEST(RuntimeStatsSnapshotTest, NonFiniteBytesPerVpeStillDumpsParseableJson) {
  // Belt and braces: even a hand-built snapshot carrying NaN/inf (the
  // old zero-shard division) must not poison the JSON document.
  for (const double poison : {std::nan(""),
                              std::numeric_limits<double>::infinity()}) {
    RuntimeStatsSnapshot snap;
    snap.memory.bytes_per_vpe = poison;
    std::string error;
    const auto doc = nfv::util::json_parse(to_json(snap), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->find("memory")->find("bytes_per_vpe")->number, 0.0);
  }
}

TEST(RuntimeStatsSnapshotTest, ConstructedButNeverStartedRuntimeSnapshots) {
  // An AsyncIngest that registered no shards and never started must
  // still produce a finite, parseable stats cut.
  LstmDetectorConfig config;
  config.window = 3;
  config.embed_dim = 4;
  config.hidden = 4;
  config.initial_epochs = 1;
  config.oversample = false;
  LstmDetector detector(config);
  std::vector<logproc::ParsedLog> stream;
  for (std::size_t i = 0; i < 60; ++i) {
    stream.push_back({nfv::util::SimTime{static_cast<std::int64_t>(i) * 30},
                      static_cast<std::int32_t>(i % 4)});
  }
  const std::vector<LogView> views{stream};
  detector.fit(views, 4);

  AsyncIngest ingest(&detector);
  const RuntimeStatsSnapshot snap = ingest.snapshot();
  EXPECT_EQ(snap.memory.shards, 0u);
  EXPECT_EQ(snap.memory.bytes_per_vpe, 0.0);
  EXPECT_TRUE(std::isfinite(snap.memory.bytes_per_vpe));
  std::string error;
  ASSERT_TRUE(nfv::util::json_parse(ingest.stats_json(), &error).has_value())
      << error;
}

}  // namespace
}  // namespace nfv::core
