// Async streaming ingest runtime: the per-vPE warning stream produced by
// AsyncIngest must be byte-for-byte the serial StreamMonitor replay for
// ANY worker count / flush batch / deadline (deterministic mode), from
// raw lines and from the same lines pre-mined (submit_parsed), lines
// must survive tiny-queue backpressure losslessly, multiple producers may
// feed the runtime concurrently, and the epoch-barrier detector swap must
// match a serial swap at the same stream position. Runs under TSan via
// tools/ci.sh (ctest -L concurrency).
#include "core/async_ingest.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/lstm_detector.h"
#include "logproc/signature_tree.h"
#include "util/check.h"
#include "util/stats.h"

namespace nfv::core {
namespace {

using logproc::ParsedLog;
using logproc::SignatureTree;
using nfv::util::SimTime;

constexpr std::size_t kVpes = 4;
constexpr std::size_t kTrainShapes = 8;  // shapes 8 and 9 are anomalies
constexpr std::size_t kTrainLen = 400;
constexpr std::size_t kTestLen = 240;
constexpr std::int64_t kStepSeconds = 30;

// Alphabetic head tokens: digit-bearing tokens are masked to wildcards by
// the tokenizer, so "procN" heads would all merge into one template. A
// distinct letters-only head per shape guarantees one template per shape
// (the tree leaves are keyed by the first stable token).
std::string make_line(std::size_t shape, std::size_t salt) {
  static const char* kShapeNames[] = {"alpha",   "bravo", "charlie", "delta",
                                      "echo",    "golf",  "hotel",   "kilo",
                                      "oscar",   "tango"};
  return std::string(kShapeNames[shape]) + " event code " +
         std::to_string(salt);
}

/// Prime only the TRAINING shapes: the anomaly shapes stay unknown and
/// are mined online during the test, landing on ids >= the model vocab —
/// the deterministic unknown-template score path.
void prime_tree(SignatureTree& tree) {
  for (std::size_t shape = 0; shape < kTrainShapes; ++shape) {
    tree.learn(make_line(shape, 0));
  }
}

std::size_t train_shape(std::size_t vpe, std::size_t i) {
  return (i * 7 + vpe * 3 + i / 31) % 8;  // only shapes 0..7 in training
}

std::size_t test_shape(std::size_t vpe, std::size_t i) {
  // Pairs of never-seen shapes → ≥2-within-2-minutes warning clusters.
  if (i % 83 == 40 || i % 83 == 41) return 8 + (vpe % 2);
  return train_shape(vpe, i);
}

SimTime line_time(std::size_t i) {
  return SimTime{static_cast<std::int64_t>(i) * kStepSeconds};
}

LstmDetector train_detector(std::uint64_t seed) {
  SignatureTree train_tree;
  prime_tree(train_tree);
  std::vector<std::vector<ParsedLog>> train_streams(kVpes);
  for (std::size_t v = 0; v < kVpes; ++v) {
    for (std::size_t i = 0; i < kTrainLen; ++i) {
      ParsedLog log;
      log.time = line_time(i);
      log.template_id = train_tree.learn(make_line(train_shape(v, i), i));
      train_streams[v].push_back(log);
    }
  }
  LstmDetectorConfig config;
  config.window = 4;
  config.embed_dim = 8;
  config.hidden = 8;
  config.initial_epochs = 2;
  config.max_train_windows = 1200;
  config.oversample = false;
  config.seed = seed;
  LstmDetector detector(config);
  std::vector<LogView> views(train_streams.begin(), train_streams.end());
  detector.fit(views, train_tree.size());
  return detector;
}

double operating_threshold(const LstmDetector& detector) {
  std::vector<double> scores;
  for (std::size_t v = 0; v < kVpes; ++v) {
    std::vector<ParsedLog> stream;
    SignatureTree tree;
    prime_tree(tree);
    for (std::size_t i = 0; i < kTrainLen; ++i) {
      stream.push_back(
          {line_time(i), tree.learn(make_line(train_shape(v, i), i))});
    }
    for (const ScoredEvent& event : detector.score(stream, tree.size())) {
      scores.push_back(event.score);
    }
  }
  return nfv::util::quantile(scores, 0.995);
}

StreamMonitorConfig monitor_config(double threshold) {
  StreamMonitorConfig config;
  config.threshold = threshold;
  config.window = 4;
  return config;
}

/// Serial reference: one StreamMonitor per vPE, raw lines in order, with
/// an optional detector swap after `swap_at` lines.
std::vector<std::vector<StreamWarning>> serial_replay(
    const AnomalyDetector& detector, double threshold,
    const AnomalyDetector* swap_to = nullptr, std::size_t swap_at = 0) {
  std::vector<std::vector<StreamWarning>> warnings(kVpes);
  for (std::size_t v = 0; v < kVpes; ++v) {
    SignatureTree tree;
    prime_tree(tree);
    StreamMonitor monitor(static_cast<std::int32_t>(v), &detector, &tree,
                          monitor_config(threshold),
                          [&warnings, v](const StreamWarning& warning) {
                            warnings[v].push_back(warning);
                          });
    for (std::size_t i = 0; i < kTestLen; ++i) {
      if (swap_to != nullptr && i == swap_at) monitor.set_detector(swap_to);
      monitor.ingest(line_time(i), make_line(test_shape(v, i), i));
    }
  }
  return warnings;
}

void expect_same_warnings(
    const std::vector<std::vector<StreamWarning>>& serial,
    const std::vector<StreamWarning>& drained, const std::string& label) {
  const std::vector<StreamWarning> merged =
      merge_warnings_by_vpe(drained);  // stable: per-vPE order untouched
  std::size_t serial_total = 0;
  for (const auto& per_vpe : serial) serial_total += per_vpe.size();
  ASSERT_EQ(merged.size(), serial_total) << label;
  std::size_t at = 0;
  for (std::size_t v = 0; v < serial.size(); ++v) {
    for (std::size_t w = 0; w < serial[v].size(); ++w, ++at) {
      const StreamWarning& expected = serial[v][w];
      const StreamWarning& actual = merged[at];
      ASSERT_EQ(actual.vpe, expected.vpe) << label;
      ASSERT_EQ(actual.time.seconds, expected.time.seconds)
          << label << " vpe " << v << " warning " << w;
      ASSERT_EQ(actual.anomaly_count, expected.anomaly_count)
          << label << " vpe " << v << " warning " << w;
      ASSERT_EQ(actual.peak_score, expected.peak_score)
          << label << " vpe " << v << " warning " << w;
      ASSERT_EQ(actual.trigger_template, expected.trigger_template)
          << label << " vpe " << v << " warning " << w;
    }
  }
}

struct AsyncIngestTest : ::testing::Test {
  static const LstmDetector& detector() {
    static const LstmDetector d = train_detector(1234);
    return d;
  }
  static const LstmDetector& updated_detector() {
    static const LstmDetector d = train_detector(99);
    return d;
  }
  static double threshold() {
    static const double t = operating_threshold(detector());
    return t;
  }
};

TEST_F(AsyncIngestTest, WarningStreamDeterministicForAnyWorkerCount) {
  const auto serial = serial_replay(detector(), threshold());
  std::size_t serial_total = 0;
  for (const auto& per_vpe : serial) serial_total += per_vpe.size();
  ASSERT_GT(serial_total, 0u) << "vacuous comparison";

  // The same lines pre-mined by a primed tree, for the submit_parsed input.
  std::vector<std::vector<ParsedLog>> mined(kVpes);
  for (std::size_t v = 0; v < kVpes; ++v) {
    SignatureTree tree;
    prime_tree(tree);
    for (std::size_t i = 0; i < kTestLen; ++i) {
      mined[v].push_back(
          {line_time(i), tree.learn(make_line(test_shape(v, i), i))});
    }
  }

  struct Variant {
    std::size_t workers;
    std::size_t flush_batch;
    std::chrono::microseconds deadline;
  };
  const std::vector<Variant> variants = {
      {1, 1, std::chrono::microseconds(0)},
      {2, 32, std::chrono::microseconds(2000)},
      {3, 7, std::chrono::microseconds(0)},
      {4, 256, std::chrono::microseconds(500)},
  };
  for (const bool parsed : {false, true}) {
    for (const Variant& variant : variants) {
      AsyncIngestConfig config;
      config.workers = variant.workers;
      config.flush_batch = variant.flush_batch;
      config.flush_deadline = variant.deadline;
      config.queue_capacity = 64;
      AsyncIngest ingest(&detector(), config);
      for (std::size_t v = 0; v < kVpes; ++v) {
        const std::size_t shard = ingest.add_shard(
            static_cast<std::int32_t>(v), monitor_config(threshold()));
        ASSERT_EQ(shard, v);
        prime_tree(ingest.mutable_tree(shard));
      }
      ingest.start();
      // One producer, lines interleaved across vPEs in global arrival
      // order (per-vPE order is what determinism is defined over).
      for (std::size_t i = 0; i < kTestLen; ++i) {
        for (std::size_t v = 0; v < kVpes; ++v) {
          if (parsed) {
            ingest.submit_parsed(v, mined[v][i]);
          } else {
            ingest.submit(v, line_time(i), make_line(test_shape(v, i), i));
          }
        }
      }
      ingest.flush();
      ingest.stop();
      std::vector<StreamWarning> drained;
      ingest.drain_warnings(drained);
      const std::string label =
          std::string(parsed ? "parsed" : "raw") +
          " workers=" + std::to_string(variant.workers) +
          " flush_batch=" + std::to_string(variant.flush_batch);
      expect_same_warnings(serial, drained, label);
      const AsyncIngestStats stats = ingest.stats();
      EXPECT_EQ(stats.lines_submitted, kTestLen * kVpes) << label;
      EXPECT_EQ(stats.lines_scored, kTestLen * kVpes) << label;
    }
  }
}

TEST_F(AsyncIngestTest, ConcurrentProducersPreservePerVpeDeterminism) {
  const auto serial = serial_replay(detector(), threshold());

  AsyncIngestConfig config;
  config.workers = 2;
  config.flush_batch = 16;
  config.queue_capacity = 32;
  AsyncIngest ingest(&detector(), config);
  for (std::size_t v = 0; v < kVpes; ++v) {
    prime_tree(ingest.mutable_tree(ingest.add_shard(
        static_cast<std::int32_t>(v), monitor_config(threshold()))));
  }
  ingest.start();

  // One producer thread per vPE: cross-vPE interleaving is scheduler
  // chaos, per-vPE submission order is fixed — which is all the
  // determinism contract needs.
  std::vector<std::thread> producers;
  for (std::size_t v = 0; v < kVpes; ++v) {
    producers.emplace_back([&ingest, v] {
      for (std::size_t i = 0; i < kTestLen; ++i) {
        ingest.submit(v, line_time(i), make_line(test_shape(v, i), i));
      }
    });
  }
  for (auto& producer : producers) producer.join();
  ingest.flush();
  ingest.stop();

  std::vector<StreamWarning> drained;
  ingest.drain_warnings(drained);
  expect_same_warnings(serial, drained, "multi-producer");
}

TEST_F(AsyncIngestTest, TinyQueueBackpressureLosesNothing) {
  const auto serial = serial_replay(detector(), threshold());

  AsyncIngestConfig config;
  config.workers = 1;
  config.queue_capacity = 2;  // constant backpressure
  config.flush_batch = 1024;  // flush only on queue-empty / deadline
  config.flush_deadline = std::chrono::microseconds(0);
  config.warning_capacity = 2;  // force the lossless warning spillover too
  AsyncIngest ingest(&detector(), config);
  for (std::size_t v = 0; v < kVpes; ++v) {
    prime_tree(ingest.mutable_tree(ingest.add_shard(
        static_cast<std::int32_t>(v), monitor_config(threshold()))));
  }
  ingest.start();

  // Mix non-blocking and blocking submission: a rejected try_submit falls
  // back to the blocking path, so every line still arrives, in order.
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kTestLen; ++i) {
    for (std::size_t v = 0; v < kVpes; ++v) {
      if (!ingest.try_submit(v, line_time(i),
                             make_line(test_shape(v, i), i))) {
        ++rejected;
        ingest.submit(v, line_time(i), make_line(test_shape(v, i), i));
      }
    }
  }
  ingest.flush();
  const AsyncIngestStats stats = ingest.stats();
  EXPECT_EQ(stats.lines_submitted, kTestLen * kVpes);
  EXPECT_EQ(stats.lines_scored, kTestLen * kVpes);
  EXPECT_EQ(stats.rejected_submits, rejected);
  ingest.stop();

  std::vector<StreamWarning> drained;
  ingest.drain_warnings(drained);
  expect_same_warnings(serial, drained, "backpressure");
}

TEST_F(AsyncIngestTest, EpochBarrierDetectorSwapMatchesSerialSwap) {
  constexpr std::size_t kSwapAt = kTestLen / 2;
  const auto serial =
      serial_replay(detector(), threshold(), &updated_detector(), kSwapAt);

  AsyncIngestConfig config;
  config.workers = 3;
  config.flush_batch = 16;
  config.queue_capacity = 64;
  AsyncIngest ingest(&detector(), config);
  for (std::size_t v = 0; v < kVpes; ++v) {
    prime_tree(ingest.mutable_tree(ingest.add_shard(
        static_cast<std::int32_t>(v), monitor_config(threshold()))));
  }
  ingest.start();
  for (std::size_t i = 0; i < kTestLen; ++i) {
    if (i == kSwapAt) {
      // Quiesces every worker between micro-batches: all pre-swap lines
      // are scored by the old model, all post-swap lines by the new one —
      // exactly the serial set_detector at the same position.
      ingest.swap_detector(&updated_detector());
    }
    for (std::size_t v = 0; v < kVpes; ++v) {
      ingest.submit(v, line_time(i), make_line(test_shape(v, i), i));
    }
  }
  ingest.flush();
  ingest.stop();

  std::vector<StreamWarning> drained;
  ingest.drain_warnings(drained);
  expect_same_warnings(serial, drained, "detector swap");
}

TEST_F(AsyncIngestTest, PauseResumeMidStormKeepsWarningStreamIdentical) {
  const auto serial = serial_replay(detector(), threshold());

  AsyncIngestConfig config;
  config.workers = 2;
  config.flush_batch = 16;
  config.queue_capacity = 256;
  AsyncIngest ingest(&detector(), config);
  for (std::size_t v = 0; v < kVpes; ++v) {
    prime_tree(ingest.mutable_tree(ingest.add_shard(
        static_cast<std::int32_t>(v), monitor_config(threshold()))));
  }
  ingest.start();

  constexpr std::size_t kPauseAt = kTestLen / 2;
  for (std::size_t i = 0; i < kPauseAt; ++i) {
    for (std::size_t v = 0; v < kVpes; ++v) {
      ingest.submit(v, line_time(i), make_line(test_shape(v, i), i));
    }
  }
  // Pause two shards (one per worker) mid-storm and keep the firehose
  // running: their lines are parked in order, everyone else's flow. The
  // flush first pins the pause position — without it, first-half lines
  // still sitting in the queues would (correctly, but unpredictably for
  // the held-gauge assertions below) be parked too.
  ingest.flush();
  ingest.pause_shard(0);
  ingest.pause_shard(1);
  ingest.wait_commands();
  EXPECT_TRUE(ingest.shard_paused(0));
  EXPECT_TRUE(ingest.shard_paused(1));
  EXPECT_FALSE(ingest.shard_paused(2));

  for (std::size_t i = kPauseAt; i < kTestLen; ++i) {
    for (std::size_t v = 0; v < kVpes; ++v) {
      ingest.submit(v, line_time(i), make_line(test_shape(v, i), i));
    }
  }
  // flush() drains the queues, which parks paused shards' lines in their
  // hold buffers — observable in the snapshot's held gauge.
  ingest.flush();
  const RuntimeStatsSnapshot paused = ingest.snapshot();
  EXPECT_EQ(paused.shards[0].held, kTestLen - kPauseAt);
  EXPECT_EQ(paused.shards[1].held, kTestLen - kPauseAt);
  EXPECT_EQ(paused.shards[2].held, 0u);
  EXPECT_TRUE(paused.shards[0].paused);

  ingest.resume_shard(0);
  ingest.resume_shard(1);
  ingest.wait_commands();
  EXPECT_FALSE(ingest.shard_paused(0));
  EXPECT_FALSE(ingest.shard_paused(1));
  ingest.flush();
  const RuntimeStatsSnapshot resumed = ingest.snapshot();
  EXPECT_EQ(resumed.shards[0].held, 0u);
  EXPECT_EQ(resumed.totals.lines_scored, kTestLen * kVpes);
  ingest.stop();

  std::vector<StreamWarning> drained;
  ingest.drain_warnings(drained);
  expect_same_warnings(serial, drained, "pause-resume");
}

TEST_F(AsyncIngestTest, SwapDetectorWhileShardsPausedScoresHeldLinesWithNewModel) {
  constexpr std::size_t kSwapAt = kTestLen / 2;
  // Serial reference: detector swapped at the pause position — held lines
  // must be scored by the NEW model, exactly as if the swap happened
  // before they were ingested.
  const auto serial =
      serial_replay(detector(), threshold(), &updated_detector(), kSwapAt);

  AsyncIngestConfig config;
  config.workers = 3;
  config.flush_batch = 8;
  config.queue_capacity = 256;
  AsyncIngest ingest(&detector(), config);
  for (std::size_t v = 0; v < kVpes; ++v) {
    prime_tree(ingest.mutable_tree(ingest.add_shard(
        static_cast<std::int32_t>(v), monitor_config(threshold()))));
  }
  ingest.start();

  for (std::size_t i = 0; i < kSwapAt; ++i) {
    for (std::size_t v = 0; v < kVpes; ++v) {
      ingest.submit(v, line_time(i), make_line(test_shape(v, i), i));
    }
  }
  ingest.flush();  // old model has scored everything submitted so far
  for (std::size_t v = 0; v < kVpes; ++v) ingest.pause_shard(v);
  ingest.wait_commands();

  // Second half arrives while every shard is paused: all parked.
  for (std::size_t i = kSwapAt; i < kTestLen; ++i) {
    for (std::size_t v = 0; v < kVpes; ++v) {
      ingest.submit(v, line_time(i), make_line(test_shape(v, i), i));
    }
  }
  ingest.flush();  // drain queues into the hold buffers
  const RuntimeStatsSnapshot held = ingest.snapshot();
  for (std::size_t v = 0; v < kVpes; ++v) {
    EXPECT_EQ(held.shards[v].held, kTestLen - kSwapAt) << "shard " << v;
  }

  // Swap while paused: the epoch barrier still works (paused shards hold
  // their lines OUTSIDE the monitors, nothing is staged).
  ingest.swap_detector(&updated_detector());
  for (std::size_t v = 0; v < kVpes; ++v) ingest.resume_shard(v);
  ingest.wait_commands();
  ingest.flush();
  ingest.stop();

  std::vector<StreamWarning> drained;
  ingest.drain_warnings(drained);
  expect_same_warnings(serial, drained, "swap-while-paused");
  const AsyncIngestStats stats = ingest.stats();
  EXPECT_EQ(stats.lines_scored, kTestLen * kVpes);
}

TEST_F(AsyncIngestTest, StatsDumpRacesIngestFlushAndShutdownSafely) {
  AsyncIngestConfig config;
  config.workers = 2;
  config.flush_batch = 8;
  config.queue_capacity = 64;
  AsyncIngest ingest(&detector(), config);
  for (std::size_t v = 0; v < kVpes; ++v) {
    prime_tree(ingest.mutable_tree(ingest.add_shard(
        static_cast<std::int32_t>(v), monitor_config(threshold()))));
  }
  ingest.start();

  // Reader hammers the snapshot/JSON path concurrently with ingestion, a
  // detector swap, pause/resume AND stop() — the seqlock must hand back
  // epoch-consistent cuts throughout (TSan-checked via ctest -L
  // concurrency).
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const RuntimeStatsSnapshot snap = ingest.snapshot();
      for (const WorkerStatsSnapshot& worker : snap.workers) {
        // Epoch consistency: a worker's published histogram only counts
        // lines that were already counted as ingested in the same cut.
        EXPECT_LE(worker.latency.total(), worker.lines)
            << "worker " << worker.worker;
      }
      EXPECT_FALSE(ingest.stats_json().empty());
    }
  });

  for (std::size_t i = 0; i < kTestLen; ++i) {
    if (i == kTestLen / 3) ingest.pause_shard(0);
    if (i == kTestLen / 2) {
      ingest.resume_shard(0);
      ingest.swap_detector(&updated_detector());
    }
    for (std::size_t v = 0; v < kVpes; ++v) {
      ingest.submit(v, line_time(i), make_line(test_shape(v, i), i));
    }
  }
  ingest.flush();
  ingest.stop();  // reader keeps snapshotting straight through this
  done.store(true, std::memory_order_release);
  reader.join();

  const RuntimeStatsSnapshot final_snap = ingest.snapshot();
  EXPECT_EQ(final_snap.totals.lines_submitted, kTestLen * kVpes);
  EXPECT_EQ(final_snap.totals.lines_scored, kTestLen * kVpes);
  std::uint64_t lines = 0;
  for (const ShardStatsSnapshot& shard : final_snap.shards) {
    EXPECT_FALSE(shard.paused);
    EXPECT_EQ(shard.held, 0u);
    lines += shard.lines;
  }
  EXPECT_EQ(lines, kTestLen * kVpes);
}

// A publish only rewrites the shards touched since the previous one, so
// every way a shard's published values can change must put it on the
// worker's dirty list: staging a line, scoring it, holding it, and a
// pause/resume or stop()'s force-resume. A sparse, shifting subset of a
// 1k-shard fleet leaves most slots untouched for the whole run; each
// check below goes stale if one of those paths stops listing its shard.
TEST_F(AsyncIngestTest, DirtyListPublishKeepsEveryShardSlotCurrent) {
  constexpr std::size_t kShards = 1024;
  AsyncIngestConfig config;
  config.workers = 1;
  config.flush_batch = 16;
  // Batches flush only when full or at a barrier, so staged lines can sit
  // across an idle publish.
  config.flush_deadline = std::chrono::hours(1);
  config.queue_capacity = 256;
  AsyncIngest ingest(&detector(), config);
  for (std::size_t s = 0; s < kShards; ++s) {
    prime_tree(ingest.mutable_tree(ingest.add_shard(
        static_cast<std::int32_t>(s), monitor_config(threshold()))));
  }
  ingest.start();

  std::vector<std::size_t> next(kShards, 0);  // lines submitted per shard
  const auto submit = [&](std::size_t s, std::size_t count) {
    for (std::size_t n = 0; n < count; ++n, ++next[s]) {
      ingest.submit(s, line_time(next[s]), make_line(test_shape(s, next[s]),
                                                     next[s]));
    }
  };

  // Every cut a concurrent reader takes must account each line the worker
  // counted to exactly one shard.
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> bad_cuts{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const RuntimeStatsSnapshot snap = ingest.snapshot();
      std::uint64_t lines = 0;
      for (const ShardStatsSnapshot& shard : snap.shards) lines += shard.lines;
      if (lines != snap.workers[0].lines) {
        bad_cuts.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // Shifting subset: 8 shards at a time, each kept for 6 rounds of 8 lines
  // (enough to pass the anomaly pairs at lines 40-41 of its stream).
  for (std::size_t round = 0; round < 48; ++round) {
    const std::size_t group = round / 6;
    for (std::size_t line = 0; line < 8; ++line) {
      for (std::size_t k = 0; k < 8; ++k) {
        submit((group * 61 + k * 127 + 5) % kShards, 1);
      }
    }
  }
  ingest.flush();

  constexpr std::size_t kPaused = 1;   // lines held while the worker idles
  constexpr std::size_t kStaged = 2;   // lines staged across that idle
  constexpr std::size_t kToggled = 3;  // paused and resumed, no lines
  constexpr std::size_t kStopped = 4;  // still paused at stop()
  constexpr std::size_t kHeld = 5;
  ingest.pause_shard(kPaused);
  ingest.wait_commands();
  EXPECT_TRUE(ingest.snapshot().shards[kPaused].paused);

  submit(kStaged, 3);
  submit(kPaused, kHeld);
  // Nothing flushes (batch not full, deadline far off), so only the idle
  // publish can show the held gauge — in the same cut as the staged lines.
  RuntimeStatsSnapshot idle;
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(10);
  do {
    idle = ingest.snapshot();
  } while (idle.shards[kPaused].held != kHeld &&
           std::chrono::steady_clock::now() < give_up);
  EXPECT_EQ(idle.shards[kPaused].held, kHeld)
      << "held gauge not published while the worker idles";
  EXPECT_EQ(idle.shards[kStaged].lines, next[kStaged]);

  // After a barrier every slot equals what its monitor and tree hold: the
  // monitor's warning count is the number of warnings it published.
  std::vector<StreamWarning> drained;
  std::vector<std::uint64_t> warnings(kShards, 0);
  const auto expect_slots_current = [&](const std::string& label,
                                        std::size_t paused_held) {
    ingest.drain_warnings(drained);
    for (const StreamWarning& warning : drained) {
      ++warnings[static_cast<std::size_t>(warning.vpe)];
    }
    drained.clear();
    const RuntimeStatsSnapshot snap = ingest.snapshot();
    for (std::size_t s = 0; s < kShards; ++s) {
      const ShardStatsSnapshot& shard = snap.shards[s];
      const std::size_t held = s == kPaused ? paused_held : 0;
      ASSERT_EQ(shard.held, held) << label << " shard " << s;
      ASSERT_EQ(shard.lines, next[s] - held) << label << " shard " << s;
      ASSERT_EQ(shard.warnings, warnings[s]) << label << " shard " << s;
      ASSERT_EQ(shard.tree_bytes, ingest.tree(s).memory_bytes())
          << label << " shard " << s;
    }
    // The one worker's histogram counts every line it scored, and those
    // are all the runtime scored.
    ASSERT_EQ(snap.workers.size(), 1u);
    ASSERT_EQ(snap.workers[0].latency.total(), snap.workers[0].lines)
        << label;
    ASSERT_EQ(snap.workers[0].latency.total(), snap.totals.lines_scored)
        << label;
  };
  ingest.flush();
  expect_slots_current("after flush", kHeld);

  ingest.pause_shard(kToggled);
  ingest.wait_commands();
  EXPECT_TRUE(ingest.shard_paused(kToggled));
  ingest.resume_shard(kToggled);
  ingest.resume_shard(kPaused);
  ingest.pause_shard(kStopped);
  ingest.wait_commands();
  EXPECT_FALSE(ingest.shard_paused(kToggled));
  EXPECT_TRUE(ingest.shard_paused(kStopped));

  ingest.flush();
  ingest.stop();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(bad_cuts.load(), 0u);

  expect_slots_current("after stop", 0);
  EXPECT_FALSE(ingest.snapshot().shards[kStopped].paused);
  std::uint64_t total_warnings = 0;
  for (const std::uint64_t count : warnings) total_warnings += count;
  EXPECT_GT(total_warnings, 0u) << "vacuous warning comparison";
}

// A negative parsed template id is refused on the producer's thread,
// before it is counted or queued: on a worker it would reach the scorer's
// id check with no caller to throw to and end the process. The lines
// around it keep the serial replay's warning stream, and the immediate
// and micro-batched front-ends refuse it the same way.
TEST_F(AsyncIngestTest, NegativeParsedTemplateIdThrowsOnCaller) {
  const auto serial = serial_replay(detector(), threshold());
  std::vector<std::vector<ParsedLog>> mined(kVpes);
  for (std::size_t v = 0; v < kVpes; ++v) {
    SignatureTree tree;
    prime_tree(tree);
    for (std::size_t i = 0; i < kTestLen; ++i) {
      mined[v].push_back(
          {line_time(i), tree.learn(make_line(test_shape(v, i), i))});
    }
  }

  AsyncIngestConfig config;
  config.workers = 2;
  config.flush_batch = 16;
  AsyncIngest ingest(&detector(), config);
  for (std::size_t v = 0; v < kVpes; ++v) {
    prime_tree(ingest.mutable_tree(ingest.add_shard(
        static_cast<std::int32_t>(v), monitor_config(threshold()))));
  }
  ingest.start();
  for (std::size_t i = 0; i < kTestLen; ++i) {
    if (i == kTestLen / 2) {
      const std::uint64_t submitted = ingest.stats().lines_submitted;
      EXPECT_THROW(ingest.submit_parsed(1, {line_time(i), -1}),
                   nfv::util::CheckError);
      EXPECT_EQ(ingest.stats().lines_submitted, submitted);
    }
    for (std::size_t v = 0; v < kVpes; ++v) {
      ingest.submit_parsed(v, mined[v][i]);
    }
  }
  ingest.flush();
  ingest.stop();
  std::vector<StreamWarning> drained;
  ingest.drain_warnings(drained);
  expect_same_warnings(serial, drained, "negative id refused");
  const AsyncIngestStats stats = ingest.stats();
  EXPECT_EQ(stats.lines_submitted, kTestLen * kVpes);
  EXPECT_EQ(stats.lines_scored, kTestLen * kVpes);

  SignatureTree tree;
  StreamMonitor monitor(0, &detector(), &tree, monitor_config(threshold()),
                        [](const StreamWarning&) {});
  for (std::size_t i = 0; i < 6; ++i) monitor.ingest_parsed(mined[0][i]);
  EXPECT_THROW(monitor.ingest_parsed({line_time(6), -1}),
               nfv::util::CheckError);
  EXPECT_EQ(monitor.lines_ingested(), 6u);
  StreamMonitorGroup group(&detector());
  group.add(&monitor);
  EXPECT_THROW(group.ingest_parsed(0, {line_time(6), -1}),
               nfv::util::CheckError);
  EXPECT_EQ(group.pending(), 0u);
}

}  // namespace
}  // namespace nfv::core
