#include "core/streaming.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/async_ingest.h"
#include "core/feature_detectors.h"
#include "core/hmm_detector.h"
#include "core/lstm_detector.h"
#include "util/check.h"

namespace nfv::core {
namespace {

using logproc::ParsedLog;
using nfv::util::Duration;
using nfv::util::SimTime;

std::vector<ParsedLog> motif_stream(std::size_t cycles,
                                    std::int64_t start_s = 0) {
  std::vector<ParsedLog> logs;
  std::int64_t t = start_s;
  for (std::size_t c = 0; c < cycles; ++c) {
    for (std::int32_t id = 0; id < 4; ++id) {
      logs.push_back({SimTime{t}, id});
      t += 60;
    }
  }
  return logs;
}

struct StreamingFixture : ::testing::Test {
  LstmDetector detector;
  logproc::SignatureTree tree;

  StreamingFixture() : detector(make_config()) {
    const auto train = motif_stream(150);
    const LogView view{train};
    detector.fit({&view, 1}, 8);
  }

  static LstmDetectorConfig make_config() {
    LstmDetectorConfig config;
    config.window = 4;
    config.hidden = 16;
    config.embed_dim = 8;
    config.initial_epochs = 6;
    return config;
  }

  StreamMonitorConfig monitor_config(double threshold) const {
    StreamMonitorConfig config;
    config.threshold = threshold;
    config.window = 4;
    return config;
  }
};

TEST_F(StreamingFixture, NormalStreamRaisesNothing) {
  std::vector<StreamWarning> warnings;
  StreamMonitor monitor(0, &detector, &tree, monitor_config(15.0),
                        [&](const StreamWarning& w) { warnings.push_back(w); });
  for (const ParsedLog& log : motif_stream(30, 100000)) {
    monitor.ingest_parsed(log);
  }
  EXPECT_TRUE(warnings.empty());
  EXPECT_EQ(monitor.warnings_raised(), 0u);
}

TEST_F(StreamingFixture, AnomalyBurstRaisesOneWarning) {
  std::vector<StreamWarning> warnings;
  StreamMonitor monitor(3, &detector, &tree, monitor_config(15.0),
                        [&](const StreamWarning& w) { warnings.push_back(w); });
  auto stream = motif_stream(20, 100000);
  // Burst of a template unknown to the model (id 9 >= vocab 8), seconds
  // apart — deterministic unknown-score path.
  const SimTime burst_at = stream[40].time;
  stream.insert(stream.begin() + 41,
                {{burst_at + Duration::of_seconds(5), 9},
                 {burst_at + Duration::of_seconds(20), 9},
                 {burst_at + Duration::of_seconds(40), 9}});
  for (const ParsedLog& log : stream) monitor.ingest_parsed(log);
  ASSERT_EQ(warnings.size(), 1u);  // one cluster, not three alerts
  EXPECT_EQ(warnings[0].vpe, 3);
  EXPECT_EQ(warnings[0].time, burst_at + Duration::of_seconds(5));
  EXPECT_GE(warnings[0].anomaly_count, 2u);
  EXPECT_GT(warnings[0].peak_score, 15.0);
}

TEST_F(StreamingFixture, IsolatedAnomalyStaysSilent) {
  // A single over-threshold event with nothing following within the
  // cluster span stays below the ≥2 rule. (The anomaly is the stream's
  // last event: any *follow-up* log would carry the unknown template in
  // its history window and legitimately extend the anomaly run.)
  std::vector<StreamWarning> warnings;
  StreamMonitor monitor(0, &detector, &tree, monitor_config(15.0),
                        [&](const StreamWarning& w) { warnings.push_back(w); });
  auto stream = motif_stream(20, 100000);
  stream.push_back({stream.back().time + Duration::of_seconds(5), 9});
  for (const ParsedLog& log : stream) monitor.ingest_parsed(log);
  EXPECT_TRUE(warnings.empty());
}

TEST_F(StreamingFixture, RawLinesMineTemplatesOnline) {
  std::vector<StreamWarning> warnings;
  StreamMonitor monitor(0, &detector, &tree, monitor_config(1e9),
                        [&](const StreamWarning& w) { warnings.push_back(w); });
  std::int64_t t = 0;
  for (int i = 0; i < 10; ++i) {
    monitor.ingest(SimTime{t += 60},
                   "rpd[100]: keepalive exchange with 10.0.0." +
                       std::to_string(i) + " ok");
  }
  EXPECT_GE(tree.size(), 1u);
  EXPECT_TRUE(warnings.empty());
}

TEST_F(StreamingFixture, DetectorSwapKeepsHistory) {
  StreamMonitor monitor(0, &detector, &tree, monitor_config(15.0), nullptr);
  const auto stream = motif_stream(10, 100000);
  for (const ParsedLog& log : stream) monitor.ingest_parsed(log);
  // Swapping in the same detector must not throw and scoring continues.
  monitor.set_detector(&detector);
  EXPECT_NO_THROW(monitor.ingest_parsed(
      {stream.back().time + Duration::of_seconds(60), 0}));
}

TEST_F(StreamingFixture, NullArgumentsRejected) {
  EXPECT_THROW(
      StreamMonitor(0, nullptr, &tree, monitor_config(1.0), nullptr),
      nfv::util::CheckError);
  EXPECT_THROW(
      StreamMonitor(0, &detector, nullptr, monitor_config(1.0), nullptr),
      nfv::util::CheckError);
}

TEST(OperationalScenario, Classification) {
  MappedAnomaly anomaly;
  anomaly.outcome = AnomalyOutcome::kError;
  EXPECT_EQ(classify_scenario(anomaly),
            OperationalScenario::kPartOfTrigger);
  anomaly.outcome = AnomalyOutcome::kFalseAlarm;
  EXPECT_EQ(classify_scenario(anomaly), OperationalScenario::kCoincidental);
  anomaly.outcome = AnomalyOutcome::kEarlyWarning;
  anomaly.lead = Duration::of_minutes(30);
  EXPECT_EQ(classify_scenario(anomaly),
            OperationalScenario::kPredictiveSignal);
  anomaly.lead = Duration::of_minutes(5);
  EXPECT_EQ(classify_scenario(anomaly),
            OperationalScenario::kEarlyDetection);
}

TEST(OperationalScenario, HistogramCountsAll) {
  MappingResult mapping;
  MappedAnomaly a;
  a.outcome = AnomalyOutcome::kError;
  mapping.anomalies.push_back(a);
  a.outcome = AnomalyOutcome::kFalseAlarm;
  mapping.anomalies.push_back(a);
  a.outcome = AnomalyOutcome::kEarlyWarning;
  a.lead = Duration::of_hours(1);
  mapping.anomalies.push_back(a);
  const auto histogram = scenario_histogram(mapping);
  ASSERT_EQ(histogram.size(), 4u);
  std::size_t total = 0;
  for (std::size_t count : histogram) total += count;
  EXPECT_EQ(total, mapping.anomalies.size());
  EXPECT_EQ(histogram[static_cast<std::size_t>(
                OperationalScenario::kPredictiveSignal)],
            1u);
}

TEST(OperationalScenario, Names) {
  EXPECT_STREQ(to_string(OperationalScenario::kPredictiveSignal),
               "predictive-signal");
  EXPECT_STREQ(to_string(OperationalScenario::kCoincidental),
               "coincidental");
}

TEST_F(StreamingFixture, SaveLoadRoundTripScoresIdentically) {
  std::stringstream stream;
  detector.save(stream);
  const LstmDetector restored = LstmDetector::load(stream);
  ASSERT_TRUE(restored.trained());
  const auto test = motif_stream(10, 500000);
  const auto a = detector.score(test, 8);
  const auto b = restored.score(test, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].score, b[i].score, 1e-9);
  }
}

// Scoring stub whose score is the template id of the scored line — it
// reads nothing else, like every real detector ignores `vocab` at score
// time. It counts score_windows calls and the windows they carry, so a
// test can pin how a group flush batches its windows.
class FakeTemplateDetector final : public AnomalyDetector {
 public:
  void fit(std::span<const LogView>, std::size_t) override {}
  void update(std::span<const LogView>, std::size_t) override {}
  void adapt(std::span<const LogView>, std::size_t) override {}
  void score_windows(std::span<const ParsedLog> windows,
                     std::size_t window_events, WindowScratch&,
                     std::span<double> out) const override {
    ++window_calls;
    windows_scored += out.size();
    for (std::size_t w = 0; w < out.size(); ++w) {
      out[w] = windows[(w + 1) * window_events - 1].template_id;
    }
  }
  bool trained() const override { return true; }
  DetectorKind kind() const override { return DetectorKind::kLstm; }
  EventGranularity granularity() const override {
    return EventGranularity::kPerLog;
  }

  mutable std::size_t window_calls = 0;
  mutable std::size_t windows_scored = 0;
};

// Letters-only head token (digit-bearing tokens are masked to wildcards,
// which would merge all shapes into one template): shape 0 -> "a",
// 1 -> "b", ..., 26 -> "aa", ...
std::string shape_line(std::size_t shape, std::size_t salt) {
  return std::string(1 + shape / 26,
                     static_cast<char>('a' + shape % 26)) +
         " notice seq " + std::to_string(salt);
}

// A flush scores every staged window of every shard in ONE score_windows
// call, even when the shards' trees differ in size (3 vs 7 templates) and
// a tree grows between staging and flush — the vocabulary is no reason to
// split a batch, since no detector reads it at score time. Scores stay
// equal to immediate ingestion.
TEST(StreamMonitorGroupVocab, OneScoringCallPerFlushAcrossTreeSizes) {
  StreamMonitorConfig config;
  config.window = 2;
  config.threshold = 1e12;  // scoring only; warnings not under test here

  // Shard trees of deliberately different sizes (3 vs 7 templates).
  const auto prime = [](logproc::SignatureTree& tree, std::size_t shapes) {
    for (std::size_t s = 0; s < shapes; ++s) tree.learn(shape_line(s, 0));
  };
  const auto run = [&](bool immediate, FakeTemplateDetector& detector) {
    std::vector<logproc::SignatureTree> trees(2);
    prime(trees[0], 3);
    prime(trees[1], 7);
    EXPECT_NE(trees[0].size(), trees[1].size());
    std::vector<StreamMonitor> monitors;
    monitors.reserve(2);
    for (std::size_t s = 0; s < 2; ++s) {
      monitors.emplace_back(static_cast<std::int32_t>(s), &detector,
                            &trees[s], config, nullptr);
    }
    StreamMonitorGroup group(&detector);
    for (auto& monitor : monitors) group.add(&monitor);

    std::vector<double> scores;
    for (std::size_t flush = 0; flush < 2; ++flush) {
      for (std::size_t i = 0; i < 12; ++i) {
        for (std::size_t s = 0; s < 2; ++s) {
          // Line 5 mines a NEW template on each shard, growing the tree
          // mid-batch.
          const std::size_t shape = (i == 5) ? 20 + s + 2 * flush : i % 3;
          const nfv::util::SimTime time{
              static_cast<std::int64_t>(flush * 12 + i) * 60};
          if (immediate) {
            scores.push_back(monitors[s].ingest(time, shape_line(shape, i)));
          } else {
            group.ingest(s, time, shape_line(shape, i));
          }
        }
      }
      if (!immediate) {
        const std::size_t calls = detector.window_calls;
        const std::size_t windows = detector.windows_scored;
        for (double score : group.flush()) scores.push_back(score);
        EXPECT_EQ(detector.window_calls - calls, 1u) << "flush " << flush;
        // 24 staged lines; each shard's first `window` lines never fill.
        const std::size_t staged_windows =
            flush == 0 ? 24 - 2 * config.window : 24;
        EXPECT_EQ(detector.windows_scored - windows, staged_windows)
            << "flush " << flush;
      }
    }
    return scores;
  };

  FakeTemplateDetector immediate_detector;
  FakeTemplateDetector group_detector;
  const std::vector<double> immediate = run(true, immediate_detector);
  const std::vector<double> batched = run(false, group_detector);
  EXPECT_EQ(group_detector.window_calls, 2u);
  ASSERT_EQ(immediate.size(), batched.size());
  bool any_nonzero = false;
  for (std::size_t i = 0; i < immediate.size(); ++i) {
    ASSERT_EQ(immediate[i], batched[i]) << "line " << i;
    any_nonzero = any_nonzero || batched[i] != 0.0;
  }
  EXPECT_TRUE(any_nonzero) << "vacuous parity: no window ever scored";
}

// Streaming scores one line at a time, so a per-document (TF-IDF)
// detector is refused by every streaming front-end; it serves the batch
// pipeline only.
TEST(StreamingDocumentDetectors, RejectedByEveryStreamingFrontEnd) {
  AutoencoderDetector document_detector;
  FakeTemplateDetector line_detector;
  logproc::SignatureTree tree;
  const StreamMonitorConfig config;
  EXPECT_THROW(StreamMonitor(0, &document_detector, &tree, config, nullptr),
               nfv::util::CheckError);
  EXPECT_THROW(StreamMonitorGroup{&document_detector}, nfv::util::CheckError);
  EXPECT_THROW(AsyncIngest{&document_detector}, nfv::util::CheckError);

  StreamMonitor monitor(0, &line_detector, &tree, config, nullptr);
  EXPECT_THROW(monitor.set_detector(&document_detector),
               nfv::util::CheckError);
  StreamMonitorGroup group(&line_detector);
  EXPECT_THROW(group.set_detector(&document_detector), nfv::util::CheckError);
}

// Regression: a sustained anomaly storm must not grow monitor state. The
// cluster tracker keeps only {first, last, count, peak, trigger} — this
// pins the behavior that representation must still deliver: one warning
// at the cluster's FIRST anomaly, a live run length equal to the storm,
// and no re-warning while the run continues.
TEST(StreamMonitorCluster, AnomalyStormKeepsConstantStateAndOneWarning) {
  FakeTemplateDetector detector;
  logproc::SignatureTree tree;
  StreamMonitorConfig config;
  config.threshold = 10.0;
  std::vector<StreamWarning> warnings;
  StreamMonitor monitor(7, &detector, &tree, config,
                        [&](const StreamWarning& w) { warnings.push_back(w); });

  constexpr std::size_t kStorm = 200000;  // hours of back-to-back anomalies
  for (std::size_t i = 0; i < kStorm; ++i) {
    monitor.apply_score(SimTime{static_cast<std::int64_t>(i)},
                        static_cast<std::int32_t>(3 + i % 2), 50.0 + i % 5);
  }
  EXPECT_EQ(monitor.run_length(), kStorm);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].vpe, 7);
  EXPECT_EQ(warnings[0].time.seconds, 0);       // first anomaly of the run
  EXPECT_EQ(warnings[0].trigger_template, 3);   // template of that anomaly
  EXPECT_EQ(warnings[0].anomaly_count, config.min_cluster_size);
}

// Regression: an out-of-order timestamp inside a live anomaly run is
// clamped to the run's latest time. Without the clamp the regressed time
// becomes the gap reference, the next in-order anomaly looks > span away,
// and one real cluster is reported as two.
TEST(StreamMonitorCluster, OutOfOrderTimestampDoesNotSplitCluster) {
  FakeTemplateDetector detector;
  logproc::SignatureTree tree;
  StreamMonitorConfig config;
  config.threshold = 10.0;  // span: 2 minutes
  std::vector<StreamWarning> warnings;
  StreamMonitor monitor(0, &detector, &tree, config,
                        [&](const StreamWarning& w) { warnings.push_back(w); });

  monitor.apply_score(SimTime{1000}, 5, 40.0);
  monitor.apply_score(SimTime{400}, 6, 40.0);   // clock blip, 10 min "ago"
  monitor.apply_score(SimTime{1020}, 7, 40.0);  // in-order again
  monitor.apply_score(SimTime{1040}, 8, 40.0);

  EXPECT_EQ(monitor.run_length(), 4u);  // one run, never split
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].time.seconds, 1000);  // not rewound to 400
  EXPECT_EQ(warnings[0].trigger_template, 5);
}

TEST(StreamMonitorGroupEdgeCases, FlushWithEntriesButNoFullWindows) {
  FakeTemplateDetector detector;
  logproc::SignatureTree tree;
  StreamMonitorConfig config;
  config.window = 4;
  StreamMonitor monitor(0, &detector, &tree, config, nullptr);
  StreamMonitorGroup group(&detector);
  group.add(&monitor);

  // Three lines < window+1: everything staged, nothing scoreable.
  for (std::int64_t i = 0; i < 3; ++i) {
    group.ingest_parsed(0, {SimTime{i * 60}, 1});
  }
  EXPECT_EQ(group.pending(), 3u);
  const std::span<const double> scores = group.flush();
  ASSERT_EQ(scores.size(), 3u);
  for (double score : scores) EXPECT_EQ(score, 0.0);
  EXPECT_EQ(group.pending(), 0u);
}

TEST(StreamMonitorGroupEdgeCases, NeverFillingShardScoresZeroAlongside) {
  FakeTemplateDetector detector;
  std::vector<logproc::SignatureTree> trees(2);
  StreamMonitorConfig config;
  config.window = 2;
  config.threshold = 1e12;
  StreamMonitor busy(0, &detector, &trees[0], config, nullptr);
  StreamMonitor sparse(1, &detector, &trees[1], config, nullptr);
  StreamMonitorGroup group(&detector);
  group.add(&busy);
  group.add(&sparse);

  for (std::int64_t i = 0; i < 8; ++i) {
    group.ingest_parsed(0, {SimTime{i * 60}, static_cast<std::int32_t>(i)});
  }
  group.ingest_parsed(1, {SimTime{0}, 9});  // its window never fills
  const std::span<const double> scores = group.flush();
  ASSERT_EQ(scores.size(), 9u);
  EXPECT_EQ(scores.back(), 0.0);  // the sparse shard's only line
  // The busy shard still scored normally once its window filled.
  std::size_t scored = 0;
  for (std::size_t i = 0; i + 1 < scores.size(); ++i) {
    if (scores[i] != 0.0) ++scored;
  }
  EXPECT_EQ(scored, 8u - config.window);
}

TEST(StreamMonitorGroupEdgeCases, RepeatedFlushIsIdempotent) {
  FakeTemplateDetector detector;
  logproc::SignatureTree tree;
  StreamMonitorConfig config;
  config.window = 2;
  config.threshold = 1.0;  // every scored line is an "anomaly"
  std::vector<StreamWarning> warnings;
  StreamMonitor monitor(0, &detector, &tree, config,
                        [&](const StreamWarning& w) { warnings.push_back(w); });
  StreamMonitorGroup group(&detector);
  group.add(&monitor);

  for (std::int64_t i = 0; i < 6; ++i) {
    group.ingest_parsed(0, {SimTime{i * 30}, 2});
  }
  const std::span<const double> first = group.flush();
  EXPECT_EQ(first.size(), 6u);
  const std::size_t warned = warnings.size();
  EXPECT_EQ(warned, 1u);

  // Nothing staged: further flushes are no-ops — no scores re-emitted, no
  // warnings re-raised, cluster state untouched.
  const std::size_t run = monitor.run_length();
  EXPECT_TRUE(group.flush().empty());
  EXPECT_TRUE(group.flush().empty());
  EXPECT_EQ(warnings.size(), warned);
  EXPECT_EQ(monitor.run_length(), run);
}

// A multi-year silence inside a stream must neither drop nor shift
// windows: every position with `window` predecessors is scored with its
// own time and its own window's score, and a group flush scores every
// staged window as score() scores the full stream.
TEST_F(StreamingFixture, MultiYearGapStillScoresEveryPosition) {
  std::vector<ParsedLog> logs = motif_stream(3);
  logs.resize(10);
  for (std::size_t i = 5; i < logs.size(); ++i) {
    logs[i].time = logs[i].time + Duration::of_days(4000);
  }
  const std::vector<ScoredEvent> events = detector.score(logs, 8);
  ASSERT_EQ(events.size(), logs.size() - 4);
  for (std::size_t e = 0; e < events.size(); ++e) {
    EXPECT_EQ(events[e].time, logs[4 + e].time) << "event " << e;
    // The window ending at line 4 + e, with one line before it (when
    // there is one) so its first Δt matches the full stream's.
    const std::size_t first = e == 0 ? 0 : e - 1;
    const std::vector<ScoredEvent> slice =
        detector.score(LogView{logs.data() + first, 5 + e - first}, 8);
    ASSERT_FALSE(slice.empty()) << "window ending at line " << 4 + e;
    EXPECT_EQ(events[e].score, slice.back().score) << "event " << e;
  }

  StreamMonitor monitor(0, &detector, &tree, monitor_config(1e9), nullptr);
  StreamMonitorGroup group(&detector);
  group.add(&monitor);
  for (const ParsedLog& log : logs) group.ingest_parsed(0, log);
  const std::span<const double> scores = group.flush();
  ASSERT_EQ(scores.size(), logs.size());
  for (std::size_t e = 0; e < events.size(); ++e) {
    EXPECT_EQ(scores[4 + e], events[e].score) << "line " << 4 + e;
  }
}

// HmmDetector streams through the same staged windows as the LSTM: an
// immediate StreamMonitor and a StreamMonitorGroup score every line as
// HmmDetector::score() scores that position of the whole stream, lines
// with templates the model never saw included.
TEST(HmmStreaming, MonitorAndGroupScoreEveryLineAsScore) {
  HmmDetectorConfig config;
  config.window = 4;
  HmmDetector detector(config);
  const std::vector<ParsedLog> train = motif_stream(100);
  const LogView view{train};
  detector.fit({&view, 1}, 8);

  std::vector<ParsedLog> logs = motif_stream(12, 500000);
  for (std::size_t i = 0; i < logs.size(); ++i) {
    logs[i].time = logs[i].time + Duration{static_cast<std::int64_t>(i * i)};
    if (i % 11 == 7) logs[i].template_id = 9;  // unseen in training
  }
  const std::vector<ScoredEvent> events = detector.score(logs, 0);
  ASSERT_EQ(events.size(), logs.size() - config.window);

  logproc::SignatureTree tree;
  StreamMonitorConfig monitor_config;
  monitor_config.window = config.window;
  monitor_config.threshold = 1e300;
  StreamMonitor immediate(0, &detector, &tree, monitor_config, nullptr);
  StreamMonitor staged(1, &detector, &tree, monitor_config, nullptr);
  StreamMonitorGroup group(&detector);
  group.add(&staged);
  std::vector<double> group_scores;
  const auto flush = [&] {
    for (double score : group.flush()) group_scores.push_back(score);
  };
  for (std::size_t i = 0; i < logs.size(); ++i) {
    const double expected =
        i < config.window ? 0.0 : events[i - config.window].score;
    EXPECT_EQ(immediate.ingest_parsed(logs[i]), expected) << "line " << i;
    group.ingest_parsed(0, logs[i]);
    if (i % 7 == 6) flush();
  }
  flush();
  ASSERT_EQ(group_scores.size(), logs.size());
  for (std::size_t e = 0; e < events.size(); ++e) {
    EXPECT_EQ(group_scores[config.window + e], events[e].score)
        << "line " << config.window + e;
  }
  EXPECT_NE(events.front().score, events.back().score) << "vacuous scores";
}

TEST_F(StreamingFixture, TargetRankModeOrdersLikeDeepLog) {
  LstmDetectorConfig config = make_config();
  config.score_mode = LstmScoreMode::kTargetRank;
  LstmDetector rank_detector(config);
  const auto train = motif_stream(150);
  const LogView view{train};
  rank_detector.fit({&view, 1}, 8);

  // Correct continuations rank near 0; a wrong one ranks worse.
  auto test = motif_stream(10, 700000);
  const auto good = rank_detector.score(test, 8);
  test[23].template_id = 1;  // corrupt one "3" position
  const auto bad = rank_detector.score(test, 8);
  EXPECT_GT(bad[19].score, good[19].score);
  // Unknown templates (id >= vocab) get the maximal rank (vocab size).
  test[30].template_id = 9;
  const auto unknown = rank_detector.score(test, 8);
  EXPECT_DOUBLE_EQ(unknown[26].score, 8.0);
}

}  // namespace
}  // namespace nfv::core
