#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>

#include "core/feature_detectors.h"
#include "core/hmm_detector.h"
#include "core/lstm_detector.h"
#include "util/check.h"

namespace nfv::core {
namespace {

using logproc::ParsedLog;
using nfv::util::Duration;
using nfv::util::SimTime;

/// Synthetic "normal" stream: repeating motif 0→1→2→3 with 60 s gaps.
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

/// The same stream with a burst of template 7 (never seen) injected.
std::vector<ParsedLog> with_anomaly_burst(std::vector<ParsedLog> logs,
                                          std::size_t at_index) {
  const SimTime t = logs[at_index].time;
  std::vector<ParsedLog> burst{{t + Duration::of_seconds(5), 7},
                               {t + Duration::of_seconds(15), 7},
                               {t + Duration::of_seconds(25), 7}};
  logs.insert(logs.begin() + static_cast<std::ptrdiff_t>(at_index) + 1,
              burst.begin(), burst.end());
  return logs;
}

LstmDetectorConfig fast_lstm_config() {
  LstmDetectorConfig config;
  config.window = 4;
  config.hidden = 16;
  config.embed_dim = 8;
  config.initial_epochs = 6;
  config.max_train_windows = 1500;
  return config;
}

TEST(LstmDetector, FlagsUnseenTemplateBurst) {
  const auto train = motif_stream(150);
  LstmDetector detector(fast_lstm_config());
  const LogView view{train};
  detector.fit({&view, 1}, 8);
  ASSERT_TRUE(detector.trained());

  const auto test = with_anomaly_burst(motif_stream(30, 1000000), 60);
  const auto events = detector.score(test, 8);
  ASSERT_EQ(events.size(), test.size() - 4);

  // Events on the injected templates must score far above the median.
  std::vector<double> scores;
  double burst_min = 1e9;
  for (std::size_t i = 0; i < events.size(); ++i) {
    scores.push_back(events[i].score);
    if (test[i + 4].template_id == 7) {
      burst_min = std::min(burst_min, events[i].score);
    }
  }
  std::nth_element(scores.begin(), scores.begin() + scores.size() / 2,
                   scores.end());
  EXPECT_GT(burst_min, scores[scores.size() / 2] + 2.0);
}

TEST(LstmDetector, FlagsOutOfOrderContinuation) {
  const auto train = motif_stream(200);
  LstmDetector detector(fast_lstm_config());
  const LogView view{train};
  detector.fit({&view, 1}, 8);

  // Test stream where one cycle goes 0→1→2→*1* instead of 3.
  auto test = motif_stream(30, 2000000);
  test[43].template_id = 1;  // index 43 is a "3" position (4*10+3)
  const auto events = detector.score(test, 8);
  double wrong_score = 0.0;
  double right_score_sum = 0.0;
  std::size_t right_count = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i + 4 == 43) {
      wrong_score = events[i].score;
    } else if (test[i + 4].template_id == 3) {
      right_score_sum += events[i].score;
      ++right_count;
    }
  }
  EXPECT_GT(wrong_score, right_score_sum / right_count + 1.0);
}

TEST(LstmDetector, UpdateAbsorbsNewPattern) {
  // Train on 0→1→2→3; a new motif 4→5 appears later. After update() the
  // new motif should score much lower than before. Incremental updates
  // are deliberately gentle in the pipeline defaults; give this test a
  // stronger update schedule so absorption is visible in one call.
  const auto train = motif_stream(150);
  auto config = fast_lstm_config();
  config.update_epochs = 6;
  config.update_lr = 3e-3f;
  LstmDetector detector(config);
  const LogView view{train};
  detector.fit({&view, 1}, 8);

  std::vector<ParsedLog> new_pattern;
  std::int64_t t = 5000000;
  for (int c = 0; c < 150; ++c) {
    new_pattern.push_back({SimTime{t}, 4});
    t += 60;
    new_pattern.push_back({SimTime{t}, 5});
    t += 60;
  }
  const auto before = detector.score(new_pattern, 8);
  const LogView new_view{new_pattern};
  detector.update({&new_view, 1}, 8);
  const auto after = detector.score(new_pattern, 8);
  double before_mean = 0.0;
  double after_mean = 0.0;
  for (const auto& e : before) before_mean += e.score;
  for (const auto& e : after) after_mean += e.score;
  before_mean /= static_cast<double>(before.size());
  after_mean /= static_cast<double>(after.size());
  EXPECT_LT(after_mean, before_mean - 0.5);
}

TEST(LstmDetector, AdaptGrowsVocabAndLearns) {
  const auto train = motif_stream(100);
  LstmDetector detector(fast_lstm_config());
  const LogView view{train};
  detector.fit({&view, 1}, 8);

  // Post-update: new templates 8–11 in a new motif; vocab grows to 12.
  std::vector<ParsedLog> post;
  std::int64_t t = 9000000;
  for (int c = 0; c < 120; ++c) {
    for (std::int32_t id = 8; id < 12; ++id) {
      post.push_back({SimTime{t}, id});
      t += 45;
    }
  }
  const LogView post_view{post};
  detector.adapt({&post_view, 1}, 12);
  const auto events = detector.score(post, 12);
  double mean = 0.0;
  for (const auto& e : events) mean += e.score;
  mean /= static_cast<double>(events.size());
  // After adaptation, the new motif is no longer "unknown-level"
  // surprising.
  EXPECT_LT(mean, detector.config().unknown_score * 0.5);
}

TEST(LstmDetector, OversamplingReducesTrainingTailScores) {
  // A stream with a rare-but-normal pattern: mostly 0→1→2→3 plus an
  // occasional 0→1→2→5. Over-sampling should reduce the false-positive
  // score of the rare continuation relative to a no-oversampling model.
  std::vector<ParsedLog> train;
  std::int64_t t = 0;
  for (int c = 0; c < 300; ++c) {
    train.push_back({SimTime{t += 60}, 0});
    train.push_back({SimTime{t += 60}, 1});
    train.push_back({SimTime{t += 60}, 2});
    train.push_back({SimTime{t += 60}, c % 25 == 0 ? 5 : 3});
  }
  auto config_with = fast_lstm_config();
  config_with.oversample = true;
  config_with.oversample_rounds = 3;
  auto config_without = fast_lstm_config();
  config_without.oversample = false;

  LstmDetector with(config_with);
  LstmDetector without(config_without);
  const LogView view{train};
  with.fit({&view, 1}, 8);
  without.fit({&view, 1}, 8);

  auto rare_score = [&](const LstmDetector& d) {
    const auto events = d.score(train, 8);
    double worst = 0.0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (train[i + 4].template_id == 5) {
        worst = std::max(worst, events[i].score);
      }
    }
    return worst;
  };
  EXPECT_LT(rare_score(with), rare_score(without) + 0.5);
}

/// Every window of `logs` with a full history.
ml::WindowBatch all_windows(const std::vector<ParsedLog>& logs,
                            std::size_t window) {
  ml::WindowBatch windows;
  logproc::append_sequence_windows(
      logs, window, windows,
      Duration{std::numeric_limits<std::int64_t>::max()});
  return windows;
}

/// The detector's score() of `logs` (its own scoring image) against a
/// fresh image of the current weights, built in the detector's precision,
/// over every window of `logs`.
void expect_fresh_image(const LstmDetector& detector,
                        const std::vector<ParsedLog>& logs,
                        const char* after) {
  const ml::WindowBatch windows = all_windows(logs, detector.window());
  const ml::SequenceModel& model = detector.model();
  std::vector<double> fresh(windows.size());
  ml::SequenceModel::InferenceScratch scratch;
  model.score_batched(model.build_scoring_image(detector.config().quantize),
                      windows, windows.size(), scratch, fresh);
  const std::vector<ScoredEvent> events = detector.score(logs, 0);
  ASSERT_EQ(events.size(), fresh.size()) << after;
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].score, -fresh[i]) << "after " << after << ", window "
                                          << i;
  }
}

/// The scores of score(logs).
std::vector<double> scores_of(const LstmDetector& detector,
                              const std::vector<ParsedLog>& logs) {
  std::vector<double> scores;
  for (const ScoredEvent& event : detector.score(logs, 0)) {
    scores.push_back(event.score);
  }
  return scores;
}

// The detector's scoring image follows every weight and precision change:
// fit, an update that only grows the vocabulary (no training windows),
// adapt, set_quantized in both directions, an adapt scoring in int8, load
// and copies.
TEST(LstmDetector, ScoringImageFollowsEveryWeightChange) {
  LstmDetector detector(fast_lstm_config());
  const auto train = motif_stream(60);
  const LogView view{train};
  detector.fit({&view, 1}, 8);
  expect_fresh_image(detector, motif_stream(6), "fit");

  // Three lines < window + 1: no training window, but the vocab grows to
  // 12 and windows with templates 8–11 must score from the grown image.
  std::vector<ParsedLog> post;
  std::int64_t t = 9000000;
  for (int c = 0; c < 40; ++c) {
    for (std::int32_t id = 8; id < 12; ++id) post.push_back({SimTime{t += 45}, id});
  }
  const std::vector<ParsedLog> too_short(post.begin(), post.begin() + 3);
  const LogView short_view{too_short};
  detector.update({&short_view, 1}, 12);
  EXPECT_EQ(detector.model().config().vocab, 12u);
  expect_fresh_image(detector, post, "update growing the vocab");

  const LogView post_view{post};
  detector.adapt({&post_view, 1}, 12);
  expect_fresh_image(detector, post, "adapt");

  detector.set_quantized(true);
  expect_fresh_image(detector, post, "set_quantized(true)");
  detector.adapt({&post_view, 1}, 12);
  expect_fresh_image(detector, post, "int8 adapt");
  detector.set_quantized(false);
  expect_fresh_image(detector, post, "set_quantized(false)");

  std::stringstream saved;
  detector.save(saved);
  const LstmDetector loaded = LstmDetector::load(saved);
  expect_fresh_image(loaded, post, "load");

  // Copies carry the image; retraining the original leaves them intact.
  const LstmDetector copy(detector);
  LstmDetector assigned;
  assigned = detector;
  detector.update({&view, 1}, 12);
  expect_fresh_image(detector, post, "update");
  expect_fresh_image(copy, post, "copy");
  expect_fresh_image(assigned, post, "assignment");
  EXPECT_EQ(scores_of(copy, post), scores_of(loaded, post));
  EXPECT_NE(scores_of(copy, post), scores_of(detector, post));
}

// A window scores the unknown-template constant exactly when one of its
// k + 1 scored events (the k predecessors and the scored line) holds a
// template the model never saw. The event before them lends only its
// time, so the window after the last one holding the unknown line scores
// from the model, its first Δt measured from that line.
TEST(LstmDetector, UnknownTemplateMarksOnlyTheWindowsHoldingIt) {
  LstmDetector detector(fast_lstm_config());
  const auto train = motif_stream(60);
  const LogView view{train};
  detector.fit({&view, 1}, 8);
  std::vector<ParsedLog> logs = motif_stream(6);
  constexpr std::size_t kUnknownAt = 10;
  logs[kUnknownAt].template_id = 8;  // outside the vocabulary of 8
  const std::size_t k = detector.window();
  const auto holds = [&](std::size_t i) {
    return i >= kUnknownAt && i <= kUnknownAt + k;
  };
  const ml::WindowBatch all = all_windows(logs, k);
  ml::WindowBatch known;
  for (std::size_t i = k; i < logs.size(); ++i) {
    if (!holds(i)) known.append_row(all, i - k, k);
  }
  const ml::SequenceModel& model = detector.model();
  std::vector<double> ll(known.size());
  ml::SequenceModel::InferenceScratch scratch;
  model.score_batched(model.build_scoring_image(), known, known.size(),
                      scratch, ll);

  const std::vector<ScoredEvent> events = detector.score(logs, 0);
  ASSERT_EQ(events.size(), logs.size() - k);
  std::size_t next_known = 0;
  for (std::size_t i = k; i < logs.size(); ++i) {
    const double expected = holds(i) ? detector.config().unknown_score
                                     : -ll[next_known++];
    EXPECT_EQ(events[i - k].score, expected) << "line " << i;
  }
  EXPECT_EQ(next_known, known.size());
}

TEST(LstmDetector, LifecycleChecks) {
  LstmDetector detector(fast_lstm_config());
  EXPECT_FALSE(detector.trained());
  const auto logs = motif_stream(10);
  EXPECT_THROW(detector.score(logs, 8), nfv::util::CheckError);
  const LogView view{logs};
  EXPECT_THROW(detector.update({&view, 1}, 8), nfv::util::CheckError);
  EXPECT_THROW(detector.adapt({&view, 1}, 8), nfv::util::CheckError);
  EXPECT_EQ(detector.kind(), DetectorKind::kLstm);
}

TEST(LstmDetector, ShortStreamYieldsNoEvents) {
  const auto train = motif_stream(100);
  LstmDetector detector(fast_lstm_config());
  const LogView view{train};
  detector.fit({&view, 1}, 8);
  const auto tiny = motif_stream(1);  // 4 logs = window, no target
  EXPECT_TRUE(detector.score(tiny, 8).empty());
}

TEST(AutoencoderDetector, SeparatesShiftedDistribution) {
  AutoencoderDetectorConfig config;
  config.doc_size = 10;
  config.initial_epochs = 20;
  AutoencoderDetector detector(config);
  const auto train = motif_stream(300);
  const LogView view{train};
  detector.fit({&view, 1}, 8);
  ASSERT_TRUE(detector.trained());

  // Normal test: same motif. Anomalous: unseen template 6 everywhere.
  const auto normal = motif_stream(40, 7000000);
  std::vector<ParsedLog> anomalous;
  std::int64_t t = 8000000;
  for (int i = 0; i < 160; ++i) anomalous.push_back({SimTime{t += 60}, 6});
  const auto normal_events = detector.score(normal, 8);
  const auto anomalous_events = detector.score(anomalous, 8);
  ASSERT_FALSE(normal_events.empty());
  ASSERT_FALSE(anomalous_events.empty());
  double normal_mean = 0.0;
  double anomalous_mean = 0.0;
  for (const auto& e : normal_events) normal_mean += e.score;
  for (const auto& e : anomalous_events) anomalous_mean += e.score;
  normal_mean /= static_cast<double>(normal_events.size());
  anomalous_mean /= static_cast<double>(anomalous_events.size());
  EXPECT_GT(anomalous_mean, 2.0 * normal_mean);
}

TEST(OcSvmDetector, SeparatesShiftedDistribution) {
  OcSvmDetectorConfig config;
  config.doc_size = 10;
  OcSvmDetector detector(config);
  const auto train = motif_stream(200);
  const LogView view{train};
  detector.fit({&view, 1}, 8);
  ASSERT_TRUE(detector.trained());

  const auto normal = motif_stream(30, 7000000);
  std::vector<ParsedLog> anomalous;
  std::int64_t t = 8000000;
  for (int i = 0; i < 120; ++i) anomalous.push_back({SimTime{t += 60}, 6});
  const auto normal_events = detector.score(normal, 8);
  const auto anomalous_events = detector.score(anomalous, 8);
  double normal_max = -1e9;
  double anomalous_min = 1e9;
  for (const auto& e : normal_events) normal_max = std::max(normal_max, e.score);
  for (const auto& e : anomalous_events) {
    anomalous_min = std::min(anomalous_min, e.score);
  }
  EXPECT_GT(anomalous_min, normal_max);
}

TEST(PcaDetector, SeparatesShiftedDistribution) {
  PcaDetectorConfig config;
  config.doc_size = 10;
  PcaDetector detector(config);
  const auto train = motif_stream(200);
  const LogView view{train};
  detector.fit({&view, 1}, 8);
  ASSERT_TRUE(detector.trained());
  const auto normal = motif_stream(30, 7000000);
  std::vector<ParsedLog> anomalous;
  std::int64_t t = 8000000;
  for (int i = 0; i < 120; ++i) {
    anomalous.push_back({SimTime{t += 60}, i % 2 == 0 ? 6 : 7});
  }
  const auto normal_events = detector.score(normal, 8);
  const auto anomalous_events = detector.score(anomalous, 8);
  double normal_mean = 0.0;
  double anomalous_mean = 0.0;
  for (const auto& e : normal_events) normal_mean += e.score;
  for (const auto& e : anomalous_events) anomalous_mean += e.score;
  normal_mean /= static_cast<double>(normal_events.size());
  anomalous_mean /= static_cast<double>(anomalous_events.size());
  EXPECT_GT(anomalous_mean, normal_mean);
}

TEST(MakeDetector, FactoryCoversAllKinds) {
  for (const DetectorKind kind :
       {DetectorKind::kLstm, DetectorKind::kAutoencoder,
        DetectorKind::kOcSvm, DetectorKind::kPca, DetectorKind::kHmm}) {
    const auto detector = make_detector(kind, 1);
    ASSERT_NE(detector, nullptr);
    EXPECT_EQ(detector->kind(), kind);
    EXPECT_FALSE(detector->trained());
  }
}

TEST(DetectorKindNames, Stable) {
  EXPECT_STREQ(to_string(DetectorKind::kLstm), "LSTM");
  EXPECT_STREQ(to_string(DetectorKind::kAutoencoder), "Autoencoder");
  EXPECT_STREQ(to_string(DetectorKind::kOcSvm), "OC-SVM");
  EXPECT_STREQ(to_string(DetectorKind::kPca), "PCA");
  EXPECT_STREQ(to_string(DetectorKind::kHmm), "HMM");
}

TEST(HmmDetector, FlagsUnseenTemplateBurst) {
  const auto train = motif_stream(150);
  HmmDetectorConfig config;
  config.window = 6;
  HmmDetector detector(config);
  const LogView view{train};
  detector.fit({&view, 1}, 8);
  ASSERT_TRUE(detector.trained());
  EXPECT_EQ(detector.granularity(), EventGranularity::kPerLog);

  const auto test = with_anomaly_burst(motif_stream(30, 1000000), 60);
  const auto events = detector.score(test, 8);
  ASSERT_EQ(events.size(), test.size() - 6);
  std::vector<double> scores;
  double burst_min = 1e9;
  for (std::size_t i = 0; i < events.size(); ++i) {
    scores.push_back(events[i].score);
    if (test[i + 6].template_id == 7) {
      burst_min = std::min(burst_min, events[i].score);
    }
  }
  std::nth_element(scores.begin(), scores.begin() + scores.size() / 2,
                   scores.end());
  EXPECT_GT(burst_min, scores[scores.size() / 2]);
}

TEST(HmmDetector, UpdateAndAdaptRefit) {
  const auto train = motif_stream(100);
  HmmDetector detector;
  const LogView view{train};
  detector.fit({&view, 1}, 8);
  // New pattern appears; adapt() refits on it and its score drops.
  std::vector<logproc::ParsedLog> fresh;
  std::int64_t t = 5000000;
  for (int c = 0; c < 200; ++c) {
    fresh.push_back({SimTime{t += 60}, 4});
    fresh.push_back({SimTime{t += 60}, 5});
  }
  const auto before = detector.score(fresh, 8);
  const LogView fresh_view{fresh};
  detector.adapt({&fresh_view, 1}, 8);
  const auto after = detector.score(fresh, 8);
  double before_mean = 0.0;
  double after_mean = 0.0;
  for (const auto& e : before) before_mean += e.score;
  for (const auto& e : after) after_mean += e.score;
  EXPECT_LT(after_mean / after.size(), before_mean / before.size());
}

}  // namespace
}  // namespace nfv::core
