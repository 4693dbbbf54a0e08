// Cross-module integration: the streaming monitor driven by the full
// simulated fleet, detector-granularity mapping adaptation, and detector
// checkpoint round-trips through the pipeline's own artifacts.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/feature_detectors.h"
#include "core/lstm_detector.h"
#include "core/parsed_fleet.h"
#include "core/pipeline.h"
#include "core/streaming.h"
#include "util/check.h"
#include "util/stats.h"

namespace nfv::core {
namespace {

using nfv::util::Duration;
using nfv::util::SimTime;

struct IntegrationFixture : ::testing::Test {
  static const simnet::FleetTrace& trace() {
    static const simnet::FleetTrace t = [] {
      simnet::FleetConfig config = simnet::small_fleet_config(99);
      config.syslog.gap_scale = 2.0;
      config.update_month = -1;
      return simnet::simulate_fleet(config);
    }();
    return t;
  }
};

TEST_F(IntegrationFixture, StreamMonitorOverSimulatedFleetRaisesWarnings) {
  // Train on month 0 of vPE 0 through a signature tree, stream month 1+.
  logproc::SignatureTree tree;
  std::vector<logproc::ParsedLog> train;
  for (const auto& rec : trace().logs_by_vpe[0]) {
    if (rec.time >= nfv::util::month_start(1)) break;
    train.push_back({rec.time, tree.learn(rec.text)});
  }
  train = logproc::exclude_intervals(
      train, ticket_exclusion_windows(trace(), 0));
  ASSERT_GT(train.size(), 200u);

  LstmDetectorConfig config;
  config.max_train_windows = 2000;
  config.initial_epochs = 3;
  LstmDetector detector(config);
  const LogView view{train};
  detector.fit({&view, 1}, tree.size());

  std::vector<double> scores;
  for (const auto& e : detector.score(train, tree.size())) {
    scores.push_back(e.score);
  }
  StreamMonitorConfig monitor_config;
  monitor_config.threshold = nfv::util::quantile(scores, 0.995);
  monitor_config.window = config.window;

  std::vector<StreamWarning> warnings;
  StreamMonitor monitor(0, &detector, &tree, monitor_config,
                        [&](const StreamWarning& w) { warnings.push_back(w); });
  double last_score = 0.0;
  for (const auto& rec : trace().logs_by_vpe[0]) {
    if (rec.time < nfv::util::month_start(1)) continue;
    last_score = monitor.ingest(rec.time, rec.text);
  }
  (void)last_score;
  // The simulator plants anomaly bursts; the monitor must find some, and
  // warnings must be time-ordered with sane fields.
  EXPECT_GT(warnings.size(), 0u);
  EXPECT_EQ(warnings.size(), monitor.warnings_raised());
  for (std::size_t i = 1; i < warnings.size(); ++i) {
    EXPECT_LE(warnings[i - 1].time.seconds, warnings[i].time.seconds);
  }
  for (const auto& warning : warnings) {
    EXPECT_EQ(warning.vpe, 0);
    EXPECT_GE(warning.anomaly_count, monitor_config.min_cluster_size);
    EXPECT_GE(warning.trigger_template, 0);
  }
}

TEST(AdaptMappingFor, DocumentGranularityDropsClusterRule) {
  MappingConfig config;
  config.min_cluster_size = 2;
  const MappingConfig per_log =
      adapt_mapping_for(EventGranularity::kPerLog, config);
  EXPECT_EQ(per_log.min_cluster_size, 2u);
  const MappingConfig per_doc =
      adapt_mapping_for(EventGranularity::kPerDocument, config);
  EXPECT_EQ(per_doc.min_cluster_size, 1u);
  EXPECT_EQ(per_doc.predictive_period.seconds,
            config.predictive_period.seconds);
}

TEST(DetectorGranularity, DeclaredPerImplementation) {
  EXPECT_EQ(LstmDetector().granularity(), EventGranularity::kPerLog);
  EXPECT_EQ(AutoencoderDetector().granularity(),
            EventGranularity::kPerDocument);
  EXPECT_EQ(OcSvmDetector().granularity(), EventGranularity::kPerDocument);
  EXPECT_EQ(PcaDetector().granularity(), EventGranularity::kPerDocument);
}

TEST(LstmDetectorCheckpoint, LoadRejectsGarbageAndWrongMagic) {
  std::stringstream garbage;
  garbage << "definitely not a checkpoint";
  EXPECT_THROW(LstmDetector::load(garbage), nfv::util::CheckError);

  LstmDetector untrained;
  std::stringstream sink;
  EXPECT_THROW(untrained.save(sink), nfv::util::CheckError);
}

// A corrupt header field fails at load with a message naming it, instead
// of loading silently (a score_mode outside the enum, or 257 truncated to
// kTargetRank) or throwing on the first scored window (a header window
// that differs from the model's) — inside AsyncIngest that throw would be
// on a worker thread, out of the caller's reach.
TEST(LstmDetectorCheckpoint, LoadRejectsCorruptScoreModeAndWindow) {
  LstmDetectorConfig config;
  config.window = 3;
  config.embed_dim = 4;
  config.hidden = 4;
  config.initial_epochs = 1;
  config.oversample = false;
  LstmDetector detector(config);
  std::vector<logproc::ParsedLog> logs;
  for (std::int64_t i = 0; i < 40; ++i) {
    logs.push_back({SimTime{i * 60}, static_cast<std::int32_t>(i % 4)});
  }
  const LogView view{logs};
  detector.fit({&view, 1}, 4);
  std::stringstream saved;
  detector.save(saved);
  const std::string bytes = saved.str();

  // Header: magic, score_mode, window — one u64 each, at bytes 0, 8, 16.
  const auto load_patched = [&bytes](std::size_t offset,
                                     std::uint64_t value) -> std::string {
    std::string patched = bytes;
    std::memcpy(patched.data() + offset, &value, sizeof(value));
    std::stringstream in(patched);
    try {
      LstmDetector::load(in);
    } catch (const nfv::util::CheckError& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(load_patched(8, 1), "");   // kTargetRank is a valid mode
  EXPECT_EQ(load_patched(16, 3), "");  // the model's own window
  for (const std::uint64_t mode : {std::uint64_t{7}, std::uint64_t{257}}) {
    const std::string error = load_patched(8, mode);
    EXPECT_NE(error.find("score_mode"), std::string::npos)
        << "mode " << mode << ": '" << error << "'";
  }
  const std::string error = load_patched(16, 5);
  EXPECT_NE(error.find("window"), std::string::npos) << "'" << error << "'";
}

TEST_F(IntegrationFixture, FeatureDetectorPipelineMapsWithDocGranularity) {
  const ParsedFleet parsed = parse_fleet(trace());
  PipelineOptions options;
  options.detector = DetectorKind::kAutoencoder;
  options.clustering.fixed_k = 2;
  const PipelineResult result = run_pipeline(trace(), parsed, options);
  // With the granularity-adapted cluster rule, the document detector must
  // actually map anomalies to tickets (not be silenced by the ≥2 rule).
  EXPECT_GT(result.mapping.errors + result.mapping.early_warnings, 0u);
  EXPECT_GT(result.aggregate.recall, 0.0);
}

}  // namespace
}  // namespace nfv::core
