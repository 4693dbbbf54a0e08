#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "util/check.h"

#include <set>

namespace nfv::core {
namespace {

using nfv::util::Duration;
using nfv::util::SimTime;

struct PipelineFixture : ::testing::Test {
  static const simnet::FleetTrace& trace() {
    static const simnet::FleetTrace t =
        simnet::simulate_fleet(simnet::small_fleet_config(61));
    return t;
  }
  static const ParsedFleet& parsed() {
    static const ParsedFleet p = parse_fleet(trace());
    return p;
  }
  static LstmDetectorConfig fast_lstm() {
    LstmDetectorConfig config;
    config.initial_epochs = 2;
    config.update_epochs = 1;
    config.adapt_epochs = 2;
    config.max_train_windows = 1200;
    config.hidden = 16;
    config.oversample_rounds = 1;
    return config;
  }
};

TEST_F(PipelineFixture, EndToEndLstm) {
  PipelineOptions options;
  options.clustering.fixed_k = 2;
  options.lstm_config = fast_lstm();
  const PipelineResult result = run_pipeline(trace(), parsed(), options);

  EXPECT_EQ(result.clustering.num_groups, 2u);
  ASSERT_EQ(result.monthly.size(),
            static_cast<std::size_t>(trace().config.months - 1));
  // Scored streams exist for every vPE across the eval span.
  ASSERT_EQ(result.streams.size(),
            static_cast<std::size_t>(trace().num_vpes()));
  std::size_t total_events = 0;
  for (const auto& stream : result.streams) {
    total_events += stream.events.size();
    // Events time-sorted within each stream.
    for (std::size_t i = 1; i < stream.events.size(); ++i) {
      EXPECT_LE(stream.events[i - 1].time.seconds,
                stream.events[i].time.seconds);
    }
  }
  EXPECT_GT(total_events, 1000u);
  // The simulator plants real anomalies; the pipeline should find tickets.
  EXPECT_GT(result.aggregate.recall, 0.3);
  EXPECT_GT(result.aggregate.precision, 0.3);
  EXPECT_GT(result.eval_days, 0.0);

  // Detections deduplicated by ticket id.
  std::set<std::int64_t> ids;
  for (const TicketDetection& d : result.detections) {
    EXPECT_TRUE(ids.insert(d.ticket_id).second);
  }
}

TEST_F(PipelineFixture, BaselineWithoutCustomizationIsOneGroup) {
  PipelineOptions options;
  options.customize = false;
  options.lstm_config = fast_lstm();
  const PipelineResult result = run_pipeline(trace(), parsed(), options);
  EXPECT_EQ(result.clustering.num_groups, 1u);
}

// lstm_config is the one place over-sampling is set: turning it off there
// reaches every group's detector, so the trained weights, and with them
// the scores and the operating thresholds, change.
TEST_F(PipelineFixture, LstmConfigOversampleReachesTheDetectors) {
  PipelineOptions options;
  options.clustering.fixed_k = 2;
  options.lstm_config = fast_lstm();
  ASSERT_TRUE(options.lstm_config->oversample);
  const PipelineResult on = run_pipeline(trace(), parsed(), options);
  options.lstm_config->oversample = false;
  const PipelineResult off = run_pipeline(trace(), parsed(), options);

  ASSERT_EQ(on.streams.size(), off.streams.size());
  std::size_t differing_scores = 0;
  for (std::size_t v = 0; v < on.streams.size(); ++v) {
    ASSERT_EQ(on.streams[v].events.size(), off.streams[v].events.size());
    for (std::size_t i = 0; i < on.streams[v].events.size(); ++i) {
      differing_scores += on.streams[v].events[i].score !=
                          off.streams[v].events[i].score;
    }
  }
  EXPECT_GT(differing_scores, 0u);
  EXPECT_NE(on.group_thresholds, off.group_thresholds);
}

TEST_F(PipelineFixture, FeatureDetectorPipelineRuns) {
  PipelineOptions options;
  options.detector = DetectorKind::kAutoencoder;
  options.clustering.fixed_k = 2;
  const PipelineResult result = run_pipeline(trace(), parsed(), options);
  EXPECT_FALSE(result.monthly.empty());
  std::size_t total_events = 0;
  for (const auto& stream : result.streams) {
    total_events += stream.events.size();
  }
  EXPECT_GT(total_events, 100u);
}

TEST_F(PipelineFixture, TicketsInWindowIntersectsCorrectly) {
  const auto tickets = tickets_in_window(
      trace(), 0, nfv::util::month_start(1), nfv::util::month_start(2),
      Duration::of_days(1));
  for (const auto& t : tickets) {
    EXPECT_EQ(t.vpe, 0);
    // Mapping-relevant span intersects the window.
    EXPECT_LT((t.report - Duration::of_days(1)).seconds,
              nfv::util::month_start(2).seconds);
    EXPECT_GE(t.repair_finish.seconds, nfv::util::month_start(1).seconds);
  }
}

TEST_F(PipelineFixture, RejectsBadTrainMonths) {
  PipelineOptions options;
  options.initial_train_months = trace().config.months;  // nothing to test
  EXPECT_THROW(run_pipeline(trace(), parsed(), options),
               nfv::util::CheckError);
}

}  // namespace
}  // namespace nfv::core
