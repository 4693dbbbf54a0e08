// Determinism is a hard requirement of the parallel execution layer: the
// pipeline's per-group/per-vPE fan-out on the global pool must produce
// bit-identical results for every pool size. This test pins that contract
// by comparing full runs at 1 vs 4 global-pool threads.
#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace nfv::core {
namespace {

LstmDetectorConfig fast_lstm() {
  LstmDetectorConfig config;
  config.initial_epochs = 2;
  config.update_epochs = 1;
  config.adapt_epochs = 2;
  config.max_train_windows = 1200;
  config.hidden = 16;
  config.oversample_rounds = 1;
  return config;
}

void expect_identical(const PipelineResult& a, const PipelineResult& b) {
  // Clustering.
  ASSERT_EQ(a.clustering.num_groups, b.clustering.num_groups);
  ASSERT_EQ(a.clustering.group_of_vpe, b.clustering.group_of_vpe);

  // Monthly metrics (Fig. 7 series) — exact double equality, not
  // tolerance: the parallel path must be bit-identical.
  ASSERT_EQ(a.monthly.size(), b.monthly.size());
  for (std::size_t m = 0; m < a.monthly.size(); ++m) {
    EXPECT_EQ(a.monthly[m].month, b.monthly[m].month);
    EXPECT_EQ(a.monthly[m].prf.precision, b.monthly[m].prf.precision);
    EXPECT_EQ(a.monthly[m].prf.recall, b.monthly[m].prf.recall);
    EXPECT_EQ(a.monthly[m].prf.f_measure, b.monthly[m].prf.f_measure);
    EXPECT_EQ(a.monthly[m].false_alarms_per_day,
              b.monthly[m].false_alarms_per_day);
    EXPECT_EQ(a.monthly[m].anomaly_clusters, b.monthly[m].anomaly_clusters);
  }

  // Raw scored streams: every event time and score.
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (std::size_t v = 0; v < a.streams.size(); ++v) {
    ASSERT_EQ(a.streams[v].events.size(), b.streams[v].events.size())
        << "vpe " << v;
    for (std::size_t e = 0; e < a.streams[v].events.size(); ++e) {
      ASSERT_EQ(a.streams[v].events[e].time.seconds,
                b.streams[v].events[e].time.seconds);
      ASSERT_EQ(a.streams[v].events[e].score, b.streams[v].events[e].score)
          << "vpe " << v << " event " << e;
    }
  }

  // Anomaly clusters and ticket-level detections.
  ASSERT_EQ(a.mapping.anomalies.size(), b.mapping.anomalies.size());
  for (std::size_t i = 0; i < a.mapping.anomalies.size(); ++i) {
    EXPECT_EQ(a.mapping.anomalies[i].time.seconds,
              b.mapping.anomalies[i].time.seconds);
    EXPECT_EQ(a.mapping.anomalies[i].vpe, b.mapping.anomalies[i].vpe);
    EXPECT_EQ(a.mapping.anomalies[i].outcome, b.mapping.anomalies[i].outcome);
    EXPECT_EQ(a.mapping.anomalies[i].ticket_id,
              b.mapping.anomalies[i].ticket_id);
  }
  ASSERT_EQ(a.detections.size(), b.detections.size());
  for (std::size_t i = 0; i < a.detections.size(); ++i) {
    EXPECT_EQ(a.detections[i].ticket_id, b.detections[i].ticket_id);
    EXPECT_EQ(a.detections[i].detected, b.detections[i].detected);
    EXPECT_EQ(a.detections[i].detected_before, b.detections[i].detected_before);
    EXPECT_EQ(a.detections[i].detected_after, b.detections[i].detected_after);
    EXPECT_EQ(a.detections[i].best_lead.seconds,
              b.detections[i].best_lead.seconds);
    EXPECT_EQ(a.detections[i].anomaly_count, b.detections[i].anomaly_count);
  }

  // Final per-group operating thresholds.
  ASSERT_EQ(a.group_thresholds, b.group_thresholds);

  // Aggregates.
  EXPECT_EQ(a.mapping.early_warnings, b.mapping.early_warnings);
  EXPECT_EQ(a.mapping.errors, b.mapping.errors);
  EXPECT_EQ(a.mapping.false_alarms, b.mapping.false_alarms);
  EXPECT_EQ(a.aggregate.precision, b.aggregate.precision);
  EXPECT_EQ(a.aggregate.recall, b.aggregate.recall);
  EXPECT_EQ(a.aggregate.f_measure, b.aggregate.f_measure);
  EXPECT_EQ(a.false_alarms_per_day, b.false_alarms_per_day);
}

TEST(PipelineDeterminismTest, ThreadsOneAndFourAreBitIdentical) {
  const simnet::FleetTrace trace =
      simnet::simulate_fleet(simnet::small_fleet_config(61));
  const ParsedFleet parsed = parse_fleet(trace);

  PipelineOptions options;
  options.clustering.fixed_k = 2;
  options.lstm_config = fast_lstm();

  nfv::util::set_global_threads(1);
  const PipelineResult serial = run_pipeline(trace, parsed, options);
  nfv::util::set_global_threads(4);
  const PipelineResult parallel = run_pipeline(trace, parsed, options);
  nfv::util::set_global_threads(0);  // back to the environment default

  expect_identical(serial, parallel);
}

}  // namespace
}  // namespace nfv::core
