// The end-to-end evaluation harness (§5.1 "Training and Testing").
//
// Mirrors the paper's protocol: train on the first month's normal logs
// (ticket windows removed), then for every following month score the fresh
// logs with the current model, map detected anomaly clusters to tickets,
// and finally perform that month's incremental model update. When the
// software-update rollout hits a group's vPEs, the adaptation variant
// fine-tunes top layers on one week of post-update data; the
// non-adaptation variants must dig themselves out through ordinary
// incremental training (the Fig. 7 comparison).
#pragma once

#include <memory>
#include <optional>

#include "core/detector.h"
#include "core/feature_detectors.h"
#include "core/lstm_detector.h"
#include "core/mapper.h"
#include "core/metrics.h"
#include "core/parsed_fleet.h"
#include "core/vpe_clustering.h"
#include "simnet/fleet.h"

namespace nfv::core {

struct PipelineOptions {
  DetectorKind detector = DetectorKind::kLstm;
  /// Per-group models (true) vs one global model (false).
  bool customize = true;
  /// Transfer-learning adaptation after software updates.
  bool adapt = true;
  VpeClusteringOptions clustering{.fixed_k = 4};
  MappingConfig mapping;
  /// Margin before ticket report for training-data exclusion (paper: 3 d).
  nfv::util::Duration exclusion_margin = nfv::util::Duration::of_days(3);
  /// Months of data used for the initial fit.
  int initial_train_months = 1;
  /// Post-update data span handed to adapt() (paper: 1 week suffices).
  nfv::util::Duration adapt_span = nfv::util::Duration::of_days(7);
  /// Operating threshold = this quantile of training-data scores.
  double threshold_quantile = 0.99;
  std::uint64_t seed = 7;
  /// Optional override of the LSTM detector configuration; it alone sets
  /// over-sampling (`oversample`) and int8 scoring (`quantize`).
  std::optional<LstmDetectorConfig> lstm_config;
};

struct MonthlyMetrics {
  int month = 0;
  PrfMetrics prf;
  double false_alarms_per_day = 0.0;
  std::size_t anomaly_clusters = 0;
};

struct PipelineResult {
  VpeClustering clustering;
  /// Per-month metrics at the rolling operating threshold (Fig. 7 series).
  std::vector<MonthlyMetrics> monthly;
  /// All scored test events + tickets per vPE across the whole evaluation
  /// span — input for threshold sweeps (Figs. 5 & 6).
  std::vector<VpeScoredStream> streams;
  /// Ticket-level detection summaries at the operating threshold (Fig. 8).
  std::vector<TicketDetection> detections;
  /// Aggregate mapping at the operating threshold.
  MappingResult mapping;
  /// Final per-group operating thresholds, indexed by clustering group.
  std::vector<double> group_thresholds;
  PrfMetrics aggregate;
  double false_alarms_per_day = 0.0;
  double eval_days = 0.0;
};

/// Run the full rolling evaluation. The per-group fit/update/adapt and the
/// per-vPE scoring fan out on util::global_pool() (sized by
/// NFVPRED_THREADS, the CLI's --threads or set_global_threads); results
/// are bit-identical for every pool size. Must not be called from inside
/// a task of that pool, where a nested parallel_for throws.
PipelineResult run_pipeline(const simnet::FleetTrace& trace,
                            const ParsedFleet& parsed,
                            const PipelineOptions& options);

/// Tickets of one vPE whose mapping-relevant span intersects [begin, end).
std::vector<simnet::Ticket> tickets_in_window(
    const simnet::FleetTrace& trace, std::int32_t vpe,
    nfv::util::SimTime begin, nfv::util::SimTime end,
    nfv::util::Duration predictive_period);

}  // namespace nfv::core
