#include "core/streaming.h"

#include <algorithm>

#include "util/check.h"

namespace nfv::core {

void check_per_log(const AnomalyDetector* detector) {
  NFV_CHECK(detector != nullptr, "streaming requires a detector");
  NFV_CHECK(detector->granularity() == EventGranularity::kPerLog,
            "streaming scores one line at a time; "
                << to_string(detector->kind())
                << " is a per-document detector (batch pipeline only)");
}

StreamMonitor::StreamMonitor(std::int32_t vpe,
                             const AnomalyDetector* detector,
                             logproc::SignatureTree* tree,
                             StreamMonitorConfig config,
                             WarningCallback on_warning)
    : vpe_(vpe),
      detector_(detector),
      tree_(tree),
      config_(config),
      on_warning_(std::move(on_warning)) {
  check_per_log(detector);
  NFV_CHECK(tree != nullptr, "StreamMonitor requires a signature tree");
  NFV_CHECK(config.window >= 1, "window must be >= 1");
  history_.resize(config.window + 2);
}

void StreamMonitor::set_detector(const AnomalyDetector* detector) {
  check_per_log(detector);
  detector_ = detector;
}

double StreamMonitor::ingest(nfv::util::SimTime time,
                             std::string_view raw_line) {
  logproc::ParsedLog log;
  log.time = time;
  log.template_id = tree_->learn(raw_line);  // online template mining
  return ingest_parsed(log);
}

double StreamMonitor::ingest_parsed(const logproc::ParsedLog& log) {
  NFV_CHECK(log.template_id >= 0,
            "negative template id " << log.template_id);
  // scratch_window_ is a member so steady-state per-line ingestion reuses
  // its capacity instead of allocating a fresh window vector every line.
  scratch_window_.clear();
  if (!stage_parsed(log, scratch_window_)) return 0.0;

  // One-window scoring: a time-only event, k history and this log.
  if (!scratch_) scratch_ = std::make_unique<WindowScratch>();
  double score = 0.0;
  detector_->score_windows(scratch_window_, scratch_window_.size(), *scratch_,
                           {&score, 1});
  apply_score(log.time, log.template_id, score);
  return score;
}

bool StreamMonitor::stage_parsed(const logproc::ParsedLog& log,
                                 std::vector<logproc::ParsedLog>& windows) {
  // The stream's first event also fills the slot behind it: the first
  // window's time-only event, so that event reads Δt 0 as in score().
  if (lines_ingested_ == 0) history_.back() = log;
  ++lines_ingested_;  // both ingestion paths funnel through here
  history_[history_next_] = log;
  if (++history_next_ == history_.size()) history_next_ = 0;
  if (lines_ingested_ <= config_.window) return false;
  // Full ring: history_next_ now indexes the oldest event.
  const auto oldest =
      history_.begin() + static_cast<std::ptrdiff_t>(history_next_);
  windows.insert(windows.end(), oldest, history_.end());
  windows.insert(windows.end(), history_.begin(), oldest);
  return true;
}

void StreamMonitor::apply_score(nfv::util::SimTime time,
                                std::int32_t template_id, double score) {
  if (score >= config_.threshold) {
    track_cluster(time, score, template_id);
  }
}

void StreamMonitor::track_cluster(nfv::util::SimTime time, double score,
                                  std::int32_t template_id) {
  // Ordering contract (see ingest()): timestamps regressing below the
  // run's latest anomaly are clamped to it. Without the clamp a single
  // out-of-order line would become the gap reference for the NEXT
  // in-order anomaly, whose (in-order) timestamp could then look more
  // than cluster_span away — spuriously splitting a live cluster — and
  // with an unsigned Duration representation the negative gap itself
  // would underflow. SimTime/Duration are signed int64 seconds, so the
  // subtraction is well-defined; the clamp removes the semantic hazard.
  if (run_count_ > 0 && time < run_last_) time = run_last_;
  if (run_count_ > 0 && time - run_last_ > config_.cluster_span) {
    run_count_ = 0;
    run_peak_ = 0.0;
    run_trigger_ = -1;
    run_reported_ = false;
  }
  if (run_count_ == 0) {
    run_trigger_ = template_id;
    run_first_ = time;
  }
  run_last_ = time;
  ++run_count_;
  run_peak_ = std::max(run_peak_, score);
  if (!run_reported_ && run_count_ >= config_.min_cluster_size) {
    run_reported_ = true;
    ++warnings_raised_;
    if (on_warning_) {
      StreamWarning warning;
      warning.vpe = vpe_;
      warning.time = run_first_;
      warning.anomaly_count = run_count_;
      warning.peak_score = run_peak_;
      warning.trigger_template = run_trigger_;
      on_warning_(warning);
    }
  }
}

StreamMonitorGroup::StreamMonitorGroup(const AnomalyDetector* detector)
    : detector_(detector) {
  check_per_log(detector);
}

std::size_t StreamMonitorGroup::add(StreamMonitor* monitor) {
  NFV_CHECK(monitor != nullptr, "cannot add a null monitor");
  const std::size_t events = monitor->config().window + 2;
  NFV_CHECK(monitors_.empty() || events == window_events_,
            "group shards must share one window length");
  window_events_ = events;
  monitors_.push_back(monitor);
  return monitors_.size() - 1;
}

void StreamMonitorGroup::set_detector(const AnomalyDetector* detector) {
  check_per_log(detector);
  NFV_CHECK(entries_.empty(),
            "detector swap with staged entries pending; flush() first");
  detector_ = detector;
}

void StreamMonitorGroup::ingest(std::size_t shard, nfv::util::SimTime time,
                                std::string_view raw_line) {
  NFV_CHECK(shard < monitors_.size(), "unknown shard " << shard);
  logproc::ParsedLog log;
  log.time = time;
  log.template_id = monitors_[shard]->tree().learn(raw_line);
  ingest_parsed(shard, log);
}

void StreamMonitorGroup::ingest_parsed(std::size_t shard,
                                       const logproc::ParsedLog& log) {
  NFV_CHECK(shard < monitors_.size(), "unknown shard " << shard);
  NFV_CHECK(log.template_id >= 0,
            "negative template id " << log.template_id);
  PendingEntry entry;
  entry.shard = shard;
  entry.time = log.time;
  entry.template_id = log.template_id;
  const std::size_t offset = windows_.size();
  if (monitors_[shard]->stage_parsed(log, windows_)) entry.window = offset;
  entries_.push_back(entry);
}

std::span<const double> StreamMonitorGroup::flush() {
  scores_.assign(entries_.size(), 0.0);
  if (entries_.empty()) return scores_;

  // Micro-batch sample tap (online retrain): every staged entry — warm-up
  // lines included, they are part of the template sequence — in arrival
  // order, before any scoring so a tap can never perturb scores.
  if (sample_tap_) {
    for (const PendingEntry& entry : entries_) {
      sample_tap_(entry.shard, entry.time, entry.template_id);
    }
  }

  // One call: the staged windows go in back to back, in arrival order,
  // and come back as one score each.
  window_scores_.resize(windows_.size() / window_events_);
  if (!window_scores_.empty()) {
    detector_->score_windows(windows_, window_events_, scratch_,
                             window_scores_);
  }
  // Replay in arrival order: identical threshold / cluster tracking to
  // immediate ingestion.
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const PendingEntry& entry = entries_[i];
    if (entry.window == PendingEntry::npos) continue;
    scores_[i] = window_scores_[entry.window / window_events_];
    monitors_[entry.shard]->apply_score(entry.time, entry.template_id,
                                        scores_[i]);
  }
  entries_.clear();
  windows_.clear();
  return scores_;
}

const char* to_string(OperationalScenario scenario) {
  switch (scenario) {
    case OperationalScenario::kPredictiveSignal:
      return "predictive-signal";
    case OperationalScenario::kEarlyDetection:
      return "early-detection";
    case OperationalScenario::kPartOfTrigger:
      return "part-of-trigger";
    case OperationalScenario::kCoincidental:
      return "coincidental";
  }
  return "unknown";
}

OperationalScenario classify_scenario(const MappedAnomaly& anomaly,
                                      const ScenarioThresholds& thresholds) {
  switch (anomaly.outcome) {
    case AnomalyOutcome::kError:
      return OperationalScenario::kPartOfTrigger;
    case AnomalyOutcome::kFalseAlarm:
      return OperationalScenario::kCoincidental;
    case AnomalyOutcome::kEarlyWarning:
      return anomaly.lead >= thresholds.predictive_lead
                 ? OperationalScenario::kPredictiveSignal
                 : OperationalScenario::kEarlyDetection;
  }
  return OperationalScenario::kCoincidental;
}

std::vector<std::size_t> scenario_histogram(
    const MappingResult& mapping, const ScenarioThresholds& thresholds) {
  std::vector<std::size_t> counts(4, 0);
  for (const MappedAnomaly& anomaly : mapping.anomalies) {
    counts[static_cast<std::size_t>(
        classify_scenario(anomaly, thresholds))] += 1;
  }
  return counts;
}

}  // namespace nfv::core
