// Runtime streaming monitor.
//
// The paper envisions "a runtime predictive analysis system running in
// parallel with existing reactive monitoring systems to provide network
// operators timely warnings" (§1). StreamMonitor is that front-end: it
// consumes one raw syslog line at a time per vPE, mines/matches the
// template online, maintains the k-log history window, scores with the
// current detector, applies the ≥N-anomalies-within-T warning-signature
// rule, and emits warnings with bounded latency — no batch reprocessing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/detector.h"
#include "core/mapper.h"
#include "logproc/signature_tree.h"
#include "ml/sequence_model.h"

namespace nfv::core {

/// A warning signature raised by the streaming monitor.
struct StreamWarning {
  std::int32_t vpe = -1;
  nfv::util::SimTime time;          // time of the cluster's first anomaly
  std::size_t anomaly_count = 0;    // anomalies in the cluster so far
  double peak_score = 0.0;
  std::int32_t trigger_template = -1;  // template id of the first anomaly
};

struct StreamMonitorConfig {
  /// Detection threshold on the anomaly score.
  double threshold = 10.0;
  /// Warning rule: at least this many over-threshold events...
  std::size_t min_cluster_size = 2;
  /// ...within this span (paper: anomalies <1 min apart; rule uses 2 min).
  nfv::util::Duration cluster_span = nfv::util::Duration::of_minutes(2);
  /// History window length; must match the detector's window.
  std::size_t window = 10;
};

/// Throws util::CheckError unless `detector` is a non-null per-log
/// detector: streaming scores one line at a time, so the per-document
/// (TF-IDF) baselines serve the batch pipeline only.
void check_per_log(const AnomalyDetector* detector);

/// Per-vPE online monitor over a shared per-log detector. The detector is
/// not owned and may be swapped (e.g. after a monthly update) via
/// set_detector(); the history window survives the swap.
///
/// Concurrency contract: one StreamMonitor is single-threaded, but many
/// monitors may score against the SAME detector from different threads
/// concurrently — AnomalyDetector::score() is const and must be free of
/// hidden mutation (no lazy caches, no RNG draws). What must NOT overlap
/// with scoring is mutating the detector (fit/update/adapt) or calling
/// set_detector(): swap models between ingest batches, exactly like the
/// monthly-update cadence of the batch pipeline. The signature tree is
/// mutated by ingest() (online template mining) and therefore must be
/// per-monitor, or ingestion must go through ingest_parsed(). Per-monitor
/// trees MAY all be attached to one fleet-wide util::SharedInterner:
/// monitors on different threads then read the arena lock-free while any
/// of them admits new tokens (see the contract in util/interner.h);
/// nothing else about the per-monitor tree contract changes. Enforced by
/// tests/core/streaming_concurrency_test.cpp under TSan.
class StreamMonitor {
 public:
  using WarningCallback = std::function<void(const StreamWarning&)>;

  StreamMonitor(std::int32_t vpe, const AnomalyDetector* detector,
                logproc::SignatureTree* tree, StreamMonitorConfig config,
                WarningCallback on_warning);

  /// Feed one raw syslog line. Returns the anomaly score assigned to this
  /// line (0 while the history window is still filling): the score
  /// AnomalyDetector::score() gives this position of the monitor's stream.
  ///
  /// Ordering contract: a monitor expects per-vPE timestamps to be
  /// non-decreasing (syslog emission order). A line whose timestamp
  /// regresses below the latest anomaly already tracked is still scored,
  /// but for cluster purposes its time is clamped to that latest time —
  /// a clock blip can therefore neither spuriously split an active
  /// anomaly run (by making the *next* in-order gap look larger than it
  /// was) nor rewind a cluster's first-anomaly time.
  double ingest(nfv::util::SimTime time, std::string_view raw_line);

  /// Feed an already-parsed event (template id + time). Same ordering
  /// contract as ingest(). A negative template id throws util::CheckError
  /// and changes nothing.
  double ingest_parsed(const logproc::ParsedLog& log);

  /// Deferred ingestion for micro-batched scoring (StreamMonitorGroup):
  /// appends the event to the history and, from the stream's
  /// (window + 1)-th event on, appends its staged window (window + 2
  /// events, oldest first, as AnomalyDetector::score_windows reads them)
  /// to `windows` and returns true. The caller must later hand the externally computed
  /// score back via apply_score(), in staging order — the combination is
  /// exactly ingest_parsed() with the scoring hoisted out.
  bool stage_parsed(const logproc::ParsedLog& log,
                    std::vector<logproc::ParsedLog>& windows);

  /// Apply an externally computed anomaly score for a staged window:
  /// drives the same threshold / warning-cluster tracking as immediate
  /// ingestion.
  void apply_score(nfv::util::SimTime time, std::int32_t template_id,
                   double score);

  /// Online template mining for this monitor's stream (used by the group
  /// front-end before staging).
  logproc::SignatureTree& tree() { return *tree_; }

  /// Swap in a newer model (monthly update / post-update adaptation).
  void set_detector(const AnomalyDetector* detector);
  void set_threshold(double threshold);

  std::int32_t vpe() const { return vpe_; }
  std::size_t warnings_raised() const { return warnings_raised_; }
  /// Events accepted by this monitor (immediate AND staged ingestion,
  /// including window warm-up lines) — the per-shard line counter the
  /// runtime stats snapshots publish.
  std::size_t lines_ingested() const { return lines_ingested_; }
  /// Anomalies in the current (possibly still-growing) cluster run.
  std::size_t run_length() const { return run_count_; }
  const StreamMonitorConfig& config() const { return config_; }

 private:
  void track_cluster(nfv::util::SimTime time, double score,
                     std::int32_t template_id);

  std::int32_t vpe_;
  const AnomalyDetector* detector_;
  logproc::SignatureTree* tree_;
  StreamMonitorConfig config_;
  WarningCallback on_warning_;

  // The last `window`+2 events as a fixed ring (time and id: the model's
  // Δt input needs the times; the oldest is read for its time only).
  // history_next_ is the slot the next event overwrites, i.e. the oldest
  // event once the ring is full.
  std::vector<logproc::ParsedLog> history_;
  std::size_t history_next_ = 0;
  std::vector<logproc::ParsedLog> scratch_window_;  // ingest_parsed scratch
  // ingest_parsed's scoring buffers, made at its first scored line: a
  // monitor fed only through a StreamMonitorGroup never needs them.
  std::unique_ptr<WindowScratch> scratch_;
  // Current anomaly run (cluster candidate). Deliberately O(1): a
  // sustained anomaly storm grows the run for as long as it lasts, and
  // the emitted warning only needs the run's first time, size, peak and
  // trigger — never the full list of member times.
  nfv::util::SimTime run_first_;
  nfv::util::SimTime run_last_;
  std::size_t run_count_ = 0;
  double run_peak_ = 0.0;
  std::int32_t run_trigger_ = -1;
  bool run_reported_ = false;
  std::size_t warnings_raised_ = 0;
  std::size_t lines_ingested_ = 0;
};

/// Micro-batching front-end over a set of per-vPE monitor shards that
/// share one per-log detector. Ingested lines are staged (template mining
/// and history tracking happen immediately; scoring is deferred); flush()
/// then hands ALL staged windows across ALL shards to ONE
/// AnomalyDetector::score_windows call (one fused forward batch for the
/// LSTM) and replays the per-monitor warning tracking in arrival order.
/// No detector reads the vocabulary at score time, so shards whose trees
/// differ in size share the batch. Scores and warnings are identical to
/// immediate per-line ingestion, and the scores to score() of each
/// shard's stream; only the GEMM granularity changes.
///
/// Concurrency: a group is single-threaded (it serializes its shards'
/// history/cluster mutations); many groups may share one read-only
/// detector across threads under the same contract as StreamMonitor.
class StreamMonitorGroup {
 public:
  explicit StreamMonitorGroup(const AnomalyDetector* detector);

  /// Register a monitor shard; returns its shard id. The monitor must
  /// out-live the group, use the same detector and share the window
  /// length of the shards before it.
  std::size_t add(StreamMonitor* monitor);

  std::size_t shards() const { return monitors_.size(); }
  std::size_t pending() const { return entries_.size(); }

  /// Swap in a newer model for subsequent flushes (and nothing staged may
  /// be pending across the swap — callers quiesce exactly like the
  /// monthly-update cadence). Does not touch the shards' own detector
  /// pointers; a front-end that also uses immediate ingestion must swap
  /// those itself.
  void set_detector(const AnomalyDetector* detector);
  const AnomalyDetector* detector() const { return detector_; }

  /// Observer invoked once per staged entry at flush() time, in arrival
  /// order, with the GROUP-LOCAL shard id (the id add() returned), the
  /// entry's timestamp and its mined template id. This is the template-id
  /// stream the online-retrain trainer samples; the tap runs before
  /// scoring and must not touch the group, its monitors or the detector.
  using SampleTap = std::function<void(
      std::size_t shard, nfv::util::SimTime time, std::int32_t template_id)>;
  void set_sample_tap(SampleTap tap) { sample_tap_ = std::move(tap); }

  /// Stage one raw line for `shard` (template mined via the shard's tree).
  void ingest(std::size_t shard, nfv::util::SimTime time,
              std::string_view raw_line);

  /// Stage one already-parsed event for `shard`; a negative template id
  /// throws util::CheckError and stages nothing.
  void ingest_parsed(std::size_t shard, const logproc::ParsedLog& log);

  /// Score every staged window in one score_windows call and drive the
  /// shards' warning tracking. Returns the per-line scores in arrival
  /// order (0 for lines whose history window was still filling), as a
  /// view of a buffer the group owns: valid until the next flush().
  /// Once warm, staging and flushing allocate nothing.
  std::span<const double> flush();

 private:
  struct PendingEntry {
    std::size_t shard = 0;
    nfv::util::SimTime time;
    std::int32_t template_id = -1;
    // Offset of this entry's window in windows_; npos when the history
    // was still filling.
    std::size_t window = npos;
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  };

  const AnomalyDetector* detector_;
  SampleTap sample_tap_;
  std::vector<StreamMonitor*> monitors_;
  std::vector<PendingEntry> entries_;
  std::size_t window_events_ = 0;  // k + 2, shared by every shard
  // Every staged window back to back, the flush's per-window and per-line
  // scores, and the detector's gather buffers. All keep their capacity
  // across flushes (one group per worker thread, like a per-core batch
  // buffer), so a warm flush does not allocate.
  std::vector<logproc::ParsedLog> windows_;
  std::vector<double> window_scores_;
  std::vector<double> scores_;
  WindowScratch scratch_;
};

/// §5.3 "Operational findings": the four scenarios a detected condition
/// falls into once tickets are known.
enum class OperationalScenario : std::uint8_t {
  kPredictiveSignal,   // precedes the ticket by a useful margin
  kEarlyDetection,     // just ahead of / at ticket generation
  kPartOfTrigger,      // inside the infected period (the ticket's own storm)
  kCoincidental,       // unrelated to any ticket (candidate suppression rule)
};

const char* to_string(OperationalScenario scenario);

struct ScenarioThresholds {
  /// Minimum lead for a warning to count as genuinely predictive.
  nfv::util::Duration predictive_lead = nfv::util::Duration::of_minutes(15);
};

/// Classify a mapped anomaly into the four operational scenarios.
OperationalScenario classify_scenario(const MappedAnomaly& anomaly,
                                      const ScenarioThresholds& thresholds = {});

/// Histogram of scenarios over a mapping result (one count per scenario,
/// indexed by the enum's underlying value).
std::vector<std::size_t> scenario_histogram(
    const MappingResult& mapping, const ScenarioThresholds& thresholds = {});

}  // namespace nfv::core
