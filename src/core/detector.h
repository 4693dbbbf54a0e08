// Common interface for the anomaly detectors compared in §5 (LSTM,
// Autoencoder, One-Class SVM, plus a PCA extension baseline).
//
// Detectors are trained only on "normal" logs (ticket windows excluded),
// support monthly incremental updates and the fast transfer-learning
// adaptation after software updates, and score a log stream position by
// "how surprising is this event given recent history" — higher is more
// anomalous.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "logproc/dataset.h"
#include "ml/sequence_model.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace nfv::core {

/// One scored position in a log stream.
struct ScoredEvent {
  nfv::util::SimTime time;
  double score = 0.0;  // higher = more anomalous
};

/// A view over one vPE's (time-sorted) parsed log stream. Training takes a
/// set of such views — one per vPE — so that sequence windows never splice
/// two different routers' streams together.
using LogView = std::span<const logproc::ParsedLog>;

enum class DetectorKind { kLstm, kAutoencoder, kOcSvm, kPca, kHmm };

const char* to_string(DetectorKind kind);

/// What one ScoredEvent covers. Per-log detectors (LSTM) score every
/// syslog line, so the ≥2-anomalies-within-minutes rule applies; per-
/// document detectors (TF-IDF baselines) already aggregate a window of
/// logs per event, so a single over-threshold document is a detection.
enum class EventGranularity { kPerLog, kPerDocument };

/// Resident model-memory footprint of a detector — the model share of a
/// fleet's bytes/vPE. `weight_bytes_fp32` counts the fp32
/// parameter values; `weight_bytes_quantized` the int8 gate blocks
/// (codes, scales, column sums) of an int8 scoring image, held next to
/// the fp32 weights (0 when the detector scores in fp32). Detectors
/// without a parameterized model report all-zero.
struct ModelMemoryStats {
  std::size_t weight_bytes_fp32 = 0;
  std::size_t weight_bytes_quantized = 0;
  bool quantized = false;
};

/// Buffers for AnomalyDetector::score_windows, owned by the caller: one
/// per StreamMonitorGroup, StreamMonitor or score_streams() call, i.e.
/// per scoring thread. A warm call refills them without allocating,
/// while the detector itself stays const and shared.
struct WindowScratch {
  ml::WindowBatch windows;           // LSTM: known windows; HMM: ids
  std::vector<double*> slots;        // LSTM: each gathered window's score
  std::vector<double> scores;        // LSTM: log-likelihoods
  std::vector<std::size_t> ranks;    // LSTM: target ranks
  ml::SequenceModel::InferenceScratch model;
};

class AnomalyDetector {
 public:
  /// Windows per score_windows call of score_streams (bounding its
  /// staging buffer) and rows per fused LSTM forward batch. Scores do not
  /// depend on it.
  static constexpr std::size_t kScoreBatch = 1024;

  virtual ~AnomalyDetector() = default;

  /// Train from scratch on normal logs (one view per vPE). `vocab` is the
  /// current template-dictionary size (may exceed the largest id present).
  virtual void fit(std::span<const LogView> streams, std::size_t vocab) = 0;

  /// Monthly incremental (online) update with fresh normal logs.
  virtual void update(std::span<const LogView> streams,
                      std::size_t vocab) = 0;

  /// Fast post-update adaptation (§4.3): copy-the-teacher semantics are
  /// internal; callers simply provide ~1 week of fresh logs.
  virtual void adapt(std::span<const LogView> streams,
                     std::size_t vocab) = 0;

  /// Score one vPE's (test) log stream. Per-log detectors inherit this
  /// one (score_streams of the one stream: an event per position with k
  /// predecessors); per-document detectors override it. No detector reads
  /// `vocab` at score time, so callers that batch streams of different
  /// trees may pass 0.
  virtual std::vector<ScoredEvent> score(LogView logs,
                                         std::size_t vocab) const;

  /// One result vector per stream, in order, each identical to score()
  /// of that stream. A per-log detector stages the window of every
  /// position of every stream into one flat buffer and scores it through
  /// score_windows, kScoreBatch windows per call, so many streams share
  /// each fused batch. A per-document detector loops score(). Const and
  /// thread-safe like score().
  std::vector<std::vector<ScoredEvent>> score_streams(
      std::span<const LogView> streams, std::size_t vocab) const;

  /// The history length k of a per-log detector's windows; 0 for a
  /// per-document detector.
  virtual std::size_t window() const { return 0; }

  /// Score out.size() staged windows of `window_events` = k + 2 events,
  /// back to back in `windows`, oldest first: out[w] scores a window's
  /// last event given the k before it, and its first event is read only
  /// for its time (the next event's Δt). Stream position i stages
  /// logs[i - k - 1 .. i], the first (i = k) with logs[0] repeated in
  /// front, so logs[0] reads Δt = 0. The single per-log scoring path (the
  /// default throws); const, with all mutable state in `scratch`.
  virtual void score_windows(std::span<const logproc::ParsedLog> windows,
                             std::size_t window_events,
                             WindowScratch& scratch,
                             std::span<double> out) const;

  virtual bool trained() const = 0;
  virtual DetectorKind kind() const = 0;
  virtual EventGranularity granularity() const = 0;

  /// Model-memory footprint for observability (AsyncIngest::stats_json).
  /// Must be const/thread-safe under the same contract as score().
  virtual ModelMemoryStats model_memory() const { return {}; }

 protected:
  /// score_windows' preconditions: trained, and out.size() windows of
  /// window() + 2 events (else util::CheckError).
  void check_windows(std::span<const logproc::ParsedLog> windows,
                     std::size_t window_events,
                     std::span<const double> out) const;

 private:
  std::vector<std::vector<ScoredEvent>> score_staged(
      std::span<const LogView> streams) const;
};

/// Mapping configuration adjusted to a detector's event granularity: per-
/// document events bypass the multi-anomaly cluster rule.
template <typename MappingConfigT>
MappingConfigT adapt_mapping_for(EventGranularity granularity,
                                 MappingConfigT config) {
  if (granularity == EventGranularity::kPerDocument) {
    config.min_cluster_size = 1;
  }
  return config;
}

}  // namespace nfv::core
