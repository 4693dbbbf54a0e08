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
/// per StreamMonitorGroup or StreamMonitor, i.e. per scoring thread. A
/// warm call refills them without allocating, while the detector itself
/// stays const and shared.
struct WindowScratch {
  std::vector<LogView> views;        // default path: one view per window
  ml::WindowBatch windows;           // LSTM: the model-known windows
  std::vector<double*> slots;        // LSTM: each gathered window's score
  std::vector<double> scores;        // LSTM: log-likelihoods
  std::vector<std::size_t> ranks;    // LSTM: target ranks
  ml::SequenceModel::InferenceScratch model;
};

class AnomalyDetector {
 public:
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

  /// Score one vPE's (test) log stream. Implementations may emit one event
  /// per log position (LSTM) or per document window (feature baselines).
  /// `vocab` is kept for symmetry with training, but no detector reads it
  /// at score time (each scores against the vocabulary it was trained on),
  /// so callers that batch streams of different trees may pass 0.
  virtual std::vector<ScoredEvent> score(LogView logs,
                                         std::size_t vocab) const = 0;

  /// Score several streams at once — one result vector per input stream,
  /// in order. The default simply loops score(); detectors with a fused
  /// batched path (LSTM) override it to pack all streams' scoring windows
  /// into large forward batches. Results MUST be identical to calling
  /// score() per stream, and the call must remain const/thread-safe under
  /// the same contract as score().
  virtual std::vector<std::vector<ScoredEvent>> score_streams(
      std::span<const LogView> streams, std::size_t vocab) const {
    std::vector<std::vector<ScoredEvent>> out;
    out.reserve(streams.size());
    for (const LogView& logs : streams) out.push_back(score(logs, vocab));
    return out;
  }

  /// Score out.size() windows of `window_events` (k + 1) events each,
  /// laid back to back in `windows`, oldest event first. Each window is a
  /// stream of its own, so out[w] is the score score() gives its last
  /// event: the streaming runtime hands its staged windows straight in.
  /// Same const/thread-safety contract as score(); all mutable state lives
  /// in the caller's `scratch`. The default builds one view per window and
  /// calls score_streams; it serves per-log detectors only (a per-document
  /// detector emits nothing for a single window).
  virtual void score_windows(std::span<const logproc::ParsedLog> windows,
                             std::size_t window_events,
                             WindowScratch& scratch,
                             std::span<double> out) const {
    NFV_CHECK(window_events >= 1 &&
                  windows.size() == out.size() * window_events,
              "score_windows: " << windows.size() << " events are not "
                                << out.size() << " windows of "
                                << window_events);
    scratch.views.clear();
    for (std::size_t w = 0; w < out.size(); ++w) {
      scratch.views.push_back(windows.subspan(w * window_events,
                                              window_events));
    }
    const std::vector<std::vector<ScoredEvent>> events =
        score_streams(scratch.views, 0);
    for (std::size_t w = 0; w < out.size(); ++w) {
      NFV_CHECK(!events[w].empty(),
                "detector emitted no score for a " << window_events
                                                   << "-event window");
      out[w] = events[w].back().score;
    }
  }

  virtual bool trained() const = 0;
  virtual DetectorKind kind() const = 0;
  virtual EventGranularity granularity() const = 0;

  /// Model-memory footprint for observability (AsyncIngest::stats_json).
  /// Must be const/thread-safe under the same contract as score().
  virtual ModelMemoryStats model_memory() const { return {}; }
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
