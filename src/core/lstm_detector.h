// The paper's primary contribution: LSTM-based unsupervised anomaly
// detection on syslog template sequences (§4.2).
//
// Training uses only "normal" logs. The detector learns to predict the
// next template from the k previous (template, Δt) tuples; at scoring
// time the anomaly score of a log is the negative log-likelihood the
// model assigns to it. Includes the paper's iterative minority-pattern
// over-sampling loop (rare-but-normal patterns are over-sampled between
// training rounds until the training false-positive rate stops improving).
// Training and scoring share one window format, ml::WindowBatch: a round
// gathers every stream's windows into one flat batch, and the subsample,
// the over-sampling and the minibatches select rows of it.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>

#include "core/detector.h"
#include "ml/sequence_model.h"

namespace nfv::core {

/// How the next-template prediction is turned into an anomaly score.
enum class LstmScoreMode : std::uint8_t {
  /// −log p(observed template) — the paper's thresholded log-likelihood.
  kLogLikelihood,
  /// Rank of the observed template in the predicted distribution —
  /// DeepLog's top-k rule (anomalous if the observed template is not
  /// among the k most likely continuations). Thresholding the rank at k
  /// reproduces DeepLog exactly; sweeping it yields a PRC.
  kTargetRank,
};

struct LstmDetectorConfig {
  std::size_t window = 10;
  std::size_t embed_dim = 16;
  std::size_t hidden = 32;
  std::size_t layers = 2;       // paper: 2 LSTM layers + 1 dense
  std::size_t batch_size = 64;
  std::size_t initial_epochs = 4;
  std::size_t update_epochs = 2;
  std::size_t adapt_epochs = 4;
  float initial_lr = 3e-3f;
  float update_lr = 1e-3f;
  float adapt_lr = 3e-3f;
  /// Cap on training windows per fit/update (uniform subsample beyond it).
  std::size_t max_train_windows = 4000;
  /// Minority over-sampling (§4.2): on/off, max refinement rounds, the
  /// training-score quantile treated as "misclassified as anomaly", and
  /// the replication factor for those windows.
  bool oversample = true;
  std::size_t oversample_rounds = 2;
  double oversample_quantile = 0.03;
  std::size_t oversample_factor = 4;
  /// Layers frozen during transfer adaptation (embedding is frozen too
  /// whenever this is > 0).
  std::size_t adapt_frozen_layers = 1;
  std::uint64_t seed = 1234;
  /// Score assigned to events involving templates unseen at training time
  /// (in kTargetRank mode the unknown score is the vocabulary size).
  double unknown_score = 27.6;  // ≈ −log(1e-12)
  LstmScoreMode score_mode = LstmScoreMode::kLogLikelihood;
  /// Quantized steady-state scoring: after every fit/update/adapt the
  /// scoring image is built with int8 gate products, quantized per
  /// channel from the fp32 weights (SequenceModel::build_scoring_image),
  /// and all scoring — score / score_streams and async-ingest flushes,
  /// all through score_windows — runs the fused int8 step. Training, and
  /// the over-sampling rounds' scoring between training rounds, stay
  /// fp32; the correctness contract is the rank-agreement gate (see
  /// README "Quantized scoring").
  bool quantize = false;
};

class LstmDetector final : public AnomalyDetector {
 public:
  explicit LstmDetector(const LstmDetectorConfig& config = {});

  /// Heap-allocated teacher → student copy (copying is the teacher →
  /// student step of transfer adaptation): the clone the online-retrain
  /// trainer fine-tunes and installs while the original keeps scoring.
  /// Weights, config (including quantize mode) and RNG state follow.
  std::unique_ptr<LstmDetector> clone_as_teacher() const {
    return std::make_unique<LstmDetector>(*this);
  }

  void fit(std::span<const LogView> streams, std::size_t vocab) override;
  void update(std::span<const LogView> streams, std::size_t vocab) override;
  void adapt(std::span<const LogView> streams, std::size_t vocab) override;
  std::size_t window() const override { return config_.window; }

  /// Gathers the windows into `scratch` and scores them from the scoring
  /// image, with no per-window allocation or per-call weight packing. A
  /// window holding a template the model has never seen, among its k + 1
  /// scored events, scores the pessimistic constant.
  void score_windows(std::span<const logproc::ParsedLog> windows,
                     std::size_t window_events, WindowScratch& scratch,
                     std::span<double> out) const override;

  /// Toggle quantized scoring on an already-trained detector (e.g. after
  /// load, or to build the quantized shadow for swap_detector): rebuilds
  /// the scoring image from the current fp32 weights in int8 (on) or fp32
  /// (off). Also updates config().quantize so later retraining keeps the
  /// chosen mode.
  void set_quantized(bool on);

  /// Resident model memory (fp32 weights, and the int8 image's gate
  /// blocks when scoring in int8), zeros before fit.
  ModelMemoryStats model_memory() const override;

  bool trained() const override { return model_.has_value(); }
  DetectorKind kind() const override { return DetectorKind::kLstm; }
  EventGranularity granularity() const override {
    return EventGranularity::kPerLog;
  }

  const LstmDetectorConfig& config() const { return config_; }
  const ml::SequenceModel& model() const { return *model_; }

  /// Persist / restore the trained model: score mode, window, the fp32
  /// model (SequenceModel::save) and the precision flag (0 = fp32, 1 =
  /// int8). load() derives an int8 image from the loaded fp32 weights,
  /// which gives the saved detector's image byte for byte. It throws
  /// util::CheckError, naming the field, on a score mode outside
  /// LstmScoreMode, a header window that differs from the model's or a
  /// precision flag other than 0 or 1.
  void save(std::ostream& os) const;
  static LstmDetector load(std::istream& is);

 private:
  /// Rebuild the scoring image from the current weights, in the
  /// precision of config().quantize. Called wherever they change (fit /
  /// update / adapt, set_quantized, load) and never at score time, so
  /// every score path stays const and lock-free.
  void refresh_image();

  /// Score `windows` (per score_mode) from the image in fused batches,
  /// writing window i's anomaly score to *scratch.slots[i]. Every
  /// template id must be inside the model vocabulary.
  void score_gathered(const ml::WindowBatch& windows,
                      WindowScratch& scratch) const;

  /// Every stream's training windows in one batch, subsampled in place to
  /// max_train_windows rows.
  ml::WindowBatch prepare_windows(std::span<const LogView> streams) const;
  /// `epochs` passes over the given rows of `windows` (a row may repeat),
  /// shuffled each epoch, in minibatches of batch_size, with a fresh Adam;
  /// leaves an fp32 image of the new weights for the over-sampling loop.
  void train_epochs(const ml::WindowBatch& windows,
                    std::vector<std::size_t> rows, std::size_t epochs,
                    float lr);
  void oversample_refine(const ml::WindowBatch& windows);

  LstmDetectorConfig config_;
  std::optional<ml::SequenceModel> model_;
  /// model_'s scoring image; copied with the detector, so an installed
  /// clone scores without building one.
  ml::SequenceModel::ScoringImage image_;
  mutable nfv::util::Rng rng_;
};

}  // namespace nfv::core
