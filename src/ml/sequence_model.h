// The paper's syslog sequence model: embedding → 2 stacked LSTM layers →
// dense softmax over the template vocabulary (§5.1: "Our final LSTM model
// consists of 2 LSTM layers and 1 dense layer").
//
// Given the k previous syslog tuples (template id, inter-arrival time) the
// model predicts a probability distribution for the (k+1)-th template. A low
// log-likelihood of the actually observed template flags an anomaly.
//
// Training runs the LSTM layers' cached forward and BPTT in fp32. Scoring
// reads an immutable ScoringImage and runs one fused Lstm::score_step per
// layer and time step, with fp32 or int8 gate products: precision is a
// property of the image, quantized from the fp32 weights when it is
// built. Layer 0's input term comes from a per-template fp32 table and
// the output head is an fp32 product in both precisions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "ml/dense.h"
#include "ml/embedding.h"
#include "ml/lstm.h"
#include "ml/matrix.h"
#include "ml/optimizer.h"
#include "util/rng.h"

namespace nfv::ml {

/// The one window format of training and scoring: window w's k template
/// ids and inter-arrival times Δt (seconds) sit at [w·k, (w+1)·k) of
/// `ids` / `dts`, and the id of the template that followed at targets[w].
/// A caller that clears and refills one batch keeps its capacity, so a
/// warm gather allocates nothing.
struct WindowBatch {
  std::vector<std::int32_t> ids;
  std::vector<float> dts;
  std::vector<std::int32_t> targets;

  std::size_t size() const { return targets.size(); }
  void clear() {
    ids.clear();
    dts.clear();
    targets.clear();
  }
  /// Append window `row` of `from`, whose windows are `window` long.
  void append_row(const WindowBatch& from, std::size_t row,
                  std::size_t window);
};

/// Model hyper-parameters. The paper reports performance is "fairly
/// insensitive to parameter choices"; defaults here are sized for the
/// simulator's vocabulary.
struct SequenceModelConfig {
  std::size_t vocab = 0;        // template-dictionary size (required)
  std::size_t embed_dim = 16;   // template embedding width
  std::size_t hidden = 32;      // LSTM hidden width
  std::size_t layers = 2;       // stacked LSTM layers
  std::size_t window = 10;      // k = history length
};

/// Two-layer LSTM next-template language model with manual backprop.
/// Copyable: copying yields an independent model with identical weights,
/// which is exactly the teacher→student step of the transfer-learning
/// adaptation (§4.3).
class SequenceModel {
 public:
  SequenceModel(const SequenceModelConfig& config, nfv::util::Rng& rng);

  const SequenceModelConfig& config() const { return config_; }

  /// All trainable parameters, bottom (embedding) to top (output dense).
  std::vector<Param*> params();
  /// Read-only view in the same order (e.g. to assert freeze state).
  std::vector<const Param*> params() const;

  /// One optimization step on a batch. Returns mean cross-entropy loss.
  /// Gradients are clipped to `max_grad_norm` before the optimizer step.
  double train_batch(const WindowBatch& batch, Optimizer& optimizer,
                     double max_grad_norm = 5.0);

  /// Immutable scoring image of the weights, built once per weight or
  /// precision change by build_scoring_image() and read by every scoring
  /// call until then (the model never caches one: train_batch would have
  /// to invalidate it). In both precisions it holds layer 0's input term
  /// as a per-template fp32 table, input_gates[v] = W_x·embed[v] + b, and
  /// its Δt column, both gate-blocked (pack_gate_vector), and the packed
  /// fp32 output head. Per layer it holds the step weights of the fused
  /// scoring step (Lstm::step_weights): gate-blocked fp32 packs, or, in
  /// an int8 image, 16-channel int8 gate blocks quantized from the fp32
  /// weights.
  struct ScoringImage {
    std::size_t vocab = 0;  // the model vocabulary it was built at; 0 = empty
    bool quantized = false;  // int8 gate products
    Matrix input_gates;           // vocab × gate-blocked 4H
    std::vector<float> dt_gates;  // layer 0's Δt weight column, gate-blocked
    std::vector<LstmStepWeights> layers;
    std::vector<float> output;

    bool empty() const { return vocab == 0; }
    /// Resident bytes of the layers' gate-product weights: the fp32 packs,
    /// or the int8 gate blocks' codes, scales and column sums.
    std::size_t gate_weight_bytes() const;
  };

  /// Build the scoring image of the current weights, with int8 gate
  /// products when `int8` is set. The int8 blocks are a pure function of
  /// the fp32 weights (Lstm::step_weights), so two builds from the same
  /// weights are byte-identical. Throws util::CheckError for an int8
  /// image of weights holding a NaN or an infinity.
  ScoringImage build_scoring_image(bool int8 = false) const;

  /// Reusable buffers for the batched scoring path. One scratch belongs to
  /// exactly one calling thread; reusing it across calls means the fused
  /// forward loop performs no heap allocation once shapes have stabilized.
  struct InferenceScratch {
    std::vector<LstmState> states;         // one per LSTM layer
    std::vector<const float*> table_rows;  // layer 0's table row per (t, row)
    std::vector<float> dts;                // normalized Δt per (t, row)
    Matrix logits;
    Matrix probs;                          // rank mode's softmax
  };

  /// Batched forward-only scoring: the log-likelihood of each window's
  /// observed target, in fused sub-batches of at most `batch_size` rows,
  /// read from `image`, which must come from build_scoring_image() of the
  /// current weights, in the image's precision. Every row's arithmetic is
  /// independent of its batch neighbours (per-row gathers, per-row
  /// products, per-row log-sum-exp), so results are bit-identical for ANY
  /// batch size, and to score_log_likelihood for an fp32 image.
  /// `out.size()` must equal `windows.size()`.
  void score_batched(const ScoringImage& image, const WindowBatch& windows,
                     std::size_t batch_size, InferenceScratch& scratch,
                     std::span<double> out) const;

  /// As score_batched, but emits target ranks (DeepLog's top-k rule).
  void score_ranks_batched(const ScoringImage& image,
                           const WindowBatch& windows, std::size_t batch_size,
                           InferenceScratch& scratch,
                           std::span<std::size_t> out) const;

  /// Serial references of the batched scorers: one batch, scored from an
  /// fp32 scoring image built for the call.
  /// predict() fills probability rows over the vocabulary, one per window.
  void predict(const WindowBatch& batch, Matrix& probs) const;

  /// Log-likelihood of each window's observed target under the model.
  std::vector<double> score_log_likelihood(const WindowBatch& batch) const;

  /// Rank (0-based) of each window's observed target in the predicted
  /// distribution: 0 = most likely next template. DeepLog-style detection
  /// flags an event whose rank is ≥ k.
  std::vector<std::size_t> score_target_ranks(const WindowBatch& batch) const;

  /// Reusable buffers for the training path — the mirror of
  /// InferenceScratch: once shapes have stabilized,
  /// forward_backward/train_batch perform no steady-state heap allocation
  /// (the LSTM layers hold their own BPTT scratch the same way).
  struct TrainingScratch {
    std::vector<Matrix> inputs;                  // k × (B × input_width)
    std::vector<std::vector<std::int32_t>> ids;  // k × B gathered ids
    std::vector<Matrix> grad_hidden;             // k × (B × hidden)
    Matrix grad_logits;
  };

  /// Freeze the embedding and the bottom `n` LSTM layers; the remaining
  /// layers (and the output head) stay trainable. Passing 0 unfreezes all.
  void freeze_lower_layers(std::size_t n);

  /// Extend the template vocabulary (new embedding rows + output columns
  /// randomly initialized); existing weights are preserved. Needed when a
  /// software update introduces previously unseen templates.
  void grow_vocab(std::size_t new_vocab, nfv::util::Rng& rng);

  /// Resident bytes of all fp32 trainable parameter values.
  std::size_t fp32_weight_bytes() const;

  /// Persist / restore the config and the fp32 parameters; the stream
  /// ends after the last parameter.
  void save(std::ostream& os) const;
  static SequenceModel load(std::istream& is);

 private:
  /// Builds per-timestep input matrices (embedding + Δt) of windows
  /// [0, n) for the training forward. Reuses the capacity of `inputs` and
  /// `ids_steps` across calls.
  void build_inputs(const WindowBatch& windows, std::size_t n,
                    std::vector<Matrix>& inputs,
                    std::vector<std::vector<std::int32_t>>& ids_steps) const;

  /// Forward windows [start, start + n) through the fused scoring steps
  /// of the LSTM stack into scratch.logits.
  void forward_logits(const ScoringImage& image, const WindowBatch& windows,
                      std::size_t start, std::size_t n,
                      InferenceScratch& scratch) const;

  /// Throws util::CheckError unless `windows` holds whole windows of
  /// config().window ids and Δt each.
  void check_windows(const WindowBatch& windows) const;

  double forward_backward(const WindowBatch& batch);

  SequenceModelConfig config_;
  Embedding embedding_;
  std::vector<Lstm> lstm_layers_;
  Dense output_;

  // Training-only scratch reused across train_batch calls (hoisted out of
  // the per-batch loop; copying a model simply copies the buffers).
  TrainingScratch train_scratch_;
};

/// Whole seconds of Δt in [0, kDtTableSeconds) that normalize_dt reads
/// from a table instead of evaluating log1p.
constexpr std::size_t kDtTableSeconds = 16384;

/// Normalization applied to Δt before it enters the network:
/// log1p(max(Δt, 0))·0.1, a small bounded feature. Whole seconds below
/// kDtTableSeconds read a table filled from that expression, so every
/// input, −0.0f, NaN and ±Inf included, gets the expression's bits.
float normalize_dt(float dt_seconds);

}  // namespace nfv::ml
