// The paper's syslog sequence model: embedding → 2 stacked LSTM layers →
// dense softmax over the template vocabulary (§5.1: "Our final LSTM model
// consists of 2 LSTM layers and 1 dense layer").
//
// Given the k previous syslog tuples (template id, inter-arrival time) the
// model predicts a probability distribution for the (k+1)-th template. A low
// log-likelihood of the actually observed template flags an anomaly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
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

  /// Immutable fp32 scoring image of the weights, built once per weight
  /// change by build_scoring_image() and read by every scoring call until
  /// then (the model never caches one: train_batch would have to
  /// invalidate it). It holds
  ///   - layer 0's input term as a per-template table,
  ///     input_gates[v] = W_x·embed[v] + b (vocab × 4H), and its Δt column;
  ///   - layer 0's recurrent block W_h, packed;
  ///   - for each layer above, the input block W[:, :I] (its zero-state
  ///     first step) and the full gate matrix, packed;
  ///   - the output head, packed.
  /// A quantized model's image is empty: its int8 sidecar is packed at
  /// calibration and every int8 step runs step_quantized.
  struct ScoringImage {
    std::size_t vocab = 0;  // the model vocabulary it was built at; 0 = empty
    Matrix input_gates;
    std::vector<float> dt_gates;    // layer 0's Δt weight column
    std::vector<float> recurrent0;
    std::vector<std::vector<float>> input_blocks;  // layer l at [l − 1]
    std::vector<std::vector<float>> gate_weights;  // layer l at [l − 1]
    std::vector<float> output;

    bool empty() const { return vocab == 0; }
  };

  /// Build the scoring image of the current weights (empty when
  /// quantized).
  ScoringImage build_scoring_image() const;

  /// Reusable buffers for the batched scoring path. One scratch belongs to
  /// exactly one calling thread; reusing it across calls means the fused
  /// forward loop performs no heap allocation once shapes have stabilized.
  struct InferenceScratch {
    std::vector<Matrix> inputs;    // int8: k × (B × input_width)
    std::vector<LstmState> states; // one per LSTM layer
    Matrix concat;                 // Lstm::step concat scratch
    Matrix gates;                  // gate pre-activations of one layer
    Matrix recurrent;              // layer 0's h·W_hᵀ
    Matrix logits;
    Matrix probs;                  // rank mode's softmax
  };

  /// Batched forward-only scoring: the log-likelihood of each window's
  /// observed target, in fused sub-batches of at most `batch_size` rows.
  /// fp32 reads `image`, which must come from build_scoring_image() of the
  /// current weights (a quantized model reads its sidecar instead). Every
  /// row's arithmetic is independent of its batch neighbours (per-row
  /// gathers, per-row GEMM dot products, per-row log-sum-exp), so results
  /// are bit-identical to score_log_likelihood for ANY batch size and any
  /// thread count. `out.size()` must equal `windows.size()`.
  void score_batched(const ScoringImage& image, const WindowBatch& windows,
                     std::size_t batch_size, InferenceScratch& scratch,
                     std::span<double> out) const;

  /// As score_batched, but emits target ranks (DeepLog's top-k rule).
  void score_ranks_batched(const ScoringImage& image,
                           const WindowBatch& windows, std::size_t batch_size,
                           InferenceScratch& scratch,
                           std::span<std::size_t> out) const;

  /// Serial references of the batched scorers: one batch, scored from a
  /// scoring image built for the call.
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
  /// software update introduces previously unseen templates. Drops any
  /// quantized sidecar (the output head changed shape).
  void grow_vocab(std::size_t new_vocab, nfv::util::Rng& rng);

  /// Post-training int8 sidecar: the per-layer LSTM gate matrices and the
  /// dense output head, quantized per output channel and pre-packed for
  /// matmul_quant. The embedding is a gather (no GEMM) and the biases are
  /// O(width) vectors, so both stay fp32. Calibrated once from the fp32
  /// weights; the fp32 parameters remain the source of truth for
  /// training/serialization.
  struct QuantizedWeights {
    std::vector<QuantizedMatrix> lstm;  // one per layer, (4H × (I+H))
    QuantizedMatrix output;             // (vocab × hidden)
    std::size_t weight_bytes() const;
  };

  /// (Re)calibrate the int8 sidecar from the current fp32 weights. Every
  /// scoring entry point (predict, score_*, score_batched /
  /// score_ranks_batched) then routes its GEMMs through matmul_quant, so
  /// the serial references and the batched path stay mutually
  /// bit-identical within quantized mode. Gate/cell math, softmax and the
  /// embedding gather are unchanged fp32.
  void quantize();
  /// Drop the sidecar and return to fp32 scoring.
  void clear_quantized() { quantized_.reset(); }
  bool quantized() const { return quantized_.has_value(); }
  const QuantizedWeights* quantized_weights() const {
    return quantized_ ? &*quantized_ : nullptr;
  }

  /// Resident bytes of all fp32 trainable parameter values.
  std::size_t fp32_weight_bytes() const;
  /// Resident bytes of the int8 sidecar (0 when not quantized).
  std::size_t quantized_weight_bytes() const;

  void save(std::ostream& os) const;
  static SequenceModel load(std::istream& is);

 private:
  /// Builds per-timestep input matrices (embedding + Δt) of windows
  /// [start, start + n). Reuses the capacity of `inputs` (and
  /// `ids_steps`) across calls.
  void build_inputs(const WindowBatch& windows, std::size_t start,
                    std::size_t n, std::vector<Matrix>& inputs,
                    std::vector<std::vector<std::int32_t>>* ids_steps) const;

  /// Forward windows [start, start + n) through the stepped (cache-free)
  /// LSTM stack into scratch.logits: the image path in fp32,
  /// step_quantized in int8.
  void forward_logits(const ScoringImage& image, const WindowBatch& windows,
                      std::size_t start, std::size_t n,
                      InferenceScratch& scratch) const;

  /// One time step of layer 0 from the image's table: gathers each row's
  /// input gates, then adds the recurrent term unless t == 0.
  void layer0_step(const ScoringImage& image, const WindowBatch& windows,
                   std::size_t start, std::size_t t,
                   InferenceScratch& scratch) const;

  /// Throws util::CheckError unless `windows` holds whole windows of
  /// config().window ids and Δt each.
  void check_windows(const WindowBatch& windows) const;

  double forward_backward(const WindowBatch& batch);

  SequenceModelConfig config_;
  Embedding embedding_;
  std::vector<Lstm> lstm_layers_;
  Dense output_;

  // int8 scoring sidecar; absent = fp32 scoring. Invalidated whenever the
  // fp32 weights change (train_batch, grow_vocab) — callers re-quantize()
  // after training if they want to keep scoring quantized.
  std::optional<QuantizedWeights> quantized_;

  // Training-only scratch reused across train_batch calls (hoisted out of
  // the per-batch loop; copying a model simply copies the buffers).
  TrainingScratch train_scratch_;
};

/// Normalization applied to Δt before it enters the network; exposed for
/// tests. Maps seconds to a small bounded feature via log1p scaling.
float normalize_dt(float dt_seconds);

}  // namespace nfv::ml
