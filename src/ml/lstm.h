// LSTM layer with full backpropagation-through-time.
//
// Implements the standard LSTM of Hochreiter & Schmidhuber as used by the
// paper's anomaly detector (two stacked LSTM layers followed by a dense
// softmax over the syslog template vocabulary). Weights for the four gates
// are packed into one matrix so each timestep is a single GEMM.
#pragma once

#include <string>
#include <vector>

#include "ml/matrix.h"
#include "ml/param.h"
#include "util/rng.h"

namespace nfv::ml {

/// Inference-time recurrent state for streaming scoring.
struct LstmState {
  Matrix h;  // (batch × hidden)
  Matrix c;  // (batch × hidden)
};

/// Single LSTM layer. Gate packing order along the 4H axis: input, forget,
/// cell (candidate), output. The forget-gate bias is initialized to +1, the
/// usual trick to preserve memory early in training.
class Lstm {
 public:
  Lstm(std::string name, std::size_t input_size, std::size_t hidden_size,
       nfv::util::Rng& rng);

  /// Full-sequence forward. `inputs[t]` is (batch × input_size); returns one
  /// hidden matrix per step. Initial state is zero. Caches everything needed
  /// for backward().
  const std::vector<Matrix>& forward(const std::vector<Matrix>& inputs);

  /// Full BPTT. `grad_hidden[t]` is dL/dh_t from the upper layer (may be
  /// all-zero for steps without loss). Accumulates weight gradients and
  /// returns dL/dx_t per step.
  const std::vector<Matrix>& backward(const std::vector<Matrix>& grad_hidden);

  /// Stateful single-step inference (no caching, no gradients). The gate
  /// GEMM reads `packed_weight`, which must come from
  /// pack_transb(weight().value): a scoring image packs each layer once
  /// per weight change and reuses it for every time step. The scratch
  /// matrices are resized in place, so tight scoring loops allocate
  /// nothing per step. Gate and cell math are the kernels forward() runs,
  /// so k steps reproduce forward()'s last hidden state bit for bit.
  void step(const Matrix& input, LstmState& state,
            const std::vector<float>& packed_weight, Matrix& concat_scratch,
            Matrix& gates_scratch) const;

  /// Inference step whose input term is precomputed: on entry each row of
  /// `gates` (B × 4H) holds x·W_xᵀ + b (SequenceModel's per-template
  /// table for layer 0). The step adds h·W_hᵀ through `packed_recurrent`
  /// (pack_transb(weight().value, input_size(), …), the recurrent block),
  /// or nothing when it is null — the zero state of a window's first
  /// step — then runs the gate activations and the cell update in place.
  void step_input_gates(Matrix& gates, LstmState& state,
                        const std::vector<float>* packed_recurrent,
                        Matrix& recurrent_scratch) const;

  /// First step from the zero state: the gate GEMM reads only the input
  /// block W[:, :I] (`packed_input`, pack_transb(weight().value, 0,
  /// input_size(), …)). Bit-identical to step() on a zero state: the terms
  /// it skips are the zeros at the end of every k-ascending chain.
  void step_zero_state(const Matrix& input, LstmState& state,
                       const std::vector<float>& packed_input,
                       Matrix& gates_scratch) const;

  /// As step(), but the gate pre-activation GEMM runs on the
  /// packed int8 image of this layer's weight matrix (`qweight` must come
  /// from quantize_pack_b(weight().value)). Bias, gate activations and the
  /// cell update are the untouched fp32 code paths — only the matmul is
  /// quantized, so the result inherits matmul_quant's cross-tier and
  /// cross-batch bit-identity.
  void step_quantized(const Matrix& input, LstmState& state,
                      const QuantizedMatrix& qweight, Matrix& concat_scratch,
                      Matrix& gates_scratch) const;

  /// Zero-initialized state for a given batch size.
  LstmState make_state(std::size_t batch) const;

  std::vector<Param*> params() { return {&weight_, &bias_}; }
  std::size_t input_size() const { return input_size_; }
  std::size_t hidden_size() const { return hidden_size_; }
  Param& weight() { return weight_; }
  const Param& weight() const { return weight_; }
  Param& bias() { return bias_; }
  const Param& bias() const { return bias_; }

 private:
  /// Gate pre-activations through the packed fp32 weight, the int8 image,
  /// or (both null, the training forward) matmul_transb on weight_.
  void compute_gates(const Matrix& input, const Matrix& h_prev,
                     Matrix& concat_scratch, Matrix& gates,
                     const std::vector<float>* packed_weight,
                     const QuantizedMatrix* qweight) const;
  /// Gate activations in place, after adding row r of `row_addend` (when
  /// given) or `bias` (when not null) to row r's pre-activations.
  void activate_gates(Matrix& gates, const float* bias,
                      const Matrix* row_addend) const;
  void cell_update(const Matrix& gates, LstmState& state) const;

  std::size_t input_size_;
  std::size_t hidden_size_;
  Param weight_;  // (4H × (I+H))
  Param bias_;    // (1 × 4H)

  // Caches from the last forward pass (one entry per timestep).
  std::vector<Matrix> concat_cache_;  // [x_t, h_{t-1}]  (B × (I+H))
  std::vector<Matrix> gates_cache_;   // post-activation (B × 4H)
  std::vector<Matrix> c_cache_;       // cell states     (B × H)
  std::vector<Matrix> h_cache_;       // hidden states   (B × H)
  std::vector<Matrix> grad_inputs_;

  // Backward-pass scratch, reused across calls so BPTT allocates nothing
  // in steady state. dgates_cache_ keeps every step's pre-activation gate
  // gradients alive for the deferred (parallel) weight-gradient phase;
  // dw_partials_/db_partials_ hold the per-timestep parameter-gradient
  // partials that are reduced into weight_/bias_ grads in fixed t-order.
  std::vector<Matrix> dgates_cache_;  // (B × 4H) per step
  std::vector<Matrix> dw_partials_;   // (4H × (I+H)) per step
  std::vector<Matrix> db_partials_;   // (1 × 4H) per step
  Matrix dh_next_;
  Matrix dc_next_;
  Matrix dconcat_;
  std::vector<float> packed_weight_;  // weight_ packed for dgates × W
};

}  // namespace nfv::ml
