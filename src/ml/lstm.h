// LSTM layer with full backpropagation-through-time.
//
// Implements the standard LSTM of Hochreiter & Schmidhuber as used by the
// paper's anomaly detector (two stacked LSTM layers followed by a dense
// softmax over the syslog template vocabulary). Weights for the four gates
// are packed into one matrix so each training timestep is a single GEMM;
// scoring runs one fused kernel per layer step instead (score_step), in
// fp32 or int8, over gate-blocked copies of that matrix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ml/matrix.h"
#include "ml/param.h"
#include "util/rng.h"

namespace nfv::ml {

/// One layer's weights as the fused scoring step reads them, built once
/// per weight change by Lstm::step_weights (a scoring image holds one per
/// layer). Layer 0 takes its input term from a per-template table, so it
/// keeps only the recurrent block W[:, I:]; a layer above keeps all of W
/// and its bias. The fp32 and int8 products are gate-blocked
/// (pack_gate_blocks, the int8 one quantized straight from the fp32 W).
/// int8 keeps the input block W[:, :I] (layers above) and the recurrent
/// block W[:, I:] as two packs, each multiplying its own activation codes
/// (the layer below's h_t and this layer's h_{t−1}).
struct LstmStepWeights {
  std::vector<float> bias;      // gate-blocked b; empty in layer 0
  std::vector<float> weights;   // fp32 pack of W[:, I:] (layer 0) or W
  QuantGateBlocks quant;        // int8 pack of W[:, I:]
  QuantGateBlocks quant_input;  // int8 pack of W[:, :I] (layers above)
};

/// Where a scoring step's input term comes from: the layer below's h_t
/// (`x`, and in an int8 step its activation codes), or, in layer 0, each
/// row's table row plus its normalized Δt times the table's Δt column
/// (all gate-blocked).
struct LstmStepInput {
  const Matrix* x = nullptr;
  const std::uint8_t* x_codes = nullptr;  // the layer below's state.codes
  const float* const* table = nullptr;    // row r's table row
  const float* dt = nullptr;            // row r's normalized Δt
  const float* dt_gates = nullptr;
};

/// Recurrent state of the fused scoring step for a batch of rows. h is
/// double-buffered: step t writes h[t % 2] while its later gate blocks
/// still read h_{t−1} from the other buffer.
struct LstmState {
  Matrix h[2];  // (batch × H)
  Matrix c;     // (batch × 16·gate_block_count(H)); padding units unused
  /// int8: the activation codes of h[0] and h[1], written by the step that
  /// writes the h and read by this layer's next step and by the layer
  /// above; rows are H codes padded to a multiple of 4.
  std::vector<std::uint8_t> codes[2];
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

  /// This layer's weights for score_step: with `table_input` (layer 0)
  /// only the recurrent block, and with `int8` its int8 gate blocks
  /// instead of the fp32 pack. Throws util::CheckError in int8 when a
  /// weight is NaN or infinite.
  LstmStepWeights step_weights(bool table_input, bool int8) const;

  /// Size `state` for `batch` rows from the zero state.
  void reset_state(LstmState& state, std::size_t batch) const;

  /// Fused inference step t of every state row (no caching, no gradients):
  /// per tile of rows × one 16-unit gate block, one kernel runs the gate
  /// product, adds the bias (or layer 0's table row), runs the gate
  /// activations and the cell update and writes h_t to state.h[t % 2],
  /// without writing the gates to memory. At t = 0 the state is zero, so
  /// layer 0 runs no product and a layer above multiplies by its input
  /// block alone. fp32 keeps the training forward's k-ascending chains
  /// and activation kernels, so k steps reproduce forward()'s last hidden
  /// state bit for bit. int8 sums the activation codes of x (the layer
  /// below's, from input.x_codes) and of h_{t−1} (written by this layer's
  /// step t − 1) against the input and recurrent gate blocks in exact
  /// int32, dequantizes each sum as float(acc − zero_sums)·scales, and
  /// writes the codes of h_t next to it (state.codes[t % 2]), so no
  /// separate pass quantizes anything. An h of 0 has code 64, whose
  /// products the zero sums cancel exactly, so skipping the zero state's
  /// recurrent block changes no bit.
  void score_step(const LstmStepWeights& weights, const LstmStepInput& input,
                  std::size_t t, LstmState& state) const;

  std::vector<Param*> params() { return {&weight_, &bias_}; }
  std::size_t input_size() const { return input_size_; }
  std::size_t hidden_size() const { return hidden_size_; }
  Param& weight() { return weight_; }
  const Param& weight() const { return weight_; }
  Param& bias() { return bias_; }
  const Param& bias() const { return bias_; }

 private:
  /// Activated gates of the training forward: [input, h_prev] · Wᵀ + b,
  /// then the gate activations.
  void compute_gates(const Matrix& input, const Matrix& h_prev,
                     Matrix& concat_scratch, Matrix& gates) const;

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
  // in steady state. dw_partial_/db_partial_ hold one timestep's
  // parameter-gradient partial before it is added to weight_/bias_ grads.
  Matrix dgates_;      // pre-activation gate gradients (B × 4H)
  Matrix dw_partial_;  // (4H × (I+H))
  Matrix db_partial_;  // (1 × 4H)
  Matrix dh_next_;
  Matrix dc_next_;
  Matrix dconcat_;
  std::vector<float> packed_weight_;  // weight_ packed for dgates × W
};

}  // namespace nfv::ml
