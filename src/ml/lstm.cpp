#include "ml/lstm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "ml/activations.h"
#include "ml/simd_kernels.h"
#include "util/check.h"

namespace nfv::ml {

namespace {

/// Cell/hidden update for one row of the training forward on the active
/// kernel tier (`kernels` null: baseline). The fused scoring step
/// evaluates the same expressions per unit, so k scoring steps reproduce
/// the forward pass bit for bit; `c` may alias `cp`.
void cell_forward_row(const float* g, const float* cp, float* c, float* hh,
                      std::size_t h, const simd::Kernels* kernels) {
  if (kernels != nullptr) {
    kernels->cell_forward_row(g, cp, c, hh, h);
    return;
  }
  for (std::size_t j = 0; j < h; ++j) {
    const float cj = g[h + j] * cp[j] + g[j] * g[2 * h + j];
    c[j] = cj;
    hh[j] = g[3 * h + j] * std::tanh(cj);
  }
}

/// Gate activations for one row on the active kernel tier, after adding
/// the bias `add`. Same per-element order as an add_row_vector followed by
/// the activation sweeps.
void gate_activation_row(float* g, const float* add, std::size_t h,
                         const simd::Kernels* kernels) {
  if (kernels != nullptr) {
    kernels->gate_activation_row(g, add, h);
    return;
  }
  for (std::size_t j = 0; j < 4 * h; ++j) g[j] += add[j];
  for (std::size_t j = 0; j < h; ++j) g[j] = sigmoid(g[j]);            // i
  for (std::size_t j = h; j < 2 * h; ++j) g[j] = sigmoid(g[j]);        // f
  for (std::size_t j = 2 * h; j < 3 * h; ++j) g[j] = std::tanh(g[j]);  // g
  for (std::size_t j = 3 * h; j < 4 * h; ++j) g[j] = sigmoid(g[j]);    // o
}

}  // namespace

Lstm::Lstm(std::string name, std::size_t input_size, std::size_t hidden_size,
           nfv::util::Rng& rng)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      weight_(name + ".weight", 4 * hidden_size, input_size + hidden_size),
      bias_(name + ".bias", 1, 4 * hidden_size) {
  xavier_uniform(weight_.value, input_size + hidden_size, hidden_size, rng);
  // Forget-gate bias = 1 (gate slice [H, 2H)).
  for (std::size_t j = hidden_size_; j < 2 * hidden_size_; ++j) {
    bias_.value.at(0, j) = 1.0f;
  }
}

void Lstm::compute_gates(const Matrix& input, const Matrix& h_prev,
                         Matrix& concat_scratch, Matrix& gates) const {
  const std::size_t batch = input.rows();
  NFV_CHECK(input.cols() == input_size_,
            "Lstm input width " << input.cols() << " != " << input_size_);
  concat_scratch.reshape(batch, input_size_ + hidden_size_);
  for (std::size_t r = 0; r < batch; ++r) {
    std::memcpy(concat_scratch.row(r), input.row(r),
                input_size_ * sizeof(float));
    std::memcpy(concat_scratch.row(r) + input_size_, h_prev.row(r),
                hidden_size_ * sizeof(float));
  }
  matmul_transb(concat_scratch, weight_.value, gates);
  const simd::Kernels* kernels = simd::active();
  const float* bias = bias_.value.row(0);
  for (std::size_t r = 0; r < batch; ++r) {
    gate_activation_row(gates.row(r), bias, hidden_size_, kernels);
  }
}

const std::vector<Matrix>& Lstm::forward(const std::vector<Matrix>& inputs) {
  NFV_CHECK(!inputs.empty(), "Lstm::forward on empty sequence");
  const std::size_t steps = inputs.size();
  const std::size_t batch = inputs.front().rows();
  // Keep the cache matrices alive across batches: every entry is fully
  // rewritten below, so only the vector *length* needs to match and the
  // matrices' heap capacity is reused from the previous forward pass.
  if (concat_cache_.size() != steps) {
    concat_cache_.assign(steps, Matrix());
    gates_cache_.assign(steps, Matrix());
    c_cache_.assign(steps, Matrix());
    h_cache_.assign(steps, Matrix());
  }

  // Point at the previous step's cache entries instead of copying them —
  // the zero initial state is the only matrix materialized here.
  Matrix zero_state(batch, hidden_size_);
  const Matrix* h_prev = &zero_state;
  const Matrix* c_prev = &zero_state;
  const std::size_t h = hidden_size_;
  for (std::size_t t = 0; t < steps; ++t) {
    NFV_CHECK(inputs[t].rows() == batch, "Lstm batch size varies over time");
    compute_gates(inputs[t], *h_prev, concat_cache_[t], gates_cache_[t]);
    Matrix& c_t = c_cache_[t];
    Matrix& h_t = h_cache_[t];
    c_t.resize(batch, h);
    h_t.resize(batch, h);
    const Matrix& gates = gates_cache_[t];
    const Matrix& cp_m = *c_prev;
    const simd::Kernels* kernels = simd::active();
    for (std::size_t r = 0; r < batch; ++r) {
      cell_forward_row(gates.row(r), cp_m.row(r), c_t.row(r), h_t.row(r), h,
                       kernels);
    }
    h_prev = &h_t;
    c_prev = &c_t;
  }
  return h_cache_;
}

const std::vector<Matrix>& Lstm::backward(
    const std::vector<Matrix>& grad_hidden) {
  const std::size_t steps = h_cache_.size();
  NFV_CHECK(grad_hidden.size() == steps,
            "Lstm::backward expects one hidden-gradient per step");
  NFV_CHECK(steps > 0, "Lstm::backward before forward");
  const std::size_t batch = h_cache_.front().rows();
  const std::size_t h = hidden_size_;

  if (grad_inputs_.size() != steps) grad_inputs_.assign(steps, Matrix());
  dh_next_.resize(batch, h);
  dc_next_.resize(batch, h);
  // The dgates × W product recurs every step with the same W; pack it once.
  pack_matmul_b(weight_.value, packed_weight_);

  // Sequential in t (the dh/dc recurrence): one fused pass per row computes
  // all four pre-activation gate gradients and the carried cell gradient,
  // then the packed product yields dconcat and the dx / dh split. Each
  // step's dW/db partial is computed from zero and then added to the
  // parameter grads, so the grads sum the partials in descending t-order.
  const simd::Kernels* kernels = simd::active();
  for (std::size_t ti = steps; ti-- > 0;) {
    const Matrix& gates = gates_cache_[ti];
    const Matrix& c_t = c_cache_[ti];
    const Matrix* c_prev = ti > 0 ? &c_cache_[ti - 1] : nullptr;
    dgates_.resize(batch, 4 * h);

    for (std::size_t r = 0; r < batch; ++r) {
      const float* g = gates.row(r);
      const float* c = c_t.row(r);
      const float* gh = grad_hidden[ti].row(r);
      float* dhn = dh_next_.row(r);
      float* dcn = dc_next_.row(r);
      float* dg = dgates_.row(r);
      if (kernels != nullptr) {
        kernels->gate_backward_row(g, c, c_prev ? c_prev->row(r) : nullptr,
                                   gh, dhn, dcn, dg, h);
        continue;
      }
      for (std::size_t j = 0; j < h; ++j) {
        const float ig = g[j];
        const float fg = g[h + j];
        const float cg = g[2 * h + j];
        const float og = g[3 * h + j];
        const float tc = std::tanh(c[j]);
        const float dh = gh[j] + dhn[j];
        const float dc = dh * og * (1.0f - tc * tc) + dcn[j];
        const float cprev = c_prev ? c_prev->row(r)[j] : 0.0f;
        // Gradients w.r.t. pre-activation gate inputs.
        dg[j] = dc * cg * sigmoid_grad_from_output(ig);              // i
        dg[h + j] = dc * cprev * sigmoid_grad_from_output(fg);       // f
        dg[2 * h + j] = dc * ig * tanh_grad_from_output(cg);         // g
        dg[3 * h + j] = dh * tc * sigmoid_grad_from_output(og);      // o
        dcn[j] = dc * fg;  // carried to step t-1
      }
    }

    matmul_packed(dgates_, weight_.value, packed_weight_, dconcat_);

    Matrix& dx = grad_inputs_[ti];
    dx.resize(batch, input_size_);
    for (std::size_t r = 0; r < batch; ++r) {
      std::memcpy(dx.row(r), dconcat_.row(r), input_size_ * sizeof(float));
      std::memcpy(dh_next_.row(r), dconcat_.row(r) + input_size_,
                  h * sizeof(float));
    }

    dw_partial_.resize(4 * h, input_size_ + h);
    matmul_transa_accumulate(dgates_, concat_cache_[ti], dw_partial_);
    weight_.grad.add(dw_partial_);
    db_partial_.resize(1, 4 * h);
    sum_rows_accumulate(dgates_, db_partial_);
    bias_.grad.add(db_partial_);
  }
  return grad_inputs_;
}

LstmStepWeights Lstm::step_weights(bool table_input, bool int8) const {
  LstmStepWeights w;
  const std::size_t k0 = table_input ? input_size_ : 0;
  const std::size_t k1 = input_size_ + hidden_size_;
  if (int8) {
    pack_gate_blocks(weight_.value, input_size_, k1, w.quant);
    if (!table_input) {
      pack_gate_blocks(weight_.value, 0, input_size_, w.quant_input);
    }
  } else {
    pack_gate_blocks(weight_.value, k0, k1, w.weights);
  }
  if (!table_input) {
    w.bias.resize(gate_block_count(hidden_size_) * kGateBlockWidth);
    pack_gate_vector(bias_.value.row(0), hidden_size_, w.bias.data());
  }
  return w;
}

void Lstm::reset_state(LstmState& state, std::size_t batch) const {
  state.h[0].reshape(batch, hidden_size_);
  state.h[1].reshape(batch, hidden_size_);
  // Matrix::resize zero-fills: the zero cell state of a window's start.
  state.c.resize(batch, gate_block_count(hidden_size_) * kGateBlockUnits);
  for (std::vector<std::uint8_t>& codes : state.codes) {
    codes.resize(batch * simd::code_row_bytes(hidden_size_));
  }
}

namespace {

/// The baseline tier's fused step: per row and gate block, the 64 gate
/// outputs' unfused k-ascending chains (or exact int8 sums over the x and
/// h_prev parts, dequantized as float(acc − zero_sums)·scales), plus the
/// addend, then libm activations and the cell update, in the order of the
/// unfused baseline passes, and in int8 the codes of the h written.
void step_rows_baseline(const simd::StepArgs& s) {
  constexpr std::size_t kq = simd::kQuantK;
  const std::size_t h = s.hidden;
  const std::size_t blocks = gate_block_count(h);
  const std::size_t code_stride = simd::code_row_bytes(h);
  const bool int8 = s.x_codes != nullptr || s.h_codes != nullptr;
  for (std::size_t i = 0; i < s.rows; ++i) {
    for (std::size_t b = 0; b < blocks; ++b) {
      // The block's i, f, g and o pre-activations, gate-blocked.
      float pre[kGateBlockWidth] = {};
      const std::size_t at = b * kGateBlockWidth;
      if (int8) {
        std::int32_t acc[kGateBlockWidth] = {};
        std::int32_t zero_sum[kGateBlockWidth] = {};
        const float* scales = nullptr;
        for (const auto& [codes, qb] : {std::pair{s.x_codes, s.x_quant},
                                        std::pair{s.h_codes, s.h_quant}}) {
          if (codes == nullptr) continue;
          const std::size_t groups = qb->depth_padded / kq;
          const std::int8_t* w =
              qb->codes.data() + b * groups * kGateBlockWidth * kq;
          const std::uint8_t* a = codes + i * qb->depth_padded;
          for (std::size_t g = 0; g < groups; ++g) {
            for (std::size_t j = 0; j < kGateBlockWidth; ++j, w += kq) {
              for (std::size_t t = 0; t < kq; ++t) {
                acc[j] += static_cast<std::int32_t>(a[kq * g + t]) * w[t];
              }
            }
          }
          for (std::size_t j = 0; j < kGateBlockWidth; ++j) {
            zero_sum[j] += qb->zero_sums[at + j];
          }
          scales = qb->scales.data();
        }
        for (std::size_t j = 0; j < kGateBlockWidth; ++j) {
          pre[j] = static_cast<float>(acc[j] - zero_sum[j]) * scales[at + j];
        }
      } else if (s.weights != nullptr) {
        const float* w = s.weights + b * s.depth * kGateBlockWidth;
        const auto chain = [&](const float* a, std::size_t n) {
          for (std::size_t k = 0; k < n; ++k, w += kGateBlockWidth) {
            for (std::size_t j = 0; j < kGateBlockWidth; ++j) {
              pre[j] += a[k] * w[j];
            }
          }
        };
        if (s.x != nullptr) chain(s.x + i * s.x_cols, s.x_cols);
        if (s.h_prev != nullptr) chain(s.h_prev + i * h, h);
      }
      const bool product = int8 || s.weights != nullptr;
      for (std::size_t j = 0; j < kGateBlockWidth; ++j) {
        const float add =
            s.table != nullptr
                ? s.table[i][at + j] + s.dt[i] * s.dt_gates[at + j]
                : s.bias[at + j];
        pre[j] = product ? pre[j] + add : add;
      }
      const std::size_t units =
          std::min(kGateBlockUnits, h - b * kGateBlockUnits);
      for (std::size_t m = 0; m < units; ++m) {
        const std::size_t u = b * kGateBlockUnits + m;
        float& c = s.c[i * blocks * kGateBlockUnits + u];
        const float ig = sigmoid(pre[m]);
        const float fg = sigmoid(pre[kGateBlockUnits + m]);
        const float cg = std::tanh(pre[2 * kGateBlockUnits + m]);
        const float og = sigmoid(pre[3 * kGateBlockUnits + m]);
        c = fg * c + ig * cg;
        s.h[i * h + u] = og * std::tanh(c);
        if (s.codes != nullptr) {
          s.codes[i * code_stride + u] = simd::activation_code(s.h[i * h + u]);
        }
      }
    }
  }
}

}  // namespace

void Lstm::score_step(const LstmStepWeights& weights,
                      const LstmStepInput& input, std::size_t t,
                      LstmState& state) const {
  const std::size_t h = hidden_size_;
  const std::size_t rows = state.c.rows();
  NFV_CHECK(input.x == nullptr || (input.x->cols() == input_size_ &&
                                   input.x->rows() == rows),
            "Lstm::score_step input shape mismatch");
  simd::StepArgs s;
  s.rows = rows;
  s.hidden = h;
  s.c = state.c.data();
  s.h = state.h[t % 2].data();
  if (input.table != nullptr) {
    s.table = input.table;
    s.dt = input.dt;
    s.dt_gates = input.dt_gates;
  } else {
    s.bias = weights.bias.data();
  }
  // The state is zero at t = 0: no recurrent term.
  const float* x = input.x != nullptr ? input.x->data() : nullptr;
  const float* h_prev = t == 0 ? nullptr : state.h[(t + 1) % 2].data();
  if (!weights.quant.empty()) {
    NFV_CHECK(x == nullptr || input.x_codes != nullptr,
              "Lstm::score_step: an int8 step needs its input's codes");
    s.codes = state.codes[t % 2].data();
    if (x != nullptr) {
      s.x_codes = input.x_codes;
      s.x_quant = &weights.quant_input;
    }
    if (h_prev != nullptr) {
      s.h_codes = state.codes[(t + 1) % 2].data();
      s.h_quant = &weights.quant;
    }
  } else if (x != nullptr || h_prev != nullptr) {
    s.x = x;
    s.x_cols = x != nullptr ? input_size_ : 0;
    s.h_prev = h_prev;
    s.weights = weights.weights.data();
    s.depth =
        weights.weights.size() / (gate_block_count(h) * kGateBlockWidth);
  }
  if (const simd::Kernels* kernels = simd::active()) {
    kernels->lstm_step(s);
  } else {
    step_rows_baseline(s);
  }
}

}  // namespace nfv::ml
