// The SIMD tiers' kernels (ml/simd_kernels.cpp) and the packed layouts
// they share with the baseline kernels. Internal to src/ml: callers ask
// active() for the running tier's kernels and run their own baseline loop
// when it returns null.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "ml/matrix.h"

namespace nfv::ml::simd {

/// Output columns per packed fp32 panel. Every tier reads the same
/// 16-column k-major panels (pack_transb, pack_matmul_b): the baseline
/// kernel loops over 16 columns, the AVX2 kernel reads each panel as two
/// 8-lane halves and the AVX-512 kernel as one 16-lane vector.
constexpr std::size_t kPanelCols = 16;

/// Panels covering `n` output columns. The last one is zero-padded, so
/// the n mod 16 leftover columns run in the same lanes as the rest.
constexpr std::size_t panel_count(std::size_t n) {
  return (n + kPanelCols - 1) / kPanelCols;
}

/// k-depth of one int8 k-group: the 4 activation bytes one int32 lane of
/// vpdpbusd (or vpmaddubsw + vpmaddwd) sums.
constexpr std::size_t kQuantK = 4;

/// Round-to-nearest-even via the 1.5·2^23 magic constant: exact for
/// |x| < 2^22 (every quantized code is within ±128) and independent of
/// libm — the same bits on every build. Larger values only reach callers
/// that clamp the result to a code, so they truncate; NaN and |x| ≥ 2^31
/// give INT32_MIN, as vcvtps2dq does in the SIMD tiers' vector lanes, in
/// place of an undefined float-to-int conversion.
inline std::int32_t round_nearest_i32(float x) {
  constexpr float kMagic = 12582912.0f;  // 1.5 * 2^23
  const float ax = std::fabs(x);
  if (ax < 4194304.0f) return static_cast<std::int32_t>((x + kMagic) - kMagic);
  return ax < 2147483648.0f ? static_cast<std::int32_t>(x)
                            : std::numeric_limits<std::int32_t>::min();
}

/// activation_codes' rule for one value, the scalar form of every tier:
/// clamp(RNE(v · 63.5) + 64, 0, 127). NaN and ±Inf get code 0
/// (round_nearest_i32's INT32_MIN, as vcvtps2dq gives in a vector lane).
inline std::uint8_t activation_code(float v) {
  float x = v * kActivationCodeScale;
  // The product rounds before round_nearest_i32 adds to it, as vmulps
  // rounds before vcvtps2dq in the vector lanes; an FMA target could
  // otherwise contract the two.
  asm("" : "+g"(x));
  return static_cast<std::uint8_t>(
      std::clamp(round_nearest_i32(x) + kActivationZeroPoint, 0, 127));
}

/// Bytes per row of activation codes of `n` values: whole 4-k groups, the
/// int8 gate blocks' depth_padded.
constexpr std::size_t code_row_bytes(std::size_t n) {
  return (n + kQuantK - 1) / kQuantK * kQuantK;
}

/// One fused LSTM scoring step (Lstm::score_step) over `rows` rows: per
/// tile of rows × one gate block, the product of the step's input
/// rows with the block's weights (none, fp32 or int8), plus the addend
/// (the bias, or layer 0's gathered table row), then the gate activations
/// and the cell update, writing c and h (and, in int8, h's codes); the
/// gates stay in registers. Row pointers are of row 0; `c` rows hold
/// gate_block_count(hidden)·16 floats (the padding units are scratch) and
/// `h` rows `hidden`. The fp32 product runs when `weights` is set, the
/// int8 one when either part's codes are.
struct StepArgs {
  std::size_t rows = 0;
  std::size_t hidden = 0;
  /// fp32: rows of [x | h_prev] times `weights`, a gate-blocked pack of
  /// `depth` k-rows whose first x_cols rows multiply x; either part is
  /// skipped when null.
  const float* x = nullptr;
  std::size_t x_cols = 0;
  const float* h_prev = nullptr;
  const float* weights = nullptr;
  std::size_t depth = 0;
  /// int8: the activation codes of x and of h_prev (rows
  /// x_quant->depth_padded and h_quant->depth_padded bytes apart) times
  /// the int8 packs of W's input and recurrent columns. Each part runs
  /// its own 4-k groups, so no quad straddles the two; either part is
  /// skipped when its codes are null. Both packs hold the same per-channel
  /// scales, and each its own zero sums.
  const std::uint8_t* x_codes = nullptr;
  const QuantGateBlocks* x_quant = nullptr;
  const std::uint8_t* h_codes = nullptr;
  const QuantGateBlocks* h_quant = nullptr;
  /// int8: where the epilogue writes the codes of the h it writes, rows
  /// code_row_bytes(hidden) apart; null in fp32.
  std::uint8_t* codes = nullptr;
  /// The addend: `bias`, or, when `table` is set, table[r] + dt[r] ·
  /// dt_gates with the product rounded before the add (all gate-blocked).
  const float* bias = nullptr;
  const float* const* table = nullptr;
  const float* dt = nullptr;
  const float* dt_gates = nullptr;
  float* c = nullptr;
  float* h = nullptr;
};

/// One SIMD tier's kernels. Each matches the baseline kernel of the same
/// name in its caller's file up to the documented per-tier numerics (FMA
/// chains, Cephes exp); the AVX2 and AVX-512 tables agree bit for bit.
struct Kernels {
  /// out = a · packed panels.
  void (*rows_packed)(const Matrix& a, const float* packed, Matrix& out);
  /// out += aᵀ · b.
  void (*transa_acc)(const Matrix& a, const Matrix& b, Matrix& out);
  /// codes[j] = activation_code(v[j]) for j < n: activation_codes.
  void (*activation_codes)(const float* v, std::size_t n,
                           std::uint8_t* codes);
  /// Gate activations of one [i f g o] row after adding the bias `add`.
  void (*gate_activation_row)(float* g, const float* add, std::size_t h);
  /// c = f·c_prev + i·g, h = o·tanh(c); `c` may alias `cp`.
  void (*cell_forward_row)(const float* g, const float* cp, float* c,
                           float* hh, std::size_t h);
  /// One row of the BPTT gate-gradient recurrence (cprev null at t = 0).
  void (*gate_backward_row)(const float* g, const float* c,
                            const float* cprev, const float* gh,
                            const float* dhn, float* dcn, float* dg,
                            std::size_t h);
  /// Σ exp(l[c] − m) over n logits.
  float (*sum_exp)(const float* l, std::size_t n, float m);
  /// One fused LSTM scoring step.
  void (*lstm_step)(const StepArgs& s);
};

/// The kernels of the active tier (ml::kernel_tier), null in the baseline
/// tier.
const Kernels* active();

}  // namespace nfv::ml::simd
