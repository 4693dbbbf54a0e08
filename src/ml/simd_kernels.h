// The SIMD tiers' kernels (ml/simd_kernels.cpp) and the packed layouts
// they share with the baseline kernels. Internal to src/ml: callers ask
// active() for the running tier's kernels and run their own baseline loop
// when it returns null.
#pragma once

#include <cstddef>
#include <cstdint>

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

/// Channels per int8 panel and k-depth of one k-group: full groups of 8
/// channels are stored as k-major 4-k × 8-channel 32-byte blocks (the
/// layout checkpoints persist through write_quant_matrix).
constexpr std::size_t kQuantChannels = 8;
constexpr std::size_t kQuantK = 4;

/// Round-to-nearest-even via the 1.5·2^23 magic constant: exact for
/// |x| < 2^22 (every quantized code is within ±128), branch-free, and
/// independent of libm — the same bits on every build.
inline std::int32_t round_nearest_i32(float x) {
  constexpr float kMagic = 12582912.0f;  // 1.5 * 2^23
  return static_cast<std::int32_t>((x + kMagic) - kMagic);
}

/// One SIMD tier's kernels. Each matches the baseline kernel of the same
/// name in its caller's file up to the documented per-tier numerics (FMA
/// chains, Cephes exp); the AVX2 and AVX-512 tables agree bit for bit.
struct Kernels {
  /// Rows [i0, i1) of out = a · packed panels.
  void (*rows_packed)(const Matrix& a, const float* packed, Matrix& out,
                      std::size_t i0, std::size_t i1);
  /// Columns [c0, c1) of out += aᵀ · b.
  void (*transa_acc_block)(const Matrix& a, const Matrix& b, Matrix& out,
                           std::size_t c0, std::size_t c1);
  /// Per-row u7 codes, scales and zero points of a (codes padded to kpad).
  void (*quantize_rows)(const Matrix& a, std::size_t kpad, std::uint8_t* qa,
                        float* sa, std::int32_t* zp);
  /// Rows [i0, i1) of the int8 product over qb's full 8-channel panels
  /// (the C mod 8 tail channels are the caller's).
  void (*quant_panels)(const std::uint8_t* qa, const float* sa,
                       const std::int32_t* zp, std::size_t kpad,
                       const QuantizedMatrix& qb, Matrix& out, std::size_t i0,
                       std::size_t i1);
  /// Gate activations of one [i f g o] row after adding `add` (or nothing
  /// when null).
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
  /// out[j] = table[j] + dt · w[j], a separate multiply and add.
  void (*gather_row)(const float* table, float dt, const float* w,
                     float* out, std::size_t n);
};

/// The kernels of the active tier (ml::kernel_tier), null in the baseline
/// tier.
const Kernels* active();

}  // namespace nfv::ml::simd
