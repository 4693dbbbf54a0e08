// Dense row-major float matrix used by the from-scratch neural network
// stack. This is deliberately a small, dependency-free implementation: the
// paper's models (2 LSTM layers + 1 dense over a template vocabulary) are
// tiny by deep-learning standards, so clarity and determinism beat BLAS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace nfv::ml {

/// Row-major dense matrix of float. Rows typically index batch elements.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  float at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  float* row(std::size_t r) { return data_.data() + r * cols_; }
  const float* row(std::size_t r) const { return data_.data() + r * cols_; }
  std::span<float> row_span(std::size_t r) { return {row(r), cols_}; }
  std::span<const float> row_span(std::size_t r) const { return {row(r), cols_}; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& storage() { return data_; }
  const std::vector<float>& storage() const { return data_; }

  /// Set every element to `value`.
  void fill(float value);
  /// Set every element to zero (keeps shape).
  void zero() { fill(0.0f); }
  /// Reshape, reallocating as needed; contents are zeroed.
  void resize(std::size_t rows, std::size_t cols);
  /// Reshape for a caller that overwrites every element: keeps the heap
  /// capacity and skips resize()'s zero fill, so contents are unspecified.
  void reshape(std::size_t rows, std::size_t cols);

  /// Elementwise in-place operations.
  void add(const Matrix& other);                   // this += other
  void add_scaled(const Matrix& other, float k);   // this += k * other
  void scale(float k);                             // this *= k
  void hadamard(const Matrix& other);              // this *= other (elementwise)

  /// Frobenius-norm squared of all elements.
  double squared_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// The kernel tier every packed, gate, cell, int8 and log-sum-exp kernel
/// in src/ml runs (scoring *and* training take the same one):
///   - kBaseline: portable C++ (unfused multiply-add chains, libm
///     activations);
///   - kAvx2: AVX2+FMA at 8 lanes;
///   - kAvx512: AVX-512 F/BW/DQ/VL + VNNI at 16 lanes.
/// Chosen once, at first use, from CPUID: the widest tier the CPU has, or
/// kBaseline when the environment variable NFVPRED_NO_AVX2 is set. The two
/// SIMD tiers are bit-identical to each other (fused chains in k order,
/// the same Cephes exp, the same lanes for every scalar tail), so
/// switching between them moves only speed. The baseline tier differs
/// from them exactly as a machine without FMA would. Every tier is
/// bit-identical across batch sizes. Every kernel runs on the calling
/// thread: parallelism lives with the callers that own independent work
/// (a vPE group, a vPE, a shard), never inside one product.
enum class KernelTier { kBaseline, kAvx2, kAvx512 };
KernelTier kernel_tier();

/// True in either SIMD tier (kernel_tier() != kBaseline).
bool simd_kernels_enabled();

/// Switch tier for tests and benches, from a single-threaded control
/// point; clamped to the widest tier the CPU has. Returns the tier now
/// active.
KernelTier set_kernel_tier(KernelTier tier);

/// "avx512", "avx2+fma" or "baseline": the label BENCH_*.json rows
/// record.
const char* kernel_tier_name(KernelTier tier = kernel_tier());

/// out = a (R×K) * b (K×C). `out` is resized and overwritten. The B
/// operand is packed into zero-padded 16-column k-major panels (the one
/// layout of every tier: the AVX-512 kernel reads a panel as one vector,
/// the AVX2 kernel as two 8-lane halves, the baseline kernel loops over
/// its 16 columns) and every row runs one register-tiled kernel: 4-row
/// tiles (4×1 panels in the baseline and AVX2 tiers, 4×4 with 4×2 and 4×1
/// tails in the AVX-512 tier) and a 1-row tail for the rows % 4 leftovers
/// and batches of 1–3 rows. Every output is one k-ascending multiply-add
/// chain (a fused one in the SIMD tiers), so results do not depend on the
/// row count.
void matmul(const Matrix& a, const Matrix& b, Matrix& out);

/// Pack the B operand (K×C) of out = a·b into 16-column k-major panels for
/// matmul_packed. Pack cost is O(b.size()); pre-packing pays off when the
/// same B multiplies many A matrices — e.g. the per-timestep
/// dgates_t × W products of BPTT, which share one weight matrix across
/// the whole sequence.
void pack_matmul_b(const Matrix& b, std::vector<float>& packed);

/// out = a·b with `packed` previously produced by pack_matmul_b(b).
/// Bit-identical to matmul(a, b, out) for any row count.
void matmul_packed(const Matrix& a, const Matrix& b,
                   const std::vector<float>& packed, Matrix& out);

/// out = a (R×K) * bᵀ where b is (C×K). The natural layout for y = x·Wᵀ
/// with weight matrices stored as (out_features × in_features). Same
/// packed kernel as matmul.
void matmul_transb(const Matrix& a, const Matrix& b, Matrix& out);

/// Pack b (C×K) into the panels matmul_transb_packed reads, once per
/// weight change: a scoring image keeps the packs until the model moves.
void pack_transb(const Matrix& b, std::vector<float>& packed);

/// As pack_transb, for the column block b[:, k0:k1) — e.g. the input or
/// the recurrent half of an LSTM gate matrix — packed as a C × (k1 − k0)
/// weight of its own.
void pack_transb(const Matrix& b, std::size_t k0, std::size_t k1,
                 std::vector<float>& packed);

/// out = a·bᵀ with `packed` previously produced by pack_transb(b).
/// Bit-identical to matmul_transb(a, b, out) for any row count.
void matmul_transb_packed(const Matrix& a, const Matrix& b,
                          const std::vector<float>& packed, Matrix& out);

/// out = a·wᵀ for a `b_rows` × a.cols() weight w known only by its pack
/// (the column-block form of pack_transb). Every output is the same
/// k-ascending chain as above, so a block that drops trailing columns
/// multiplied by zeros reproduces the full product bit for bit.
void matmul_transb_packed(const Matrix& a, std::size_t b_rows,
                          const std::vector<float>& packed, Matrix& out);

/// out += aᵀ (K×R stored as R×K) * b (R×C) — i.e. out (K×C) accumulates
/// gradient contributions Σ_r a[r]ᵀ b[r]. Used for weight gradients.
/// Register-tiled 4 out-rows × one vector of columns in the SIMD tiers:
/// each out element adds a sum accumulated from zero in r-ascending order, so
/// any tiling produces the same bits.
void matmul_transa_accumulate(const Matrix& a, const Matrix& b, Matrix& out);

/// The int8 step's activation codes. Every int8 input is an LSTM hidden
/// state h = o·tanh(c), which lies in (−1, 1), so one fixed scale and
/// zero point serve every tier, layer, row and step: code = clamp(RNE(v ·
/// 63.5) + 64, 0, 127), which reads back as (code − 64) · 2/127. Codes
/// stay 7-bit, so an AVX2 vpmaddubsw pair sum (at most 2·127·127 < 2^15)
/// never saturates; h = 0 maps to 64 and contributes exactly 0; NaN and
/// ±Inf map to 0. The fused step writes the codes of each h it writes
/// (Lstm::score_step); activation_codes() applies the same rule to any n
/// values in the active tier, and every tier gives the same codes.
constexpr float kActivationCodeScale = 63.5f;
constexpr std::int32_t kActivationZeroPoint = 64;
void activation_codes(const float* v, std::size_t n, std::uint8_t* codes);

/// Hidden units per gate block of the fused LSTM scoring step
/// (Lstm::score_step), and floats per k-row of a block: the i, f, g and o
/// columns of those units side by side.
constexpr std::size_t kGateBlockUnits = 16;
constexpr std::size_t kGateBlockWidth = 4 * kGateBlockUnits;

/// Gate blocks covering `hidden` units; the last one is zero-padded.
constexpr std::size_t gate_block_count(std::size_t hidden) {
  return (hidden + kGateBlockUnits - 1) / kGateBlockUnits;
}

/// Columns [k0, k1) of an LSTM gate matrix w (4H × K, the i, f, g and o
/// rows of H units each) packed gate-blocked: block b holds, per k, the
/// i, f, g and o weights of units 16b…16b+15 as four 16-float groups
/// (kGateBlockWidth floats per k, k-major), units past H zero. A block's
/// first n k-rows are the pack of columns [k0, k0 + n).
void pack_gate_blocks(const Matrix& w, std::size_t k0, std::size_t k1,
                      std::vector<float>& packed);

/// A length-4H gate vector (a bias, a table row) in the gate-block order
/// of pack_gate_blocks: out holds gate_block_count(H)·kGateBlockWidth
/// floats, units past H zero.
void pack_gate_vector(const float* v, std::size_t hidden, float* out);

/// The int8 twin of pack_gate_blocks: the 4H gate rows of w quantized
/// symmetrically per output channel (w_scale = max|row| / 127 over all of
/// w's columns, so a column block shares the full row's scale; codes
/// round to nearest even and clamp to ±127; an all-zero row gets w_scale 1
/// and zero codes) and columns [k0, k1) stored per block and per 4-k
/// group as the i, f, g and o 16-channel × 4-k blocks of 64 bytes
/// (channel-major, the vpdpbusd operand; the AVX2 tier reads each as two
/// 8-channel halves), zero-padded to a multiple of 4 columns. The
/// dequantization against activation codes is folded per channel:
/// scales = (2/127)·w_scale and zero_sums = 64·Σ codes over [k0, k1)
/// alone, so a block's product is float(acc − zero_sums)·scales, and the
/// blocks of two column ranges sum to the full row's product.
/// Deterministic: the same bytes on every build and tier. Throws
/// util::CheckError on a NaN or infinite weight, which has no code.
struct QuantGateBlocks {
  std::size_t depth_padded = 0;         ///< k1 − k0 rounded up to 4.
  std::vector<std::int8_t> codes;
  std::vector<float> scales;            ///< Gate-block order, 0 past H.
  std::vector<std::int32_t> zero_sums;  ///< Gate-block order, 0 past H.

  bool empty() const { return codes.empty(); }
  /// Resident bytes: codes, scales and zero sums.
  std::size_t bytes() const {
    return codes.size() + scales.size() * sizeof(float) +
           zero_sums.size() * sizeof(std::int32_t);
  }
};
void pack_gate_blocks(const Matrix& w, std::size_t k0, std::size_t k1,
                      QuantGateBlocks& out);

/// Add a row vector (1×C or length-C matrix) to every row of m.
void add_row_vector(Matrix& m, const Matrix& row);

/// Accumulate column sums of m into row vector `out` (1×C).
void sum_rows_accumulate(const Matrix& m, Matrix& out);

}  // namespace nfv::ml
