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
/// bit-identical across thread counts and batch sizes.
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
/// row count. Above a work threshold the rows are computed in parallel
/// blocks on the global thread pool (bit-identical to the serial kernel:
/// each output row is an independent slot); inside an already parallel
/// region the serial kernel is used.
void matmul(const Matrix& a, const Matrix& b, Matrix& out);

/// Pack the B operand (K×C) of out = a·b into 16-column k-major panels for
/// matmul_packed. Pack cost is O(b.size()); pre-packing pays off when the
/// same B multiplies many A matrices — e.g. the per-timestep
/// dgates_t × W products of BPTT, which share one weight matrix across
/// the whole sequence.
void pack_matmul_b(const Matrix& b, std::vector<float>& packed);

/// out = a·b with `packed` previously produced by pack_matmul_b(b).
/// Bit-identical to matmul(a, b, out) for any row count and thread count.
void matmul_packed(const Matrix& a, const Matrix& b,
                   const std::vector<float>& packed, Matrix& out);

/// out = a (R×K) * bᵀ where b is (C×K). The natural layout for y = x·Wᵀ
/// with weight matrices stored as (out_features × in_features). Same
/// packed kernel and row-blocked parallel dispatch as matmul.
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
/// Bit-identical to matmul_transb(a, b, out) for any row count and thread
/// count, with the same row-blocked parallel dispatch.
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
/// any tiling and any column-block parallel split produce the same bits.
/// Parallelized over blocks of output *columns*.
void matmul_transa_accumulate(const Matrix& a, const Matrix& b, Matrix& out);

/// Serial reference kernels: always single-threaded, used by the parallel
/// dispatchers below the work threshold and by the determinism tests.
void matmul_serial(const Matrix& a, const Matrix& b, Matrix& out);
void matmul_transb_serial(const Matrix& a, const Matrix& b, Matrix& out);
void matmul_transa_accumulate_serial(const Matrix& a, const Matrix& b,
                                     Matrix& out);

/// Post-training int8 image of a weight matrix b (C×K, out_features ×
/// in_features — the matmul_transb B operand). Weights are quantized
/// symmetrically per output channel (scale[c] = max|b[c,:]| / 127, all-zero
/// rows get scale 1 so nothing divides by zero) and stored pre-packed for
/// the int8 kernel: full groups of 8 channels live in k-major panels of
/// 4-k × 8-channel 32-byte blocks (the vpmaddubsw operand of the AVX2
/// tier; the AVX-512 tier's vpdpbusd reads two consecutive blocks per
/// 64-byte load), the C mod 8 tail channels follow row-major, and K is
/// zero-padded to a multiple of 4. Checkpoints persist this layout byte
/// for byte. `col_sums[c]` caches Σ_k q[c][k] for the activation
/// zero-point correction so the kernel epilogue is a single fused
/// subtract-and-scale per output.
struct QuantizedMatrix {
  std::size_t rows = 0;          ///< C, output channels (b.rows()).
  std::size_t cols = 0;          ///< K, logical reduction depth (b.cols()).
  std::size_t cols_padded = 0;   ///< K rounded up to a multiple of 4.
  std::vector<std::int8_t> data; ///< Packed panels then tail rows.
  std::vector<float> scales;     ///< Per-channel dequant scale (length C).
  std::vector<std::int32_t> col_sums;  ///< Per-channel Σ_k q[c][k].

  bool empty() const { return rows == 0; }
  /// Resident bytes of the int8 image (panels + scales + col_sums).
  std::size_t weight_bytes() const {
    return data.size() * sizeof(std::int8_t) +
           scales.size() * sizeof(float) +
           col_sums.size() * sizeof(std::int32_t);
  }
  /// Bytes the same matrix occupies in fp32 (rows × cols × 4).
  std::size_t fp32_bytes() const { return rows * cols * sizeof(float); }
};

/// Quantize and pack b (C×K) into `out`. Deterministic: round-to-nearest-
/// even via the 1.5·2^23 magic constant, identical on every kernel tier.
/// Degenerate channels are safe by construction — an all-zero row gets
/// scale 1 and all-zero codes (exact), a constant row lands exactly on
/// ±127 (exact up to one rounding).
void quantize_pack_b(const Matrix& b, QuantizedMatrix& out);

/// out = a (R×K) * dequant(qb)ᵀ — the int8 twin of matmul_transb.
/// Activations are quantized on the fly per row to unsigned 7-bit
/// (asymmetric, zero-point corrected through qb.col_sums); products
/// accumulate in exact int32 and a single fp32 scale pair maps back.
/// Contract (stronger than the fp32 family): results are bit-identical
/// across thread counts, batch sizes, AND between every tier — the AVX2
/// vpmaddubsw/vpmaddwd kernel, the AVX-512 VNNI vpdpbusd kernel and the
/// serial reference. Integer accumulation is exact and associative, the
/// u7 activation range keeps every vpmaddubsw pair sum below i16
/// saturation, the activation quantizer's min/max/multiply/convert are
/// exact or singly rounded per element, and the float epilogue is the
/// same two-rounding expression on every tier. Same row-blocked parallel
/// dispatch as matmul_transb.
void matmul_quant(const Matrix& a, const QuantizedMatrix& qb, Matrix& out);

/// Serial reference for matmul_quant (single-threaded; bit-identical to
/// the parallel and SIMD paths by the contract above).
void matmul_quant_serial(const Matrix& a, const QuantizedMatrix& qb,
                         Matrix& out);

/// Add a row vector (1×C or length-C matrix) to every row of m.
void add_row_vector(Matrix& m, const Matrix& row);

/// Accumulate column sums of m into row vector `out` (1×C).
void sum_rows_accumulate(const Matrix& m, Matrix& out);

}  // namespace nfv::ml
