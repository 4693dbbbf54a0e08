#include "ml/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "ml/simd_kernels.h"
#include "util/check.h"

namespace nfv::ml {

namespace {

using simd::kPanelCols;
using simd::code_row_bytes;
using simd::kQuantK;
using simd::panel_count;
using simd::round_nearest_i32;

/// Pack columns [k0, k1) of b (the weight matrix of out = a * bᵀ) into
/// 16-row k-major panels: panel jp holds b rows [16jp, 16jp+16)
/// interleaved as [k][jj], so the inner product loop reads 16 weights for
/// 16 output columns from one contiguous 64-byte slot, each lane an
/// independent accumulator chain. Rows past b.rows() are zero. Pack cost
/// is O(rows × (k1 − k0)), paid once per product (or once per scoring
/// image through pack_transb); full panels take a constant-width inner
/// loop, which roughly halves it.
void pack_transb_panels(const Matrix& b, std::size_t k0, std::size_t k1,
                        std::vector<float>& packed) {
  const std::size_t kn = k1 - k0;
  const std::size_t jn = b.rows();
  packed.resize(panel_count(jn) * kn * kPanelCols);
  for (std::size_t jp = 0; jp < panel_count(jn); ++jp) {
    float* panel = packed.data() + jp * kn * kPanelCols;
    const std::size_t width = std::min(kPanelCols, jn - kPanelCols * jp);
    if (width == kPanelCols) {
      const float* brows[kPanelCols];
      for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
        brows[jj] = b.row(kPanelCols * jp + jj) + k0;
      }
      for (std::size_t k = 0; k < kn; ++k) {
        for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
          panel[kPanelCols * k + jj] = brows[jj][k];
        }
      }
      continue;
    }
    std::fill_n(panel, kn * kPanelCols, 0.0f);
    for (std::size_t jj = 0; jj < width; ++jj) {
      const float* brow = b.row(kPanelCols * jp + jj) + k0;
      for (std::size_t k = 0; k < kn; ++k) panel[kPanelCols * k + jj] = brow[k];
    }
  }
}

/// Pack the B operand (K×C) of the *plain* product out = a·b into the
/// same layout: panel jp holds b columns [16jp, 16jp+16) interleaved as
/// [k][jj], columns past b.cols() zero. Both products then run the one
/// packed kernel below.
void pack_matmul_b_panels(const Matrix& b, std::vector<float>& packed) {
  const std::size_t kn = b.rows();
  const std::size_t cn = b.cols();
  packed.resize(panel_count(cn) * kn * kPanelCols);
  for (std::size_t jp = 0; jp < panel_count(cn); ++jp) {
    float* panel = packed.data() + jp * kn * kPanelCols;
    for (std::size_t k = 0; k < kn; ++k) {
      const float* brow = b.row(k);
      for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
        const std::size_t j = kPanelCols * jp + jj;
        panel[kPanelCols * k + jj] = j < cn ? brow[j] : 0.0f;
      }
    }
  }
}

/// R a-rows × P panels (16P columns) of out = a · packed, baseline tier:
/// R·P·16 accumulators, each the chain `acc = acc + a[k]·b[k]` in
/// k-ascending order. The chain of an output never depends on R, P or the
/// row blocking, so every tiling agrees bit for bit.
template <std::size_t R, std::size_t P>
__attribute__((always_inline)) inline void packed_tile(
    const Matrix& a, const float* packed, Matrix& out, std::size_t i,
    std::size_t jp) {
  const std::size_t kn = a.cols();
  const float* panel = packed + jp * kn * kPanelCols;
  const float* ar[R];
  for (std::size_t r = 0; r < R; ++r) ar[r] = a.row(i + r);
  float acc[R][P][kPanelCols] = {};
  for (std::size_t k = 0; k < kn; ++k) {
    for (std::size_t r = 0; r < R; ++r) {
      const float av = ar[r][k];
      for (std::size_t p = 0; p < P; ++p) {
        const float* bv = panel + p * kn * kPanelCols + kPanelCols * k;
        for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
          acc[r][p][jj] += av * bv[jj];
        }
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t p = 0; p < P; ++p) {
      const std::size_t col = kPanelCols * (jp + p);
      const std::size_t n = std::min(kPanelCols, out.cols() - col);
      float* o = out.row(i + r) + col;
      for (std::size_t jj = 0; jj < n; ++jj) o[jj] = acc[r][p][jj];
    }
  }
}

/// out = a · packed panels, baseline tier: a 4-row × 1 panel tile, then a
/// 1-row tail (two panels at a time) for the rows % 4 leftovers and for
/// batches of 1–3 rows.
void rows_packed(const Matrix& a, const float* packed, Matrix& out) {
  const std::size_t panels = panel_count(out.cols());
  const std::size_t rows = a.rows();
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    for (std::size_t jp = 0; jp < panels; ++jp) {
      packed_tile<4, 1>(a, packed, out, i, jp);
    }
  }
  for (; i < rows; ++i) {
    std::size_t jp = 0;
    for (; jp + 2 <= panels; jp += 2) packed_tile<1, 2>(a, packed, out, i, jp);
    if (jp < panels) packed_tile<1, 1>(a, packed, out, i, jp);
  }
}

/// out += aᵀ * b, register-tiled 4 out-rows × 8 out-columns. Each out
/// element adds a partial sum accumulated from zero in r-ascending order
/// (then one `out += sum`), so the result is independent of the k/c
/// tiling.
inline void transa_acc(const Matrix& a, const Matrix& b, Matrix& out) {
  constexpr std::size_t kCols = 8;
  const std::size_t rn = a.rows();
  const std::size_t kn = a.cols();
  const std::size_t cn = b.cols();
  std::size_t k = 0;
  for (; k + 4 <= kn; k += 4) {
    std::size_t c = 0;
    for (; c + kCols <= cn; c += kCols) {
      float acc0[kCols] = {}, acc1[kCols] = {};
      float acc2[kCols] = {}, acc3[kCols] = {};
      for (std::size_t r = 0; r < rn; ++r) {
        const float* ar = a.row(r) + k;
        const float* bv = b.row(r) + c;
        const float a0 = ar[0], a1 = ar[1], a2 = ar[2], a3 = ar[3];
        for (std::size_t jj = 0; jj < kCols; ++jj) {
          acc0[jj] += a0 * bv[jj];
          acc1[jj] += a1 * bv[jj];
          acc2[jj] += a2 * bv[jj];
          acc3[jj] += a3 * bv[jj];
        }
      }
      float* o0 = out.row(k) + c;
      float* o1 = out.row(k + 1) + c;
      float* o2 = out.row(k + 2) + c;
      float* o3 = out.row(k + 3) + c;
      for (std::size_t jj = 0; jj < kCols; ++jj) {
        o0[jj] += acc0[jj];
        o1[jj] += acc1[jj];
        o2[jj] += acc2[jj];
        o3[jj] += acc3[jj];
      }
    }
    for (; c < cn; ++c) {
      float d0 = 0.0f, d1 = 0.0f, d2 = 0.0f, d3 = 0.0f;
      for (std::size_t r = 0; r < rn; ++r) {
        const float* ar = a.row(r) + k;
        const float bc = b.row(r)[c];
        d0 += ar[0] * bc;
        d1 += ar[1] * bc;
        d2 += ar[2] * bc;
        d3 += ar[3] * bc;
      }
      out.row(k)[c] += d0;
      out.row(k + 1)[c] += d1;
      out.row(k + 2)[c] += d2;
      out.row(k + 3)[c] += d3;
    }
  }
  for (; k < kn; ++k) {
    std::size_t c = 0;
    for (; c + kCols <= cn; c += kCols) {
      float acc[kCols] = {};
      for (std::size_t r = 0; r < rn; ++r) {
        const float ak = a.row(r)[k];
        const float* bv = b.row(r) + c;
        for (std::size_t jj = 0; jj < kCols; ++jj) {
          acc[jj] += ak * bv[jj];
        }
      }
      float* orow = out.row(k) + c;
      for (std::size_t jj = 0; jj < kCols; ++jj) orow[jj] += acc[jj];
    }
    for (; c < cn; ++c) {
      float d = 0.0f;
      for (std::size_t r = 0; r < rn; ++r) {
        d += a.row(r)[k] * b.row(r)[c];
      }
      out.row(k)[c] += d;
    }
  }
}

/// Thread-local pack buffer of the products that pack per call.
thread_local std::vector<float> tl_packed_b;

// Tier dispatch. Every kernel has a baseline body here and a SIMD body
// per tier (ml/simd_kernels_impl.h), and all of them read the one tier value
// (ml::kernel_tier): in the SIMD tiers every accumulator chain is a fused
// multiply-add on every path, so a window scored alone still matches a
// window scored inside a fused batch bit for bit, a gradient matches any
// tiled variant, and the AVX2 and AVX-512 tiers match each other. (The
// baseline tier differs from them as a machine without FMA would;
// determinism is per tier.)

void rows_packed_dispatch(const Matrix& a, const float* packed, Matrix& out) {
  if (const simd::Kernels* kernels = simd::active()) {
    kernels->rows_packed(a, packed, out);
  } else {
    rows_packed(a, packed, out);
  }
}

// ---------------------------------------------------------------------------
// The fused LSTM step's gate-block layout.
// ---------------------------------------------------------------------------

/// Where gate row j (of 4H, gate-major) sits in a gate-blocked row: its
/// block's offset plus its gate's 16-unit group.
std::size_t gate_block_index(std::size_t j, std::size_t hidden) {
  const std::size_t u = j % hidden;
  return u / kGateBlockUnits * kGateBlockWidth + j / hidden * kGateBlockUnits +
         u % kGateBlockUnits;
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::fill(float value) {
  for (float& x : data_) x = value;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0f);
}

void Matrix::reshape(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

void Matrix::add(const Matrix& other) {
  NFV_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
            "Matrix::add shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::add_scaled(const Matrix& other, float k) {
  NFV_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
            "Matrix::add_scaled shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += k * other.data_[i];
  }
}

void Matrix::scale(float k) {
  for (float& x : data_) x *= k;
}

void Matrix::hadamard(const Matrix& other) {
  NFV_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
            "Matrix::hadamard shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
}

double Matrix::squared_norm() const {
  double sum = 0.0;
  for (float x : data_) sum += static_cast<double>(x) * x;
  return sum;
}

void matmul(const Matrix& a, const Matrix& b, Matrix& out) {
  NFV_CHECK(a.cols() == b.rows(), "matmul inner-dimension mismatch: "
                                      << a.cols() << " vs " << b.rows());
  out.reshape(a.rows(), b.cols());
  pack_matmul_b_panels(b, tl_packed_b);
  rows_packed_dispatch(a, tl_packed_b.data(), out);
}

void pack_matmul_b(const Matrix& b, std::vector<float>& packed) {
  pack_matmul_b_panels(b, packed);
}

void matmul_packed(const Matrix& a, const Matrix& b,
                   const std::vector<float>& packed, Matrix& out) {
  NFV_CHECK(a.cols() == b.rows(), "matmul_packed inner-dimension mismatch: "
                                      << a.cols() << " vs " << b.rows());
  NFV_CHECK(packed.size() == panel_count(b.cols()) * b.rows() * kPanelCols,
            "matmul_packed: packed buffer does not match b (repack needed)");
  out.reshape(a.rows(), b.cols());
  rows_packed_dispatch(a, packed.data(), out);
}

void matmul_transb(const Matrix& a, const Matrix& b, Matrix& out) {
  NFV_CHECK(a.cols() == b.cols(), "matmul_transb inner-dimension mismatch: "
                                      << a.cols() << " vs " << b.cols());
  out.reshape(a.rows(), b.rows());
  pack_transb_panels(b, 0, b.cols(), tl_packed_b);
  rows_packed_dispatch(a, tl_packed_b.data(), out);
}

void pack_transb(const Matrix& b, std::vector<float>& packed) {
  pack_transb_panels(b, 0, b.cols(), packed);
}

void pack_transb(const Matrix& b, std::size_t k0, std::size_t k1,
                 std::vector<float>& packed) {
  NFV_CHECK(k0 < k1 && k1 <= b.cols(), "pack_transb column block [" << k0
                                            << ", " << k1 << ") outside "
                                            << b.cols() << " columns");
  pack_transb_panels(b, k0, k1, packed);
}

void matmul_transb_packed(const Matrix& a, const Matrix& b,
                          const std::vector<float>& packed, Matrix& out) {
  NFV_CHECK(a.cols() == b.cols(),
            "matmul_transb_packed inner-dimension mismatch: "
                << a.cols() << " vs " << b.cols());
  matmul_transb_packed(a, b.rows(), packed, out);
}

void matmul_transb_packed(const Matrix& a, std::size_t b_rows,
                          const std::vector<float>& packed, Matrix& out) {
  NFV_CHECK(packed.size() == panel_count(b_rows) * a.cols() * kPanelCols,
            "matmul_transb_packed: packed buffer does not match a "
            << b_rows << " × " << a.cols() << " weight (repack needed)");
  out.reshape(a.rows(), b_rows);
  rows_packed_dispatch(a, packed.data(), out);
}

void matmul_transa_accumulate(const Matrix& a, const Matrix& b, Matrix& out) {
  NFV_CHECK(a.rows() == b.rows(),
            "matmul_transa_accumulate row mismatch: " << a.rows() << " vs "
                                                      << b.rows());
  NFV_CHECK(out.rows() == a.cols() && out.cols() == b.cols(),
            "matmul_transa_accumulate output shape mismatch");
  if (const simd::Kernels* kernels = simd::active()) {
    kernels->transa_acc(a, b, out);
  } else {
    transa_acc(a, b, out);
  }
}

void activation_codes(const float* v, std::size_t n, std::uint8_t* codes) {
  if (const simd::Kernels* kernels = simd::active()) {
    kernels->activation_codes(v, n, codes);
    return;
  }
  for (std::size_t j = 0; j < n; ++j) codes[j] = simd::activation_code(v[j]);
}

void pack_gate_blocks(const Matrix& w, std::size_t k0, std::size_t k1,
                      std::vector<float>& packed) {
  NFV_CHECK(w.rows() % 4 == 0 && k0 <= k1 && k1 <= w.cols(),
            "pack_gate_blocks: columns [" << k0 << ", " << k1 << ") of a "
                                          << w.rows() << " × " << w.cols()
                                          << " gate matrix");
  const std::size_t hidden = w.rows() / 4;
  const std::size_t kn = k1 - k0;
  packed.assign(gate_block_count(hidden) * kn * kGateBlockWidth, 0.0f);
  for (std::size_t j = 0; j < w.rows(); ++j) {
    const std::size_t at = gate_block_index(j, hidden);
    float* out = packed.data() + at / kGateBlockWidth * kn * kGateBlockWidth +
                 at % kGateBlockWidth;
    const float* row = w.row(j) + k0;
    for (std::size_t k = 0; k < kn; ++k) out[kGateBlockWidth * k] = row[k];
  }
}

void pack_gate_vector(const float* v, std::size_t hidden, float* out) {
  std::fill_n(out, gate_block_count(hidden) * kGateBlockWidth, 0.0f);
  for (std::size_t j = 0; j < 4 * hidden; ++j) {
    out[gate_block_index(j, hidden)] = v[j];
  }
}

void pack_gate_blocks(const Matrix& w, std::size_t k0, std::size_t k1,
                      QuantGateBlocks& out) {
  NFV_CHECK(w.rows() % 4 == 0 && k0 <= k1 && k1 <= w.cols(),
            "pack_gate_blocks: columns [" << k0 << ", " << k1 << ") of a "
                                          << w.rows() << " × " << w.cols()
                                          << " int8 gate matrix");
  const std::size_t hidden = w.rows() / 4;
  out.depth_padded = code_row_bytes(k1 - k0);
  const std::size_t groups = out.depth_padded / kQuantK;
  // Bytes per block and 4-k group: the i, f, g and o 16-channel blocks.
  constexpr std::size_t kGroupBytes = kGateBlockWidth * kQuantK;
  const std::size_t blocks = gate_block_count(hidden);
  out.codes.assign(blocks * groups * kGroupBytes, 0);
  out.scales.assign(blocks * kGateBlockWidth, 0.0f);
  out.zero_sums.assign(blocks * kGateBlockWidth, 0);
  for (std::size_t c = 0; c < w.rows(); ++c) {
    const float* row = w.row(c);
    float amax = 0.0f;
    for (std::size_t k = 0; k < w.cols(); ++k) {
      // A NaN or infinite weight has no code (its product would be a
      // float-to-int conversion out of range).
      NFV_CHECK(std::isfinite(row[k]), "pack_gate_blocks: weight ("
                                           << c << ", " << k << ") is "
                                           << row[k]);
      amax = std::max(amax, std::fabs(row[k]));
    }
    // An all-zero channel keeps w_scale 1 (nothing divides by zero) and
    // code 0 everywhere: its dequantized row is exactly zero.
    const float inv = amax > 0.0f ? 127.0f / amax : 0.0f;
    const std::size_t lane = gate_block_index(c, hidden);
    std::int8_t* block = out.codes.data() +
                         lane / kGateBlockWidth * groups * kGroupBytes +
                         lane % kGateBlockWidth * kQuantK;
    std::int32_t sum = 0;
    for (std::size_t k = k0; k < k1; ++k) {
      const std::int32_t q =
          std::clamp(round_nearest_i32(row[k] * inv), -127, 127);
      block[(k - k0) / kQuantK * kGroupBytes + (k - k0) % kQuantK] =
          static_cast<std::int8_t>(q);
      sum += q;
    }
    const float w_scale = amax > 0.0f ? amax / 127.0f : 1.0f;
    out.scales[lane] = (2.0f / 127.0f) * w_scale;
    out.zero_sums[lane] = kActivationZeroPoint * sum;
  }
}

void add_row_vector(Matrix& m, const Matrix& row) {
  NFV_CHECK(row.rows() == 1 && row.cols() == m.cols(),
            "add_row_vector expects a 1×cols vector");
  for (std::size_t r = 0; r < m.rows(); ++r) {
    float* mrow = m.row(r);
    const float* v = row.row(0);
    for (std::size_t c = 0; c < m.cols(); ++c) mrow[c] += v[c];
  }
}

void sum_rows_accumulate(const Matrix& m, Matrix& out) {
  NFV_CHECK(out.rows() == 1 && out.cols() == m.cols(),
            "sum_rows_accumulate expects a 1×cols accumulator");
  float* acc = out.row(0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const float* mrow = m.row(r);
    for (std::size_t c = 0; c < m.cols(); ++c) acc[c] += mrow[c];
  }
}

}  // namespace nfv::ml
