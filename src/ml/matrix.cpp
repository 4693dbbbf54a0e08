#include "ml/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "ml/simd_kernels.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace nfv::ml {

namespace {

using simd::kPanelCols;
using simd::kQuantChannels;
using simd::kQuantK;
using simd::panel_count;
using simd::round_nearest_i32;

/// Minimum multiply-accumulate count before the blocked-parallel kernels
/// pay for themselves; below this the serial kernels win outright. Sized
/// so the per-timestep training GEMMs (a 64-row batch against one layer's
/// weights is ~4e5 MACs) stay on the calling thread — BPTT parallelizes
/// across timesteps instead, one fork-join per backward pass rather than
/// one per step — while the fused scoring batches (~1k rows, several
/// MMACs) still shard across the pool.
constexpr std::size_t kParallelMinWork = 1u << 19;

/// Parallelize only for large products, only when a multi-thread pool is
/// available, and never from inside an already parallel region (the
/// per-group pipeline fan-out owns the threads there).
bool use_parallel(std::size_t work) {
  return work >= kParallelMinWork &&
         !nfv::util::ThreadPool::in_parallel_region() &&
         nfv::util::global_pool().size() > 1;
}

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
/// k-ascending order. The chain of an output never depends on R, P, the
/// row blocking or the thread count, so every tiling agrees bit for bit.
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

/// Rows [i0, i1) of out = a · packed panels, baseline tier: a 4-row × 1
/// panel tile, then a 1-row tail (two panels at a time) for the rows % 4
/// leftovers and for batches of 1–3 rows.
void rows_packed(const Matrix& a, const float* packed, Matrix& out,
                 std::size_t i0, std::size_t i1) {
  const std::size_t panels = panel_count(out.cols());
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    for (std::size_t jp = 0; jp < panels; ++jp) {
      packed_tile<4, 1>(a, packed, out, i, jp);
    }
  }
  for (; i < i1; ++i) {
    std::size_t jp = 0;
    for (; jp + 2 <= panels; jp += 2) packed_tile<1, 2>(a, packed, out, i, jp);
    if (jp < panels) packed_tile<1, 1>(a, packed, out, i, jp);
  }
}

/// Column block [c0, c1) of out += aᵀ * b, register-tiled 4 out-rows × 8
/// out-columns. Each out element adds a partial sum accumulated from zero
/// in r-ascending order (then one `out += sum`), so the result is
/// independent of the k/c tiling and of any column-block parallel split.
inline void transa_acc_block(const Matrix& a, const Matrix& b, Matrix& out,
                             std::size_t c0, std::size_t c1) {
  constexpr std::size_t kCols = 8;
  const std::size_t rn = a.rows();
  const std::size_t kn = a.cols();
  std::size_t k = 0;
  for (; k + 4 <= kn; k += 4) {
    std::size_t c = c0;
    for (; c + kCols <= c1; c += kCols) {
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
    for (; c < c1; ++c) {
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
    std::size_t c = c0;
    for (; c + kCols <= c1; c += kCols) {
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
    for (; c < c1; ++c) {
      float d = 0.0f;
      for (std::size_t r = 0; r < rn; ++r) {
        d += a.row(r)[k] * b.row(r)[c];
      }
      out.row(k)[c] += d;
    }
  }
}

/// Thread-local pack buffer of the products that pack per call. Packing
/// happens on the calling thread before any parallel fan-out; workers only
/// read it.
thread_local std::vector<float> tl_packed_b;

// Tier dispatch. Every kernel has a baseline body here and a SIMD body
// per tier (ml/simd_kernels_impl.h), and all of them read the one tier value
// (ml::kernel_tier): in the SIMD tiers every accumulator chain is a fused
// multiply-add on every path, so a window scored alone still matches a
// window scored inside a fused batch bit for bit, a gradient accumulated
// serially matches any tiled/parallel variant, and the AVX2 and AVX-512
// tiers match each other. (The baseline tier differs from them as a
// machine without FMA would; determinism is per tier.)

void rows_packed_dispatch(const Matrix& a, const float* packed, Matrix& out,
                          std::size_t i0, std::size_t i1) {
  if (const simd::Kernels* kernels = simd::active()) {
    kernels->rows_packed(a, packed, out, i0, i1);
  } else {
    rows_packed(a, packed, out, i0, i1);
  }
}

void transa_acc_block_dispatch(const Matrix& a, const Matrix& b, Matrix& out,
                               std::size_t c0, std::size_t c1) {
  if (const simd::Kernels* kernels = simd::active()) {
    kernels->transa_acc_block(a, b, out, c0, c1);
  } else {
    transa_acc_block(a, b, out, c0, c1);
  }
}

// ---------------------------------------------------------------------------
// int8 quantized kernels (matmul_quant family).
//
// The reduction is exact int32 arithmetic, so unlike the fp32 kernels there
// is no per-tier accumulation order to preserve — any tiling gives the same
// integer. The only float work is the per-row activation quantization
// (done once, on the calling thread, before any fan-out) and the dequant
// epilogue, which is the fixed two-rounding expression
//     out = float(iacc - zp·col_sum) * (a_scale * b_scale)
// on every tier; elementwise float ops have no reassociation freedom, so
// the SIMD and baseline builds of that expression agree bit for bit.
// ---------------------------------------------------------------------------

/// Quantize one activation row to unsigned 7-bit codes with a per-row
/// asymmetric scale/zero-point — the scalar reference tier. The [0, 127]
/// code range (not [0, 255]) is what makes the AVX2 GEMM exact: every
/// vpmaddubsw pair sum is at most 2·127·127 = 32258 < 2^15, so the i16
/// intermediate never saturates and SIMD equals the serial int32
/// reference. The quantized range always brackets 0 (lo ≤ 0 ≤ hi), so
/// the zero point lands in [0, 127] and an all-zero row round-trips to
/// exact zeros.
void quantize_activation_row_scalar(const float* ar, std::size_t kn,
                                    std::size_t kpad, std::uint8_t* q,
                                    float* sa, std::int32_t* zp) {
  float lo = 0.0f, hi = 0.0f;
  for (std::size_t k = 0; k < kn; ++k) {
    lo = std::min(lo, ar[k]);
    hi = std::max(hi, ar[k]);
  }
  const float range = hi - lo;
  if (range <= 0.0f) {
    *sa = 1.0f;
    *zp = 0;
    std::memset(q, 0, kpad);
    return;
  }
  const float inv = 127.0f / range;
  const std::int32_t z = std::clamp(round_nearest_i32(-lo * inv), 0, 127);
  for (std::size_t k = 0; k < kn; ++k) {
    const std::int32_t v = round_nearest_i32(ar[k] * inv) + z;
    q[k] = static_cast<std::uint8_t>(std::clamp(v, 0, 127));
  }
  std::memset(q + kn, 0, kpad - kn);
  *sa = range / 127.0f;
  *zp = z;
}

/// Quantize every row of `a` (the SIMD tiers produce the scalar tier's
/// codes, so this dispatch is a pure speed knob).
void quantize_activation_rows(const Matrix& a, std::size_t kpad,
                              std::uint8_t* qa, float* sa,
                              std::int32_t* zp) {
  if (const simd::Kernels* kernels = simd::active()) {
    kernels->quantize_rows(a, kpad, qa, sa, zp);
    return;
  }
  const std::size_t kn = a.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    quantize_activation_row_scalar(a.row(i), kn, kpad, qa + i * kpad, sa + i,
                                   zp + i);
  }
}

/// Activation-quantization scratch: filled on the calling thread before
/// any parallel fan-out; workers only read through captured pointers.
thread_local std::vector<std::uint8_t> tl_quant_a;
thread_local std::vector<float> tl_quant_sa;
thread_local std::vector<std::int32_t> tl_quant_zp;

/// Rows [i0, i1) of the quantized product over qb's full 8-channel
/// panels, plain-int reference tier. The integer sums are exact so the
/// order is immaterial, and the dequant epilogue is the canonical
/// expression shared with the SIMD tiers.
void quant_panels_serial(const std::uint8_t* qa, const float* sa,
                         const std::int32_t* zp, std::size_t kpad,
                         const QuantizedMatrix& qb, Matrix& out,
                         std::size_t i0, std::size_t i1) {
  const std::size_t groups = kpad / kQuantK;
  const std::size_t panels = qb.rows / kQuantChannels;
  for (std::size_t i = i0; i < i1; ++i) {
    const std::uint8_t* ar = qa + i * kpad;
    float* orow = out.row(i);
    for (std::size_t p = 0; p < panels; ++p) {
      const std::int8_t* panel = qb.data.data() + p * kpad * kQuantChannels;
      std::int32_t acc[kQuantChannels] = {};
      for (std::size_t g = 0; g < groups; ++g) {
        const std::uint8_t* av = ar + kQuantK * g;
        const std::int8_t* bg = panel + kQuantChannels * kQuantK * g;
        for (std::size_t jj = 0; jj < kQuantChannels; ++jj) {
          const std::int8_t* bv = bg + kQuantK * jj;
          acc[jj] += static_cast<std::int32_t>(av[0]) * bv[0] +
                     static_cast<std::int32_t>(av[1]) * bv[1] +
                     static_cast<std::int32_t>(av[2]) * bv[2] +
                     static_cast<std::int32_t>(av[3]) * bv[3];
        }
      }
      const float* sc = qb.scales.data() + kQuantChannels * p;
      const std::int32_t* cs = qb.col_sums.data() + kQuantChannels * p;
      float* o = orow + kQuantChannels * p;
      for (std::size_t jj = 0; jj < kQuantChannels; ++jj) {
        o[jj] =
            static_cast<float>(acc[jj] - zp[i] * cs[jj]) * (sa[i] * sc[jj]);
      }
    }
  }
}

/// Rows [i0, i1) of the quantized product: the full panels on the active
/// tier, then the C mod 8 row-major tail channels in plain ints.
void quant_rows_dispatch(const std::uint8_t* qa, const float* sa,
                         const std::int32_t* zp, std::size_t kpad,
                         const QuantizedMatrix& qb, Matrix& out,
                         std::size_t i0, std::size_t i1) {
  if (const simd::Kernels* kernels = simd::active()) {
    kernels->quant_panels(qa, sa, zp, kpad, qb, out, i0, i1);
  } else {
    quant_panels_serial(qa, sa, zp, kpad, qb, out, i0, i1);
  }
  const std::size_t first_tail = qb.rows / kQuantChannels * kQuantChannels;
  const std::int8_t* tail_base = qb.data.data() + first_tail * kpad;
  for (std::size_t i = i0; i < i1; ++i) {
    const std::uint8_t* ar = qa + i * kpad;
    for (std::size_t c = first_tail; c < qb.rows; ++c) {
      const std::int8_t* bv = tail_base + (c - first_tail) * kpad;
      std::int32_t acc = 0;
      for (std::size_t k = 0; k < kpad; ++k) {
        acc += static_cast<std::int32_t>(ar[k]) * bv[k];
      }
      out.row(i)[c] = static_cast<float>(acc - zp[i] * qb.col_sums[c]) *
                      (sa[i] * qb.scales[c]);
    }
  }
}

/// out = a · packed panels, all rows on the calling thread or, when
/// `parallel`, in 16-row blocks on the global pool. Each task writes only
/// its own rows and every accumulator chain keeps its k-order, so any
/// thread count reproduces the serial result bit for bit.
void packed_product(const Matrix& a, const float* packed, Matrix& out,
                    bool parallel) {
  if (!parallel) {
    rows_packed_dispatch(a, packed, out, 0, a.rows());
    return;
  }
  constexpr std::size_t kRowBlock = 16;
  const std::size_t blocks = (a.rows() + kRowBlock - 1) / kRowBlock;
  nfv::util::global_pool().parallel_for(0, blocks, [&](std::size_t bi) {
    const std::size_t i0 = bi * kRowBlock;
    rows_packed_dispatch(a, packed, out, i0,
                         std::min(i0 + kRowBlock, a.rows()));
  });
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

void matmul_serial(const Matrix& a, const Matrix& b, Matrix& out) {
  NFV_CHECK(a.cols() == b.rows(), "matmul inner-dimension mismatch: "
                                      << a.cols() << " vs " << b.rows());
  out.reshape(a.rows(), b.cols());
  pack_matmul_b_panels(b, tl_packed_b);
  packed_product(a, tl_packed_b.data(), out, false);
}

void matmul(const Matrix& a, const Matrix& b, Matrix& out) {
  NFV_CHECK(a.cols() == b.rows(), "matmul inner-dimension mismatch: "
                                      << a.cols() << " vs " << b.rows());
  out.reshape(a.rows(), b.cols());
  pack_matmul_b_panels(b, tl_packed_b);
  packed_product(a, tl_packed_b.data(), out,
                 use_parallel(a.rows() * a.cols() * b.cols()));
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
  packed_product(a, packed.data(), out,
                 use_parallel(a.rows() * a.cols() * b.cols()));
}

void matmul_transb_serial(const Matrix& a, const Matrix& b, Matrix& out) {
  NFV_CHECK(a.cols() == b.cols(), "matmul_transb inner-dimension mismatch: "
                                      << a.cols() << " vs " << b.cols());
  out.reshape(a.rows(), b.rows());
  pack_transb_panels(b, 0, b.cols(), tl_packed_b);
  packed_product(a, tl_packed_b.data(), out, false);
}

void matmul_transb(const Matrix& a, const Matrix& b, Matrix& out) {
  NFV_CHECK(a.cols() == b.cols(), "matmul_transb inner-dimension mismatch: "
                                      << a.cols() << " vs " << b.cols());
  out.reshape(a.rows(), b.rows());
  pack_transb_panels(b, 0, b.cols(), tl_packed_b);
  packed_product(a, tl_packed_b.data(), out,
                 use_parallel(a.rows() * a.cols() * b.rows()));
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
  packed_product(a, packed.data(), out,
                 use_parallel(a.rows() * a.cols() * b_rows));
}

void matmul_transa_accumulate_serial(const Matrix& a, const Matrix& b,
                                     Matrix& out) {
  NFV_CHECK(a.rows() == b.rows(),
            "matmul_transa_accumulate row mismatch: " << a.rows() << " vs "
                                                      << b.rows());
  NFV_CHECK(out.rows() == a.cols() && out.cols() == b.cols(),
            "matmul_transa_accumulate output shape mismatch");
  transa_acc_block_dispatch(a, b, out, 0, b.cols());
}

void matmul_transa_accumulate(const Matrix& a, const Matrix& b, Matrix& out) {
  NFV_CHECK(a.rows() == b.rows(),
            "matmul_transa_accumulate row mismatch: " << a.rows() << " vs "
                                                      << b.rows());
  NFV_CHECK(out.rows() == a.cols() && out.cols() == b.cols(),
            "matmul_transa_accumulate output shape mismatch");
  if (!use_parallel(a.rows() * a.cols() * b.cols())) {
    transa_acc_block_dispatch(a, b, out, 0, b.cols());
    return;
  }
  nfv::util::ThreadPool& pool = nfv::util::global_pool();
  const std::size_t blocks = std::min(b.cols(), pool.size() * 4);
  const std::size_t block = (b.cols() + blocks - 1) / blocks;
  pool.parallel_for(0, blocks, [&](std::size_t bi) {
    const std::size_t c0 = bi * block;
    const std::size_t c1 = std::min(c0 + block, b.cols());
    if (c0 < c1) transa_acc_block_dispatch(a, b, out, c0, c1);
  });
}

void quantize_pack_b(const Matrix& b, QuantizedMatrix& out) {
  const std::size_t cn = b.rows();
  const std::size_t kn = b.cols();
  out.rows = cn;
  out.cols = kn;
  out.cols_padded = (kn + kQuantK - 1) / kQuantK * kQuantK;
  out.scales.assign(cn, 1.0f);
  out.col_sums.assign(cn, 0);
  const std::size_t panels = cn / kQuantChannels;
  out.data.assign(cn * out.cols_padded, 0);
  std::vector<std::int8_t> qrow(out.cols_padded, 0);
  for (std::size_t c = 0; c < cn; ++c) {
    const float* w = b.row(c);
    float amax = 0.0f;
    for (std::size_t k = 0; k < kn; ++k) {
      amax = std::max(amax, std::fabs(w[k]));
    }
    // All-zero channels keep scale 1 (nothing divides by zero) and code
    // 0 everywhere — the dequantized row is exactly zero.
    const float scale = amax > 0.0f ? amax / 127.0f : 1.0f;
    const float inv = amax > 0.0f ? 127.0f / amax : 0.0f;
    std::int32_t sum = 0;
    for (std::size_t k = 0; k < kn; ++k) {
      const std::int32_t q =
          std::clamp(round_nearest_i32(w[k] * inv), -127, 127);
      qrow[k] = static_cast<std::int8_t>(q);
      sum += q;
    }
    std::fill(qrow.begin() + kn, qrow.end(), static_cast<std::int8_t>(0));
    out.scales[c] = scale;
    out.col_sums[c] = sum;
    if (c < panels * kQuantChannels) {
      // Scatter into the panel's 4-k × 8-channel blocks.
      const std::size_t p = c / kQuantChannels;
      const std::size_t jj = c % kQuantChannels;
      std::int8_t* panel =
          out.data.data() + p * out.cols_padded * kQuantChannels;
      for (std::size_t g = 0; g < out.cols_padded / kQuantK; ++g) {
        std::memcpy(panel + kQuantChannels * kQuantK * g + kQuantK * jj,
                    qrow.data() + kQuantK * g, kQuantK);
      }
    } else {
      std::memcpy(out.data.data() + panels * out.cols_padded * kQuantChannels +
                      (c - panels * kQuantChannels) * out.cols_padded,
                  qrow.data(), out.cols_padded);
    }
  }
}

void matmul_quant_serial(const Matrix& a, const QuantizedMatrix& qb,
                         Matrix& out) {
  NFV_CHECK(a.cols() == qb.cols, "matmul_quant inner-dimension mismatch: "
                                     << a.cols() << " vs " << qb.cols);
  out.resize(a.rows(), qb.rows);
  if (a.rows() == 0 || qb.rows == 0) return;
  const std::size_t kpad = qb.cols_padded;
  tl_quant_a.resize(a.rows() * kpad);
  tl_quant_sa.resize(a.rows());
  tl_quant_zp.resize(a.rows());
  quantize_activation_rows(a, kpad, tl_quant_a.data(), tl_quant_sa.data(),
                           tl_quant_zp.data());
  quant_rows_dispatch(tl_quant_a.data(), tl_quant_sa.data(),
                      tl_quant_zp.data(), kpad, qb, out, 0, a.rows());
}

void matmul_quant(const Matrix& a, const QuantizedMatrix& qb, Matrix& out) {
  NFV_CHECK(a.cols() == qb.cols, "matmul_quant inner-dimension mismatch: "
                                     << a.cols() << " vs " << qb.cols);
  if (!use_parallel(a.rows() * a.cols() * qb.rows)) {
    matmul_quant_serial(a, qb, out);
    return;
  }
  out.resize(a.rows(), qb.rows);
  // Quantize every activation row once on the calling thread; the row
  // blocks then run an exact integer reduction plus a per-element float
  // epilogue, so any thread count produces the serial result bit for bit.
  const std::size_t kpad = qb.cols_padded;
  tl_quant_a.resize(a.rows() * kpad);
  tl_quant_sa.resize(a.rows());
  tl_quant_zp.resize(a.rows());
  quantize_activation_rows(a, kpad, tl_quant_a.data(), tl_quant_sa.data(),
                           tl_quant_zp.data());
  const std::uint8_t* qa = tl_quant_a.data();
  const float* sa = tl_quant_sa.data();
  const std::int32_t* zp = tl_quant_zp.data();
  constexpr std::size_t kRowBlock = 16;
  const std::size_t blocks = (a.rows() + kRowBlock - 1) / kRowBlock;
  nfv::util::global_pool().parallel_for(0, blocks, [&](std::size_t bi) {
    const std::size_t i0 = bi * kRowBlock;
    quant_rows_dispatch(qa, sa, zp, kpad, qb, out, i0,
                        std::min(i0 + kRowBlock, a.rows()));
  });
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
