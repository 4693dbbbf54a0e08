// Kernel bodies of the SIMD tiers, written once over a lane-width trait
// (ml/simd_math.h). ml/simd_kernels.cpp includes this file once per tier,
// inside the tier's namespace and `#pragma GCC target` region and after
// naming the tier's trait `Vec`, so it has no include guard and no
// includes of its own; nothing else includes it.
//
// Tier numerics. Every fp32 accumulator chain is a fused multiply-add in
// k order, exp/tanh/sigmoid run the Cephes evaluation below, and the
// scalar tails are the same C++ in both tiers, so the AVX2 and AVX-512
// tiers agree bit for bit; the baseline kernels (unfused chains, libm
// activations) keep their own results. GCC contracts a·b + c into an FMA
// whenever the target has one, so where a multiply and an add must round
// separately, as in the baseline tier, the fused LSTM step passes the
// product through T::opaque.
//
// The Cephes body exists once, over a batch of N vectors (exp_ps<T, N>).
// The row kernels activate one vector at a time (N = 1); the fused
// scoring step activates a whole tile at once, its R rows × 4 gates and
// then its R tanh(c), so the tile's independent exp → divide chains
// overlap instead of running one row after another. A lane's operations
// do not depend on N, so both give the same bits.

/// Runs body(T{}, j) over [j, n) in T-lane steps and, in the 16-lane
/// tier, one more 8-lane step; returns where the scalar tail starts. An
/// element therefore runs vector code in the 16-lane tier exactly when it
/// does in the 8-lane tier, which the kernels whose tails call libm
/// (std::tanh, std::exp) need for bit identity.
template <class T, class Body>
__attribute__((always_inline)) inline std::size_t vector_span(
    std::size_t j, std::size_t n, const Body& body) {
  for (; j + T::kLanes <= n; j += T::kLanes) body(T{}, j);
  if constexpr (T::kLanes > Vec8::kLanes) {
    if (j + Vec8::kLanes <= n) {
      body(Vec8{}, j);
      j += Vec8::kLanes;
    }
  }
  return j;
}

// ---------------------------------------------------------------------------
// Activations: the classic Cephes single-precision exp (range-reduce by
// ln 2, degree-6 polynomial, scale by 2^n), accurate to ~1e-7 relative,
// and the tanh / sigmoid built on it, over a batch of N vectors: every
// statement runs over all N before the next.
// ---------------------------------------------------------------------------

/// x[v] ← exp(x[v]) for each of the N vectors.
template <class T, std::size_t N>
__attribute__((always_inline)) inline void exp_ps(typename T::V (&x)[N]) {
  using V = typename T::V;
  V n[N], r[N], p[N];
  for (std::size_t v = 0; v < N; ++v) {
    x[v] = T::min(x[v], T::set1(88.3762626647949f));
  }
  for (std::size_t v = 0; v < N; ++v) {
    x[v] = T::max(x[v], T::set1(-88.3762626647949f));
  }
  for (std::size_t v = 0; v < N; ++v) {
    n[v] = T::round_nearest(T::mul(x[v], T::set1(1.44269504088896341f)));
  }
  // r = x - n·ln2, with ln2 split in two for extra precision.
  for (std::size_t v = 0; v < N; ++v) {
    r[v] = T::fnmadd(n[v], T::set1(0.693359375f), x[v]);
  }
  for (std::size_t v = 0; v < N; ++v) {
    r[v] = T::fnmadd(n[v], T::set1(-2.12194440e-4f), r[v]);
  }
  for (std::size_t v = 0; v < N; ++v) {
    p[v] = T::fmadd(T::set1(1.9875691500e-4f), r[v],
                    T::set1(1.3981999507e-3f));
  }
  for (const float c : {8.3334519073e-3f, 4.1665795894e-2f, 1.6666665459e-1f,
                        5.0000001201e-1f}) {
    for (std::size_t v = 0; v < N; ++v) {
      p[v] = T::fmadd(p[v], r[v], T::set1(c));
    }
  }
  for (std::size_t v = 0; v < N; ++v) {
    p[v] = T::fmadd(p[v], T::mul(r[v], r[v]), r[v]);
  }
  for (std::size_t v = 0; v < N; ++v) p[v] = T::add(p[v], T::set1(1.0f));
  for (std::size_t v = 0; v < N; ++v) x[v] = T::mul(p[v], T::pow2(n[v]));
}

/// x[v] ← tanh(x[v]) where bit v of kTanh is set, sigmoid(x[v]) elsewhere:
/// tanh(x) = sign(x)·(1 − t)/(1 + t) with t = exp(−2|x|) ∈ (0, 1], and
/// sigmoid(x) = 1/(1 + exp(−x)).
template <class T, std::size_t N, std::uint32_t kTanh>
__attribute__((always_inline)) inline void activate_ps(
    typename T::V (&x)[N]) {
  using V = typename T::V;
  static_assert(N <= 32, "kTanh holds one bit per vector");
  const V sign_mask = T::set1(-0.0f);
  const V one = T::set1(1.0f);
  V sign[N] = {};
  for (std::size_t v = 0; v < N; ++v) {
    if ((kTanh >> v) & 1u) {
      sign[v] = T::bit_and(x[v], sign_mask);
      x[v] = T::mul(T::bit_andnot(sign_mask, x[v]), T::set1(-2.0f));
    } else {
      x[v] = T::sub(T::zero(), x[v]);
    }
  }
  exp_ps<T, N>(x);
  for (std::size_t v = 0; v < N; ++v) {
    if ((kTanh >> v) & 1u) {
      x[v] = T::bit_or(T::div(T::sub(one, x[v]), T::add(one, x[v])), sign[v]);
    } else {
      x[v] = T::div(one, T::add(one, x[v]));
    }
  }
}

template <class T>
inline typename T::V exp_ps(typename T::V x) {
  typename T::V v[1] = {x};
  exp_ps<T, 1>(v);
  return v[0];
}

template <class T>
inline typename T::V tanh_ps(typename T::V x) {
  typename T::V v[1] = {x};
  activate_ps<T, 1, 1u>(v);
  return v[0];
}

template <class T>
inline typename T::V sigmoid_ps(typename T::V x) {
  typename T::V v[1] = {x};
  activate_ps<T, 1, 0u>(v);
  return v[0];
}

// ---------------------------------------------------------------------------
// fp32 GEMM over 16-column k-major panels.
// ---------------------------------------------------------------------------

/// R a-rows × P panels of out = a · packed: R·P·(16 / lanes) accumulators,
/// each lane exactly the chain `acc = fma(a[k], b[k], acc)` in k order,
/// so no tiling, row blocking or lane width changes an output. A padded
/// last panel stores only the columns `out` has.
template <class T, std::size_t R, std::size_t P>
__attribute__((always_inline)) inline void packed_tile(
    const Matrix& a, const float* packed, Matrix& out, std::size_t i,
    std::size_t jp) {
  constexpr std::size_t kPerPanel = kPanelCols / T::kLanes;
  constexpr std::size_t kVecs = P * kPerPanel;
  const std::size_t kn = a.cols();
  const std::size_t stride = kn * kPanelCols;  // floats per panel
  const float* panel = packed + jp * stride;
  const float* ar[R];
  for (std::size_t r = 0; r < R; ++r) ar[r] = a.row(i + r);
  typename T::V acc[R][kVecs];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < kVecs; ++v) acc[r][v] = T::zero();
  }
  for (std::size_t k = 0; k < kn; ++k) {
    typename T::V bv[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v) {
      bv[v] = T::load(panel + (v / kPerPanel) * stride + kPanelCols * k +
                      (v % kPerPanel) * T::kLanes);
    }
    for (std::size_t r = 0; r < R; ++r) {
      const typename T::V av = T::set1(ar[r][k]);
      for (std::size_t v = 0; v < kVecs; ++v) {
        acc[r][v] = T::fmadd(av, bv[v], acc[r][v]);
      }
    }
  }
  const std::size_t cols = out.cols();
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < kVecs; ++v) {
      const std::size_t col = kPanelCols * jp + T::kLanes * v;
      if (col >= cols) break;
      float* o = out.row(i + r) + col;
      if (col + T::kLanes <= cols) {
        T::store(o, acc[r][v]);
      } else {
        T::store_n(o, acc[r][v], cols - col);
      }
    }
  }
}

/// out = a · packed panels. The 4-row tile keeps half the vector
/// registers as accumulators (4×1 panels of two ymm halves, 4×4 panels of
/// zmm) and falls back to 4×2 and 4×1 for the last panels; the 1-row tail
/// (rows % 4 leftovers, batches of 1–3 rows) keeps four accumulators,
/// enough to stream the weights rather than wait on the FMA latency.
template <class T>
void rows_packed(const Matrix& a, const float* packed, Matrix& out) {
  constexpr std::size_t kPerPanel = kPanelCols / T::kLanes;
  constexpr std::size_t kTile = T::kRegisters / 2 / (4 * kPerPanel);
  constexpr std::size_t kRowTile = 4 / kPerPanel;
  const std::size_t panels = panel_count(out.cols());
  const std::size_t rows = a.rows();
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    std::size_t jp = 0;
    for (; jp + kTile <= panels; jp += kTile) {
      packed_tile<T, 4, kTile>(a, packed, out, i, jp);
    }
    if constexpr (kTile > 2) {
      if (jp + 2 <= panels) {
        packed_tile<T, 4, 2>(a, packed, out, i, jp);
        jp += 2;
      }
    }
    if constexpr (kTile > 1) {
      for (; jp < panels; ++jp) packed_tile<T, 4, 1>(a, packed, out, i, jp);
    }
  }
  for (; i < rows; ++i) {
    std::size_t jp = 0;
    for (; jp + kRowTile <= panels; jp += kRowTile) {
      packed_tile<T, 1, kRowTile>(a, packed, out, i, jp);
    }
    for (; jp < panels; ++jp) packed_tile<T, 1, 1>(a, packed, out, i, jp);
  }
}

/// Out-rows [k, k+R) × one vector of columns of out += aᵀ·b: each element
/// sums from zero in r order with one FMA per term, then adds to out once.
template <class U, std::size_t R>
__attribute__((always_inline)) inline void transa_tile(
    const Matrix& a, const Matrix& b, Matrix& out, std::size_t k,
    std::size_t c) {
  typename U::V acc[R];
  for (std::size_t q = 0; q < R; ++q) acc[q] = U::zero();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const float* ar = a.row(r) + k;
    const typename U::V bv = U::load(b.row(r) + c);
    for (std::size_t q = 0; q < R; ++q) {
      acc[q] = U::fmadd(U::set1(ar[q]), bv, acc[q]);
    }
  }
  for (std::size_t q = 0; q < R; ++q) {
    float* o = out.row(k + q) + c;
    U::store(o, U::add(U::load(o), acc[q]));
  }
}

/// The same sums for one column, one scalar FMA per term.
template <std::size_t R>
inline void transa_column(const Matrix& a, const Matrix& b, Matrix& out,
                          std::size_t k, std::size_t c) {
  float d[R] = {};
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const float* ar = a.row(r) + k;
    const float bc = b.row(r)[c];
    for (std::size_t q = 0; q < R; ++q) d[q] = __builtin_fmaf(ar[q], bc, d[q]);
  }
  for (std::size_t q = 0; q < R; ++q) out.row(k + q)[c] += d[q];
}

template <class T, std::size_t R>
inline void transa_rows(const Matrix& a, const Matrix& b, Matrix& out,
                        std::size_t k) {
  const std::size_t cols = b.cols();
  std::size_t c = vector_span<T>(0, cols, [&](auto lanes, std::size_t col) {
    transa_tile<decltype(lanes), R>(a, b, out, k, col);
  });
  for (; c < cols; ++c) transa_column<R>(a, b, out, k, c);
}

/// out += aᵀ·b (weight gradients), 4 out-rows at a time.
template <class T>
void transa_acc(const Matrix& a, const Matrix& b, Matrix& out) {
  std::size_t k = 0;
  for (; k + 4 <= a.cols(); k += 4) transa_rows<T, 4>(a, b, out, k);
  for (; k < a.cols(); ++k) transa_rows<T, 1>(a, b, out, k);
}

// ---------------------------------------------------------------------------
// int8: activation codes.
// ---------------------------------------------------------------------------

/// activation_code of every lane of v: vmulps, then vcvtps2dq's round to
/// nearest even (INT32_MIN for NaN and out-of-range lanes), + 64, clamp.
template <class T>
__attribute__((always_inline)) inline typename T::Vi codes_of(
    typename T::V v) {
  const typename T::Vi q =
      T::to_int(T::mul(v, T::set1(kActivationCodeScale)));
  return T::clamp_i(T::add_i(q, T::set1_i(kActivationZeroPoint)),
                    T::zero_i(), T::set1_i(127));
}

void activation_codes(const float* v, std::size_t n, std::uint8_t* codes) {
  std::size_t j = 0;
  for (; j + Vec::kLanes <= n; j += Vec::kLanes) {
    Vec::store_bytes(codes + j, codes_of<Vec>(Vec::load(v + j)));
  }
  for (; j < n; ++j) codes[j] = activation_code(v[j]);
}

// ---------------------------------------------------------------------------
// LSTM rows, the log-sum-exp head and the layer-0 gather.
// ---------------------------------------------------------------------------

/// Elements [j, j1) of a gate row: add `add`, then tanh (the candidate
/// gate) or sigmoid (input, forget and output gates).
template <bool kTanh>
void activate_segment(float* g, const float* add, std::size_t j,
                      std::size_t j1) {
  j = vector_span<Vec>(j, j1, [&](auto lanes, std::size_t col) {
    using U = decltype(lanes);
    const typename U::V v = U::add(U::load(g + col), U::load(add + col));
    U::store(g + col, kTanh ? tanh_ps<U>(v) : sigmoid_ps<U>(v));
  });
  for (; j < j1; ++j) {
    const float v = g[j] + add[j];
    g[j] = kTanh ? std::tanh(v) : sigmoid(v);
  }
}

void gate_activation_row(float* g, const float* add, std::size_t h) {
  activate_segment<false>(g, add, 0, h);          // i
  activate_segment<false>(g, add, h, 2 * h);      // f
  activate_segment<true>(g, add, 2 * h, 3 * h);   // g
  activate_segment<false>(g, add, 3 * h, 4 * h);  // o
}

void cell_forward_row(const float* g, const float* cp, float* c, float* hh,
                      std::size_t h) {
  std::size_t j = vector_span<Vec>(0, h, [&](auto lanes, std::size_t col) {
    using U = decltype(lanes);
    const typename U::V ig = U::load(g + col);
    const typename U::V fg = U::load(g + h + col);
    const typename U::V cg = U::load(g + 2 * h + col);
    const typename U::V og = U::load(g + 3 * h + col);
    const typename U::V cj = U::fmadd(fg, U::load(cp + col), U::mul(ig, cg));
    U::store(c + col, cj);
    U::store(hh + col, U::mul(og, tanh_ps<U>(cj)));
  });
  for (; j < h; ++j) {
    const float cj = __builtin_fmaf(g[h + j], cp[j], g[j] * g[2 * h + j]);
    c[j] = cj;
    hh[j] = g[3 * h + j] * std::tanh(cj);
  }
}

void gate_backward_row(const float* g, const float* c, const float* cprev,
                       const float* gh, const float* dhn, float* dcn,
                       float* dg, std::size_t h) {
  std::size_t j = vector_span<Vec>(0, h, [&](auto lanes, std::size_t col) {
    using U = decltype(lanes);
    using V = typename U::V;
    const V one = U::set1(1.0f);
    const V ig = U::load(g + col);
    const V fg = U::load(g + h + col);
    const V cg = U::load(g + 2 * h + col);
    const V og = U::load(g + 3 * h + col);
    const V tc = tanh_ps<U>(U::load(c + col));
    const V dh = U::add(U::load(gh + col), U::load(dhn + col));
    const V dc = U::fmadd(U::mul(dh, og), U::fnmadd(tc, tc, one),
                          U::load(dcn + col));
    const V cp = cprev ? U::load(cprev + col) : U::zero();
    const V gi = U::mul(ig, U::sub(one, ig));
    const V gf = U::mul(fg, U::sub(one, fg));
    const V gg = U::fnmadd(cg, cg, one);
    const V go = U::mul(og, U::sub(one, og));
    U::store(dg + col, U::mul(U::mul(dc, cg), gi));
    U::store(dg + h + col, U::mul(U::mul(dc, cp), gf));
    U::store(dg + 2 * h + col, U::mul(U::mul(dc, ig), gg));
    U::store(dg + 3 * h + col, U::mul(U::mul(dh, tc), go));
    U::store(dcn + col, U::mul(dc, fg));
  });
  for (; j < h; ++j) {
    const float ig = g[j];
    const float fg = g[h + j];
    const float cg = g[2 * h + j];
    const float og = g[3 * h + j];
    const float tc = std::tanh(c[j]);
    const float dh = gh[j] + dhn[j];
    const float dc = dh * og * (1.0f - tc * tc) + dcn[j];
    const float cpj = cprev ? cprev[j] : 0.0f;
    dg[j] = dc * cg * sigmoid_grad_from_output(ig);
    dg[h + j] = dc * cpj * sigmoid_grad_from_output(fg);
    dg[2 * h + j] = dc * ig * tanh_grad_from_output(cg);
    dg[3 * h + j] = dh * tc * sigmoid_grad_from_output(og);
    dcn[j] = dc * fg;
  }
}

/// Σ exp(l − m) of one logit row into one 8-lane accumulator (fold8 adds
/// a 16-lane vector as its two halves in order), reduced pairwise in a
/// fixed order; the n mod 8 tail adds std::exp terms.
float sum_exp(const float* l, std::size_t n, float m) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t c = vector_span<Vec>(0, n, [&](auto lanes, std::size_t col) {
    using U = decltype(lanes);
    U::fold8(acc, exp_ps<U>(U::sub(U::load(l + col), U::set1(m))));
  });
  alignas(32) float sums[8];
  _mm256_store_ps(sums, acc);
  float total = ((sums[0] + sums[1]) + (sums[2] + sums[3])) +
                ((sums[4] + sums[5]) + (sums[6] + sums[7]));
  for (; c < n; ++c) total += std::exp(l[c] - m);
  return total;
}

// ---------------------------------------------------------------------------
// The fused LSTM scoring step.
// ---------------------------------------------------------------------------

enum class StepProduct { kNone, kFp32, kInt8 };

/// pre[r][q] += the fp32 products of rows [i, i+R) of a (n columns, row
/// stride `stride`) with k-rows [0, n) of `w`, gate q's T::kLanes units at
/// w + 16q: one fused multiply-add per k in k order, as packed_tile. The
/// R rows share each weight load.
template <class T, std::size_t R>
__attribute__((always_inline)) inline void gate_products(
    typename T::V (&pre)[R][4], const float* a, std::size_t stride,
    std::size_t n, const float* w, std::size_t i) {
  for (std::size_t k = 0; k < n; ++k, w += kGateBlockWidth) {
    typename T::V wv[4];
    for (std::size_t q = 0; q < 4; ++q) {
      wv[q] = T::opaque(T::load(w + q * kGateBlockUnits));
    }
    for (std::size_t r = 0; r < R; ++r) {
      const typename T::V av = T::set1(a[(i + r) * stride + k]);
      for (std::size_t q = 0; q < 4; ++q) {
        pre[r][q] = T::fmadd(av, wv[q], pre[r][q]);
      }
    }
  }
}

/// acc[r][q] += the int8 products of rows [i, i+R) of one part's codes
/// (rows qb.depth_padded bytes apart) with its pack `qb`: per 4-k group
/// one activation quad per row against gate q's T::kLanes channels
/// (vpdpbusd on a whole 16-channel block, maddubs+madd on each 8-channel
/// half). The integer sums are exact, so any grouping gives the same.
template <class T, std::size_t R>
__attribute__((always_inline)) inline void int8_part(
    typename T::Vi (&acc)[R][4], const std::uint8_t* codes,
    const QuantGateBlocks& qb, std::size_t i, std::size_t u0) {
  constexpr std::size_t kGroupBytes = kGateBlockWidth * kQuantK;
  const std::size_t stride = qb.depth_padded;
  const std::size_t groups = stride / kQuantK;
  const std::int8_t* w = qb.codes.data() +
                         u0 / kGateBlockUnits * groups * kGroupBytes +
                         u0 % kGateBlockUnits * kQuantK;
  for (std::size_t g = 0; g < groups; ++g, w += kGroupBytes) {
    typename T::Vi wv[4];
    for (std::size_t q = 0; q < 4; ++q) {
      wv[q] = T::load_i(w + q * kGateBlockUnits * kQuantK);
    }
    for (std::size_t r = 0; r < R; ++r) {
      const typename T::Vi av =
          T::broadcast_quad(codes + (i + r) * stride + kQuantK * g);
      for (std::size_t q = 0; q < 4; ++q) {
        acc[r][q] = T::dot(acc[r][q], av, wv[q]);
      }
    }
  }
}

/// pre[r][q] = the int8 products of rows [i, i+R) over the step's x and
/// h_prev parts, dequantized per channel as float(acc − zero_sums) ·
/// scales, the baseline tier's expression.
template <class T, std::size_t R>
__attribute__((always_inline)) inline void gate_products_int8(
    typename T::V (&pre)[R][4], const StepArgs& s, std::size_t i,
    std::size_t u0) {
  const std::size_t lane0 =
      u0 / kGateBlockUnits * kGateBlockWidth + u0 % kGateBlockUnits;
  typename T::Vi acc[R][4];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t q = 0; q < 4; ++q) acc[r][q] = T::zero_i();
  }
  if (s.x_codes != nullptr) int8_part<T, R>(acc, s.x_codes, *s.x_quant, i, u0);
  if (s.h_codes != nullptr) int8_part<T, R>(acc, s.h_codes, *s.h_quant, i, u0);
  const float* scales =
      (s.h_codes != nullptr ? s.h_quant : s.x_quant)->scales.data();
  for (std::size_t q = 0; q < 4; ++q) {
    const std::size_t at = lane0 + q * kGateBlockUnits;
    typename T::Vi zero_sum = T::zero_i();
    if (s.x_codes != nullptr) {
      zero_sum = T::load_i(s.x_quant->zero_sums.data() + at);
    }
    if (s.h_codes != nullptr) {
      zero_sum =
          T::add_i(zero_sum, T::load_i(s.h_quant->zero_sums.data() + at));
    }
    const typename T::V scale = T::load(scales + at);
    for (std::size_t r = 0; r < R; ++r) {
      pre[r][q] = T::mul(T::to_float(T::sub_i(acc[r][q], zero_sum)), scale);
    }
  }
}

/// Gate activations and cell update of rows [i, i+R) × the T::kLanes units
/// from u0, given their pre-activations z[4r + q] (gates i, f, g, o of row
/// i + r). The units the row kernels above run in vector code
/// (vector_span: every whole 8-lane group) run the Cephes activations here
/// too, as two batches: the tile's 4R gates, then its R tanh(c); the rest
/// take the same libm tail, so every unit matches gate_activation_row +
/// cell_forward_row bit for bit. An int8 step (s.codes set) also writes
/// the activation codes of the h it writes: a whole vector's from the
/// register, the other units' from the h just stored.
template <class T, std::size_t R>
__attribute__((always_inline)) inline void cell_units(
    const StepArgs& s, std::size_t i, std::size_t u0,
    typename T::V (&z)[4 * R]) {
  using V = typename T::V;
  const std::size_t h = s.hidden;
  const std::size_t c_stride = gate_block_count(h) * kGateBlockUnits;
  float* c = s.c + i * c_stride + u0;
  float* hh = s.h + i * h + u0;
  const std::size_t code_stride = code_row_bytes(h);
  std::uint8_t* codes =
      s.codes != nullptr ? s.codes + i * code_stride + u0 : nullptr;
  const std::size_t vec_end = h / Vec8::kLanes * Vec8::kLanes;
  const std::size_t n = std::min(T::kLanes, h - u0);
  const std::size_t nvec = vec_end > u0 ? std::min(n, vec_end - u0) : 0;
  V cp[R];
  for (std::size_t r = 0; r < R; ++r) cp[r] = T::load(c + r * c_stride);
  // The libm tail's inputs, kept before the vector part overwrites c.
  alignas(64) float tail_z[4 * R][T::kLanes];
  alignas(64) float tail_cp[R][T::kLanes];
  if (nvec < n) {
    for (std::size_t v = 0; v < 4 * R; ++v) T::store(tail_z[v], z[v]);
    for (std::size_t r = 0; r < R; ++r) T::store(tail_cp[r], cp[r]);
  }
  if (nvec > 0) {
    activate_ps<T, 4 * R, 0x44444444u>(z);  // tanh for gate g
    V cj[R];
    V tc[R];
    for (std::size_t r = 0; r < R; ++r) {
      cj[r] = T::fmadd(z[4 * r + 1], cp[r], T::mul(z[4 * r], z[4 * r + 2]));
      tc[r] = cj[r];
    }
    activate_ps<T, R, ~0u>(tc);
    for (std::size_t r = 0; r < R; ++r) {
      const V hv = T::mul(z[4 * r + 3], tc[r]);
      T::store(c + r * c_stride, cj[r]);  // c rows are padded to whole blocks
      if (nvec == T::kLanes) {
        T::store(hh + r * h, hv);
        if (codes != nullptr) {
          T::store_bytes(codes + r * code_stride, codes_of<T>(hv));
        }
      } else {
        T::store_n(hh + r * h, hv, nvec);
      }
    }
  }
  if (nvec < n) {
    for (std::size_t r = 0; r < R; ++r) {
      const float(*g)[T::kLanes] = tail_z + 4 * r;
      for (std::size_t j = nvec; j < n; ++j) {
        const float ig = sigmoid(g[0][j]);
        const float fg = sigmoid(g[1][j]);
        const float cg = std::tanh(g[2][j]);
        const float og = sigmoid(g[3][j]);
        const float cj = __builtin_fmaf(fg, tail_cp[r][j], ig * cg);
        c[r * c_stride + j] = cj;
        hh[r * h + j] = og * std::tanh(cj);
      }
    }
  }
  if (codes != nullptr && nvec < T::kLanes) {
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t j = 0; j < n; ++j) {
        codes[r * code_stride + j] = activation_code(hh[r * h + j]);
      }
    }
  }
}

/// fp32 k-rows per sweep of a row block: a sweep reads kStepChunk ×
/// 256 B of a gate block's weights (16 KB), which stay in L1 across the
/// block's row tiles however deep [x | h] is.
constexpr std::size_t kStepChunk = 64;
/// Rows per row block of the fp32 step: its chunk accumulators fit in
/// one stack buffer.
constexpr std::size_t kStepRowBlock = 64;

/// Rows [i, i+R) × the T::kLanes units from u0: product, addend,
/// activations, cell. The fp32 chains run k-ascending over x, then
/// h_prev, from zero — the concat GEMM's chains, whose terms past a zero
/// state are the zeros this skips. They run k-rows [k0, k1) here,
/// starting from the accumulators the previous chunk left in `carry`
/// (a float round trip is exact) and leaving them there unless k1 ends
/// the chain. Products that feed an add are rounded first (T::opaque),
/// as in the separate passes they replace.
template <class T, StepProduct kProduct, bool kTable, std::size_t R>
__attribute__((always_inline)) inline void step_tile(
    const StepArgs& s, std::size_t i, std::size_t u0, std::size_t k0 = 0,
    std::size_t k1 = 0, float* carry = nullptr) {
  using V = typename T::V;
  const std::size_t lane0 =
      u0 / kGateBlockUnits * kGateBlockWidth + u0 % kGateBlockUnits;
  V pre[R][4];
  if constexpr (kProduct == StepProduct::kFp32) {
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t q = 0; q < 4; ++q) {
        pre[r][q] =
            k0 == 0 ? T::zero() : T::load(carry + (4 * r + q) * T::kLanes);
      }
    }
    const float* w = s.weights +
                     u0 / kGateBlockUnits * s.depth * kGateBlockWidth +
                     u0 % kGateBlockUnits;
    const std::size_t xc = s.x_cols;
    if (s.x != nullptr && k0 < xc) {
      gate_products<T, R>(pre, s.x + k0, xc, std::min(k1, xc) - k0,
                          w + k0 * kGateBlockWidth, i);
    }
    if (s.h_prev != nullptr && k1 > xc) {
      const std::size_t kh = std::max(k0, xc);
      gate_products<T, R>(pre, s.h_prev + (kh - xc), s.hidden, k1 - kh,
                          w + kh * kGateBlockWidth, i);
    }
    if (k1 < (s.h_prev != nullptr ? xc + s.hidden : xc)) {
      for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t q = 0; q < 4; ++q) {
          T::store(carry + (4 * r + q) * T::kLanes, pre[r][q]);
        }
      }
      return;
    }
  } else if constexpr (kProduct == StepProduct::kInt8) {
    gate_products_int8<T, R>(pre, s, i, u0);
  }
  V z[4 * R];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t q = 0; q < 4; ++q) {
      const std::size_t at = lane0 + q * kGateBlockUnits;
      V add;
      if constexpr (kTable) {
        const V dt = T::mul(T::set1(s.dt[i + r]), T::load(s.dt_gates + at));
        add = T::add(T::load(s.table[i + r] + at), T::opaque(dt));
      } else {
        add = T::load(s.bias + at);
      }
      if constexpr (kProduct == StepProduct::kNone) {
        z[4 * r + q] = add;
      } else {
        z[4 * r + q] = T::add(T::opaque(pre[r][q]), add);
      }
    }
  }
  cell_units<T, R>(s, i, u0, z);
}

template <class T, StepProduct kProduct, bool kTable>
void step_rows(const StepArgs& s) {
  constexpr std::size_t kRows = T::kRegisters / 8;
  const std::size_t rows = s.rows;
  if constexpr (kProduct == StepProduct::kFp32) {
    // Per row block and units: the depth in chunks, each over every row
    // tile, so a chunk's weights are read from L1 by all but the first.
    alignas(64) float carry[kStepRowBlock * 4 * T::kLanes];
    const std::size_t depth =
        s.h_prev != nullptr ? s.x_cols + s.hidden : s.x_cols;
    for (std::size_t b0 = 0; b0 < rows; b0 += kStepRowBlock) {
      const std::size_t b1 = std::min(rows, b0 + kStepRowBlock);
      for (std::size_t u0 = 0; u0 < s.hidden; u0 += T::kLanes) {
        for (std::size_t k0 = 0; k0 < depth; k0 += kStepChunk) {
          const std::size_t k1 = std::min(depth, k0 + kStepChunk);
          std::size_t i = b0;
          for (; i + kRows <= b1; i += kRows) {
            step_tile<T, kProduct, kTable, kRows>(
                s, i, u0, k0, k1, carry + (i - b0) * 4 * T::kLanes);
          }
          for (; i < b1; ++i) {
            step_tile<T, kProduct, kTable, 1>(
                s, i, u0, k0, k1, carry + (i - b0) * 4 * T::kLanes);
          }
        }
      }
    }
    return;
  }
  for (std::size_t u0 = 0; u0 < s.hidden; u0 += T::kLanes) {
    std::size_t i = 0;
    for (; i + kRows <= rows; i += kRows) {
      step_tile<T, kProduct, kTable, kRows>(s, i, u0);
    }
    for (; i < rows; ++i) step_tile<T, kProduct, kTable, 1>(s, i, u0);
  }
}

template <class T, bool kTable>
void step_rows(const StepArgs& s) {
  if (s.x_codes != nullptr || s.h_codes != nullptr) {
    step_rows<T, StepProduct::kInt8, kTable>(s);
  } else if (s.weights != nullptr) {
    step_rows<T, StepProduct::kFp32, kTable>(s);
  } else {
    step_rows<T, StepProduct::kNone, kTable>(s);
  }
}

void lstm_step(const StepArgs& s) {
  if (s.table != nullptr) {
    step_rows<Vec, true>(s);
  } else {
    step_rows<Vec, false>(s);
  }
}

const Kernels kKernels = {
    rows_packed<Vec>,    transa_acc<Vec>,  activation_codes,
    gate_activation_row, cell_forward_row, gate_backward_row,
    sum_exp,             lstm_step,
};
