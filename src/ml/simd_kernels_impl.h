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
// in C++ code whenever the target has one, so the two kernels that must
// round a separate multiply and add the way the baseline tier does opt
// out with NFV_NO_CONTRACT.

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
// and the tanh / sigmoid built on it.
// ---------------------------------------------------------------------------

template <class T>
inline typename T::V exp_ps(typename T::V x) {
  x = T::min(x, T::set1(88.3762626647949f));
  x = T::max(x, T::set1(-88.3762626647949f));
  const typename T::V n =
      T::round_nearest(T::mul(x, T::set1(1.44269504088896341f)));
  // r = x - n·ln2, with ln2 split in two for extra precision.
  typename T::V r = T::fnmadd(n, T::set1(0.693359375f), x);
  r = T::fnmadd(n, T::set1(-2.12194440e-4f), r);
  typename T::V p = T::set1(1.9875691500e-4f);
  p = T::fmadd(p, r, T::set1(1.3981999507e-3f));
  p = T::fmadd(p, r, T::set1(8.3334519073e-3f));
  p = T::fmadd(p, r, T::set1(4.1665795894e-2f));
  p = T::fmadd(p, r, T::set1(1.6666665459e-1f));
  p = T::fmadd(p, r, T::set1(5.0000001201e-1f));
  p = T::fmadd(p, T::mul(r, r), r);
  p = T::add(p, T::set1(1.0f));
  return T::mul(p, T::pow2(n));
}

template <class T>
inline typename T::V tanh_ps(typename T::V x) {
  // tanh(x) = sign(x)·(1 − t)/(1 + t) with t = exp(−2|x|) ∈ (0, 1].
  const typename T::V sign_mask = T::set1(-0.0f);
  const typename T::V sign = T::bit_and(x, sign_mask);
  const typename T::V ax = T::bit_andnot(sign_mask, x);
  const typename T::V t = exp_ps<T>(T::mul(ax, T::set1(-2.0f)));
  const typename T::V one = T::set1(1.0f);
  const typename T::V y = T::div(T::sub(one, t), T::add(one, t));
  return T::bit_or(y, sign);
}

template <class T>
inline typename T::V sigmoid_ps(typename T::V x) {
  const typename T::V one = T::set1(1.0f);
  const typename T::V e = exp_ps<T>(T::sub(T::zero(), x));
  return T::div(one, T::add(one, e));
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

/// Rows [i0, i1) of out = a · packed panels. The 4-row tile keeps half
/// the vector registers as accumulators (4×1 panels of two ymm halves,
/// 4×4 panels of zmm) and falls back to 4×2 and 4×1 for the last panels;
/// the 1-row tail (rows % 4 leftovers, batches of 1–3 rows) keeps four
/// accumulators, enough to stream the weights rather than wait on the
/// FMA latency.
template <class T>
void rows_packed(const Matrix& a, const float* packed, Matrix& out,
                 std::size_t i0, std::size_t i1) {
  constexpr std::size_t kPerPanel = kPanelCols / T::kLanes;
  constexpr std::size_t kTile = T::kRegisters / 2 / (4 * kPerPanel);
  constexpr std::size_t kRowTile = 4 / kPerPanel;
  const std::size_t panels = panel_count(out.cols());
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
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
  for (; i < i1; ++i) {
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
                        std::size_t k, std::size_t c0, std::size_t c1) {
  std::size_t c = vector_span<T>(c0, c1, [&](auto lanes, std::size_t col) {
    transa_tile<decltype(lanes), R>(a, b, out, k, col);
  });
  for (; c < c1; ++c) transa_column<R>(a, b, out, k, c);
}

/// Column block [c0, c1) of out += aᵀ·b (weight gradients), 4 out-rows
/// at a time.
template <class T>
void transa_acc_block(const Matrix& a, const Matrix& b, Matrix& out,
                      std::size_t c0, std::size_t c1) {
  std::size_t k = 0;
  for (; k + 4 <= a.cols(); k += 4) transa_rows<T, 4>(a, b, out, k, c0, c1);
  for (; k < a.cols(); ++k) transa_rows<T, 1>(a, b, out, k, c0, c1);
}

// ---------------------------------------------------------------------------
// int8: the activation quantizer and the GEMM over 8-channel panels.
// ---------------------------------------------------------------------------

/// The scalar tier's quantizer (min/max seeded at 0, ×inv, round to
/// nearest even, clamp to [0, 127]) with the vector part at T lanes.
/// min/max, the multiply and vcvtps2dq are exact or singly rounded per
/// element in any order, so the codes equal the scalar tier's.
template <class T>
NFV_NO_CONTRACT void quantize_rows(const Matrix& a, std::size_t kpad,
                                   std::uint8_t* qa, float* sa,
                                   std::int32_t* zp) {
  const std::size_t kn = a.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* ar = a.row(i);
    std::uint8_t* q = qa + i * kpad;
    typename T::V vlo = T::zero();
    typename T::V vhi = T::zero();
    std::size_t k = 0;
    for (; k + T::kLanes <= kn; k += T::kLanes) {
      const typename T::V v = T::load(ar + k);
      vlo = T::min(vlo, v);
      vhi = T::max(vhi, v);
    }
    float lo = T::reduce_min(vlo);
    float hi = T::reduce_max(vhi);
    for (; k < kn; ++k) {
      lo = std::min(lo, ar[k]);
      hi = std::max(hi, ar[k]);
    }
    const float range = hi - lo;
    if (range <= 0.0f) {
      sa[i] = 1.0f;
      zp[i] = 0;
      std::memset(q, 0, kpad);
      continue;
    }
    const float inv = 127.0f / range;
    const std::int32_t z = std::clamp(round_nearest_i32(-lo * inv), 0, 127);
    const typename T::V vinv = T::set1(inv);
    const typename T::Vi vz = T::set1_i(z);
    const typename T::Vi v0 = T::zero_i();
    const typename T::Vi v127 = T::set1_i(127);
    for (k = 0; k + T::kLanes <= kn; k += T::kLanes) {
      const typename T::Vi codes =
          T::add_i(T::to_int(T::mul(T::load(ar + k), vinv)), vz);
      T::store_bytes(q + k, T::clamp_i(codes, v0, v127));
    }
    for (; k < kn; ++k) {
      const std::int32_t v = round_nearest_i32(ar[k] * inv) + z;
      q[k] = static_cast<std::uint8_t>(std::clamp(v, 0, 127));
    }
    std::memset(q + kn, 0, kpad - kn);
    sa[i] = range / 127.0f;
    zp[i] = z;
  }
}

/// Exact int32 sums of R activation rows against one 8-channel panel:
/// T::kQuads k-groups per panel load, then (two-group tier, odd group
/// count) the last group at 8 lanes. Integer sums are exact, so the
/// grouping cannot change them.
template <class T, std::size_t R>
__attribute__((always_inline)) inline void quant_panel(
    const std::uint8_t* const* ar, const std::int8_t* panel,
    std::size_t groups, __m256i* sums) {
  constexpr std::size_t kBlock = kQuantChannels * kQuantK;  // bytes/group
  typename T::Vi acc[R];
  for (std::size_t r = 0; r < R; ++r) acc[r] = T::zero_i();
  std::size_t g = 0;
  for (; g + T::kQuads <= groups; g += T::kQuads) {
    const typename T::Vi bv = T::load_i(panel + kBlock * g);
    for (std::size_t r = 0; r < R; ++r) {
      acc[r] = T::dot(acc[r], T::broadcast_quads(ar[r] + kQuantK * g), bv);
    }
  }
  for (std::size_t r = 0; r < R; ++r) sums[r] = T::fold_channels(acc[r]);
  for (; g < groups; ++g) {
    const __m256i bv = Vec8::load_i(panel + kBlock * g);
    for (std::size_t r = 0; r < R; ++r) {
      sums[r] = Vec8::dot(sums[r], Vec8::broadcast_quads(ar[r] + kQuantK * g),
                          bv);
    }
  }
}

/// Rows [i, i+R) over every full panel, then the canonical dequant
/// epilogue (acc − zp·col_sum) · (sa·scale) shared with the serial tier.
template <class T, std::size_t R>
inline void quant_rows_tile(const std::uint8_t* qa, const float* sa,
                            const std::int32_t* zp, std::size_t kpad,
                            const QuantizedMatrix& qb, Matrix& out,
                            std::size_t i) {
  const std::size_t panels = qb.rows / kQuantChannels;
  const std::uint8_t* ar[R];
  for (std::size_t r = 0; r < R; ++r) ar[r] = qa + (i + r) * kpad;
  for (std::size_t p = 0; p < panels; ++p) {
    __m256i sums[R];
    quant_panel<T, R>(ar, qb.data.data() + p * kpad * kQuantChannels,
                      kpad / kQuantK, sums);
    const __m256i cs = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
        qb.col_sums.data() + kQuantChannels * p));
    const __m256 sc = _mm256_loadu_ps(qb.scales.data() + kQuantChannels * p);
    for (std::size_t r = 0; r < R; ++r) {
      const __m256i corr =
          _mm256_mullo_epi32(_mm256_set1_epi32(zp[i + r]), cs);
      const __m256 f = _mm256_cvtepi32_ps(_mm256_sub_epi32(sums[r], corr));
      const __m256 s = _mm256_mul_ps(_mm256_set1_ps(sa[i + r]), sc);
      _mm256_storeu_ps(out.row(i + r) + kQuantChannels * p,
                       _mm256_mul_ps(f, s));
    }
  }
}

/// Rows [i0, i1) of the int8 product over the full panels; 4 rows share
/// each panel load.
template <class T>
void quant_panels(const std::uint8_t* qa, const float* sa,
                  const std::int32_t* zp, std::size_t kpad,
                  const QuantizedMatrix& qb, Matrix& out, std::size_t i0,
                  std::size_t i1) {
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    quant_rows_tile<T, 4>(qa, sa, zp, kpad, qb, out, i);
  }
  for (; i < i1; ++i) quant_rows_tile<T, 1>(qa, sa, zp, kpad, qb, out, i);
}

// ---------------------------------------------------------------------------
// LSTM rows, the log-sum-exp head and the layer-0 gather.
// ---------------------------------------------------------------------------

/// Elements [j, j1) of a gate row: add `add` (when kAdd), then tanh (the
/// candidate gate) or sigmoid (input, forget and output gates).
template <bool kAdd, bool kTanh>
void activate_segment(float* g, const float* add, std::size_t j,
                      std::size_t j1) {
  j = vector_span<Vec>(j, j1, [&](auto lanes, std::size_t col) {
    using U = decltype(lanes);
    typename U::V v = U::load(g + col);
    if (kAdd) v = U::add(v, U::load(add + col));
    U::store(g + col, kTanh ? tanh_ps<U>(v) : sigmoid_ps<U>(v));
  });
  for (; j < j1; ++j) {
    const float v = kAdd ? g[j] + add[j] : g[j];
    g[j] = kTanh ? std::tanh(v) : sigmoid(v);
  }
}

template <bool kAdd>
void gate_activation(float* g, const float* add, std::size_t h) {
  activate_segment<kAdd, false>(g, add, 0, h);          // i
  activate_segment<kAdd, false>(g, add, h, 2 * h);      // f
  activate_segment<kAdd, true>(g, add, 2 * h, 3 * h);   // g
  activate_segment<kAdd, false>(g, add, 3 * h, 4 * h);  // o
}

void gate_activation_row(float* g, const float* add, std::size_t h) {
  if (add != nullptr) {
    gate_activation<true>(g, add, h);
  } else {
    gate_activation<false>(g, add, h);
  }
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

/// out = table + dt·w with the product rounded before the add, like the
/// baseline tier's loop.
NFV_NO_CONTRACT void gather_row(const float* table, float dt, const float* w,
                                float* out, std::size_t n) {
  const Vec::V vdt = Vec::set1(dt);
  std::size_t j = 0;
  for (; j + Vec::kLanes <= n; j += Vec::kLanes) {
    Vec::store(out + j,
               Vec::add(Vec::load(table + j), Vec::mul(vdt, Vec::load(w + j))));
  }
  for (; j < n; ++j) out[j] = table[j] + dt * w[j];
}

const Kernels kKernels = {
    rows_packed<Vec>,    transa_acc_block<Vec>, quantize_rows<Vec>,
    quant_panels<Vec>,   gate_activation_row,   cell_forward_row,
    gate_backward_row,   sum_exp,               gather_row,
};
