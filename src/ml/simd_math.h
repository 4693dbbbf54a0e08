// Vectorized single-precision exp for the AVX2+FMA kernel tier
// (ml::simd_kernels_enabled). The LSTM gate activations and the
// log-sum-exp scoring head share it. Internal to src/ml.
#pragma once

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>

#define NFV_SIMD_MATH 1

namespace nfv::ml {

// The classic Cephes single-precision evaluation (range-reduce by ln 2,
// degree-6 polynomial, scale by 2^n), accurate to ~1e-7 relative. Like FMA
// contraction in the matmul kernels, this makes the two SIMD modes differ
// numerically from each other, while each mode stays bit-identical across
// thread counts: the row split never changes which instructions evaluate a
// given element.
__attribute__((target("avx2,fma"))) inline __m256 exp256(__m256 x) {
  x = _mm256_min_ps(x, _mm256_set1_ps(88.3762626647949f));
  x = _mm256_max_ps(x, _mm256_set1_ps(-88.3762626647949f));
  const __m256 n = _mm256_round_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(1.44269504088896341f)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  // r = x - n·ln2, with ln2 split in two for extra precision.
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693359375f), x);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.12194440e-4f), r);
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
  p = _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r);
  p = _mm256_add_ps(p, _mm256_set1_ps(1.0f));
  __m256i bits = _mm256_cvtps_epi32(n);
  bits = _mm256_add_epi32(bits, _mm256_set1_epi32(127));
  bits = _mm256_slli_epi32(bits, 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(bits));
}

}  // namespace nfv::ml

#endif
