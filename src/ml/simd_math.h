// Lane-width traits of the SIMD kernel tiers (ml::kernel_tier): Vec8 is
// the AVX2+FMA tier's 256-bit register, Vec16 the AVX-512 tier's 512-bit
// one. The kernels in ml/simd_kernels_impl.h are written once over these
// operations and compiled once per tier (ml/simd_kernels.cpp), so the two
// tiers evaluate every element with the same instruction sequence and
// agree bit for bit. Every operation here is exact or a single IEEE
// rounding per lane; none depends on the lane count. Internal to src/ml.
#pragma once

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#define NFV_SIMD_MATH 1

namespace nfv::ml::simd {

// Each operation carries its tier's target (the same feature lists as
// the pragma regions of ml/simd_kernels.cpp; a region missing a feature
// an operation needs fails to compile).
#define NFV_VEC8 \
  __attribute__((target("avx2,fma"), always_inline)) static inline
#define NFV_VEC16                                                         \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl,avx512vnni," \
                        "avx2,fma"),                                      \
                 always_inline)) static inline

/// Read one 4-byte activation quad (an int8 k-group).
inline std::int32_t load_quad(const std::uint8_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// 8 fp32 / int32 lanes (AVX2+FMA).
struct Vec8 {
  using V = __m256;
  using Vi = __m256i;
  static constexpr std::size_t kLanes = 8;
  /// Architectural vector registers; sizes the GEMM register tiles.
  static constexpr std::size_t kRegisters = 16;

  NFV_VEC8 V load(const float* p) { return _mm256_loadu_ps(p); }
  NFV_VEC8 void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  /// Store lanes [0, n), 0 < n < kLanes.
  NFV_VEC8 void store_n(float* p, V v, std::size_t n) {
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i mask =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)), lane);
    _mm256_maskstore_ps(p, mask, v);
  }
  NFV_VEC8 V set1(float x) { return _mm256_set1_ps(x); }
  NFV_VEC8 V zero() { return _mm256_setzero_ps(); }
  NFV_VEC8 V add(V a, V b) { return _mm256_add_ps(a, b); }
  NFV_VEC8 V sub(V a, V b) { return _mm256_sub_ps(a, b); }
  NFV_VEC8 V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  NFV_VEC8 V div(V a, V b) { return _mm256_div_ps(a, b); }
  /// a·b + c, one rounding.
  NFV_VEC8 V fmadd(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  /// x, opaque to the optimizer, in a register. A product passed through
  /// here rounds before the add that takes it (GCC contracts a·b + c into
  /// an FMA under an FMA target), and a load passed through here stays
  /// one register load rather than a memory operand of each user. Emits
  /// no instruction.
  NFV_VEC8 V opaque(V x) {
    asm("" : "+x"(x));
    return x;
  }
  /// c − a·b, one rounding.
  NFV_VEC8 V fnmadd(V a, V b, V c) { return _mm256_fnmadd_ps(a, b, c); }
  NFV_VEC8 V min(V a, V b) { return _mm256_min_ps(a, b); }
  NFV_VEC8 V max(V a, V b) { return _mm256_max_ps(a, b); }
  NFV_VEC8 V bit_and(V a, V b) { return _mm256_and_ps(a, b); }
  /// ~a & b.
  NFV_VEC8 V bit_andnot(V a, V b) { return _mm256_andnot_ps(a, b); }
  NFV_VEC8 V bit_or(V a, V b) { return _mm256_or_ps(a, b); }
  NFV_VEC8 V round_nearest(V x) {
    return _mm256_round_ps(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  /// 2^n for integral n in [−127, 127], built in the exponent field.
  NFV_VEC8 V pow2(V n) {
    __m256i bits = _mm256_cvtps_epi32(n);
    bits = _mm256_add_epi32(bits, _mm256_set1_epi32(127));
    bits = _mm256_slli_epi32(bits, 23);
    return _mm256_castsi256_ps(bits);
  }
  /// acc += v (the 8-lane accumulator of a fixed-order reduction).
  NFV_VEC8 void fold8(__m256& acc, V v) { acc = _mm256_add_ps(acc, v); }

  // Integer lanes: the int8 step's products and activation codes.
  /// Round to nearest even (the default MXCSR mode).
  NFV_VEC8 Vi to_int(V x) { return _mm256_cvtps_epi32(x); }
  NFV_VEC8 Vi set1_i(std::int32_t x) { return _mm256_set1_epi32(x); }
  NFV_VEC8 Vi zero_i() { return _mm256_setzero_si256(); }
  NFV_VEC8 Vi add_i(Vi a, Vi b) { return _mm256_add_epi32(a, b); }
  NFV_VEC8 Vi sub_i(Vi a, Vi b) { return _mm256_sub_epi32(a, b); }
  /// Exact below 2^24, rounded to nearest even above.
  NFV_VEC8 V to_float(Vi x) { return _mm256_cvtepi32_ps(x); }
  NFV_VEC8 Vi clamp_i(Vi v, Vi lo, Vi hi) {
    return _mm256_min_epi32(_mm256_max_epi32(v, lo), hi);
  }
  /// Narrow lanes holding [0, 127] to bytes at q.
  NFV_VEC8 void store_bytes(std::uint8_t* q, Vi v) {
    const __m128i w = _mm_packs_epi32(_mm256_castsi256_si128(v),
                                      _mm256_extracti128_si256(v, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q), _mm_packus_epi16(w, w));
  }
  NFV_VEC8 Vi load_i(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  /// The A operand of one k-group: its activation quad in every lane.
  NFV_VEC8 Vi broadcast_quad(const std::uint8_t* a) {
    return _mm256_set1_epi32(load_quad(a));
  }
  /// acc += u8 a · s8 b, 4 products per int32 lane (vpmaddubsw +
  /// vpmaddwd; exact because u7 · s8 pair sums stay below 2^15).
  NFV_VEC8 Vi dot(Vi acc, Vi a, Vi b) {
    return _mm256_add_epi32(
        acc, _mm256_madd_epi16(_mm256_maddubs_epi16(a, b),
                               _mm256_set1_epi16(1)));
  }
};

/// 16 fp32 / int32 lanes (AVX-512 F/BW/DQ/VL + VNNI).
struct Vec16 {
  using V = __m512;
  using Vi = __m512i;
  static constexpr std::size_t kLanes = 16;
  static constexpr std::size_t kRegisters = 32;

  NFV_VEC16 V load(const float* p) { return _mm512_loadu_ps(p); }
  NFV_VEC16 void store(float* p, V v) { _mm512_storeu_ps(p, v); }
  NFV_VEC16 void store_n(float* p, V v, std::size_t n) {
    _mm512_mask_storeu_ps(p, static_cast<__mmask16>((1u << n) - 1u), v);
  }
  NFV_VEC16 V set1(float x) { return _mm512_set1_ps(x); }
  NFV_VEC16 V zero() { return _mm512_setzero_ps(); }
  NFV_VEC16 V add(V a, V b) { return _mm512_add_ps(a, b); }
  NFV_VEC16 V sub(V a, V b) { return _mm512_sub_ps(a, b); }
  NFV_VEC16 V mul(V a, V b) { return _mm512_mul_ps(a, b); }
  NFV_VEC16 V div(V a, V b) { return _mm512_div_ps(a, b); }
  NFV_VEC16 V fmadd(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  NFV_VEC16 V opaque(V x) {
    asm("" : "+v"(x));
    return x;
  }
  NFV_VEC16 V fnmadd(V a, V b, V c) { return _mm512_fnmadd_ps(a, b, c); }
  NFV_VEC16 V min(V a, V b) { return _mm512_min_ps(a, b); }
  NFV_VEC16 V max(V a, V b) { return _mm512_max_ps(a, b); }
  NFV_VEC16 V bit_and(V a, V b) { return _mm512_and_ps(a, b); }
  NFV_VEC16 V bit_andnot(V a, V b) { return _mm512_andnot_ps(a, b); }
  NFV_VEC16 V bit_or(V a, V b) { return _mm512_or_ps(a, b); }
  /// vrndscaleps with scale 0: the vroundps of the 8-lane tier.
  NFV_VEC16 V round_nearest(V x) {
    return _mm512_roundscale_ps(x,
                                _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  NFV_VEC16 V pow2(V n) {
    __m512i bits = _mm512_cvtps_epi32(n);
    bits = _mm512_add_epi32(bits, _mm512_set1_epi32(127));
    bits = _mm512_slli_epi32(bits, 23);
    return _mm512_castsi512_ps(bits);
  }
  /// acc += low 8 lanes, then acc += high 8 lanes: the adds the 8-lane
  /// tier makes for the same 16 elements, in the same order.
  NFV_VEC16 void fold8(__m256& acc, V v) {
    acc = _mm256_add_ps(acc, _mm512_castps512_ps256(v));
    acc = _mm256_add_ps(acc, _mm512_extractf32x8_ps(v, 1));
  }

  NFV_VEC16 Vi to_int(V x) { return _mm512_cvtps_epi32(x); }
  NFV_VEC16 Vi set1_i(std::int32_t x) { return _mm512_set1_epi32(x); }
  NFV_VEC16 Vi zero_i() { return _mm512_setzero_si512(); }
  NFV_VEC16 Vi add_i(Vi a, Vi b) { return _mm512_add_epi32(a, b); }
  NFV_VEC16 Vi sub_i(Vi a, Vi b) { return _mm512_sub_epi32(a, b); }
  NFV_VEC16 V to_float(Vi x) { return _mm512_cvtepi32_ps(x); }
  NFV_VEC16 Vi clamp_i(Vi v, Vi lo, Vi hi) {
    return _mm512_min_epi32(_mm512_max_epi32(v, lo), hi);
  }
  NFV_VEC16 void store_bytes(std::uint8_t* q, Vi v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q), _mm512_cvtepi32_epi8(v));
  }
  NFV_VEC16 Vi load_i(const void* p) { return _mm512_loadu_si512(p); }
  /// One k-group's activation quad in every lane (a 16-channel block).
  NFV_VEC16 Vi broadcast_quad(const std::uint8_t* a) {
    return _mm512_set1_epi32(load_quad(a));
  }
  /// acc += u8 a · s8 b (vpdpbusd: exact int32, no saturation).
  NFV_VEC16 Vi dot(Vi acc, Vi a, Vi b) {
    return _mm512_dpbusd_epi32(acc, a, b);
  }
};

#undef NFV_VEC8
#undef NFV_VEC16

}  // namespace nfv::ml::simd

#endif
