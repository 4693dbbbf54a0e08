// Kernel tier selection and the SIMD tiers' kernel tables: the bodies in
// ml/simd_kernels_impl.h compiled once per tier under that tier's target.
#include "ml/simd_kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "ml/activations.h"
#include "ml/simd_math.h"

namespace nfv::ml {

namespace {

KernelTier best_tier() {
#ifdef NFV_SIMD_MATH
  static const KernelTier tier = [] {
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512vnni")) {
      return KernelTier::kAvx512;
    }
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return KernelTier::kAvx2;
    }
    return KernelTier::kBaseline;
  }();
  return tier;
#else
  return KernelTier::kBaseline;
#endif
}

/// Read by kernel dispatchers on worker threads; written only from
/// single-threaded control points (startup, bench/test tier switches).
/// Atomic so the cross-thread reads are race-free under TSan.
std::atomic<KernelTier>& tier_state() {
  static std::atomic<KernelTier> tier(
      std::getenv("NFVPRED_NO_AVX2") != nullptr ? KernelTier::kBaseline
                                                : best_tier());
  return tier;
}

}  // namespace

KernelTier kernel_tier() {
  return tier_state().load(std::memory_order_relaxed);
}

bool simd_kernels_enabled() { return kernel_tier() != KernelTier::kBaseline; }

KernelTier set_kernel_tier(KernelTier tier) {
  const KernelTier clamped = std::min(tier, best_tier());
  tier_state().store(clamped, std::memory_order_relaxed);
  return clamped;
}

const char* kernel_tier_name(KernelTier tier) {
  switch (tier) {
    case KernelTier::kAvx512:
      return "avx512";
    case KernelTier::kAvx2:
      return "avx2+fma";
    case KernelTier::kBaseline:
      break;
  }
  return "baseline";
}

}  // namespace nfv::ml

#ifdef NFV_SIMD_MATH

// Marks a kernel whose multiplies and adds must round separately (see
// simd_kernels_impl.h).
#define NFV_NO_CONTRACT __attribute__((optimize("fp-contract=off")))

// Every function simd_kernels_impl.h defines gets its tier's target from
// the pragma region, lambdas and template instantiations included. The
// feature lists match the NFV_VEC8 / NFV_VEC16 attributes of simd_math.h.
#pragma GCC push_options
#pragma GCC target("avx2,fma")
namespace nfv::ml::simd::avx2 {
using Vec = Vec8;
#include "ml/simd_kernels_impl.h"
}  // namespace nfv::ml::simd::avx2
#pragma GCC pop_options

// GCC 12 raises a false -Wmaybe-uninitialized on the `__Y = __Y` of
// _mm512_undefined_ps/_epi32 wherever min/max/roundscale/cvtps2dq/slli
// inline into a kernel (GCC bug 105593), so this region mutes it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw,avx512dq,avx512vl,avx512vnni,avx2,fma")
namespace nfv::ml::simd::avx512 {
using Vec = Vec16;
#include "ml/simd_kernels_impl.h"
}  // namespace nfv::ml::simd::avx512
#pragma GCC pop_options
#pragma GCC diagnostic pop

#undef NFV_NO_CONTRACT

#endif  // NFV_SIMD_MATH

namespace nfv::ml::simd {

const Kernels* active() {
#ifdef NFV_SIMD_MATH
  switch (kernel_tier()) {
    case KernelTier::kAvx512:
      return &avx512::kKernels;
    case KernelTier::kAvx2:
      return &avx2::kKernels;
    case KernelTier::kBaseline:
      break;
  }
#endif
  return nullptr;
}

}  // namespace nfv::ml::simd
