// Runs a test body once per kernel tier (ml::KernelTier).
#pragma once

#include <string>

#include "ml/matrix.h"

namespace nfv::ml {

/// Calls fn(tier) with each tier the CPU supports active (baseline, then
/// avx2+fma, then avx512), then restores the tier the caller had. Returns
/// the names of the tiers the CPU lacks, "" when it has them all; the
/// caller reports them with GTEST_SKIP rather than passing silently.
template <typename Fn>
std::string for_each_kernel_tier(const Fn& fn) {
  const KernelTier was = kernel_tier();
  std::string missing;
  for (const KernelTier tier :
       {KernelTier::kBaseline, KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (set_kernel_tier(tier) != tier) {
      missing += missing.empty() ? "" : ", ";
      missing += kernel_tier_name(tier);
      continue;
    }
    fn(tier);
  }
  set_kernel_tier(was);
  return missing;
}

}  // namespace nfv::ml

