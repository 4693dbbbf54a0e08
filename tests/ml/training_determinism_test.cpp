// Bitwise determinism of the training fast path: per-batch losses and
// final parameters must be identical between repeat runs in every kernel
// tier, and identical between the AVX2 and AVX-512 tiers. (The baseline
// tier may differ from them — that is the same per-machine contract the
// scoring kernels ship with — but it must repeat itself bit for bit.)
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "kernel_tiers.h"
#include "ml/matrix.h"
#include "ml/optimizer.h"
#include "ml/sequence_model.h"
#include "util/rng.h"

namespace nfv::ml {
namespace {

using nfv::util::Rng;

struct TrainRun {
  std::vector<std::uint64_t> loss_bits;  // one per batch, in order
  std::vector<float> final_params;       // all tensors, flattened in order
};

WindowBatch make_dataset(const SequenceModelConfig& config,
                         std::size_t count) {
  Rng rng(99);
  WindowBatch windows;
  for (std::size_t e = 0; e < count; ++e) {
    for (std::size_t t = 0; t < config.window; ++t) {
      windows.ids.push_back(
          static_cast<std::int32_t>(rng.uniform_index(config.vocab)));
      windows.dts.push_back(static_cast<float>(rng.uniform(0.5, 600.0)));
    }
    windows.targets.push_back(
        static_cast<std::int32_t>(rng.uniform_index(config.vocab)));
  }
  return windows;
}

TrainRun run_training(KernelTier tier) {
  set_kernel_tier(tier);

  SequenceModelConfig config;
  config.vocab = 40;
  config.embed_dim = 16;
  config.hidden = 32;
  config.layers = 2;
  config.window = 10;
  Rng init_rng(5);
  SequenceModel model(config, init_rng);
  Adam adam(3e-3f);
  adam.bind(model.params());

  // Batch of 64 rows: wide enough for the packed kernels' 4-row tiles.
  const WindowBatch windows = make_dataset(config, 192);
  constexpr std::size_t kBatch = 64;
  TrainRun run;
  WindowBatch batch;
  for (std::size_t epoch = 0; epoch < 2; ++epoch) {
    for (std::size_t start = 0; start < windows.size(); start += kBatch) {
      batch.clear();
      for (std::size_t i = start;
           i < std::min(start + kBatch, windows.size()); ++i) {
        batch.append_row(windows, i, config.window);
      }
      const double loss = model.train_batch(batch, adam);
      std::uint64_t bits = 0;
      std::memcpy(&bits, &loss, sizeof(bits));
      run.loss_bits.push_back(bits);
    }
  }
  for (Param* p : model.params()) {
    const float* data = p->value.data();
    run.final_params.insert(run.final_params.end(), data,
                            data + p->value.size());
  }
  return run;
}

void expect_bitwise_equal(const TrainRun& a, const TrainRun& b,
                          const std::string& what) {
  ASSERT_EQ(a.loss_bits.size(), b.loss_bits.size()) << what;
  for (std::size_t i = 0; i < a.loss_bits.size(); ++i) {
    EXPECT_EQ(a.loss_bits[i], b.loss_bits[i]) << what << ": loss " << i;
  }
  ASSERT_EQ(a.final_params.size(), b.final_params.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.final_params.data(), b.final_params.data(),
                           a.final_params.size() * sizeof(float)))
      << what << ": final parameters differ";
}

class TrainingDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { tier_default_ = kernel_tier(); }
  void TearDown() override { set_kernel_tier(tier_default_); }
  KernelTier tier_default_ = KernelTier::kBaseline;
};

// The AVX-512 tier trains the AVX2 tier's weights bit for bit.
TEST_F(TrainingDeterminismTest, SimdTiersTrainBitIdentical) {
  std::vector<TrainRun> simd_runs;
  const std::string missing = for_each_kernel_tier([&](KernelTier tier) {
    if (tier == KernelTier::kBaseline) return;
    simd_runs.push_back(run_training(tier));
    if (simd_runs.size() > 1) {
      expect_bitwise_equal(simd_runs.front(), simd_runs.back(),
                           std::string(kernel_tier_name(tier)) +
                               " vs the other SIMD tier");
    }
  });
  if (!missing.empty()) GTEST_SKIP() << "CPU lacks the " << missing << " tier";
}

// Every tier the CPU has, the baseline included, repeats its own run.
TEST_F(TrainingDeterminismTest, RepeatRunsBitIdentical) {
  for_each_kernel_tier([&](KernelTier tier) {
    expect_bitwise_equal(run_training(tier), run_training(tier),
                         std::string(kernel_tier_name(tier)) + " repeat");
  });
}

}  // namespace
}  // namespace nfv::ml
