// Bitwise determinism of the training fast path: per-batch losses and
// final parameters must be identical for any NFVPRED_THREADS in every
// kernel tier, and identical between the AVX2 and AVX-512 tiers. (The
// baseline tier may differ from them — that is the same per-machine
// contract the scoring kernels ship with — but it must be internally
// invariant to the thread count.)
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
#include "util/thread_pool.h"

namespace nfv::ml {
namespace {

using nfv::util::Rng;

struct TrainRun {
  std::vector<std::uint64_t> loss_bits;  // one per batch, in order
  std::vector<float> final_params;       // all tensors, flattened in order
};

std::vector<SeqExample> make_dataset(const SequenceModelConfig& config,
                                     std::size_t count) {
  Rng rng(99);
  std::vector<SeqExample> examples(count);
  for (SeqExample& ex : examples) {
    ex.ids.resize(config.window);
    ex.dts.resize(config.window);
    for (std::size_t t = 0; t < config.window; ++t) {
      ex.ids[t] = static_cast<std::int32_t>(rng.uniform_index(config.vocab));
      ex.dts[t] = static_cast<float>(rng.uniform(0.5, 600.0));
    }
    ex.target = static_cast<std::int32_t>(rng.uniform_index(config.vocab));
  }
  return examples;
}

TrainRun run_training(std::size_t threads, KernelTier tier) {
  nfv::util::set_global_threads(threads);
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

  // Batch of 64 rows: wide enough for the packed kernels AND the
  // row-parallel elementwise splits, so every parallel code path is live.
  const std::vector<SeqExample> examples = make_dataset(config, 192);
  constexpr std::size_t kBatch = 64;
  TrainRun run;
  for (std::size_t epoch = 0; epoch < 2; ++epoch) {
    for (std::size_t start = 0; start < examples.size(); start += kBatch) {
      std::vector<const SeqExample*> batch;
      for (std::size_t i = start;
           i < std::min(start + kBatch, examples.size()); ++i) {
        batch.push_back(&examples[i]);
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
  void TearDown() override {
    set_kernel_tier(tier_default_);
    nfv::util::set_global_threads(0);
  }
  KernelTier tier_default_ = KernelTier::kBaseline;
};

// Each SIMD tier the CPU has is thread-count invariant, and the AVX-512
// tier trains the AVX2 tier's weights bit for bit.
TEST_F(TrainingDeterminismTest, ThreadCountInvariantWithSimd) {
  std::vector<TrainRun> four_thread_runs;
  const std::string missing = for_each_kernel_tier([&](KernelTier tier) {
    if (tier == KernelTier::kBaseline) return;
    const TrainRun one = run_training(1, tier);
    const TrainRun four = run_training(4, tier);
    expect_bitwise_equal(one, four,
                         std::string(kernel_tier_name(tier)) + " 1T vs 4T");
    if (!four_thread_runs.empty()) {
      expect_bitwise_equal(four_thread_runs.front(), four,
                           std::string(kernel_tier_name(tier)) +
                               " vs the other SIMD tier");
    }
    four_thread_runs.push_back(four);
  });
  if (!missing.empty()) GTEST_SKIP() << "CPU lacks the " << missing << " tier";
}

TEST_F(TrainingDeterminismTest, ThreadCountInvariantWithSimdOff) {
  const TrainRun one = run_training(1, KernelTier::kBaseline);
  const TrainRun four = run_training(4, KernelTier::kBaseline);
  expect_bitwise_equal(one, four, "baseline 1T vs 4T");
}

TEST_F(TrainingDeterminismTest, RepeatRunsBitIdentical) {
  const TrainRun a = run_training(4, tier_default_);
  const TrainRun b = run_training(4, tier_default_);
  expect_bitwise_equal(a, b, "repeat 4T");
}

}  // namespace
}  // namespace nfv::ml
