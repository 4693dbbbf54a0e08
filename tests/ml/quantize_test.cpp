// Kernel- and model-level tests of the int8 quantized scoring tier.
//
// The contracts under test, in order of load-bearingness:
//   1. matmul_quant is bit-identical across kernel tiers (AVX2 and
//      AVX-512 VNNI vs the serial reference), thread counts, and row
//      partitionings — quantized
//      scores may differ from fp32, but never from each other.
//   2. Degenerate weight channels (all-zero rows, constant rows) quantize
//      without division by zero or saturation artifacts.
//   3. The quantized product tracks the fp32 product to within the error
//      budget of 7-bit activations × 8-bit weights.
//   4. The SequenceModel sidecar follows the fp32 weights' lifecycle:
//      installed by quantize(), dropped by train_batch/grow_vocab.
#include <gtest/gtest.h>

#include <cmath>
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

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng,
                     float scale = 1.0f) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.uniform(-scale, scale));
  }
  return m;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(QuantizePackB, PanelLayoutScalesAndColumnSums) {
  Rng rng(3);
  const std::size_t cn = 13, kn = 7;  // tail channels AND a padded k
  const Matrix b = random_matrix(cn, kn, rng);
  QuantizedMatrix qb;
  quantize_pack_b(b, qb);

  EXPECT_EQ(qb.rows, cn);
  EXPECT_EQ(qb.cols, kn);
  EXPECT_EQ(qb.cols_padded, 8u);  // next multiple of 4
  EXPECT_EQ(qb.data.size(), cn * qb.cols_padded);
  EXPECT_EQ(qb.scales.size(), cn);
  EXPECT_EQ(qb.col_sums.size(), cn);

  for (std::size_t c = 0; c < cn; ++c) {
    float amax = 0.0f;
    for (std::size_t k = 0; k < kn; ++k) {
      amax = std::max(amax, std::abs(b.at(c, k)));
    }
    EXPECT_FLOAT_EQ(qb.scales[c], amax / 127.0f);
    // Codes must reconstruct each weight to within half a step, and the
    // stored column sum must be exactly the sum of the codes. Walk the
    // panel layout directly: full panels of 8 channels, 4-k groups, then
    // row-major tail channels.
    const std::size_t panels = cn / 8;
    std::int32_t sum = 0;
    for (std::size_t k = 0; k < qb.cols_padded; ++k) {
      std::int8_t code;
      if (c < panels * 8) {
        const std::size_t p = c / 8, jj = c % 8, g = k / 4;
        code = qb.data[p * qb.cols_padded * 8 + g * 32 + jj * 4 + (k % 4)];
      } else {
        code = qb.data[panels * qb.cols_padded * 8 +
                       (c - panels * 8) * qb.cols_padded + k];
      }
      sum += code;
      const float reconstructed = static_cast<float>(code) * qb.scales[c];
      const float original = k < kn ? b.at(c, k) : 0.0f;
      EXPECT_NEAR(reconstructed, original, qb.scales[c] * 0.5f + 1e-7f)
          << "channel " << c << " k " << k;
    }
    EXPECT_EQ(qb.col_sums[c], sum) << "channel " << c;
  }
}

TEST(QuantizePackB, AllZeroChannelHasUnitScaleAndZeroCodes) {
  Matrix b(3, 5, 0.0f);
  b.at(1, 2) = 0.75f;  // middle channel non-zero; rows 0 and 2 all-zero
  QuantizedMatrix qb;
  quantize_pack_b(b, qb);
  EXPECT_FLOAT_EQ(qb.scales[0], 1.0f);  // no division by zero
  EXPECT_FLOAT_EQ(qb.scales[2], 1.0f);
  EXPECT_EQ(qb.col_sums[0], 0);
  EXPECT_EQ(qb.col_sums[2], 0);

  // The product against any activation must be exactly zero for the
  // all-zero channels on every tier.
  Rng rng(5);
  const Matrix a = random_matrix(6, 5, rng, 3.0f);
  Matrix out;
  matmul_quant(a, qb, out);
  for (std::size_t i = 0; i < out.rows(); ++i) {
    EXPECT_EQ(out.at(i, 0), 0.0f);
    EXPECT_EQ(out.at(i, 2), 0.0f);
  }
}

TEST(QuantizePackB, ConstantChannelSaturatesToFullScaleWithoutOverflow) {
  Matrix b(1, 4, -2.5f);  // every weight at the (negative) extreme
  QuantizedMatrix qb;
  quantize_pack_b(b, qb);
  EXPECT_FLOAT_EQ(qb.scales[0], 2.5f / 127.0f);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(qb.data[k], -127);  // clamped symmetric code, never -128
  }
  EXPECT_EQ(qb.col_sums[0], -127 * 4);

  // All-max activations drive the biggest possible accumulations; the
  // result must match the serial integer reference (i.e. no hidden
  // saturation in the SIMD tier).
  Matrix a(2, 4, 100.0f);
  Matrix out, out_serial;
  matmul_quant(a, qb, out);
  matmul_quant_serial(a, qb, out_serial);
  EXPECT_TRUE(bitwise_equal(out, out_serial));
  EXPECT_NEAR(out.at(0, 0), 4 * 100.0f * -2.5f, 1e-1f);
}

TEST(MatmulQuant, MatchesFp32WithinQuantizationError) {
  Rng rng(7);
  const std::size_t m = 64, kn = 48, cn = 33;
  const Matrix a = random_matrix(m, kn, rng, 2.0f);
  const Matrix b = random_matrix(cn, kn, rng, 0.5f);
  QuantizedMatrix qb;
  quantize_pack_b(b, qb);
  Matrix exact, approx;
  matmul_transb(a, b, exact);
  matmul_quant(a, qb, approx);
  // Error budget: per-element |err| ≲ K · (step_a·|w|max + step_b·|a|max).
  // With u7 activations over [-2,2] and s8 weights over [-.5,.5]:
  // 48 · (4/127·0.5 + 1/127·2) ≈ 1.5 worst-case; typical error is far
  // smaller, and the relative Frobenius error is the robust check.
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    const double d = exact.data()[i] - approx.data()[i];
    num += d * d;
    den += static_cast<double>(exact.data()[i]) * exact.data()[i];
  }
  EXPECT_LT(std::sqrt(num / den), 0.02);
}

// Every SIMD tier against the serial reference tier, at k-group counts
// that leave the AVX-512 tier's two-group VNNI step an odd group (K = 4,
// 49, 65) or none (K = 5, 7, 48), and channel counts with and without
// row-major tail channels.
TEST(MatmulQuant, BitIdenticalAcrossSimdTiers) {
  Rng rng(11);
  std::vector<Matrix> as, bs;
  for (const auto& [m, kn, cn] :
       {std::tuple{17ul, 7ul, 13ul}, std::tuple{64ul, 48ul, 128ul},
        std::tuple{3ul, 4ul, 8ul}, std::tuple{33ul, 65ul, 9ul},
        std::tuple{6ul, 5ul, 16ul}, std::tuple{9ul, 49ul, 128ul}}) {
    as.push_back(random_matrix(m, kn, rng, 2.0f));
    bs.push_back(random_matrix(cn, kn, rng));
  }
  std::vector<QuantizedMatrix> qb_ref(as.size());
  std::vector<Matrix> out_ref(as.size());
  const std::string missing = for_each_kernel_tier([&](KernelTier tier) {
    for (std::size_t s = 0; s < as.size(); ++s) {
      if (tier == KernelTier::kBaseline) {
        quantize_pack_b(bs[s], qb_ref[s]);
        matmul_quant(as[s], qb_ref[s], out_ref[s]);
        continue;
      }
      QuantizedMatrix qb;
      Matrix out;
      quantize_pack_b(bs[s], qb);
      matmul_quant(as[s], qb, out);
      // Packing is tier-independent (same bytes), and the product must be
      // bit-identical — the u7 activation range leaves no room for i16
      // saturation divergence in vpmaddubsw, and vpdpbusd sums exactly.
      const std::string shape = std::to_string(as[s].rows()) + "x" +
                                std::to_string(as[s].cols()) + "x" +
                                std::to_string(bs[s].rows());
      EXPECT_EQ(qb.data, qb_ref[s].data) << shape;
      EXPECT_EQ(qb.col_sums, qb_ref[s].col_sums) << shape;
      EXPECT_TRUE(bitwise_equal(out, out_ref[s]))
          << kernel_tier_name(tier) << " " << shape;
    }
  });
  if (!missing.empty()) GTEST_SKIP() << "CPU lacks the " << missing << " tier";
}

TEST(MatmulQuant, BitIdenticalAcrossThreadCountsAndPartitionings) {
  Rng rng(13);
  // Big enough to clear the parallel work threshold.
  const Matrix a = random_matrix(512, 96, rng, 1.5f);
  const Matrix b = random_matrix(160, 96, rng);
  QuantizedMatrix qb;
  quantize_pack_b(b, qb);

  Matrix out_serial;
  matmul_quant_serial(a, qb, out_serial);

  for (const std::size_t threads : {1ul, 2ul, 4ul}) {
    nfv::util::set_global_threads(threads);
    Matrix out;
    matmul_quant(a, qb, out);
    EXPECT_TRUE(bitwise_equal(out, out_serial)) << threads << " threads";
  }
  nfv::util::set_global_threads(0);

  // Row-by-row calls (the window-by-window scoring shape) must agree with
  // the fused batch elementwise.
  for (std::size_t i = 0; i < 8; ++i) {
    Matrix row(1, a.cols());
    std::memcpy(row.data(), a.row(i), a.cols() * sizeof(float));
    Matrix out_row;
    matmul_quant(row, qb, out_row);
    for (std::size_t c = 0; c < b.rows(); ++c) {
      EXPECT_EQ(out_row.at(0, c), out_serial.at(i, c))
          << "row " << i << " channel " << c;
    }
  }
}

TEST(MatmulQuant, ZeroActivationRowsAndEmptyInputs) {
  Rng rng(17);
  const Matrix b = random_matrix(12, 8, rng);
  QuantizedMatrix qb;
  quantize_pack_b(b, qb);

  Matrix a(4, 8, 0.0f);  // all-zero rows: range 0 → exact zero codes
  Matrix out;
  matmul_quant(a, qb, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.data()[i], 0.0f);
  }

  Matrix empty(0, 8);
  matmul_quant(empty, qb, out);
  EXPECT_EQ(out.rows(), 0u);
  EXPECT_EQ(out.cols(), 12u);
}

SequenceModelConfig small_config() {
  SequenceModelConfig config;
  config.vocab = 11;
  config.embed_dim = 4;
  config.hidden = 6;
  config.layers = 2;
  config.window = 5;
  return config;
}

std::vector<SeqExample> make_examples(const SequenceModelConfig& config,
                                      std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SeqExample> examples(count);
  for (SeqExample& ex : examples) {
    ex.ids.resize(config.window);
    ex.dts.resize(config.window);
    for (std::size_t t = 0; t < config.window; ++t) {
      ex.ids[t] = static_cast<std::int32_t>(rng.uniform_index(config.vocab));
      ex.dts[t] = static_cast<float>(rng.uniform(1.0, 100.0));
    }
    ex.target = static_cast<std::int32_t>(rng.uniform_index(config.vocab));
  }
  return examples;
}

TEST(SequenceModelQuantize, SidecarLifecycleFollowsWeightMutations) {
  const SequenceModelConfig config = small_config();
  Rng rng(19);
  SequenceModel model(config, rng);
  EXPECT_FALSE(model.quantized());
  EXPECT_EQ(model.quantized_weight_bytes(), 0u);

  model.quantize();
  ASSERT_TRUE(model.quantized());
  EXPECT_GT(model.quantized_weight_bytes(), 0u);
  EXPECT_LT(model.quantized_weight_bytes(), model.fp32_weight_bytes());
  ASSERT_NE(model.quantized_weights(), nullptr);
  EXPECT_EQ(model.quantized_weights()->lstm.size(), config.layers);

  // Training changes the fp32 weights → the stale sidecar must drop.
  const auto examples = make_examples(config, 8, 23);
  std::vector<const SeqExample*> batch;
  for (const SeqExample& ex : examples) batch.push_back(&ex);
  Adam adam(1e-2f);
  adam.bind(model.params());
  model.train_batch(batch, adam);
  EXPECT_FALSE(model.quantized());

  // Re-quantize, then reshape: grow_vocab must drop it too.
  model.quantize();
  ASSERT_TRUE(model.quantized());
  Rng grow_rng(29);
  model.grow_vocab(config.vocab + 2, grow_rng);
  EXPECT_FALSE(model.quantized());

  // And clear_quantized() restores bit-exact fp32 scoring.
  const auto examples2 = make_examples(config, 8, 31);
  std::vector<const SeqExample*> batch2;
  for (const SeqExample& ex : examples2) batch2.push_back(&ex);
  const std::vector<double> fp32_scores = model.score_log_likelihood(batch2);
  model.quantize();
  model.clear_quantized();
  EXPECT_EQ(model.score_log_likelihood(batch2), fp32_scores);
}

TEST(SequenceModelQuantize, SerialAndBatchedQuantizedScoresAgree) {
  const SequenceModelConfig config = small_config();
  Rng rng(37);
  SequenceModel model(config, rng);
  model.quantize();

  const auto examples = make_examples(config, 32, 41);
  std::vector<const SeqExample*> batch;
  for (const SeqExample& ex : examples) batch.push_back(&ex);

  // Serial reference (predict()-based) vs fused batches of several sizes:
  // within quantized mode everything must stay bit-identical, exactly as
  // in fp32 mode.
  const std::vector<double> serial = model.score_log_likelihood(batch);
  const std::vector<std::size_t> serial_ranks =
      model.score_target_ranks(batch);
  WindowBatch windows;
  for (const SeqExample& ex : examples) windows.push_back(ex, config.window);
  const SequenceModel::ScoringImage image = model.build_scoring_image();
  EXPECT_TRUE(image.empty()) << "int8 scoring reads the sidecar";
  SequenceModel::InferenceScratch scratch;
  for (const std::size_t batch_size : {1ul, 7ul, 32ul, 1024ul}) {
    std::vector<double> batched(batch.size());
    model.score_batched(image, windows, batch_size, scratch, batched);
    EXPECT_EQ(batched, serial) << "batch_size " << batch_size;
    std::vector<std::size_t> ranks(batch.size());
    model.score_ranks_batched(image, windows, batch_size, scratch, ranks);
    EXPECT_EQ(ranks, serial_ranks) << "batch_size " << batch_size;
  }
}

}  // namespace
}  // namespace nfv::ml
