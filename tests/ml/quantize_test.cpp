// Kernel- and model-level tests of the int8 quantized scoring tier.
//
// The contracts under test, in order of load-bearingness:
//   1. matmul_quant is bit-identical across kernel tiers (AVX2 and
//      AVX-512 VNNI vs the baseline reference) and row partitionings —
//      quantized scores may differ from fp32, but never from each other.
//   2. Degenerate weight channels (all-zero rows, constant rows) quantize
//      without division by zero or saturation artifacts.
//   3. The quantized product tracks the fp32 product to within the error
//      budget of 7-bit activations × 8-bit weights.
//   4. The SequenceModel sidecar follows the fp32 weights' lifecycle:
//      installed by quantize(), dropped by train_batch/grow_vocab.
//   5. The fused LSTM scoring step's 16-channel int8 blocks reproduce
//      matmul_quant's 8-channel product bit for bit, the zero-state input
//      block included, and int8 scores agree between the SIMD tiers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "kernel_tiers.h"
#include "ml/lstm.h"
#include "ml/matrix.h"
#include "ml/optimizer.h"
#include "ml/sequence_model.h"
#include "util/rng.h"

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

  // All-max activations drive the biggest possible accumulations; every
  // tier must match the integer reference (i.e. no hidden saturation in
  // the SIMD tiers). Each activation quantizes to code 127 with zero
  // point 0 and scale 100/127, so the sum is 4 · 127 · −127 and the
  // dequant is the canonical float(acc − zp·Σw) · (sa · scale).
  const Matrix a(2, 4, 100.0f);
  const float expected = static_cast<float>(4 * 127 * -127) *
                         ((100.0f / 127.0f) * (2.5f / 127.0f));
  EXPECT_NEAR(expected, 4 * 100.0f * -2.5f, 1e-1f);
  for_each_kernel_tier([&](KernelTier tier) {
    Matrix out;
    matmul_quant(a, qb, out);
    for (std::size_t i = 0; i < out.rows(); ++i) {
      EXPECT_EQ(out.at(i, 0), expected) << kernel_tier_name(tier);
    }
  });
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

// Every SIMD tier against the baseline reference tier, at k-group counts
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
  const Matrix a = random_matrix(512, 96, rng, 1.5f);
  const Matrix b = random_matrix(160, 96, rng);
  QuantizedMatrix qb;
  quantize_pack_b(b, qb);

  Matrix out_batch;
  matmul_quant(a, qb, out_batch);

  // Row-by-row calls (the window-by-window scoring shape) must agree with
  // the fused batch elementwise.
  for (std::size_t i = 0; i < 8; ++i) {
    Matrix row(1, a.cols());
    std::memcpy(row.data(), a.row(i), a.cols() * sizeof(float));
    Matrix out_row;
    matmul_quant(row, qb, out_row);
    for (std::size_t c = 0; c < b.rows(); ++c) {
      EXPECT_EQ(out_row.at(0, c), out_batch.at(i, c))
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

/// The shapes (vocab, hidden, window) of the step and scoring checks:
/// paper-shape hidden 32 at two vocabularies, and hidden 16, 24, 12 and 40
/// (whole 16-unit blocks, an 8-lane half block and libm tails).
constexpr std::size_t kShapes[][3] = {{76, 32, 10}, {90, 32, 10},
                                      {48, 16, 4},  {37, 24, 5},
                                      {41, 12, 3},  {70, 40, 6}};

/// h and c after one int8 score_step of `lstm` as a layer above the first:
/// from the zero state (t = 0, the input block) or, when h_prev is given,
/// from h_prev and c_prev (the full gate blocks).
std::pair<Matrix, Matrix> int8_step(const Lstm& lstm, const QuantizedMatrix& q,
                                    const Matrix& x, const Matrix* h_prev,
                                    const Matrix& c_prev) {
  const LstmStepWeights weights = lstm.step_weights(false, &q);
  LstmState state;
  lstm.reset_state(state, x.rows());
  state.c = c_prev;
  const std::size_t t = h_prev != nullptr ? 1 : 0;
  if (h_prev != nullptr) state.h[0] = *h_prev;
  LstmStepInput input;
  input.x = &x;
  lstm.score_step(weights, input, t, state);
  return {state.h[t], state.c};
}

/// The same step with its pre-activations given: `gates` (rows × 4H, gate
/// order) plus the bias go in as layer 0's table rows with Δt 0, a step
/// with no product.
std::pair<Matrix, Matrix> step_from_gates(const Lstm& lstm, const Matrix& gates,
                                          const Matrix& c_prev) {
  const std::size_t h = lstm.hidden_size();
  const std::size_t width = gate_block_count(h) * kGateBlockWidth;
  Matrix table(gates.rows(), width);
  std::vector<float> row(4 * h);
  std::vector<const float*> rows;
  for (std::size_t r = 0; r < gates.rows(); ++r) {
    for (std::size_t j = 0; j < 4 * h; ++j) {
      row[j] = gates.at(r, j) + lstm.bias().value.at(0, j);
    }
    pack_gate_vector(row.data(), h, table.row(r));
    rows.push_back(table.row(r));
  }
  const std::vector<float> zeros(std::max(width, gates.rows()), 0.0f);
  const LstmStepWeights weights = lstm.step_weights(true, nullptr);
  LstmState state;
  lstm.reset_state(state, gates.rows());
  state.c = c_prev;
  LstmStepInput input;
  input.table = rows.data();
  input.dt = zeros.data();
  input.dt_gates = zeros.data();
  lstm.score_step(weights, input, 0, state);
  return {state.h[0], state.c};
}

// The fused step's int8 products against matmul_quant, in every tier: a
// step from a random state (the full 16-channel re-pack of the 8-channel
// sidecar, [x, h_{t−1}] quantized from the two buffers) ends exactly where
// matmul_quant([x, h_{t−1}]) + b fed through the same gate and cell
// kernels ends, and the zero-state step (the input block W[:, :I], its
// column sums recomputed over the block) exactly where
// matmul_quant([x, 0]) + b does.
TEST(Int8Step, GateBlocksReproduceMatmulQuantInEveryTier) {
  const std::string missing = for_each_kernel_tier([&](KernelTier tier) {
    for (const auto& shape : kShapes) {
      const std::size_t hidden = shape[1];
      for (const std::size_t batch : {1ul, 7ul, 64ul, 256ul}) {
        Rng rng(shape[0] * 1000 + batch);
        Lstm lstm("lstm", hidden, hidden, rng);
        QuantizedMatrix q;
        quantize_pack_b(lstm.weight().value, q);
        const Matrix x = random_matrix(batch, hidden, rng);
        const Matrix h_prev = random_matrix(batch, hidden, rng);
        const Matrix c_prev =
            random_matrix(batch, gate_block_count(hidden) * 16, rng);
        const Matrix c_zero(batch, c_prev.cols());
        Matrix concat(batch, 2 * hidden);
        for (std::size_t r = 0; r < batch; ++r) {
          std::copy_n(x.row(r), hidden, concat.row(r));
        }
        const std::string at = std::string(kernel_tier_name(tier)) +
                               " hidden " + std::to_string(hidden) +
                               " batch " + std::to_string(batch);
        Matrix gates;
        matmul_quant(concat, q, gates);  // [x, 0]
        const auto zero_state = int8_step(lstm, q, x, nullptr, c_zero);
        const auto zero_ref = step_from_gates(lstm, gates, c_zero);
        EXPECT_EQ(zero_state.first.storage(), zero_ref.first.storage()) << at;
        EXPECT_EQ(zero_state.second.storage(), zero_ref.second.storage()) << at;

        for (std::size_t r = 0; r < batch; ++r) {
          std::copy_n(h_prev.row(r), hidden, concat.row(r) + hidden);
        }
        matmul_quant(concat, q, gates);
        const auto stepped = int8_step(lstm, q, x, &h_prev, c_prev);
        const auto ref = step_from_gates(lstm, gates, c_prev);
        EXPECT_EQ(stepped.first.storage(), ref.first.storage()) << at;
        EXPECT_EQ(stepped.second.storage(), ref.second.storage()) << at;
      }
    }
  });
  if (!missing.empty()) GTEST_SKIP() << "CPU lacks the " << missing << " tier";
}

// A quantized model scores the same bits in the AVX2 and AVX-512 tiers
// (the image is built in each), at every batch size.
TEST(Int8Step, ModelScoresEqualAcrossSimdTiers) {
  const KernelTier was = kernel_tier();
  if (set_kernel_tier(KernelTier::kAvx512) != KernelTier::kAvx512) {
    set_kernel_tier(was);
    GTEST_SKIP() << "CPU lacks the avx512 tier";
  }
  for (const auto& shape : kShapes) {
    SequenceModelConfig config;
    config.vocab = shape[0];
    config.hidden = shape[1];
    config.window = shape[2];
    Rng rng(shape[0]);
    SequenceModel model(config, rng);
    model.quantize();
    WindowBatch windows;
    for (std::size_t e = 0; e < 300; ++e) {
      for (std::size_t t = 0; t < config.window; ++t) {
        windows.ids.push_back(
            static_cast<std::int32_t>(rng.uniform_index(config.vocab)));
        windows.dts.push_back(static_cast<float>(rng.exponential(60.0)));
      }
      windows.targets.push_back(
          static_cast<std::int32_t>(rng.uniform_index(config.vocab)));
    }
    std::vector<std::vector<double>> scores[2];
    for (const int t : {0, 1}) {
      set_kernel_tier(t == 0 ? KernelTier::kAvx2 : KernelTier::kAvx512);
      const SequenceModel::ScoringImage image = model.build_scoring_image();
      SequenceModel::InferenceScratch scratch;
      for (const std::size_t batch : {1ul, 7ul, 64ul, 256ul}) {
        std::vector<double> out(windows.size());
        model.score_batched(image, windows, batch, scratch, out);
        scores[t].push_back(out);
      }
    }
    EXPECT_EQ(scores[0], scores[1]) << "shape " << shape[0] << "/"
                                    << shape[1] << "/" << shape[2];
    for (const std::vector<double>& batch_scores : scores[1]) {
      EXPECT_EQ(batch_scores, scores[1][0]) << "batch-size dependent";
    }
  }
  set_kernel_tier(was);
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

WindowBatch make_windows(const SequenceModelConfig& config, std::size_t count,
                         std::uint64_t seed) {
  Rng rng(seed);
  WindowBatch windows;
  for (std::size_t e = 0; e < count; ++e) {
    for (std::size_t t = 0; t < config.window; ++t) {
      windows.ids.push_back(
          static_cast<std::int32_t>(rng.uniform_index(config.vocab)));
      windows.dts.push_back(static_cast<float>(rng.uniform(1.0, 100.0)));
    }
    windows.targets.push_back(
        static_cast<std::int32_t>(rng.uniform_index(config.vocab)));
  }
  return windows;
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
  const WindowBatch batch = make_windows(config, 8, 23);
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
  const WindowBatch batch2 = make_windows(config, 8, 31);
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

  const WindowBatch windows = make_windows(config, 32, 41);

  // Serial reference (predict()-based) vs fused batches of several sizes:
  // within quantized mode everything must stay bit-identical, exactly as
  // in fp32 mode.
  const std::vector<double> serial = model.score_log_likelihood(windows);
  const std::vector<std::size_t> serial_ranks =
      model.score_target_ranks(windows);
  const SequenceModel::ScoringImage image = model.build_scoring_image();
  EXPECT_TRUE(image.quantized) << "int8 scoring reads the int8 image";
  SequenceModel::InferenceScratch scratch;
  for (const std::size_t batch_size : {1ul, 7ul, 32ul, 1024ul}) {
    std::vector<double> batched(windows.size());
    model.score_batched(image, windows, batch_size, scratch, batched);
    EXPECT_EQ(batched, serial) << "batch_size " << batch_size;
    std::vector<std::size_t> ranks(windows.size());
    model.score_ranks_batched(image, windows, batch_size, scratch, ranks);
    EXPECT_EQ(ranks, serial_ranks) << "batch_size " << batch_size;
  }
}

}  // namespace
}  // namespace nfv::ml
