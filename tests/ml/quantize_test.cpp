// Kernel- and model-level tests of the int8 quantized scoring tier.
//
// The contracts under test, in order of load-bearingness:
//   1. The fused LSTM step's int8 products equal an in-test scalar
//      reference bit for bit in every kernel tier — activations coded by
//      the fixed rule (scale 2/127, zero point 64) times weights
//      quantized here, dequantized as float(acc − 64·col_sum) ·
//      ((2/127)·scale) — the zero-state input block included, and int8
//      scores agree between the SIMD tiers at any batch size.
//   2. Every tier codes activations by the same fixed rule, NaN, ±Inf,
//      ±0 and denormals included, and the codes a step writes are the
//      rule applied to the h it writes.
//   3. pack_gate_blocks quantizes each gate row per channel over its full
//      width into the gate-block layout; degenerate channels (all-zero
//      rows, constant rows) quantize without division by zero or
//      saturation artifacts, and a NaN or infinite weight is refused.
//   4. The int8 step tracks the fp32 step to within the error budget of
//      7-bit activations × 8-bit weights.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "kernel_tiers.h"
#include "ml/lstm.h"
#include "ml/matrix.h"
#include "ml/sequence_model.h"
#include "util/check.h"
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

/// Channel c's weights quantized per channel over the full row, the
/// reference for pack_gate_blocks: scale = max|row| / 127 (1 for an
/// all-zero row), codes round to nearest even and clamp to ±127.
struct ChannelCodes {
  float scale = 1.0f;
  std::vector<std::int32_t> codes;
};

ChannelCodes quantize_channel(const Matrix& w, std::size_t c) {
  float amax = 0.0f;
  for (std::size_t k = 0; k < w.cols(); ++k) {
    amax = std::max(amax, std::fabs(w.at(c, k)));
  }
  ChannelCodes out;
  out.codes.assign(w.cols(), 0);
  if (amax == 0.0f) return out;
  out.scale = amax / 127.0f;
  const float inv = 127.0f / amax;
  for (std::size_t k = 0; k < w.cols(); ++k) {
    const float code = std::nearbyint(w.at(c, k) * inv);  // ties to even
    out.codes[k] =
        std::clamp(static_cast<std::int32_t>(code), std::int32_t{-127},
                   std::int32_t{127});
  }
  return out;
}

/// The fixed activation rule, written independently of the library:
/// clamp(RNE(v · 63.5) + 64, 0, 127), with NaN and ±Inf at code 0 (the
/// library's INT32_MIN conversion, clamped). Exact for the finite values
/// the tests feed it (|v · 63.5| < 2^31).
std::uint8_t reference_code(float v) {
  if (!std::isfinite(v)) return 0;
  const float x = v * 63.5f;
  const auto q = static_cast<std::int32_t>(std::nearbyint(x));  // ties to even
  return static_cast<std::uint8_t>(std::clamp(q + 64, 0, 127));
}

/// The activation codes of m's rows (activation_codes in the active
/// tier), each row padded with zeros to a multiple of 4 bytes, the layout
/// a step reads.
std::vector<std::uint8_t> codes_of(const Matrix& m) {
  const std::size_t stride = (m.cols() + 3) / 4 * 4;
  std::vector<std::uint8_t> codes(m.rows() * stride, 0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    activation_codes(m.row(r), m.cols(), codes.data() + r * stride);
  }
  return codes;
}

/// Where pack_gate_blocks puts gate row c (of 4H): its lane in the
/// gate-blocked scales and column sums, and its 16-unit block.
struct GateLane {
  std::size_t lane;
  std::size_t block;
};

GateLane gate_lane(std::size_t c, std::size_t hidden) {
  const std::size_t gate = c / hidden;
  const std::size_t unit = c % hidden;
  const std::size_t block = unit / kGateBlockUnits;
  return {block * kGateBlockWidth + gate * kGateBlockUnits +
              unit % kGateBlockUnits,
          block};
}

/// The byte offset of gate row c's code at column k of a block's pack.
std::size_t code_offset(std::size_t c, std::size_t k, std::size_t hidden,
                        std::size_t depth_padded) {
  const GateLane at = gate_lane(c, hidden);
  const std::size_t groups = depth_padded / 4;
  return at.block * groups * kGateBlockWidth * 4 +
         k / 4 * kGateBlockWidth * 4 + at.lane % kGateBlockWidth * 4 + k % 4;
}

/// Checks q, the pack of columns [k0, k1) of w, against the reference:
/// codes at their layout offsets, the full row's scale times the
/// activations' 2/127, 64 × the column sum over the block alone, and
/// zeros in every padding byte and lane.
void expect_gate_blocks(const Matrix& w, std::size_t k0, std::size_t k1,
                        const QuantGateBlocks& q, const std::string& at) {
  const std::size_t hidden = w.rows() / 4;
  const std::size_t blocks = gate_block_count(hidden);
  ASSERT_EQ(q.depth_padded, (k1 - k0 + 3) / 4 * 4) << at;
  ASSERT_EQ(q.codes.size(), blocks * q.depth_padded * kGateBlockWidth) << at;
  ASSERT_EQ(q.scales.size(), blocks * kGateBlockWidth) << at;
  ASSERT_EQ(q.zero_sums.size(), blocks * kGateBlockWidth) << at;
  std::vector<bool> written(q.codes.size(), false);
  std::vector<bool> lane_used(q.scales.size(), false);
  for (std::size_t c = 0; c < w.rows(); ++c) {
    const ChannelCodes ref = quantize_channel(w, c);
    const std::size_t lane = gate_lane(c, hidden).lane;
    lane_used[lane] = true;
    EXPECT_EQ(q.scales[lane], (2.0f / 127.0f) * ref.scale)
        << at << " channel " << c;
    std::int32_t sum = 0;
    for (std::size_t k = k0; k < k1; ++k) {
      const std::size_t off = code_offset(c, k - k0, hidden, q.depth_padded);
      written[off] = true;
      EXPECT_EQ(q.codes[off], ref.codes[k])
          << at << " channel " << c << " k " << k;
      // Each code reconstructs its weight to within half a step.
      EXPECT_NEAR(static_cast<float>(q.codes[off]) * ref.scale, w.at(c, k),
                  ref.scale * 0.5f + 1e-7f)
          << at << " channel " << c << " k " << k;
      sum += ref.codes[k];
    }
    EXPECT_EQ(q.zero_sums[lane], 64 * sum) << at << " channel " << c;
  }
  for (std::size_t i = 0; i < q.codes.size(); ++i) {
    if (!written[i]) {
      EXPECT_EQ(q.codes[i], 0) << at << " padding byte " << i;
    }
  }
  for (std::size_t lane = 0; lane < q.scales.size(); ++lane) {
    if (lane_used[lane]) continue;
    EXPECT_EQ(q.scales[lane], 0.0f) << at << " padding lane " << lane;
    EXPECT_EQ(q.zero_sums[lane], 0) << at << " padding lane " << lane;
  }
}

// Hidden 13 (one block, 3 padding units per gate) and 21 (a second,
// mostly padded block), a depth of 7 (padded to 8), and column blocks
// that start mid-row: each keeps the full row's scale and sums its own
// columns.
TEST(QuantGateBlocks, LayoutScalesAndColumnSums) {
  Rng rng(3);
  for (const std::size_t hidden : {13ul, 21ul}) {
    const Matrix w = random_matrix(4 * hidden, 7, rng);
    for (const auto& [k0, k1] :
         {std::pair{0ul, 7ul}, std::pair{3ul, 7ul}, std::pair{0ul, 3ul},
          std::pair{2ul, 6ul}}) {
      QuantGateBlocks q;
      pack_gate_blocks(w, k0, k1, q);
      expect_gate_blocks(w, k0, k1, q,
                         "hidden " + std::to_string(hidden) + " columns [" +
                             std::to_string(k0) + ", " + std::to_string(k1) +
                             ")");
    }
  }
}

/// A layer above the first with the given weights: I inputs, H units.
Lstm layer_with(const Matrix& w, const Matrix& bias, std::size_t inputs) {
  Rng rng(1);
  Lstm lstm("lstm", inputs, w.rows() / 4, rng);
  lstm.weight().value = w;
  lstm.bias().value = bias;
  return lstm;
}

/// h and c after one score_step of `lstm` as a layer above the first, in
/// int8 or fp32: from the zero state (t = 0, the input block) or, when
/// h_prev is given, from h_prev and c_prev (both gate blocks). The int8
/// step reads x's and h_prev's activation codes, as a layer below and the
/// previous step would have written them.
std::pair<Matrix, Matrix> step(const Lstm& lstm, bool int8, const Matrix& x,
                               const Matrix* h_prev, const Matrix& c_prev) {
  const LstmStepWeights weights = lstm.step_weights(false, int8);
  LstmState state;
  lstm.reset_state(state, x.rows());
  state.c = c_prev;
  const std::size_t t = h_prev != nullptr ? 1 : 0;
  if (h_prev != nullptr) {
    state.h[0] = *h_prev;
    state.codes[0] = codes_of(*h_prev);
  }
  const std::vector<std::uint8_t> x_codes = codes_of(x);
  LstmStepInput input;
  input.x = &x;
  input.x_codes = x_codes.data();
  lstm.score_step(weights, input, t, state);
  return {state.h[t], state.c};
}

/// The same step with its pre-activations given: `gates` (rows × 4H, gate
/// order) plus the bias go in as layer 0's table rows with Δt 0, a step
/// with no product, so the activations and the cell update run the same
/// kernels as the step under test.
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
  const LstmStepWeights weights = lstm.step_weights(true, false);
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

/// The scalar reference of the int8 step's gate pre-activations: each
/// row of [x, h_prev] (x alone when h_prev is null) coded by
/// reference_code, its codes summed in int32 against the weights
/// quantized by quantize_channel over the columns it covers, and
/// dequantized as float(acc − 64·col_sum) · ((2/127) · scale).
Matrix reference_int8_gates(const Lstm& lstm, const Matrix& x,
                            const Matrix* h_prev) {
  const Matrix& w = lstm.weight().value;
  const std::size_t rows = x.rows();
  const std::size_t x_cols = x.cols();
  const std::size_t depth = x_cols + (h_prev != nullptr ? h_prev->cols() : 0);
  Matrix gates(rows, w.rows());
  for (std::size_t c = 0; c < w.rows(); ++c) {
    const ChannelCodes q = quantize_channel(w, c);
    std::int32_t col_sum = 0;
    for (std::size_t k = 0; k < depth; ++k) col_sum += q.codes[k];
    for (std::size_t r = 0; r < rows; ++r) {
      std::int32_t acc = 0;
      for (std::size_t k = 0; k < depth; ++k) {
        const float v =
            k < x_cols ? x.at(r, k) : h_prev->at(r, k - x_cols);
        acc += static_cast<std::int32_t>(reference_code(v)) * q.codes[k];
      }
      gates.at(r, c) = static_cast<float>(acc - 64 * col_sum) *
                       ((2.0f / 127.0f) * q.scale);
    }
  }
  return gates;
}

/// The shapes (vocab, hidden, window) of the step and scoring checks:
/// paper-shape hidden 32 at two vocabularies, and hidden 16, 24, 12 and 40
/// (whole 16-unit blocks, an 8-lane half block and libm tails).
constexpr std::size_t kShapes[][3] = {{76, 32, 10}, {90, 32, 10},
                                      {48, 16, 4},  {37, 24, 5},
                                      {41, 12, 3},  {70, 40, 6}};

// The fused step's int8 products against the scalar reference, in every
// tier: a step from a random state (the input and recurrent gate blocks,
// each over its own codes) ends exactly where the reference gates fed
// through the same gate and cell kernels end, and so does the zero-state
// step (the input block W[:, :I] alone, its zero sums over the block).
// Layers with I = H at the kShapes hiddens, and [x | h] depths of 5, 7,
// 49 and 65 (I and H that are not multiples of 4, so each part pads its
// own last 4-k group). From batch 7 on, two rows of x and h are all zero
// (code 64, products the zero sums cancel exactly).
TEST(Int8Step, GateBlocksReproduceScalarReferenceInEveryTier) {
  std::vector<std::pair<std::size_t, std::size_t>> layers;  // (I, H)
  for (const auto& shape : kShapes) layers.emplace_back(shape[1], shape[1]);
  for (const auto& [inputs, hidden] :
       {std::pair{3ul, 2ul}, std::pair{3ul, 4ul}, std::pair{17ul, 32ul},
        std::pair{25ul, 40ul}}) {
    layers.emplace_back(inputs, hidden);
  }
  const std::string missing = for_each_kernel_tier([&](KernelTier tier) {
    for (const auto& [inputs, hidden] : layers) {
      for (const std::size_t batch : {1ul, 7ul, 64ul, 256ul}) {
        Rng rng(inputs * 1000 + hidden * 10 + batch);
        const Lstm lstm("lstm", inputs, hidden, rng);
        Matrix x = random_matrix(batch, inputs, rng);
        Matrix h_prev = random_matrix(batch, hidden, rng);
        if (batch >= 7) {
          for (const std::size_t r : {3ul, 5ul}) {
            std::fill_n(x.row(r), inputs, 0.0f);
            std::fill_n(h_prev.row(r), hidden, 0.0f);
          }
        }
        const Matrix c_prev =
            random_matrix(batch, gate_block_count(hidden) * 16, rng);
        const Matrix c_zero(batch, c_prev.cols());
        const std::string at = std::string(kernel_tier_name(tier)) +
                               " inputs " + std::to_string(inputs) +
                               " hidden " + std::to_string(hidden) +
                               " batch " + std::to_string(batch);

        const auto zero_state = step(lstm, true, x, nullptr, c_zero);
        const auto zero_ref = step_from_gates(
            lstm, reference_int8_gates(lstm, x, nullptr), c_zero);
        EXPECT_EQ(zero_state.first.storage(), zero_ref.first.storage()) << at;
        EXPECT_EQ(zero_state.second.storage(), zero_ref.second.storage())
            << at;

        const auto stepped = step(lstm, true, x, &h_prev, c_prev);
        const auto ref = step_from_gates(
            lstm, reference_int8_gates(lstm, x, &h_prev), c_prev);
        EXPECT_EQ(stepped.first.storage(), ref.first.storage()) << at;
        EXPECT_EQ(stepped.second.storage(), ref.second.storage()) << at;
      }
    }
  });
  if (!missing.empty()) GTEST_SKIP() << "CPU lacks the " << missing << " tier";
}

// All-zero gate rows get w_scale 1, zero codes and zero sums, and
// their products are exactly zero against any activation: a layer whose
// W is all zero steps in int8 exactly as in fp32 (both leave the bias
// alone as the pre-activation), in every tier.
TEST(QuantGateBlocks, AllZeroChannelHasUnitScaleAndZeroCodes) {
  Matrix w(4 * 3, 5, 0.0f);
  w.at(4, 2) = 0.75f;  // one non-zero channel among all-zero ones
  QuantGateBlocks q;
  pack_gate_blocks(w, 0, 5, q);
  expect_gate_blocks(w, 0, 5, q, "one non-zero channel");
  for (std::size_t c = 0; c < w.rows(); ++c) {
    if (c == 4) continue;
    EXPECT_EQ(q.scales[gate_lane(c, 3).lane], 2.0f / 127.0f)
        << "channel " << c;
  }

  Rng rng(5);
  const Lstm lstm =
      layer_with(Matrix(4 * 24, 40, 0.0f), random_matrix(1, 4 * 24, rng), 16);
  const Matrix x = random_matrix(7, 16, rng, 3.0f);
  const Matrix h_prev = random_matrix(7, 24, rng, 3.0f);
  const Matrix c_prev = random_matrix(7, gate_block_count(24) * 16, rng);
  const std::string missing = for_each_kernel_tier([&](KernelTier tier) {
    const auto int8 = step(lstm, true, x, &h_prev, c_prev);
    const auto fp32 = step(lstm, false, x, &h_prev, c_prev);
    EXPECT_EQ(int8.first.storage(), fp32.first.storage())
        << kernel_tier_name(tier);
    EXPECT_EQ(int8.second.storage(), fp32.second.storage())
        << kernel_tier_name(tier);
  });
  if (!missing.empty()) GTEST_SKIP() << "CPU lacks the " << missing << " tier";
}

// A constant channel lands exactly on the symmetric extreme, −127 and
// never −128. All-maximal activation codes against such weights drive the
// largest accumulations the step can make; every tier matches the integer
// reference, so no SIMD tier saturates in between (vpmaddubsw pair sums
// stay below 2^15 because activation codes are 7-bit).
TEST(QuantGateBlocks, ConstantChannelSaturatesToFullScaleWithoutOverflow) {
  const std::size_t hidden = 16, inputs = 48;
  const Matrix w(4 * hidden, inputs + hidden, -2.5f);
  QuantGateBlocks q;
  pack_gate_blocks(w, 0, inputs + hidden, q);
  expect_gate_blocks(w, 0, inputs + hidden, q, "constant");
  for (std::size_t c = 0; c < w.rows(); ++c) {
    const std::size_t lane = gate_lane(c, hidden).lane;
    EXPECT_EQ(q.scales[lane], (2.0f / 127.0f) * (2.5f / 127.0f));
    EXPECT_EQ(q.zero_sums[lane],
              64 * -127 * static_cast<int>(inputs + hidden));
  }
  EXPECT_EQ(*std::min_element(q.codes.begin(), q.codes.end()), -127);

  // Each activation of 1 codes to 127 (63.5 rounds to the even 64, and
  // 64 + 64 clamps to 127), so every gate sums (I + H) · 127 · −127, the
  // largest sum the step can make, and dequantizes as
  // float(acc − 64·col_sum) · ((2/127) · (2.5/127)), its 63 steps above
  // the zero point reading back as 63/63.5.
  Rng rng(9);
  const Lstm lstm = layer_with(w, random_matrix(1, 4 * hidden, rng), inputs);
  const Matrix x(4, inputs, 1.0f);
  const Matrix h_prev(4, hidden, 1.0f);
  const Matrix c_prev(4, gate_block_count(hidden) * 16, 0.5f);
  const float pre = static_cast<float>(static_cast<int>(inputs + hidden) *
                                       (127 - 64) * -127) *
                    ((2.0f / 127.0f) * (2.5f / 127.0f));
  EXPECT_NEAR(pre, (inputs + hidden) * (63.0f / 63.5f) * -2.5f, 1e-3f);
  const Matrix gates(4, 4 * hidden, pre);
  const std::string missing = for_each_kernel_tier([&](KernelTier tier) {
    const auto stepped = step(lstm, true, x, &h_prev, c_prev);
    const auto ref = step_from_gates(lstm, gates, c_prev);
    EXPECT_EQ(stepped.first.storage(), ref.first.storage())
        << kernel_tier_name(tier);
    EXPECT_EQ(stepped.second.storage(), ref.second.storage())
        << kernel_tier_name(tier);
  });
  if (!missing.empty()) GTEST_SKIP() << "CPU lacks the " << missing << " tier";
}

// A NaN or infinite weight has no int8 code: quantizing it would convert
// an out-of-range float to an integer. The gate-block quantizer refuses
// it, naming the weight, and so does an int8 scoring image of a model
// holding one; its fp32 image still builds.
TEST(QuantGateBlocks, NonFiniteWeightThrowsCheckError) {
  Rng rng(13);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    Matrix w = random_matrix(4 * 5, 9, rng);
    w.at(6, 7) = bad;
    QuantGateBlocks q;
    // The bad weight sits outside the packed columns but inside the row
    // whose scale it would set.
    try {
      pack_gate_blocks(w, 0, 4, q);
      ADD_FAILURE() << "a weight of " << bad << " quantized";
    } catch (const nfv::util::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("(6, 7)"), std::string::npos)
          << e.what();
    }

    SequenceModelConfig config;
    config.vocab = 9;
    config.embed_dim = 4;
    config.hidden = 6;
    config.window = 3;
    SequenceModel model(config, rng);
    model.params()[3]->value.at(2, 1) = bad;  // lstm1.weight
    EXPECT_THROW(model.build_scoring_image(true), nfv::util::CheckError)
        << bad;
    EXPECT_NO_THROW(model.build_scoring_image(false)) << bad;
  }
}

// Every tier codes activations by the one fixed rule: −1 → 0, 1 and 1.5
// → 127 (clamped), ±0 and denormals → 64, and NaN and ±Inf → 0, without an
// undefined float-to-int conversion (the UBSan leg checks
// float-cast-overflow): the SIMD lanes' vcvtps2dq and the scalar tail's
// round_nearest_i32 both give INT32_MIN for them, which clamps to 0.
// (SequenceModel::load refuses non-finite weights, so only a bug can feed
// the step a NaN.) Rows of 37 values put each special value in vector
// lanes and in the scalar tail, around random values in (−1, 1).
TEST(Int8Step, FixedActivationCodesAgreeAcrossTiers) {
  constexpr std::size_t kCols = 37;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::pair<float, std::uint8_t> special[] = {
      {-1.0f, 0},  {1.0f, 127},     {1.5f, 127},   {0.0f, 64},
      {-0.0f, 64}, {denorm, 64},    {-denorm, 64}, {1e-40f, 64},
      {nan, 0},    {-nan, 0},       {inf, 0},      {-inf, 0}};
  Matrix rows(std::size(special), kCols);
  Rng rng(17);
  for (float& v : rows.storage()) v = static_cast<float>(rng.uniform(-1, 1));
  // Row i holds special value i in lanes 0, 9 and 20 (vector lanes in both
  // SIMD tiers) and 33 and 36 (the scalar tail of both).
  const std::size_t lanes[] = {0, 9, 20, 33, 36};
  for (std::size_t i = 0; i < std::size(special); ++i) {
    for (const std::size_t c : lanes) rows.at(i, c) = special[i].first;
  }
  std::optional<std::vector<std::uint8_t>> first;
  const std::string missing = for_each_kernel_tier([&](KernelTier tier) {
    std::vector<std::uint8_t> codes(rows.size());
    activation_codes(rows.data(), rows.size(), codes.data());
    for (std::size_t i = 0; i < rows.rows(); ++i) {
      for (std::size_t c = 0; c < kCols; ++c) {
        EXPECT_EQ(codes[i * kCols + c], reference_code(rows.at(i, c)))
            << kernel_tier_name(tier) << " row " << i << " column " << c;
      }
      for (const std::size_t c : lanes) {
        EXPECT_EQ(codes[i * kCols + c], special[i].second)
            << kernel_tier_name(tier) << " value " << special[i].first
            << " column " << c;
      }
    }
    if (!first) {
      first = codes;
      return;
    }
    EXPECT_EQ(codes, *first) << kernel_tier_name(tier);
  });
  if (!missing.empty()) GTEST_SKIP() << "CPU lacks the " << missing << " tier";
}

// The codes a step writes (LstmState::codes) are the fixed rule applied to
// the h it writes, bit for bit, in every tier: for layer 0 (its zero-state
// step runs no product, then int8 recurrent steps) and a layer above
// (int8 products from the zero state on), at hidden 20 and 40, whose last
// units take the libm tail and, at 40 in the 16-lane tier, a half vector,
// and at batches 1, 7 and 64.
TEST(Int8Step, EpilogueCodesMatchTheRuleOnTheWrittenH) {
  const std::string missing = for_each_kernel_tier([&](KernelTier tier) {
    for (const std::size_t hidden : {20ul, 40ul}) {
      for (const std::size_t batch : {1ul, 7ul, 64ul}) {
        Rng rng(hidden * 100 + batch);
        const Lstm layer0("lstm0", 9, hidden, rng);
        const Lstm layer1("lstm1", hidden, hidden, rng);
        const LstmStepWeights w0 = layer0.step_weights(true, true);
        const LstmStepWeights w1 = layer1.step_weights(false, true);
        const std::size_t width = gate_block_count(hidden) * kGateBlockWidth;
        const Matrix table = random_matrix(batch, width, rng, 2.0f);
        std::vector<const float*> table_rows;
        for (std::size_t r = 0; r < batch; ++r) {
          table_rows.push_back(table.row(r));
        }
        const Matrix dt_gates = random_matrix(1, width, rng);
        const Matrix dts = random_matrix(1, batch, rng);
        LstmState states[2];
        layer0.reset_state(states[0], batch);
        layer1.reset_state(states[1], batch);
        const std::size_t stride = (hidden + 3) / 4 * 4;
        for (std::size_t t = 0; t < 3; ++t) {
          LstmStepInput input;
          input.table = table_rows.data();
          input.dt = dts.data();
          input.dt_gates = dt_gates.data();
          layer0.score_step(w0, input, t, states[0]);
          input = LstmStepInput{&states[0].h[t % 2],
                                states[0].codes[t % 2].data()};
          layer1.score_step(w1, input, t, states[1]);
          for (std::size_t l = 0; l < 2; ++l) {
            const Matrix& h = states[l].h[t % 2];
            const std::vector<std::uint8_t>& codes = states[l].codes[t % 2];
            ASSERT_EQ(codes.size(), batch * stride);
            for (std::size_t r = 0; r < batch; ++r) {
              for (std::size_t u = 0; u < hidden; ++u) {
                ASSERT_EQ(codes[r * stride + u], reference_code(h.at(r, u)))
                    << kernel_tier_name(tier) << " hidden " << hidden
                    << " batch " << batch << " step " << t << " layer " << l
                    << " row " << r << " unit " << u << " h " << h.at(r, u);
              }
            }
          }
        }
      }
    }
  });
  if (!missing.empty()) GTEST_SKIP() << "CPU lacks the " << missing << " tier";
}

// The int8 step tracks the fp32 step: one step from a random state at the
// paper shape (|x|, |h| ≤ 1, Xavier-scale weights) leaves h and c within
// 2% of the fp32 step's in the relative Frobenius norm, about the
// activations' quantization step (2/127, the fixed scale); it measures
// 0.56% (h) and 0.50% (c), against 0.57% and 0.51% under the former
// per-row scales.
TEST(Int8Step, MatchesFp32StepWithinQuantizationError) {
  Rng rng(7);
  const std::size_t hidden = 32, batch = 64;
  const Lstm lstm("lstm", hidden, hidden, rng);
  const Matrix x = random_matrix(batch, hidden, rng);
  const Matrix h_prev = random_matrix(batch, hidden, rng);
  const Matrix c_prev = random_matrix(batch, gate_block_count(hidden) * 16,
                                      rng);
  const auto int8 = step(lstm, true, x, &h_prev, c_prev);
  const auto fp32 = step(lstm, false, x, &h_prev, c_prev);
  const auto relative_error = [](const Matrix& a, const Matrix& b) {
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const double d = static_cast<double>(a.data()[i]) - b.data()[i];
      num += d * d;
      den += static_cast<double>(b.data()[i]) * b.data()[i];
    }
    return std::sqrt(num / den);
  };
  EXPECT_LT(relative_error(int8.first, fp32.first), 0.02);
  EXPECT_LT(relative_error(int8.second, fp32.second), 0.02);
}

// An int8 image scores the same bits in the AVX2 and AVX-512 tiers (the
// image is built in each) and at every batch size, 1 row at a time
// included, for windows with fractional gaps and with whole-second ones.
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
    // Whole-second gaps, as the runtime's are: short ones, the ends of
    // normalize_dt's table and past it.
    const float far_gaps[] = {static_cast<float>(kDtTableSeconds - 1),
                              static_cast<float>(kDtTableSeconds),
                              static_cast<float>(kDtTableSeconds + 1), 1e6f};
    for (std::size_t e = 0; e < 100; ++e) {
      for (std::size_t t = 0; t < config.window; ++t) {
        windows.ids.push_back(
            static_cast<std::int32_t>(rng.uniform_index(config.vocab)));
        windows.dts.push_back(
            rng.uniform_index(4) == 0
                ? far_gaps[rng.uniform_index(4)]
                : static_cast<float>(rng.uniform_index(600)));
      }
      windows.targets.push_back(
          static_cast<std::int32_t>(rng.uniform_index(config.vocab)));
    }
    std::vector<std::vector<double>> scores[2];
    for (const int t : {0, 1}) {
      set_kernel_tier(t == 0 ? KernelTier::kAvx2 : KernelTier::kAvx512);
      const SequenceModel::ScoringImage image = model.build_scoring_image(true);
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

TEST(SequenceModelQuantize, SerialAndBatchedQuantizedScoresAgree) {
  const SequenceModelConfig config = small_config();
  Rng rng(37);
  SequenceModel model(config, rng);

  const WindowBatch windows = make_windows(config, 32, 41);

  // One batch of every window vs fused batches of several sizes: within
  // int8 everything stays bit-identical, exactly as in fp32. Two builds
  // of the int8 image are byte-identical, so each score here reads its
  // own.
  const SequenceModel::ScoringImage image = model.build_scoring_image(true);
  ASSERT_TRUE(image.quantized);
  SequenceModel::InferenceScratch scratch;
  std::vector<double> serial(windows.size());
  model.score_batched(model.build_scoring_image(true), windows,
                      windows.size(), scratch, serial);
  std::vector<std::size_t> serial_ranks(windows.size());
  model.score_ranks_batched(model.build_scoring_image(true), windows,
                            windows.size(), scratch, serial_ranks);
  EXPECT_NE(serial, model.score_log_likelihood(windows))
      << "int8 scores equal the fp32 ones: the image is not int8";
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
