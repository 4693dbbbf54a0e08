#include "ml/sequence_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "kernel_tiers.h"
#include "ml/loss.h"
#include "ml/lstm.h"
#include "ml/matrix.h"
#include "ml/optimizer.h"
#include "util/check.h"
#include "util/rng.h"

namespace nfv::ml {
namespace {

using nfv::util::Rng;

SequenceModelConfig small_config() {
  SequenceModelConfig config;
  config.vocab = 8;
  config.embed_dim = 6;
  config.hidden = 12;
  config.layers = 2;
  config.window = 4;
  return config;
}

/// Deterministic pattern: template (i % vocab) follows i-1, so the next
/// template is always (last + 1) % vocab. Learnable by a tiny LSTM.
WindowBatch cyclic_windows(std::size_t vocab, std::size_t window,
                           std::size_t count) {
  WindowBatch out;
  for (std::size_t s = 0; s < count; ++s) {
    for (std::size_t j = 0; j < window; ++j) {
      out.ids.push_back(static_cast<std::int32_t>((s + j) % vocab));
      out.dts.push_back(30.0f);
    }
    out.targets.push_back(static_cast<std::int32_t>((s + window) % vocab));
  }
  return out;
}

TEST(SequenceModel, LearnsCyclicPattern) {
  Rng rng(3);
  SequenceModel model(small_config(), rng);
  const WindowBatch batch = cyclic_windows(8, 4, 64);

  Adam adam(5e-3f);
  adam.bind(model.params());
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int epoch = 0; epoch < 60; ++epoch) {
    const double loss = model.train_batch(batch, adam);
    if (epoch == 0) first_loss = loss;
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.2);

  // The learned model should assign high probability to the true target.
  const std::vector<double> lls = model.score_log_likelihood(batch);
  double mean_ll = 0.0;
  for (double ll : lls) mean_ll += ll;
  mean_ll /= static_cast<double>(lls.size());
  EXPECT_GT(mean_ll, std::log(0.5));
}

TEST(SequenceModel, AnomalousContinuationScoresLow) {
  Rng rng(3);
  SequenceModel model(small_config(), rng);
  const WindowBatch batch = cyclic_windows(8, 4, 64);
  Adam adam(5e-3f);
  adam.bind(model.params());
  for (int epoch = 0; epoch < 60; ++epoch) model.train_batch(batch, adam);

  WindowBatch pair;  // the first window, then it with a wrong continuation
  pair.append_row(batch, 0, 4);
  pair.append_row(batch, 0, 4);
  pair.targets[1] = (pair.targets[0] + 3) % 8;
  const auto lls = model.score_log_likelihood(pair);
  EXPECT_GT(lls[0], lls[1] + 1.0);  // ≥ e× likelihood gap
}

TEST(SequenceModel, PredictReturnsDistribution) {
  Rng rng(5);
  SequenceModel model(small_config(), rng);
  const WindowBatch batch = cyclic_windows(8, 4, 3);
  Matrix probs;
  model.predict(batch, probs);
  ASSERT_EQ(probs.rows(), 3u);
  ASSERT_EQ(probs.cols(), 8u);
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    float total = 0.0f;
    for (std::size_t c = 0; c < probs.cols(); ++c) {
      EXPECT_GE(probs.at(r, c), 0.0f);
      total += probs.at(r, c);
    }
    EXPECT_NEAR(total, 1.0f, 1e-4f);
  }
}

TEST(SequenceModel, PredictMatchesTrainingForwardPass) {
  // The stateful inference path must agree with the cached training path.
  Rng rng(7);
  SequenceModel model(small_config(), rng);
  const WindowBatch batch = cyclic_windows(8, 4, 5);

  Matrix probs;
  model.predict(batch, probs);
  // Run a zero-lr train step; the reported loss must equal the mean
  // -log p(target) from predict's probabilities.
  double expected = 0.0;
  for (std::size_t r = 0; r < batch.size(); ++r) {
    expected -= log_prob(probs, r, batch.targets[r]);
  }
  expected /= static_cast<double>(batch.size());
  Sgd zero_lr(0.0f);
  zero_lr.bind(model.params());
  const double loss = model.train_batch(batch, zero_lr);
  EXPECT_NEAR(loss, expected, 1e-4);
}

/// The state after k fused scoring steps of `lstm` as a layer above the
/// first (input from x, bias added), zero state first; h_k−1 is in
/// h[(k − 1) % 2].
LstmState score_steps(const Lstm& lstm, const std::vector<Matrix>& inputs) {
  const LstmStepWeights weights = lstm.step_weights(false, false);
  LstmState state;
  const std::size_t batch = inputs.front().rows();
  lstm.reset_state(state, batch);
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    LstmStepInput input;
    input.x = &inputs[t];
    lstm.score_step(weights, input, t, state);
  }
  return state;
}

// The fused scoring step keeps the training forward's k-ascending chains
// and its gate and cell kernels: k score_step calls reproduce forward()'s
// last hidden state bit for bit in every kernel tier, at batch sizes that
// hit the 1-row tile and the 2- and 4-row tiles (70: a second 64-row
// block), and at hidden 12, 16, 24, 40 and 72: whole 16-unit blocks, an
// 8-lane half block, libm tails and, at 72, a [x, h] depth of 77 that
// runs in two chunks. The SIMD tiers also match each other.
TEST(LstmStep, ReproducesForwardLastHiddenInBothTiers) {
  std::map<std::pair<std::size_t, std::size_t>, std::vector<float>> simd;
  const std::string missing = for_each_kernel_tier([&](KernelTier tier) {
    for (const std::size_t hidden : {12, 16, 24, 40, 72}) {
      for (const std::size_t batch : {1, 7, 64, 70}) {
        Rng rng(11);
        Lstm lstm("lstm", 5, hidden, rng);
        std::vector<Matrix> inputs(6, Matrix(batch, 5));
        for (Matrix& x : inputs) {
          for (float& v : x.storage()) {
            v = static_cast<float>(rng.uniform(-2, 2));
          }
        }
        const Matrix last = lstm.forward(inputs).back();
        const Matrix stepped =
            score_steps(lstm, inputs).h[(inputs.size() - 1) % 2];
        EXPECT_EQ(stepped.storage(), last.storage())
            << kernel_tier_name(tier) << " hidden " << hidden << " batch "
            << batch;
        if (tier == KernelTier::kBaseline) continue;
        const auto [it, first] =
            simd.emplace(std::pair{hidden, batch}, last.storage());
        EXPECT_TRUE(first || it->second == last.storage())
            << kernel_tier_name(tier) << " differs from the other SIMD tier"
            << " at hidden " << hidden << " batch " << batch;
      }
    }
  });
  if (!missing.empty()) GTEST_SKIP() << "CPU lacks the " << missing << " tier";
}

// A window's first step starts from the zero state, so every layer above
// the first multiplies its input by the input block W[:, :I] alone. The
// terms that skips are zeros at the end of each k-ascending chain, so the
// product, and the fused first step built on it, match the full concat
// GEMM bit for bit in every kernel tier, at batches that hit the 1-row
// tail and the row tiles and at hidden 12, 16, 24 and 40 (vector tails).
TEST(LstmStep, ZeroStateInputBlockMatchesConcatGemmInBothTiers) {
  std::map<std::pair<std::size_t, std::size_t>, std::vector<float>> simd;
  const std::string missing = for_each_kernel_tier([&](KernelTier tier) {
    for (const std::size_t hidden : {12, 16, 24, 40}) {
      for (const std::size_t batch : {1, 7, 64}) {
        Rng rng(23);
        Lstm lstm("lstm", 5, hidden, rng);
        Matrix x(batch, 5);
        for (float& v : x.storage()) v = static_cast<float>(rng.uniform(-2, 2));
        Matrix concat(batch, 5 + hidden);  // [x, h = 0]
        for (std::size_t r = 0; r < batch; ++r) {
          std::copy_n(x.row(r), 5, concat.row(r));
        }

        std::vector<float> full;
        std::vector<float> input_block;
        pack_transb(lstm.weight().value, full);
        pack_transb(lstm.weight().value, 0, 5, input_block);
        Matrix via_concat;
        Matrix via_block;
        matmul_transb_packed(concat, lstm.weight().value, full, via_concat);
        matmul_transb_packed(x, 4 * hidden, input_block, via_block);
        EXPECT_EQ(via_block.storage(), via_concat.storage())
            << kernel_tier_name(tier) << " hidden " << hidden << " batch "
            << batch;

        // The zero-state step (t = 0: the input block alone) against a
        // step past t = 0 from a zero h and c, which runs the full [x, h]
        // chains; and against forward(), the concat GEMM on a zero state.
        const std::vector<Matrix> inputs{x};
        const LstmState zero_step = score_steps(lstm, inputs);
        LstmState full_step;
        lstm.reset_state(full_step, batch);
        full_step.h[0].zero();
        LstmStepInput input;
        input.x = &x;
        lstm.score_step(lstm.step_weights(false, false), input, 1,
                        full_step);
        EXPECT_EQ(zero_step.h[0].storage(), full_step.h[1].storage())
            << kernel_tier_name(tier) << " hidden " << hidden << " batch "
            << batch;
        for (std::size_t r = 0; r < batch; ++r) {
          EXPECT_TRUE(std::equal(zero_step.c.row(r),
                                 zero_step.c.row(r) + hidden,
                                 full_step.c.row(r)))
              << kernel_tier_name(tier) << " hidden " << hidden << " batch "
              << batch << " c row " << r;
        }
        EXPECT_EQ(zero_step.h[0].storage(),
                  lstm.forward(inputs).back().storage())
            << kernel_tier_name(tier) << " hidden " << hidden << " batch "
            << batch;
        if (tier == KernelTier::kBaseline) continue;
        const auto [it, first] =
            simd.emplace(std::pair{hidden, batch}, zero_step.h[0].storage());
        EXPECT_TRUE(first || it->second == zero_step.h[0].storage())
            << kernel_tier_name(tier) << " differs from the other SIMD tier"
            << " at hidden " << hidden << " batch " << batch;
      }
    }
  });
  if (!missing.empty()) GTEST_SKIP() << "CPU lacks the " << missing << " tier";
}

/// Float64 concat-and-softmax reference of the model's log-likelihood:
/// the textbook LSTM equations on the fp32 weights, every sum in double,
/// floored at log(1e-12) like the scorer.
double reference_log_likelihood(const SequenceModel& model,
                                const WindowBatch& windows, std::size_t w) {
  const SequenceModelConfig& config = model.config();
  const std::vector<const Param*> params = model.params();
  const std::size_t h = config.hidden;
  const auto sigmoid = [](double z) { return 1.0 / (1.0 + std::exp(-z)); };
  std::vector<std::vector<double>> hidden(config.layers,
                                          std::vector<double>(h, 0.0));
  std::vector<std::vector<double>> cell = hidden;
  for (std::size_t t = 0; t < config.window; ++t) {
    const std::size_t at = w * config.window + t;
    const float* embed =
        params[0]->value.row(static_cast<std::size_t>(windows.ids[at]));
    std::vector<double> x(embed, embed + config.embed_dim);
    x.push_back(normalize_dt(windows.dts[at]));
    for (std::size_t l = 0; l < config.layers; ++l) {
      const Matrix& w = params[1 + 2 * l]->value;
      const Matrix& b = params[2 + 2 * l]->value;
      std::vector<double> z(4 * h);
      for (std::size_t j = 0; j < 4 * h; ++j) {
        double sum = b.at(0, j);
        for (std::size_t i = 0; i < x.size(); ++i) sum += w.at(j, i) * x[i];
        for (std::size_t m = 0; m < h; ++m) {
          sum += w.at(j, x.size() + m) * hidden[l][m];
        }
        z[j] = sum;
      }
      for (std::size_t m = 0; m < h; ++m) {
        cell[l][m] = sigmoid(z[h + m]) * cell[l][m] +
                     sigmoid(z[m]) * std::tanh(z[2 * h + m]);
        hidden[l][m] = sigmoid(z[3 * h + m]) * std::tanh(cell[l][m]);
      }
      x = hidden[l];
    }
  }
  const Matrix& w_out = params[params.size() - 2]->value;
  const Matrix& b_out = params.back()->value;
  std::vector<double> logits(config.vocab);
  for (std::size_t v = 0; v < config.vocab; ++v) {
    double sum = b_out.at(0, v);
    for (std::size_t m = 0; m < h; ++m) sum += w_out.at(v, m) * hidden.back()[m];
    logits[v] = sum;
  }
  const double top = *std::max_element(logits.begin(), logits.end());
  double total = 0.0;
  for (const double logit : logits) total += std::exp(logit - top);
  const double ll =
      logits[static_cast<std::size_t>(windows.targets[w])] - top -
      std::log(total);
  return std::max(ll, std::log(1e-12));
}

// The scoring image's forward pass (per-template layer-0 table, zero-state
// first steps, log-sum-exp head) against the float64 reference, in every
// kernel tier, at batches of 1, 7 and 64
// windows, hidden 12, 16, 24 and 40 (16-lane, 8-lane and scalar tails
// of the gate, cell and gather loops) and vocab 43 (two 16-lane vectors,
// one 8-lane vector and a scalar tail in the log-sum-exp). Gaps are whole
// seconds, as the runtime's are, four of them at and past the end of
// normalize_dt's table. One window's target logit is pushed far below the
// rest so its score sits on the log(1e-12) floor. The SIMD tiers' scores
// are also equal to each other bit for bit.
TEST(ScoringImage, ForwardMatchesFloat64ReferenceInBothTiers) {
  std::string missing;
  for (const std::size_t hidden : {12, 16, 24, 40}) {
    SequenceModelConfig config = small_config();
    config.vocab = 43;
    config.hidden = hidden;
    Rng rng(31);
    SequenceModel model(config, rng);
    // Class 10 is unreachable: its score clamps at log(1e-12).
    model.params().back()->value.at(0, 10) = -80.0f;

    WindowBatch examples;
    for (std::size_t e = 0; e < 64; ++e) {
      for (std::size_t t = 0; t < config.window; ++t) {
        examples.ids.push_back(
            static_cast<std::int32_t>(rng.uniform_index(10)));
        examples.dts.push_back(static_cast<float>(rng.uniform_index(600)));
      }
      examples.targets.push_back(
          static_cast<std::int32_t>(rng.uniform_index(10)));
    }
    examples.targets[5] = 10;
    // Whole-second gaps at both ends of normalize_dt's table and past it.
    const float far_gaps[] = {static_cast<float>(kDtTableSeconds - 1),
                              static_cast<float>(kDtTableSeconds),
                              static_cast<float>(kDtTableSeconds + 1), 1e6f};
    for (std::size_t g = 0; g < 4; ++g) {
      examples.dts[g * config.window + g % config.window] = far_gaps[g];
    }
    std::vector<double> reference;
    for (std::size_t w = 0; w < examples.size(); ++w) {
      reference.push_back(reference_log_likelihood(model, examples, w));
    }
    ASSERT_DOUBLE_EQ(reference[5], std::log(1e-12));

    std::map<std::size_t, std::vector<double>> simd;
    missing = for_each_kernel_tier([&](KernelTier tier) {
      const SequenceModel::ScoringImage image = model.build_scoring_image();
      SequenceModel::InferenceScratch scratch;
      for (const std::size_t batch : {1, 7, 64}) {
        WindowBatch windows;
        for (std::size_t i = 0; i < batch; ++i) {
          windows.append_row(examples, i, config.window);
        }
        std::vector<double> scores(batch);
        model.score_batched(image, windows, batch, scratch, scores);
        for (std::size_t i = 0; i < batch; ++i) {
          EXPECT_NEAR(scores[i], reference[i], 1e-4)
              << "hidden " << hidden << " " << kernel_tier_name(tier)
              << " batch " << batch << " window " << i;
        }
        if (tier == KernelTier::kBaseline) continue;
        const auto [it, first] = simd.emplace(batch, scores);
        EXPECT_TRUE(first || it->second == scores)
            << kernel_tier_name(tier) << " differs from the other SIMD "
            << "tier at hidden " << hidden << " batch " << batch;
      }
    });
  }
  if (!missing.empty()) GTEST_SKIP() << "CPU lacks the " << missing << " tier";
}

// The image is a snapshot: scoring refuses one built before grow_vocab.
TEST(ScoringImage, StaleImageIsRejected) {
  Rng rng(37);
  SequenceModel model(small_config(), rng);
  const SequenceModel::ScoringImage image = model.build_scoring_image();
  EXPECT_FALSE(image.empty());
  Rng grow_rng(1);
  model.grow_vocab(12, grow_rng);
  const WindowBatch windows = cyclic_windows(8, 4, 1);
  SequenceModel::InferenceScratch scratch;
  std::vector<double> scores(1);
  EXPECT_THROW(model.score_batched(image, windows, 1, scratch, scores),
               nfv::util::CheckError);
  model.score_batched(model.build_scoring_image(), windows, 1, scratch,
                      scores);
  EXPECT_EQ(scores, model.score_log_likelihood(windows));
}

TEST(SequenceModel, CopyYieldsIndependentTwin) {
  Rng rng(9);
  SequenceModel teacher(small_config(), rng);
  SequenceModel student = teacher;  // teacher → student copy

  const WindowBatch batch = cyclic_windows(8, 4, 16);

  const auto before = teacher.score_log_likelihood(batch);
  Adam adam(1e-2f);
  adam.bind(student.params());
  for (int i = 0; i < 10; ++i) student.train_batch(batch, adam);
  const auto teacher_after = teacher.score_log_likelihood(batch);
  const auto student_after = student.score_log_likelihood(batch);

  // Teacher unchanged; student moved.
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(before[i], teacher_after[i]);
  }
  double diff = 0.0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    diff += std::abs(student_after[i] - before[i]);
  }
  EXPECT_GT(diff, 1e-3);
}

TEST(SequenceModel, FreezeLowerLayersPinsBottomWeights) {
  Rng rng(11);
  SequenceModel model(small_config(), rng);
  model.freeze_lower_layers(1);

  const WindowBatch batch = cyclic_windows(8, 4, 16);

  const std::vector<Param*> params = model.params();
  // params order: embedding, lstm0 (w,b), lstm1 (w,b), dense (w,b).
  std::vector<Matrix> before;
  for (Param* p : params) before.push_back(p->value);

  Adam adam(1e-2f);
  adam.bind(params);
  for (int i = 0; i < 5; ++i) model.train_batch(batch, adam);

  auto changed = [&](std::size_t i) {
    double diff = 0.0;
    for (std::size_t j = 0; j < before[i].size(); ++j) {
      diff += std::abs(before[i].data()[j] - params[i]->value.data()[j]);
    }
    return diff > 1e-6;
  };
  EXPECT_FALSE(changed(0));  // embedding frozen
  EXPECT_FALSE(changed(1));  // lstm0 weight frozen
  EXPECT_FALSE(changed(2));  // lstm0 bias frozen
  EXPECT_TRUE(changed(3));   // lstm1 trains
  EXPECT_TRUE(changed(5));   // dense trains

  model.freeze_lower_layers(0);
  for (Param* p : model.params()) EXPECT_FALSE(p->frozen);
}

TEST(SequenceModel, GrowVocabPreservesOldPredictions) {
  Rng rng(13);
  SequenceModel model(small_config(), rng);
  const WindowBatch batch = cyclic_windows(8, 4, 8);
  const auto before = model.score_log_likelihood(batch);

  Rng grow_rng(99);
  model.grow_vocab(12, grow_rng);
  EXPECT_EQ(model.config().vocab, 12u);
  const auto after = model.score_log_likelihood(batch);
  // New logits shift the softmax denominator slightly but ordering-scale
  // changes must be small (new rows are near-random, low mass).
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(before[i], after[i], 1.0);
  }

  // New ids are now legal inputs/targets.
  WindowBatch grown = cyclic_windows(8, 4, 1);
  grown.targets[0] = 11;
  EXPECT_NO_THROW(model.score_log_likelihood(grown));
}

TEST(SequenceModel, GrowVocabCannotShrink) {
  Rng rng(13);
  SequenceModel model(small_config(), rng);
  Rng grow_rng(1);
  EXPECT_THROW(model.grow_vocab(4, grow_rng), nfv::util::CheckError);
}

TEST(SequenceModel, SaveLoadRoundTrip) {
  Rng rng(17);
  SequenceModel model(small_config(), rng);
  const WindowBatch batch = cyclic_windows(8, 4, 8);
  Adam adam(1e-2f);
  adam.bind(model.params());
  for (int i = 0; i < 5; ++i) model.train_batch(batch, adam);

  std::stringstream stream;
  model.save(stream);
  SequenceModel loaded = SequenceModel::load(stream);
  EXPECT_EQ(loaded.config().vocab, model.config().vocab);
  EXPECT_EQ(loaded.config().window, model.config().window);

  const auto original = model.score_log_likelihood(batch);
  const auto restored = loaded.score_log_likelihood(batch);
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(original[i], restored[i], 1e-6);
  }
}

TEST(SequenceModel, LoadRejectsGarbage) {
  std::stringstream stream;
  stream << "not a checkpoint";
  EXPECT_THROW(SequenceModel::load(stream), nfv::util::CheckError);
}

TEST(SequenceModel, RejectsBadWindows) {
  Rng rng(19);
  SequenceModel model(small_config(), rng);
  WindowBatch bad;
  bad.ids = {0, 1};  // wrong window length
  bad.dts = {1.0f, 1.0f};
  bad.targets = {0};
  EXPECT_THROW(model.score_log_likelihood(bad), nfv::util::CheckError);
  Sgd sgd(0.1f);
  sgd.bind(model.params());
  EXPECT_THROW(model.train_batch(bad, sgd), nfv::util::CheckError);

  WindowBatch out_of_vocab = cyclic_windows(8, 4, 1);
  out_of_vocab.ids[0] = 99;
  EXPECT_THROW(model.score_log_likelihood(out_of_vocab),
               nfv::util::CheckError);
}

TEST(NormalizeDt, MonotoneAndBounded) {
  EXPECT_FLOAT_EQ(normalize_dt(0.0f), 0.0f);
  EXPECT_GT(normalize_dt(100.0f), normalize_dt(10.0f));
  EXPECT_LT(normalize_dt(7200.0f), 1.0f);
  EXPECT_FLOAT_EQ(normalize_dt(-5.0f), 0.0f);  // clamped
}

// Whole seconds below kDtTableSeconds read a table; every input gets the
// bits of the expression, table or not: each whole second up to one past
// the table's end, and −0.0f (std::max keeps it, log1p(−0) is −0), a
// negative, a fraction, a far gap, NaN and ±Inf.
TEST(NormalizeDt, TableMatchesExpressionBitForBit) {
  const auto expected = [](float dt) {
    return std::bit_cast<std::uint32_t>(std::log1p(std::max(dt, 0.0f)) *
                                        0.1f);
  };
  for (std::size_t s = 0; s <= kDtTableSeconds + 1; ++s) {
    const auto dt = static_cast<float>(s);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(normalize_dt(dt)), expected(dt))
        << "dt " << s;
  }
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (const float dt : {-0.0f, -1.0f, 0.5f, 1e9f,
                         std::numeric_limits<float>::quiet_NaN(), kInf,
                         -kInf}) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(normalize_dt(dt)), expected(dt))
        << "dt " << dt;
  }
  EXPECT_TRUE(std::signbit(normalize_dt(-0.0f)));
}

}  // namespace
}  // namespace nfv::ml
