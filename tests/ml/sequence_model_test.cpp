#include "ml/sequence_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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
std::vector<SeqExample> cyclic_examples(std::size_t vocab,
                                        std::size_t window,
                                        std::size_t count) {
  std::vector<SeqExample> out;
  for (std::size_t s = 0; s < count; ++s) {
    SeqExample ex;
    for (std::size_t j = 0; j < window; ++j) {
      ex.ids.push_back(static_cast<std::int32_t>((s + j) % vocab));
      ex.dts.push_back(30.0f);
    }
    ex.target = static_cast<std::int32_t>((s + window) % vocab);
    out.push_back(std::move(ex));
  }
  return out;
}

TEST(SequenceModel, LearnsCyclicPattern) {
  Rng rng(3);
  SequenceModel model(small_config(), rng);
  const auto examples = cyclic_examples(8, 4, 64);
  std::vector<const SeqExample*> batch;
  for (const auto& ex : examples) batch.push_back(&ex);

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
  const auto examples = cyclic_examples(8, 4, 64);
  std::vector<const SeqExample*> batch;
  for (const auto& ex : examples) batch.push_back(&ex);
  Adam adam(5e-3f);
  adam.bind(model.params());
  for (int epoch = 0; epoch < 60; ++epoch) model.train_batch(batch, adam);

  SeqExample normal = examples[0];
  SeqExample anomalous = examples[0];
  anomalous.target = (normal.target + 3) % 8;  // wrong continuation
  const auto lls =
      model.score_log_likelihood({&normal, &anomalous});
  EXPECT_GT(lls[0], lls[1] + 1.0);  // ≥ e× likelihood gap
}

TEST(SequenceModel, PredictReturnsDistribution) {
  Rng rng(5);
  SequenceModel model(small_config(), rng);
  const auto examples = cyclic_examples(8, 4, 3);
  std::vector<const SeqExample*> batch;
  for (const auto& ex : examples) batch.push_back(&ex);
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
  const auto examples = cyclic_examples(8, 4, 5);
  std::vector<const SeqExample*> batch;
  for (const auto& ex : examples) batch.push_back(&ex);

  Matrix probs;
  model.predict(batch, probs);
  // Run a zero-lr train step; the reported loss must equal the mean
  // -log p(target) from predict's probabilities.
  double expected = 0.0;
  for (std::size_t r = 0; r < batch.size(); ++r) {
    expected -= log_prob(probs, r, batch[r]->target);
  }
  expected /= static_cast<double>(batch.size());
  Sgd zero_lr(0.0f);
  zero_lr.bind(model.params());
  const double loss = model.train_batch(batch, zero_lr);
  EXPECT_NEAR(loss, expected, 1e-4);
}

// Inference stepping runs the training forward's gate and cell kernels:
// k Lstm::step calls reproduce forward()'s last hidden state bit for bit in
// every kernel tier, at batch sizes that hit the 1-row GEMM tail and the
// 4-row tile, and at hidden 12, 16, 24 and 40: 16-lane, 8-lane and scalar
// tails of the gate and cell loops. The SIMD tiers also match each other.
TEST(LstmStep, ReproducesForwardLastHiddenInBothTiers) {
  std::map<std::pair<std::size_t, std::size_t>, std::vector<float>> simd;
  const std::string missing = for_each_kernel_tier([&](KernelTier tier) {
    for (const std::size_t hidden : {12, 16, 24, 40}) {
      for (const std::size_t batch : {1, 7, 64}) {
        Rng rng(11);
        Lstm lstm("lstm", 5, hidden, rng);
        std::vector<Matrix> inputs(6, Matrix(batch, 5));
        for (Matrix& x : inputs) {
          for (float& v : x.storage()) {
            v = static_cast<float>(rng.uniform(-2, 2));
          }
        }
        const Matrix last = lstm.forward(inputs).back();

        std::vector<float> packed;
        pack_transb(lstm.weight().value, packed);
        LstmState state = lstm.make_state(batch);
        Matrix concat;
        Matrix gates;
        for (const Matrix& x : inputs) {
          lstm.step(x, state, packed, concat, gates);
        }
        EXPECT_EQ(state.h.storage(), last.storage())
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
// product, and the step built on it, match the full concat GEMM bit for
// bit in every kernel tier, at batches that hit the 1-row tail and the
// 4-row tile and at hidden 12, 16, 24 and 40 (vector tails).
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

        LstmState stepped = lstm.make_state(batch);
        LstmState zero_step = lstm.make_state(batch);
        Matrix scratch;
        Matrix gates;
        lstm.step(x, stepped, full, scratch, gates);
        lstm.step_zero_state(x, zero_step, input_block, gates);
        EXPECT_EQ(zero_step.h.storage(), stepped.h.storage());
        EXPECT_EQ(zero_step.c.storage(), stepped.c.storage());
        if (tier == KernelTier::kBaseline) continue;
        const auto [it, first] =
            simd.emplace(std::pair{hidden, batch}, zero_step.h.storage());
        EXPECT_TRUE(first || it->second == zero_step.h.storage())
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
                                const SeqExample& ex) {
  const SequenceModelConfig& config = model.config();
  const std::vector<const Param*> params = model.params();
  const std::size_t h = config.hidden;
  const auto sigmoid = [](double z) { return 1.0 / (1.0 + std::exp(-z)); };
  std::vector<std::vector<double>> hidden(config.layers,
                                          std::vector<double>(h, 0.0));
  std::vector<std::vector<double>> cell = hidden;
  for (std::size_t t = 0; t < config.window; ++t) {
    const float* embed =
        params[0]->value.row(static_cast<std::size_t>(ex.ids[t]));
    std::vector<double> x(embed, embed + config.embed_dim);
    if (config.use_dt_feature) x.push_back(normalize_dt(ex.dts[t]));
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
      logits[static_cast<std::size_t>(ex.target)] - top - std::log(total);
  return std::max(ll, std::log(1e-12));
}

// The scoring image's forward pass (per-template layer-0 table, zero-state
// first steps, log-sum-exp head) against the float64 reference, in every
// kernel tier, with and without the Δt feature, at batches of 1, 7 and 64
// windows, hidden 12, 16, 24 and 40 (16-lane, 8-lane and scalar tails
// of the gate, cell and gather loops) and vocab 43 (two 16-lane vectors,
// one 8-lane vector and a scalar tail in the log-sum-exp). One window's
// target logit is pushed far below the rest so its score sits on the
// log(1e-12) floor. The SIMD tiers' scores are also equal to each other
// bit for bit.
TEST(ScoringImage, ForwardMatchesFloat64ReferenceInBothTiers) {
  std::string missing;
  for (const std::size_t hidden : {12, 16, 24, 40}) {
    for (const bool use_dt : {true, false}) {
      SequenceModelConfig config = small_config();
      config.use_dt_feature = use_dt;
      config.vocab = 43;
      config.hidden = hidden;
      Rng rng(31);
      SequenceModel model(config, rng);
      // Class 10 is unreachable: its score clamps at log(1e-12).
      model.params().back()->value.at(0, 10) = -80.0f;

      std::vector<SeqExample> examples(64);
      for (SeqExample& ex : examples) {
        for (std::size_t t = 0; t < config.window; ++t) {
          ex.ids.push_back(static_cast<std::int32_t>(rng.uniform_index(10)));
          ex.dts.push_back(static_cast<float>(rng.uniform_index(600)));
        }
        ex.target = static_cast<std::int32_t>(rng.uniform_index(10));
      }
      examples[5].target = 10;
      std::vector<double> reference;
      for (const SeqExample& ex : examples) {
        reference.push_back(reference_log_likelihood(model, ex));
      }
      ASSERT_DOUBLE_EQ(reference[5], std::log(1e-12));

      std::map<std::size_t, std::vector<double>> simd;
      missing = for_each_kernel_tier([&](KernelTier tier) {
        const SequenceModel::ScoringImage image = model.build_scoring_image();
        SequenceModel::InferenceScratch scratch;
        for (const std::size_t batch : {1, 7, 64}) {
          WindowBatch windows;
          for (std::size_t i = 0; i < batch; ++i) {
            windows.push_back(examples[i], config.window);
          }
          std::vector<double> scores(batch);
          model.score_batched(image, windows, batch, scratch, scores);
          for (std::size_t i = 0; i < batch; ++i) {
            EXPECT_NEAR(scores[i], reference[i], 1e-4)
                << "hidden " << hidden << " use_dt " << use_dt << " "
                << kernel_tier_name(tier) << " batch " << batch
                << " window " << i;
          }
          if (tier == KernelTier::kBaseline) continue;
          const auto [it, first] = simd.emplace(batch, scores);
          EXPECT_TRUE(first || it->second == scores)
              << kernel_tier_name(tier) << " differs from the other SIMD "
              << "tier at hidden " << hidden << " use_dt " << use_dt
              << " batch " << batch;
        }
      });
    }
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
  const SeqExample example = cyclic_examples(8, 4, 1)[0];
  WindowBatch windows;
  windows.push_back(example, 4);
  SequenceModel::InferenceScratch scratch;
  std::vector<double> scores(1);
  EXPECT_THROW(model.score_batched(image, windows, 1, scratch, scores),
               nfv::util::CheckError);
  model.score_batched(model.build_scoring_image(), windows, 1, scratch,
                      scores);
  EXPECT_EQ(scores, model.score_log_likelihood({&example}));
}

TEST(SequenceModel, CopyYieldsIndependentTwin) {
  Rng rng(9);
  SequenceModel teacher(small_config(), rng);
  SequenceModel student = teacher;  // teacher → student copy

  const auto examples = cyclic_examples(8, 4, 16);
  std::vector<const SeqExample*> batch;
  for (const auto& ex : examples) batch.push_back(&ex);

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

  const auto examples = cyclic_examples(8, 4, 16);
  std::vector<const SeqExample*> batch;
  for (const auto& ex : examples) batch.push_back(&ex);

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
  const auto examples = cyclic_examples(8, 4, 8);
  std::vector<const SeqExample*> batch;
  for (const auto& ex : examples) batch.push_back(&ex);
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
  SeqExample ex = examples[0];
  ex.target = 11;
  EXPECT_NO_THROW(model.score_log_likelihood({&ex}));
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
  const auto examples = cyclic_examples(8, 4, 8);
  std::vector<const SeqExample*> batch;
  for (const auto& ex : examples) batch.push_back(&ex);
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
  SeqExample bad;
  bad.ids = {0, 1};  // wrong window length
  bad.dts = {1.0f, 1.0f};
  bad.target = 0;
  EXPECT_THROW(model.score_log_likelihood({&bad}), nfv::util::CheckError);

  SeqExample out_of_vocab = cyclic_examples(8, 4, 1)[0];
  out_of_vocab.ids[0] = 99;
  EXPECT_THROW(model.score_log_likelihood({&out_of_vocab}),
               nfv::util::CheckError);
}

TEST(NormalizeDt, MonotoneAndBounded) {
  EXPECT_FLOAT_EQ(normalize_dt(0.0f), 0.0f);
  EXPECT_GT(normalize_dt(100.0f), normalize_dt(10.0f));
  EXPECT_LT(normalize_dt(7200.0f), 1.0f);
  EXPECT_FLOAT_EQ(normalize_dt(-5.0f), 0.0f);  // clamped
}

}  // namespace
}  // namespace nfv::ml
