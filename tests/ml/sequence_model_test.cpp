#include "ml/sequence_model.h"

#include <gtest/gtest.h>

#include <sstream>

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
// both kernel tiers, at batch sizes that hit the 1-row GEMM tail and the
// 4-row tile. Hidden 12 also leaves a 4-element tail after the 8-wide
// vector cell loop.
TEST(LstmStep, ReproducesForwardLastHiddenInBothTiers) {
  const bool simd_default = simd_kernels_enabled();
  for (const bool simd : {true, false}) {
    set_simd_kernels_enabled(simd);
    for (const std::size_t batch : {1, 7, 64}) {
      Rng rng(11);
      Lstm lstm("lstm", 5, 12, rng);
      std::vector<Matrix> inputs(6, Matrix(batch, 5));
      for (Matrix& x : inputs) {
        for (float& v : x.storage()) v = static_cast<float>(rng.uniform(-2, 2));
      }
      const Matrix last = lstm.forward(inputs).back();

      std::vector<float> packed;
      pack_transb(lstm.weight().value, packed);
      LstmState state = lstm.make_state(batch);
      Matrix concat;
      Matrix gates;
      for (const Matrix& x : inputs) lstm.step(x, state, packed, concat, gates);
      EXPECT_EQ(state.h.storage(), last.storage())
          << "simd " << simd << " batch " << batch;
    }
  }
  set_simd_kernels_enabled(simd_default);
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
