// Finite-difference gradient checks for the manual-backprop layers. These
// are the load-bearing tests of the ML substrate: if backprop is right,
// training dynamics follow.
//
// Two granularities share this file: per-layer checks (Dense, Lstm, the
// losses, one tiny end-to-end model) and the training-fast-path checks
// (suite GradCheckTrainingPath) that use batches wide enough to engage
// the packed backward kernels, the fused two-phase BPTT, and the
// destination-sharded embedding scatter — checked piecewise so a
// regression in one fused kernel names the layer (and gate) it broke.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "ml/dense.h"
#include "ml/loss.h"
#include "ml/lstm.h"
#include "ml/optimizer.h"
#include "ml/sequence_model.h"
#include "util/rng.h"

namespace nfv::ml {
namespace {

using nfv::util::Rng;

constexpr float kEps = 5e-3f;
constexpr double kRelTol = 3e-2;
constexpr double kAbsFloor = 2e-4;

void expect_close(double analytic, double numeric, const std::string& what,
                  double abs_floor = kAbsFloor, double rel_tol = kRelTol) {
  const double scale =
      std::max({std::abs(analytic), std::abs(numeric), abs_floor});
  EXPECT_LT(std::abs(analytic - numeric) / scale, rel_tol)
      << what << ": analytic=" << analytic << " numeric=" << numeric;
}

/// Optimizer that records gradients without touching the weights — lets us
/// extract analytic gradients from SequenceModel::train_batch.
class CaptureOptimizer final : public Optimizer {
 public:
  void bind(std::vector<Param*> params) override {
    params_ = std::move(params);
  }
  void step() override {
    captured_.clear();
    for (Param* p : params_) {
      captured_.push_back(p->grad);
      p->zero_grad();
    }
  }
  void set_learning_rate(float) override {}
  float learning_rate() const override { return 0.0f; }
  const std::vector<Matrix>& captured() const { return captured_; }

 private:
  std::vector<Param*> params_;
  std::vector<Matrix> captured_;
};

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng,
                     float scale = 1.0f) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.uniform(-scale, scale));
  }
  return m;
}

double weighted_sum(const Matrix& m, const Matrix& weights) {
  double sum = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    sum += static_cast<double>(m.data()[i]) * weights.data()[i];
  }
  return sum;
}

TEST(GradientCheck, DenseWeightsBiasAndInput) {
  Rng rng(7);
  Dense layer("d", 4, 5, Activation::kTanh, rng);
  const Matrix input = random_matrix(3, 4, rng);
  const Matrix loss_weights = random_matrix(3, 5, rng);

  // Analytic gradients.
  layer.forward(input);
  const Matrix& grad_input = layer.backward(loss_weights);

  auto loss_at = [&](const Matrix& x) {
    Dense& l = layer;
    // forward() caches; safe because we re-run forward before backward.
    return weighted_sum(l.forward(x), loss_weights);
  };

  // Input gradient.
  for (std::size_t i = 0; i < input.size(); ++i) {
    Matrix perturbed = input;
    perturbed.data()[i] += kEps;
    const double up = loss_at(perturbed);
    perturbed.data()[i] -= 2 * kEps;
    const double down = loss_at(perturbed);
    expect_close(grad_input.data()[i], (up - down) / (2 * kEps),
                 "dense input grad " + std::to_string(i));
  }

  // Weight and bias gradients (recompute analytic on the original input).
  layer.weight().zero_grad();
  layer.bias().zero_grad();
  layer.forward(input);
  layer.backward(loss_weights);
  for (Param* p : layer.params()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      const float original = p->value.data()[i];
      p->value.data()[i] = original + kEps;
      const double up = loss_at(input);
      p->value.data()[i] = original - kEps;
      const double down = loss_at(input);
      p->value.data()[i] = original;
      expect_close(p->grad.data()[i], (up - down) / (2 * kEps),
                   p->name + " grad " + std::to_string(i));
    }
  }
}

TEST(GradientCheck, DenseReluAndSigmoid) {
  for (const Activation act : {Activation::kRelu, Activation::kSigmoid}) {
    Rng rng(11);
    Dense layer("d", 3, 3, act, rng);
    const Matrix input = random_matrix(2, 3, rng);
    const Matrix loss_weights = random_matrix(2, 3, rng);
    layer.forward(input);
    layer.backward(loss_weights);
    auto loss_at_weights = [&]() {
      return weighted_sum(layer.forward(input), loss_weights);
    };
    Param& w = layer.weight();
    for (std::size_t i = 0; i < w.value.size(); ++i) {
      const float original = w.value.data()[i];
      w.value.data()[i] = original + kEps;
      const double up = loss_at_weights();
      w.value.data()[i] = original - kEps;
      const double down = loss_at_weights();
      w.value.data()[i] = original;
      expect_close(w.grad.data()[i], (up - down) / (2 * kEps),
                   "act weight grad " + std::to_string(i));
    }
  }
}

TEST(GradientCheck, LstmFullBptt) {
  Rng rng(13);
  Lstm lstm("l", 3, 4, rng);
  const std::size_t steps = 3;
  const std::size_t batch = 2;
  std::vector<Matrix> inputs;
  std::vector<Matrix> loss_weights;
  for (std::size_t t = 0; t < steps; ++t) {
    inputs.push_back(random_matrix(batch, 3, rng));
    loss_weights.push_back(random_matrix(batch, 4, rng));
  }

  auto loss_now = [&]() {
    const std::vector<Matrix>& hs = lstm.forward(inputs);
    double sum = 0.0;
    for (std::size_t t = 0; t < steps; ++t) {
      sum += weighted_sum(hs[t], loss_weights[t]);
    }
    return sum;
  };

  loss_now();
  const std::vector<Matrix>& grad_inputs = lstm.backward(loss_weights);

  // Input gradients (all steps — exercises dh/dc carry across time).
  for (std::size_t t = 0; t < steps; ++t) {
    for (std::size_t i = 0; i < inputs[t].size(); ++i) {
      const float original = inputs[t].data()[i];
      inputs[t].data()[i] = original + kEps;
      const double up = loss_now();
      inputs[t].data()[i] = original - kEps;
      const double down = loss_now();
      inputs[t].data()[i] = original;
      expect_close(grad_inputs[t].data()[i], (up - down) / (2 * kEps),
                   "lstm input grad t" + std::to_string(t) + " i" +
                       std::to_string(i));
    }
  }

  // Weight/bias gradients.
  lstm.weight().zero_grad();
  lstm.bias().zero_grad();
  loss_now();
  lstm.backward(loss_weights);
  for (Param* p : lstm.params()) {
    // Sample a strided subset to keep the test fast.
    for (std::size_t i = 0; i < p->value.size(); i += 7) {
      const float original = p->value.data()[i];
      p->value.data()[i] = original + kEps;
      const double up = loss_now();
      p->value.data()[i] = original - kEps;
      const double down = loss_now();
      p->value.data()[i] = original;
      expect_close(p->grad.data()[i], (up - down) / (2 * kEps),
                   p->name + " grad " + std::to_string(i));
    }
  }
}

TEST(GradientCheck, SoftmaxCrossEntropyGradient) {
  Rng rng(17);
  const Matrix logits = random_matrix(3, 5, rng, 2.0f);
  const std::vector<std::int32_t> targets{1, 4, 0};
  Matrix grad;
  softmax_cross_entropy(logits, targets, grad);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Matrix perturbed = logits;
    Matrix scratch;
    perturbed.data()[i] += kEps;
    const double up = softmax_cross_entropy(perturbed, targets, scratch);
    perturbed.data()[i] -= 2 * kEps;
    const double down = softmax_cross_entropy(perturbed, targets, scratch);
    expect_close(grad.data()[i], (up - down) / (2 * kEps),
                 "xent grad " + std::to_string(i));
  }
}

TEST(GradientCheck, MseGradient) {
  Rng rng(19);
  const Matrix pred = random_matrix(2, 3, rng);
  const Matrix target = random_matrix(2, 3, rng);
  Matrix grad;
  mse_loss(pred, target, grad);
  for (std::size_t i = 0; i < pred.size(); ++i) {
    Matrix perturbed = pred;
    Matrix scratch;
    perturbed.data()[i] += kEps;
    const double up = mse_loss(perturbed, target, scratch);
    perturbed.data()[i] -= 2 * kEps;
    const double down = mse_loss(perturbed, target, scratch);
    expect_close(grad.data()[i], (up - down) / (2 * kEps),
                 "mse grad " + std::to_string(i));
  }
}

TEST(GradientCheck, SequenceModelEndToEnd) {
  Rng rng(23);
  SequenceModelConfig config;
  config.vocab = 6;
  config.embed_dim = 3;
  config.hidden = 4;
  config.layers = 2;
  config.window = 3;
  SequenceModel model(config, rng);

  WindowBatch batch;
  batch.ids = {0, 2, 4, 5, 5, 3};
  batch.dts = {10.0f, 30.0f, 5.0f, 100.0f, 2.0f, 60.0f};
  batch.targets = {1, 0};

  CaptureOptimizer capture;
  capture.bind(model.params());
  // Huge clip norm: gradients must reach the capture step unscaled.
  const double loss0 = model.train_batch(batch, capture, 1e9);
  EXPECT_GT(loss0, 0.0);
  const std::vector<Matrix> analytic = capture.captured();
  const std::vector<Param*> params = model.params();
  ASSERT_EQ(analytic.size(), params.size());

  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Param* p = params[pi];
    for (std::size_t i = 0; i < p->value.size(); i += 11) {
      const float original = p->value.data()[i];
      p->value.data()[i] = original + kEps;
      const double up = model.train_batch(batch, capture, 1e9);
      p->value.data()[i] = original - kEps;
      const double down = model.train_batch(batch, capture, 1e9);
      p->value.data()[i] = original;
      // The full model runs ~8 chained float ops deep; finite-difference
      // noise on a float loss is ~2e-5, so tiny gradients need a larger
      // absolute floor than the single-layer checks.
      expect_close(analytic[pi].data()[i], (up - down) / (2 * kEps),
                   p->name + " grad " + std::to_string(i),
                   /*abs_floor=*/1e-3, /*rel_tol=*/0.08);
    }
  }
}

// ---------------------------------------------------------------------------
// Training fast path: batches wide enough for the packed backward kernels.
// The loss is a float-accumulated mean over 16 examples; central
// differences of it carry ~1e-5 absolute noise, so these checks use the
// wider floor/tolerance (1e-3 / 0.08) throughout.

/// Model + batch fixture: sizes chosen so the concat width (embed+1+hidden)
/// and the 4H gate axis are NOT multiples of 8 — the packed kernels' column
/// and k tails are inside the checked region, not just the panel bodies.
struct CheckRig {
  SequenceModelConfig config;
  Rng init_rng;
  SequenceModel model;
  WindowBatch batch;
  CaptureOptimizer capture;
  std::vector<Param*> params;
  std::vector<Matrix> analytic;

  static SequenceModelConfig make_config() {
    SequenceModelConfig config;
    config.vocab = 9;
    config.embed_dim = 4;
    config.hidden = 5;
    config.layers = 2;
    config.window = 4;
    return config;
  }

  explicit CheckRig(std::uint64_t seed)
      : config(make_config()), init_rng(seed), model(config, init_rng) {
    Rng data_rng(seed + 1);
    // 16 windows: enough rows for the packed (≥ 8-row) batch kernels.
    for (std::size_t e = 0; e < 16; ++e) {
      for (std::size_t t = 0; t < config.window; ++t) {
        batch.ids.push_back(static_cast<std::int32_t>(
            data_rng.uniform_index(config.vocab)));
        batch.dts.push_back(static_cast<float>(data_rng.uniform(0.5, 300.0)));
      }
      batch.targets.push_back(
          static_cast<std::int32_t>(data_rng.uniform_index(config.vocab)));
    }
    capture.bind(model.params());
    params = model.params();
    // Huge clip norm: gradients must reach the capture step unscaled.
    model.train_batch(batch, capture, 1e9);
    analytic = capture.captured();
  }

  double loss() { return model.train_batch(batch, capture, 1e9); }

  /// Central-difference check of params[pi] elements [begin, end) with the
  /// given stride against the captured analytic gradients.
  void check_range(std::size_t pi, std::size_t begin, std::size_t end,
                   std::size_t stride, const std::string& what) {
    Param* p = params[pi];
    for (std::size_t i = begin; i < end; i += stride) {
      const float original = p->value.data()[i];
      p->value.data()[i] = original + kEps;
      const double up = loss();
      p->value.data()[i] = original - kEps;
      const double down = loss();
      p->value.data()[i] = original;
      expect_close(analytic[pi].data()[i], (up - down) / (2 * kEps),
                   what + " [" + std::to_string(i) + "]",
                   /*abs_floor=*/1e-3, /*rel_tol=*/0.08);
    }
  }
};

// params() order: embedding table, then per LSTM layer (weight, bias),
// then output dense (weight, bias).
constexpr std::size_t kEmbedIdx = 0;
constexpr std::size_t kLstm0WeightIdx = 1;
constexpr std::size_t kLstm0BiasIdx = 2;
constexpr std::size_t kLstm1WeightIdx = 3;
constexpr std::size_t kLstm1BiasIdx = 4;
constexpr std::size_t kOutWeightIdx = 5;
constexpr std::size_t kOutBiasIdx = 6;

TEST(GradCheckTrainingPath, EmbeddingTable) {
  CheckRig rig(31);
  // The sharded scatter accumulates per destination row; check every
  // element of every row so a row-bucketing bug cannot hide.
  rig.check_range(kEmbedIdx, 0, rig.params[kEmbedIdx]->value.size(), 1,
                  "embedding table grad");
}

TEST(GradCheckTrainingPath, LstmGateBlocksBothLayers) {
  CheckRig rig(37);
  const std::size_t h = rig.config.hidden;
  const char* gate_names[] = {"input", "forget", "cell", "output"};
  const struct {
    std::size_t weight_idx;
    std::size_t bias_idx;
    const char* layer;
  } layers[] = {{kLstm0WeightIdx, kLstm0BiasIdx, "lstm0"},
                {kLstm1WeightIdx, kLstm1BiasIdx, "lstm1"}};
  for (const auto& layer : layers) {
    const std::size_t w_cols = rig.params[layer.weight_idx]->value.cols();
    for (std::size_t gate = 0; gate < 4; ++gate) {
      // The weight rows [gate*H, (gate+1)*H) feed this gate's
      // pre-activations; a per-gate slice isolates the fused backward's
      // four derivative chains from one another.
      const std::size_t row_begin = gate * h * w_cols;
      const std::size_t row_end = (gate + 1) * h * w_cols;
      rig.check_range(layer.weight_idx, row_begin, row_end, 3,
                      std::string(layer.layer) + "." + gate_names[gate] +
                          " weight grad");
      rig.check_range(layer.bias_idx, gate * h, (gate + 1) * h, 1,
                      std::string(layer.layer) + "." + gate_names[gate] +
                          " bias grad");
    }
  }
}

TEST(GradCheckTrainingPath, OutputDenseHead) {
  CheckRig rig(41);
  rig.check_range(kOutWeightIdx, 0, rig.params[kOutWeightIdx]->value.size(),
                  2, "output weight grad");
  rig.check_range(kOutBiasIdx, 0, rig.params[kOutBiasIdx]->value.size(), 1,
                  "output bias grad");
}

}  // namespace
}  // namespace nfv::ml
