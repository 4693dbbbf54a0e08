// Gradient-descent optimizers for the from-scratch network stack.
//
// Both optimizers honor Param::frozen, which is how the transfer-learning
// adaptation of §4.3 fine-tunes only the top layers of a copied teacher
// model.
#pragma once

#include <cstddef>
#include <vector>

#include "ml/param.h"

namespace nfv::ml {

/// Optimizer interface: step() applies accumulated gradients and zeroes them.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Bind the parameter set. Must be called before step(); binding again
  /// resets internal state (used after copying a teacher model into a
  /// student).
  virtual void bind(std::vector<Param*> params) = 0;

  /// Apply one update from the accumulated gradients, then zero them.
  virtual void step() = 0;

  virtual void set_learning_rate(float lr) = 0;
  virtual float learning_rate() const = 0;
};

/// Plain SGD with optional momentum.
class Sgd final : public Optimizer {
 public:
  explicit Sgd(float lr, float momentum = 0.0f);

  void bind(std::vector<Param*> params) override;
  void step() override;
  void set_learning_rate(float lr) override { lr_ = lr; }
  float learning_rate() const override { return lr_; }

 private:
  float lr_;
  float momentum_;
  std::vector<Param*> params_;
  std::vector<Matrix> velocity_;
};

/// Adam (Kingma & Ba) — the workhorse for LSTM training here.
class Adam final : public Optimizer {
 public:
  explicit Adam(float lr = 1e-3f, float beta1 = 0.9f, float beta2 = 0.999f,
                float epsilon = 1e-8f);

  void bind(std::vector<Param*> params) override;
  void step() override;
  void set_learning_rate(float lr) override { lr_ = lr; }
  float learning_rate() const override { return lr_; }

 private:
  float lr_;
  float beta1_;
  float beta2_;
  float epsilon_;
  std::size_t t_ = 0;
  std::vector<Param*> params_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace nfv::ml
