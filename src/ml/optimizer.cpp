#include "ml/optimizer.h"

#include <cmath>

#include "util/check.h"

namespace nfv::ml {

Sgd::Sgd(float lr, float momentum) : lr_(lr), momentum_(momentum) {}

void Sgd::bind(std::vector<Param*> params) {
  params_ = std::move(params);
  velocity_.clear();
  velocity_.reserve(params_.size());
  for (const Param* p : params_) {
    velocity_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Sgd::step() {
  NFV_CHECK(!params_.empty(), "Sgd::step before bind");
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    if (p.frozen) {
      p.zero_grad();
      continue;
    }
    if (momentum_ > 0.0f) {
      Matrix& vel = velocity_[i];
      vel.scale(momentum_);
      vel.add_scaled(p.grad, 1.0f);
      p.value.add_scaled(vel, -lr_);
    } else {
      p.value.add_scaled(p.grad, -lr_);
    }
    p.zero_grad();
  }
}

Adam::Adam(float lr, float beta1, float beta2, float epsilon)
    : lr_(lr), beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {}

void Adam::bind(std::vector<Param*> params) {
  params_ = std::move(params);
  m_.clear();
  v_.clear();
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  t_ = 0;
  for (const Param* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::step() {
  NFV_CHECK(!params_.empty(), "Adam::step before bind");
  ++t_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    if (p.frozen) {
      p.zero_grad();
      continue;
    }
    Matrix& m = m_[i];
    Matrix& v = v_[i];
    float* mv = m.data();
    float* vv = v.data();
    float* g = p.grad.data();
    float* w = p.value.data();
    const std::size_t n = p.value.size();
    for (std::size_t j = 0; j < n; ++j) {
      mv[j] = beta1_ * mv[j] + (1.0f - beta1_) * g[j];
      vv[j] = beta2_ * vv[j] + (1.0f - beta2_) * g[j] * g[j];
      const float mhat = mv[j] / bias1;
      const float vhat = vv[j] / bias2;
      w[j] -= lr_ * mhat / (std::sqrt(vhat) + epsilon_);
    }
    p.zero_grad();
  }
}

}  // namespace nfv::ml
