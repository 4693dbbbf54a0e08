#include "ml/loss.h"

#include <algorithm>
#include <cmath>

#include "ml/simd_kernels.h"
#include "util/check.h"

namespace nfv::ml {

void softmax(const Matrix& logits, Matrix& probs) {
  probs.resize(logits.rows(), logits.cols());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.row(r);
    float* out = probs.row(r);
    float max_logit = in[0];
    for (std::size_t c = 1; c < logits.cols(); ++c) {
      max_logit = std::max(max_logit, in[c]);
    }
    float total = 0.0f;
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      out[c] = std::exp(in[c] - max_logit);
      total += out[c];
    }
    const float inv = 1.0f / total;
    for (std::size_t c = 0; c < logits.cols(); ++c) out[c] *= inv;
  }
}

double softmax_cross_entropy(const Matrix& logits,
                             const std::vector<std::int32_t>& targets,
                             Matrix& grad_logits, Matrix& probs) {
  NFV_CHECK(targets.size() == logits.rows(),
            "cross entropy: one target per batch row required");
  softmax(logits, probs);
  grad_logits = probs;
  const auto batch = static_cast<float>(logits.rows());
  double loss = 0.0;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const auto t = targets[r];
    NFV_CHECK(t >= 0 && static_cast<std::size_t>(t) < logits.cols(),
              "cross entropy target out of range: " << t);
    const double p =
        std::max(static_cast<double>(probs.at(r, static_cast<std::size_t>(t))),
                 1e-12);
    loss -= std::log(p);
    grad_logits.at(r, static_cast<std::size_t>(t)) -= 1.0f;
  }
  grad_logits.scale(1.0f / batch);
  return loss / batch;
}

double softmax_cross_entropy(const Matrix& logits,
                             const std::vector<std::int32_t>& targets,
                             Matrix& grad_logits) {
  Matrix probs;
  return softmax_cross_entropy(logits, targets, grad_logits, probs);
}

double mse_loss(const Matrix& pred, const Matrix& target, Matrix& grad_pred) {
  NFV_CHECK(pred.rows() == target.rows() && pred.cols() == target.cols(),
            "mse_loss shape mismatch");
  grad_pred.resize(pred.rows(), pred.cols());
  const auto n = static_cast<double>(pred.size());
  double loss = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const float diff = pred.data()[i] - target.data()[i];
    loss += static_cast<double>(diff) * diff;
    grad_pred.data()[i] = 2.0f * diff / static_cast<float>(n);
  }
  return loss / n;
}

double log_prob(const Matrix& probs, std::size_t row, std::int32_t target,
                double min_prob) {
  NFV_CHECK(row < probs.rows(), "log_prob row out of range");
  NFV_CHECK(target >= 0 && static_cast<std::size_t>(target) < probs.cols(),
            "log_prob target out of range");
  const double p = std::max(
      static_cast<double>(probs.at(row, static_cast<std::size_t>(target))),
      min_prob);
  return std::log(p);
}

double log_softmax_at(std::span<const float> logits, std::size_t target,
                      double min_prob) {
  NFV_CHECK(!logits.empty() && target < logits.size(),
            "log_softmax_at target out of range");
  const float* l = logits.data();
  const std::size_t n = logits.size();
  const float m = *std::max_element(l, l + n);
  float total = 0.0f;
  if (const simd::Kernels* kernels = simd::active()) {
    total = kernels->sum_exp(l, n, m);
  } else {
    for (std::size_t c = 0; c < n; ++c) total += std::exp(l[c] - m);
  }
  const double ll = static_cast<double>(l[target] - m) -
                    std::log(static_cast<double>(total));
  return std::max(ll, std::log(min_prob));
}

}  // namespace nfv::ml
