#include "ml/loss.h"

#include <algorithm>
#include <cmath>

#include "ml/simd_math.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace nfv::ml {

namespace {

#ifdef NFV_SIMD_MATH
/// Σ exp(l − m) of one logit row in 8 lanes: the lane sums reduce pairwise
/// in a fixed order, then the n mod 8 tail adds std::exp terms.
__attribute__((target("avx2,fma"))) float sum_exp_fma(const float* l,
                                                      std::size_t n, float m) {
  const __m256 mb = _mm256_set1_ps(m);
  __m256 acc = _mm256_setzero_ps();
  std::size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    acc = _mm256_add_ps(acc, exp256(_mm256_sub_ps(_mm256_loadu_ps(l + c), mb)));
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  float total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
                ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  for (; c < n; ++c) total += std::exp(l[c] - m);
  return total;
}
#endif

}  // namespace

void softmax(const Matrix& logits, Matrix& probs) {
  probs.resize(logits.rows(), logits.cols());
  const auto softmax_row = [&](std::size_t r) {
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
  };
  // Rows are independent, so the parallel split over the fused scoring
  // batches is bit-identical to the serial sweep.
  if (logits.rows() >= 64 && !nfv::util::ThreadPool::in_parallel_region() &&
      nfv::util::global_pool().size() > 1) {
    nfv::util::global_pool().parallel_for(0, logits.rows(), softmax_row);
  } else {
    for (std::size_t r = 0; r < logits.rows(); ++r) softmax_row(r);
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
#ifdef NFV_SIMD_MATH
  if (simd_kernels_enabled()) {
    total = sum_exp_fma(l, n, m);
  } else
#endif
  {
    for (std::size_t c = 0; c < n; ++c) total += std::exp(l[c] - m);
  }
  const double ll = static_cast<double>(l[target] - m) -
                    std::log(static_cast<double>(total));
  return std::max(ll, std::log(min_prob));
}

}  // namespace nfv::ml
