// Loss functions: categorical cross-entropy over softmax (the paper's
// training objective) and mean-squared error (autoencoder reconstruction).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/matrix.h"

namespace nfv::ml {

/// Row-wise softmax of `logits` into `probs` (numerically stabilized).
void softmax(const Matrix& logits, Matrix& probs);

/// Mean categorical cross-entropy over the batch. `targets[r]` is the class
/// index for row r. On return `grad_logits` holds dL/d-logits (already
/// divided by batch size).
double softmax_cross_entropy(const Matrix& logits,
                             const std::vector<std::int32_t>& targets,
                             Matrix& grad_logits);

/// As above but also exposes the softmax probabilities.
double softmax_cross_entropy(const Matrix& logits,
                             const std::vector<std::int32_t>& targets,
                             Matrix& grad_logits, Matrix& probs);

/// Mean-squared error: mean over batch and features of (pred-target)².
/// `grad_pred` receives dL/d-pred.
double mse_loss(const Matrix& pred, const Matrix& target, Matrix& grad_pred);

/// Natural-log probability of class `target` in a probability row-vector,
/// floored at `min_prob` to keep scores finite.
double log_prob(const Matrix& probs, std::size_t row, std::int32_t target,
                double min_prob = 1e-12);

/// log softmax(logits)[target] straight from one row of logits, floored
/// at log(min_prob): max(l_t − m − log Σ_c exp(l_c − m), log min_prob)
/// with m = max_c l_c. No probability row and no division. The SIMD tier
/// sums exp256 in 8 lanes, the baseline tier std::exp in order; either
/// way the result depends on the row alone, not on its batch.
double log_softmax_at(std::span<const float> logits, std::size_t target,
                      double min_prob = 1e-12);

}  // namespace nfv::ml
