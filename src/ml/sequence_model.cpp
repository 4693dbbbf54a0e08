#include "ml/sequence_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>

#include "ml/loss.h"
#include "ml/serialize.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace nfv::ml {

float normalize_dt(float dt_seconds) {
  // log1p compresses the heavy-tailed inter-arrival distribution; the /10
  // keeps the feature within roughly [0, 1.5] for Δt up to a few hours.
  return std::log1p(std::max(dt_seconds, 0.0f)) * 0.1f;
}

SequenceModel::SequenceModel(const SequenceModelConfig& config,
                             nfv::util::Rng& rng)
    : config_(config),
      embedding_("embed", config.vocab, config.embed_dim, rng),
      output_("out", config.hidden, config.vocab, Activation::kLinear, rng) {
  NFV_CHECK(config.vocab > 0, "SequenceModel requires a non-empty vocabulary");
  NFV_CHECK(config.layers >= 1, "SequenceModel requires at least one LSTM layer");
  NFV_CHECK(config.window >= 1, "SequenceModel requires window >= 1");
  const std::size_t in0 = config.embed_dim + (config.use_dt_feature ? 1 : 0);
  lstm_layers_.reserve(config.layers);
  for (std::size_t l = 0; l < config.layers; ++l) {
    lstm_layers_.emplace_back("lstm" + std::to_string(l),
                              l == 0 ? in0 : config.hidden, config.hidden,
                              rng);
  }
}

std::vector<Param*> SequenceModel::params() {
  std::vector<Param*> out;
  for (Param* p : embedding_.params()) out.push_back(p);
  for (Lstm& lstm : lstm_layers_) {
    for (Param* p : lstm.params()) out.push_back(p);
  }
  for (Param* p : output_.params()) out.push_back(p);
  return out;
}

std::vector<const Param*> SequenceModel::params() const {
  std::vector<Param*> mutable_params =
      const_cast<SequenceModel*>(this)->params();
  return {mutable_params.begin(), mutable_params.end()};
}

void SequenceModel::build_inputs(
    const SeqExample* const* batch, std::size_t batch_size,
    std::vector<Matrix>& inputs,
    std::vector<std::vector<std::int32_t>>* ids_steps) const {
  const std::size_t k = config_.window;
  const std::size_t width =
      config_.embed_dim + (config_.use_dt_feature ? 1 : 0);
  // Reuse, don't reallocate: every matrix entry is fully rewritten below.
  if (inputs.size() != k) inputs.assign(k, Matrix());
  if (ids_steps && ids_steps->size() != k) ids_steps->assign(k, {});
  for (std::size_t t = 0; t < k; ++t) {
    Matrix& input = inputs[t];
    input.resize(batch_size, width);
    if (ids_steps) (*ids_steps)[t].resize(batch_size);
    for (std::size_t r = 0; r < batch_size; ++r) {
      const SeqExample& ex = *batch[r];
      NFV_CHECK(ex.ids.size() == k && ex.dts.size() == k,
                "SeqExample window length " << ex.ids.size()
                                            << " != model window " << k);
      const auto id = ex.ids[t];
      NFV_CHECK(id >= 0 &&
                    static_cast<std::size_t>(id) < embedding_.vocab(),
                "template id " << id << " outside vocab "
                               << embedding_.vocab());
      const float* row =
          embedding_.table().value.row(static_cast<std::size_t>(id));
      std::memcpy(input.row(r), row, config_.embed_dim * sizeof(float));
      if (config_.use_dt_feature) {
        input.at(r, config_.embed_dim) = normalize_dt(ex.dts[t]);
      }
      if (ids_steps) (*ids_steps)[t][r] = id;
    }
  }
}

double SequenceModel::forward_backward(
    const std::vector<const SeqExample*>& batch) {
  const std::size_t k = config_.window;
  const std::size_t batch_size = batch.size();

  // All scratch lives on the model and is reused batch after batch.
  std::vector<Matrix>& inputs = train_scratch_.inputs;
  std::vector<std::vector<std::int32_t>>& ids_steps = train_scratch_.ids;
  build_inputs(batch.data(), batch_size, inputs, &ids_steps);

  // Forward through the LSTM stack.
  const std::vector<Matrix>* hidden = &lstm_layers_[0].forward(inputs);
  for (std::size_t l = 1; l < lstm_layers_.size(); ++l) {
    hidden = &lstm_layers_[l].forward(*hidden);
  }
  const Matrix& logits = output_.forward(hidden->back());

  train_scratch_.targets.resize(batch_size);
  for (std::size_t r = 0; r < batch_size; ++r) {
    train_scratch_.targets[r] = batch[r]->target;
  }
  const double loss = softmax_cross_entropy(logits, train_scratch_.targets,
                                            train_scratch_.grad_logits);

  // Backward: dense head, then the LSTM stack top-down.
  const Matrix& dh_last = output_.backward(train_scratch_.grad_logits);
  std::vector<Matrix>& grad_hidden = train_scratch_.grad_hidden;
  if (grad_hidden.size() != k) grad_hidden.assign(k, Matrix());
  for (std::size_t t = 0; t < k; ++t) {
    grad_hidden[t].resize(batch_size, config_.hidden);
  }
  grad_hidden[k - 1] = dh_last;
  const std::vector<Matrix>* grad_below = &grad_hidden;
  for (std::size_t l = lstm_layers_.size(); l-- > 0;) {
    grad_below = &lstm_layers_[l].backward(*grad_below);
  }

  // Scatter input gradients back into the embedding table, sharded by
  // destination: each task owns a block of vocab rows and scans every
  // (t, r) pair for ids landing in its block. A table row therefore
  // accumulates its contributions in exactly the serial (t, r) order no
  // matter how many threads run, and no two tasks touch the same row.
  Matrix& table_grad = embedding_.table().grad;
  const std::size_t embed_dim = config_.embed_dim;
  const auto scatter_rows = [&](std::size_t v0, std::size_t v1) {
    for (std::size_t t = 0; t < k; ++t) {
      const Matrix& dx = (*grad_below)[t];
      const std::int32_t* ids = ids_steps[t].data();
      for (std::size_t r = 0; r < batch_size; ++r) {
        const auto id = static_cast<std::size_t>(ids[r]);
        if (id < v0 || id >= v1) continue;
        float* grad_row = table_grad.row(id);
        const float* g = dx.row(r);
        for (std::size_t c = 0; c < embed_dim; ++c) grad_row[c] += g[c];
      }
    }
  };
  const std::size_t vocab = embedding_.vocab();
  nfv::util::ThreadPool& pool = nfv::util::global_pool();
  // Each task rescans all (t, r) pairs, so the fan-out only pays off once
  // the scatter moves a few hundred KMACs of row additions.
  if (!nfv::util::ThreadPool::in_parallel_region() && pool.size() > 1 &&
      k * batch_size * embed_dim >= (1u << 18)) {
    const std::size_t blocks = std::min(vocab, pool.size() * 2);
    const std::size_t block = (vocab + blocks - 1) / blocks;
    pool.parallel_for(0, blocks, [&](std::size_t bi) {
      scatter_rows(bi * block, std::min((bi + 1) * block, vocab));
    });
  } else {
    scatter_rows(0, vocab);
  }
  return loss;
}

double SequenceModel::train_batch(const std::vector<const SeqExample*>& batch,
                                  Optimizer& optimizer, double max_grad_norm) {
  NFV_CHECK(!batch.empty(), "train_batch on empty batch");
  const double loss = forward_backward(batch);
  clip_gradients(params(), max_grad_norm);
  optimizer.step();
  // The fp32 weights just moved; a stale int8 image would silently score
  // the old model.
  quantized_.reset();
  return loss;
}

void SequenceModel::predict(const std::vector<const SeqExample*>& batch,
                            Matrix& probs) const {
  NFV_CHECK(!batch.empty(), "predict on empty batch");
  // Stateful stepping avoids touching the training caches, keeping
  // prediction const and cheap.
  InferenceScratch scratch;
  pack_weights(scratch);
  forward_probs(batch.data(), batch.size(), scratch);
  probs = std::move(scratch.probs);
}

void SequenceModel::pack_weights(InferenceScratch& scratch) const {
  if (quantized_) return;
  scratch.packed_lstm.resize(lstm_layers_.size());
  for (std::size_t l = 0; l < lstm_layers_.size(); ++l) {
    pack_transb(lstm_layers_[l].weight().value, scratch.packed_lstm[l]);
  }
  pack_transb(output_.weight().value, scratch.packed_output);
}

void SequenceModel::forward_probs(const SeqExample* const* batch,
                                  std::size_t batch_size,
                                  InferenceScratch& scratch) const {
  build_inputs(batch, batch_size, scratch.inputs, nullptr);

  // (Re)shape the recurrent state in place. Matrix::resize zero-fills,
  // which is exactly the initial state Lstm::make_state would provide,
  // while reusing the buffers' heap capacity across sub-batches.
  if (scratch.states.size() != lstm_layers_.size()) {
    scratch.states.clear();
    scratch.states.reserve(lstm_layers_.size());
    for (const Lstm& lstm : lstm_layers_) {
      scratch.states.push_back(lstm.make_state(batch_size));
    }
  } else {
    for (std::size_t l = 0; l < lstm_layers_.size(); ++l) {
      scratch.states[l].h.resize(batch_size, config_.hidden);
      scratch.states[l].c.resize(batch_size, config_.hidden);
    }
  }

  for (std::size_t t = 0; t < config_.window; ++t) {
    const Matrix* x = &scratch.inputs[t];
    for (std::size_t l = 0; l < lstm_layers_.size(); ++l) {
      if (quantized_) {
        lstm_layers_[l].step_quantized(*x, scratch.states[l],
                                       quantized_->lstm[l], scratch.concat,
                                       scratch.gates);
      } else {
        lstm_layers_[l].step(*x, scratch.states[l], scratch.packed_lstm[l],
                             scratch.concat, scratch.gates);
      }
      x = &scratch.states[l].h;
    }
  }
  if (quantized_) {
    matmul_quant(scratch.states.back().h, quantized_->output,
                 scratch.logits);
  } else {
    matmul_transb_packed(scratch.states.back().h, output_.weight().value,
                         scratch.packed_output, scratch.logits);
  }
  add_row_vector(scratch.logits, output_.bias().value);
  softmax(scratch.logits, scratch.probs);
}

void SequenceModel::score_batched(std::span<const SeqExample* const> batch,
                                  std::size_t batch_size,
                                  InferenceScratch& scratch,
                                  std::span<double> out) const {
  NFV_CHECK(batch_size >= 1, "score_batched requires batch_size >= 1");
  NFV_CHECK(out.size() == batch.size(),
            "score_batched output size " << out.size() << " != batch size "
                                         << batch.size());
  pack_weights(scratch);
  for (std::size_t start = 0; start < batch.size(); start += batch_size) {
    const std::size_t n = std::min(batch_size, batch.size() - start);
    forward_probs(batch.data() + start, n, scratch);
    for (std::size_t r = 0; r < n; ++r) {
      out[start + r] = log_prob(scratch.probs, r, batch[start + r]->target);
    }
  }
}

void SequenceModel::score_ranks_batched(
    std::span<const SeqExample* const> batch, std::size_t batch_size,
    InferenceScratch& scratch, std::span<std::size_t> out) const {
  NFV_CHECK(batch_size >= 1, "score_ranks_batched requires batch_size >= 1");
  NFV_CHECK(out.size() == batch.size(),
            "score_ranks_batched output size "
                << out.size() << " != batch size " << batch.size());
  pack_weights(scratch);
  for (std::size_t start = 0; start < batch.size(); start += batch_size) {
    const std::size_t n = std::min(batch_size, batch.size() - start);
    forward_probs(batch.data() + start, n, scratch);
    for (std::size_t r = 0; r < n; ++r) {
      const auto target =
          static_cast<std::size_t>(batch[start + r]->target);
      NFV_CHECK(target < scratch.probs.cols(), "target outside vocabulary");
      const float p_target = scratch.probs.at(r, target);
      std::size_t rank = 0;
      for (std::size_t c = 0; c < scratch.probs.cols(); ++c) {
        if (scratch.probs.at(r, c) > p_target) ++rank;
      }
      out[start + r] = rank;
    }
  }
}

std::vector<double> SequenceModel::score_log_likelihood(
    const std::vector<const SeqExample*>& batch) const {
  Matrix probs;
  predict(batch, probs);
  std::vector<double> out(batch.size());
  for (std::size_t r = 0; r < batch.size(); ++r) {
    out[r] = log_prob(probs, r, batch[r]->target);
  }
  return out;
}

std::vector<std::size_t> SequenceModel::score_target_ranks(
    const std::vector<const SeqExample*>& batch) const {
  Matrix probs;
  predict(batch, probs);
  std::vector<std::size_t> out(batch.size());
  for (std::size_t r = 0; r < batch.size(); ++r) {
    const auto target = static_cast<std::size_t>(batch[r]->target);
    NFV_CHECK(target < probs.cols(), "target outside vocabulary");
    const float p_target = probs.at(r, target);
    std::size_t rank = 0;
    for (std::size_t c = 0; c < probs.cols(); ++c) {
      if (probs.at(r, c) > p_target) ++rank;
    }
    out[r] = rank;
  }
  return out;
}

void SequenceModel::freeze_lower_layers(std::size_t n) {
  NFV_CHECK(n <= lstm_layers_.size(),
            "cannot freeze " << n << " of " << lstm_layers_.size()
                             << " LSTM layers");
  const bool freeze_embed = n > 0;
  for (Param* p : embedding_.params()) p->frozen = freeze_embed;
  for (std::size_t l = 0; l < lstm_layers_.size(); ++l) {
    const bool freeze = l < n;
    for (Param* p : lstm_layers_[l].params()) p->frozen = freeze;
  }
  for (Param* p : output_.params()) p->frozen = false;
}

void SequenceModel::grow_vocab(std::size_t new_vocab, nfv::util::Rng& rng) {
  NFV_CHECK(new_vocab >= config_.vocab, "grow_vocab cannot shrink");
  if (new_vocab == config_.vocab) return;
  embedding_.grow_vocab(new_vocab, rng);
  // Grow the output head: new class rows in W and new bias columns.
  Param& w = output_.weight();
  Matrix grown_w(new_vocab, config_.hidden);
  xavier_uniform(grown_w, config_.hidden, new_vocab, rng);
  for (std::size_t r = 0; r < config_.vocab; ++r) {
    std::memcpy(grown_w.row(r), w.value.row(r),
                config_.hidden * sizeof(float));
  }
  w.value = std::move(grown_w);
  w.grad.resize(new_vocab, config_.hidden);
  Param& b = output_.bias();
  Matrix grown_b(1, new_vocab);
  std::memcpy(grown_b.row(0), b.value.row(0),
              config_.vocab * sizeof(float));
  b.value = std::move(grown_b);
  b.grad.resize(1, new_vocab);
  config_.vocab = new_vocab;
  quantized_.reset();
}

std::size_t SequenceModel::QuantizedWeights::weight_bytes() const {
  std::size_t total = output.weight_bytes();
  for (const QuantizedMatrix& m : lstm) total += m.weight_bytes();
  return total;
}

void SequenceModel::quantize() {
  QuantizedWeights qw;
  qw.lstm.resize(lstm_layers_.size());
  for (std::size_t l = 0; l < lstm_layers_.size(); ++l) {
    quantize_pack_b(lstm_layers_[l].weight().value, qw.lstm[l]);
  }
  quantize_pack_b(output_.weight().value, qw.output);
  quantized_ = std::move(qw);
}

std::size_t SequenceModel::fp32_weight_bytes() const {
  auto* self = const_cast<SequenceModel*>(this);
  std::size_t total = 0;
  for (Param* p : self->params()) total += p->value.size() * sizeof(float);
  return total;
}

std::size_t SequenceModel::quantized_weight_bytes() const {
  return quantized_ ? quantized_->weight_bytes() : 0;
}

void SequenceModel::save(std::ostream& os) const {
  write_u64(os, kSequenceModelMagic);
  write_u64(os, config_.vocab);
  write_u64(os, config_.embed_dim);
  write_u64(os, config_.hidden);
  write_u64(os, config_.layers);
  write_u64(os, config_.window);
  write_u64(os, config_.use_dt_feature ? 1 : 0);
  auto* self = const_cast<SequenceModel*>(this);
  for (Param* p : self->params()) write_matrix(os, p->value);
  // Trailing quantized sidecar: the calibration (scales, packed panels,
  // column sums) is persisted byte for byte so a loaded quantized model
  // scores identically to the one that was saved.
  write_u64(os, quantized_ ? 1 : 0);
  if (quantized_) {
    for (const QuantizedMatrix& m : quantized_->lstm) {
      write_quant_matrix(os, m);
    }
    write_quant_matrix(os, quantized_->output);
  }
}

SequenceModel SequenceModel::load(std::istream& is) {
  NFV_CHECK(read_u64(is) == kSequenceModelMagic,
            "not a SequenceModel stream");
  SequenceModelConfig config;
  config.vocab = read_u64(is);
  config.embed_dim = read_u64(is);
  config.hidden = read_u64(is);
  config.layers = read_u64(is);
  config.window = read_u64(is);
  config.use_dt_feature = read_u64(is) != 0;
  nfv::util::Rng rng(0);  // weights are overwritten below
  SequenceModel model(config, rng);
  for (Param* p : model.params()) {
    Matrix m = read_matrix(is);
    NFV_CHECK(m.rows() == p->value.rows() && m.cols() == p->value.cols(),
              "saved tensor shape mismatch for " << p->name);
    p->value = std::move(m);
  }
  if (read_u64(is) != 0) {
    QuantizedWeights qw;
    qw.lstm.resize(config.layers);
    for (std::size_t l = 0; l < config.layers; ++l) {
      qw.lstm[l] = read_quant_matrix(is);
      NFV_CHECK(qw.lstm[l].rows == 4 * config.hidden,
                "saved quantized LSTM layer shape mismatch");
    }
    qw.output = read_quant_matrix(is);
    NFV_CHECK(qw.output.rows == config.vocab &&
                  qw.output.cols == config.hidden,
              "saved quantized output head shape mismatch");
    model.quantized_ = std::move(qw);
  }
  return model;
}

}  // namespace nfv::ml
