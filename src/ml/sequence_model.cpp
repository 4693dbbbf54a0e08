#include "ml/sequence_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <utility>

#include "ml/loss.h"
#include "ml/serialize.h"
#include "ml/simd_kernels.h"
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

void WindowBatch::push_back(const SeqExample& example, std::size_t window) {
  NFV_CHECK(example.ids.size() == window && example.dts.size() == window,
            "SeqExample window length " << example.ids.size()
                                        << " != model window " << window);
  ids.insert(ids.end(), example.ids.begin(), example.ids.end());
  dts.insert(dts.end(), example.dts.begin(), example.dts.end());
  targets.push_back(example.target);
}

void SequenceModel::build_inputs(
    const WindowBatch& windows, std::size_t start, std::size_t n,
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
    input.resize(n, width);
    if (ids_steps) (*ids_steps)[t].resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t at = (start + r) * k + t;
      const auto id = windows.ids[at];
      NFV_CHECK(id >= 0 &&
                    static_cast<std::size_t>(id) < embedding_.vocab(),
                "template id " << id << " outside vocab "
                               << embedding_.vocab());
      const float* row =
          embedding_.table().value.row(static_cast<std::size_t>(id));
      std::memcpy(input.row(r), row, config_.embed_dim * sizeof(float));
      if (config_.use_dt_feature) {
        input.at(r, config_.embed_dim) = normalize_dt(windows.dts[at]);
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
  WindowBatch& windows = train_scratch_.windows;
  windows.clear();
  for (const SeqExample* example : batch) windows.push_back(*example, k);
  std::vector<Matrix>& inputs = train_scratch_.inputs;
  std::vector<std::vector<std::int32_t>>& ids_steps = train_scratch_.ids;
  build_inputs(windows, 0, batch_size, inputs, &ids_steps);

  // Forward through the LSTM stack.
  const std::vector<Matrix>* hidden = &lstm_layers_[0].forward(inputs);
  for (std::size_t l = 1; l < lstm_layers_.size(); ++l) {
    hidden = &lstm_layers_[l].forward(*hidden);
  }
  const Matrix& logits = output_.forward(hidden->back());

  const double loss = softmax_cross_entropy(logits, windows.targets,
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

SequenceModel::ScoringImage SequenceModel::build_scoring_image() const {
  ScoringImage image;
  if (quantized_) return image;
  const Lstm& first = lstm_layers_[0];
  const Matrix& w0 = first.weight().value;
  const std::size_t embed = config_.embed_dim;
  // input_gates = embed · W_x[:, :E]ᵀ + b: each template's share of the
  // layer-0 gate pre-activation, computed once instead of per window.
  std::vector<float> pack;
  pack_transb(w0, 0, embed, pack);
  matmul_transb_packed(embedding_.table().value, w0.rows(), pack,
                       image.input_gates);
  add_row_vector(image.input_gates, first.bias().value);
  if (config_.use_dt_feature) {
    image.dt_gates.resize(w0.rows());
    for (std::size_t j = 0; j < w0.rows(); ++j) {
      image.dt_gates[j] = w0.at(j, embed);
    }
  }
  pack_transb(w0, first.input_size(), w0.cols(), image.recurrent0);
  for (std::size_t l = 1; l < lstm_layers_.size(); ++l) {
    const Matrix& w = lstm_layers_[l].weight().value;
    image.input_blocks.emplace_back();
    pack_transb(w, 0, lstm_layers_[l].input_size(), image.input_blocks.back());
    image.gate_weights.emplace_back();
    pack_transb(w, image.gate_weights.back());
  }
  pack_transb(output_.weight().value, image.output);
  image.vocab = config_.vocab;
  return image;
}

void SequenceModel::layer0_step(const ScoringImage& image,
                                const WindowBatch& windows, std::size_t start,
                                std::size_t t,
                                InferenceScratch& scratch) const {
  const std::size_t k = config_.window;
  const std::size_t gates = 4 * config_.hidden;
  LstmState& state = scratch.states[0];
  const std::size_t n = state.h.rows();
  scratch.gates.reshape(n, gates);
  const float* dt_gates = image.dt_gates.data();
  const simd::Kernels* kernels = simd::active();
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t at = (start + r) * k + t;
    const auto id = windows.ids[at];
    NFV_CHECK(id >= 0 && static_cast<std::size_t>(id) < image.vocab,
              "template id " << id << " outside vocab " << image.vocab);
    const float* table = image.input_gates.row(static_cast<std::size_t>(id));
    float* g = scratch.gates.row(r);
    if (config_.use_dt_feature) {
      // A separate multiply and add in every tier: the SIMD gather rounds
      // the product before the add, as this loop does.
      const float dt = normalize_dt(windows.dts[at]);
      if (kernels != nullptr) {
        kernels->gather_row(table, dt, dt_gates, g, gates);
      } else {
        for (std::size_t j = 0; j < gates; ++j) {
          g[j] = table[j] + dt * dt_gates[j];
        }
      }
    } else {
      std::memcpy(g, table, gates * sizeof(float));
    }
  }
  // The state is zero at t = 0, so the first step has no recurrent GEMM.
  lstm_layers_[0].step_input_gates(
      scratch.gates, state, t == 0 ? nullptr : &image.recurrent0,
      scratch.recurrent);
}

void SequenceModel::forward_logits(const ScoringImage& image,
                                   const WindowBatch& windows,
                                   std::size_t start, std::size_t n,
                                   InferenceScratch& scratch) const {
  NFV_CHECK(quantized_ || image.vocab == config_.vocab,
            "scoring image built at vocab " << image.vocab
                                            << ", model vocab is "
                                            << config_.vocab
                                            << " (stale image)");
  // (Re)shape the recurrent state in place. Matrix::resize zero-fills,
  // which is exactly the initial state Lstm::make_state would provide,
  // while reusing the buffers' heap capacity across sub-batches.
  scratch.states.resize(lstm_layers_.size());
  for (LstmState& state : scratch.states) {
    state.h.resize(n, config_.hidden);
    state.c.resize(n, config_.hidden);
  }

  if (quantized_) {
    // Per-row activation quantization makes a zero-state skip inexact,
    // so int8 runs every step through the concat GEMM.
    build_inputs(windows, start, n, scratch.inputs, nullptr);
    for (std::size_t t = 0; t < config_.window; ++t) {
      const Matrix* x = &scratch.inputs[t];
      for (std::size_t l = 0; l < lstm_layers_.size(); ++l) {
        lstm_layers_[l].step_quantized(*x, scratch.states[l],
                                       quantized_->lstm[l], scratch.concat,
                                       scratch.gates);
        x = &scratch.states[l].h;
      }
    }
    matmul_quant(scratch.states.back().h, quantized_->output,
                 scratch.logits);
  } else {
    for (std::size_t t = 0; t < config_.window; ++t) {
      layer0_step(image, windows, start, t, scratch);
      for (std::size_t l = 1; l < lstm_layers_.size(); ++l) {
        const Matrix& x = scratch.states[l - 1].h;
        if (t == 0) {
          lstm_layers_[l].step_zero_state(x, scratch.states[l],
                                          image.input_blocks[l - 1],
                                          scratch.gates);
        } else {
          lstm_layers_[l].step(x, scratch.states[l],
                               image.gate_weights[l - 1], scratch.concat,
                               scratch.gates);
        }
      }
    }
    matmul_transb_packed(scratch.states.back().h, config_.vocab,
                         image.output, scratch.logits);
  }
  add_row_vector(scratch.logits, output_.bias().value);
}

void SequenceModel::score_batched(const ScoringImage& image,
                                  const WindowBatch& windows,
                                  std::size_t batch_size,
                                  InferenceScratch& scratch,
                                  std::span<double> out) const {
  NFV_CHECK(batch_size >= 1, "score_batched requires batch_size >= 1");
  NFV_CHECK(out.size() == windows.size() &&
                windows.ids.size() == windows.size() * config_.window &&
                windows.dts.size() == windows.ids.size(),
            "score_batched: " << out.size() << " outputs for "
                              << windows.size() << " windows");
  for (std::size_t start = 0; start < windows.size(); start += batch_size) {
    const std::size_t n = std::min(batch_size, windows.size() - start);
    forward_logits(image, windows, start, n, scratch);
    for (std::size_t r = 0; r < n; ++r) {
      const auto target = windows.targets[start + r];
      NFV_CHECK(target >= 0 &&
                    static_cast<std::size_t>(target) < config_.vocab,
                "target outside vocabulary");
      out[start + r] = log_softmax_at(scratch.logits.row_span(r),
                                      static_cast<std::size_t>(target));
    }
  }
}

void SequenceModel::score_ranks_batched(const ScoringImage& image,
                                        const WindowBatch& windows,
                                        std::size_t batch_size,
                                        InferenceScratch& scratch,
                                        std::span<std::size_t> out) const {
  NFV_CHECK(batch_size >= 1, "score_ranks_batched requires batch_size >= 1");
  NFV_CHECK(out.size() == windows.size() &&
                windows.ids.size() == windows.size() * config_.window &&
                windows.dts.size() == windows.ids.size(),
            "score_ranks_batched: " << out.size() << " outputs for "
                                    << windows.size() << " windows");
  for (std::size_t start = 0; start < windows.size(); start += batch_size) {
    const std::size_t n = std::min(batch_size, windows.size() - start);
    forward_logits(image, windows, start, n, scratch);
    softmax(scratch.logits, scratch.probs);
    for (std::size_t r = 0; r < n; ++r) {
      const auto target = static_cast<std::size_t>(windows.targets[start + r]);
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

WindowBatch SequenceModel::gather(
    const std::vector<const SeqExample*>& batch) const {
  NFV_CHECK(!batch.empty(), "scoring an empty batch");
  WindowBatch windows;
  for (const SeqExample* example : batch) {
    windows.push_back(*example, config_.window);
  }
  return windows;
}

void SequenceModel::predict(const std::vector<const SeqExample*>& batch,
                            Matrix& probs) const {
  const WindowBatch windows = gather(batch);
  InferenceScratch scratch;
  forward_logits(build_scoring_image(), windows, 0, windows.size(), scratch);
  softmax(scratch.logits, probs);
}

std::vector<double> SequenceModel::score_log_likelihood(
    const std::vector<const SeqExample*>& batch) const {
  const WindowBatch windows = gather(batch);
  InferenceScratch scratch;
  std::vector<double> out(windows.size());
  score_batched(build_scoring_image(), windows, windows.size(), scratch, out);
  return out;
}

std::vector<std::size_t> SequenceModel::score_target_ranks(
    const std::vector<const SeqExample*>& batch) const {
  const WindowBatch windows = gather(batch);
  InferenceScratch scratch;
  std::vector<std::size_t> out(windows.size());
  score_ranks_batched(build_scoring_image(), windows, windows.size(), scratch,
                      out);
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
  // Validate the header before the constructor allocates from it: a
  // corrupt field must fail as a CheckError, not as std::bad_alloc.
  const std::size_t in0 = config.embed_dim + (config.use_dt_feature ? 1 : 0);
  const std::pair<const char*, std::size_t> fields[] = {
      {"vocab", config.vocab},   {"embed_dim", config.embed_dim},
      {"hidden", config.hidden}, {"layers", config.layers},
      {"window", config.window}};
  for (const auto& [name, value] : fields) {
    NFV_CHECK(value >= 1 && value <= kMaxCheckpointElements,
              "corrupt SequenceModel checkpoint: " << name << " = " << value);
  }
  const std::size_t gates = checked_elements(4, config.hidden);
  const std::size_t parameters =
      checked_elements(config.vocab, config.embed_dim) +
      checked_elements(gates, in0 + config.hidden) +
      checked_elements(config.layers - 1,
                       checked_elements(gates, 2 * config.hidden)) +
      checked_elements(config.vocab, config.hidden);
  NFV_CHECK(parameters <= kMaxCheckpointElements,
            "corrupt SequenceModel checkpoint: " << parameters
                                                 << " parameters");
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
      const Lstm& layer = model.lstm_layers_[l];
      NFV_CHECK(qw.lstm[l].rows == 4 * config.hidden &&
                    qw.lstm[l].cols ==
                        layer.input_size() + layer.hidden_size(),
                "saved quantized LSTM layer " << l << " shape mismatch");
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
