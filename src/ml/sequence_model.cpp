#include "ml/sequence_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <utility>

#include "ml/loss.h"
#include "ml/serialize.h"
#include "util/check.h"

namespace nfv::ml {

namespace {

// log1p compresses the heavy-tailed inter-arrival distribution; the /10
// keeps the feature within roughly [0, 1.5] for Δt up to a few hours.
float normalize_dt_expr(float dt_seconds) {
  return std::log1p(std::max(dt_seconds, 0.0f)) * 0.1f;
}

/// normalize_dt of the whole seconds [0, kDtTableSeconds). The runtime's
/// gaps are whole seconds and mostly short (97% of the simulated fleet's
/// gaps in months 12–17 are under 16,384 s), and every window step
/// normalizes its gap, so most lookups replace a log1p.
const float* dt_table() {
  static const std::vector<float> table = [] {
    std::vector<float> t(kDtTableSeconds);
    for (std::size_t s = 0; s < kDtTableSeconds; ++s) {
      t[s] = normalize_dt_expr(static_cast<float>(s));
    }
    return t;
  }();
  return table.data();
}

}  // namespace

float normalize_dt(float dt_seconds) {
  // A whole second in the table reads its entry. Everything else takes
  // the expression: −0.0f (std::max keeps it, and log1p(−0) is −0),
  // negative, fractional, non-finite and out-of-table values.
  if (!std::signbit(dt_seconds) &&
      dt_seconds < static_cast<float>(kDtTableSeconds)) {
    const auto s = static_cast<std::size_t>(dt_seconds);
    if (static_cast<float>(s) == dt_seconds) return dt_table()[s];
  }
  return normalize_dt_expr(dt_seconds);
}

SequenceModel::SequenceModel(const SequenceModelConfig& config,
                             nfv::util::Rng& rng)
    : config_(config),
      embedding_("embed", config.vocab, config.embed_dim, rng),
      output_("out", config.hidden, config.vocab, Activation::kLinear, rng) {
  NFV_CHECK(config.vocab > 0, "SequenceModel requires a non-empty vocabulary");
  NFV_CHECK(config.layers >= 1, "SequenceModel requires at least one LSTM layer");
  NFV_CHECK(config.window >= 1, "SequenceModel requires window >= 1");
  // Layer 0 reads each template's embedding plus its normalized Δt.
  const std::size_t in0 = config.embed_dim + 1;
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

void WindowBatch::append_row(const WindowBatch& from, std::size_t row,
                             std::size_t window) {
  const auto at = static_cast<std::ptrdiff_t>(row * window);
  const auto k = static_cast<std::ptrdiff_t>(window);
  ids.insert(ids.end(), from.ids.begin() + at, from.ids.begin() + at + k);
  dts.insert(dts.end(), from.dts.begin() + at, from.dts.begin() + at + k);
  targets.push_back(from.targets[row]);
}

void SequenceModel::check_windows(const WindowBatch& windows) const {
  NFV_CHECK(windows.ids.size() == windows.size() * config_.window &&
                windows.dts.size() == windows.ids.size(),
            "window batch of " << windows.size() << " targets holds "
                               << windows.ids.size() << " ids and "
                               << windows.dts.size()
                               << " Δt, not windows of " << config_.window);
}

void SequenceModel::build_inputs(
    const WindowBatch& windows, std::size_t n, std::vector<Matrix>& inputs,
    std::vector<std::vector<std::int32_t>>& ids_steps) const {
  const std::size_t k = config_.window;
  const std::size_t width = config_.embed_dim + 1;
  // Reuse, don't reallocate: every matrix entry is fully rewritten below.
  if (inputs.size() != k) inputs.assign(k, Matrix());
  if (ids_steps.size() != k) ids_steps.assign(k, {});
  for (std::size_t t = 0; t < k; ++t) {
    Matrix& input = inputs[t];
    input.resize(n, width);
    ids_steps[t].resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t at = r * k + t;
      const auto id = windows.ids[at];
      NFV_CHECK(id >= 0 &&
                    static_cast<std::size_t>(id) < embedding_.vocab(),
                "template id " << id << " outside vocab "
                               << embedding_.vocab());
      const float* row =
          embedding_.table().value.row(static_cast<std::size_t>(id));
      std::memcpy(input.row(r), row, config_.embed_dim * sizeof(float));
      input.at(r, config_.embed_dim) = normalize_dt(windows.dts[at]);
      ids_steps[t][r] = id;
    }
  }
}

double SequenceModel::forward_backward(const WindowBatch& windows) {
  const std::size_t k = config_.window;
  const std::size_t batch_size = windows.size();

  // All scratch lives on the model and is reused batch after batch.
  std::vector<Matrix>& inputs = train_scratch_.inputs;
  std::vector<std::vector<std::int32_t>>& ids_steps = train_scratch_.ids;
  build_inputs(windows, batch_size, inputs, ids_steps);

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

  // Scatter input gradients back into the embedding table in (t, r) order.
  Matrix& table_grad = embedding_.table().grad;
  const std::size_t embed_dim = config_.embed_dim;
  for (std::size_t t = 0; t < k; ++t) {
    const Matrix& dx = (*grad_below)[t];
    const std::int32_t* ids = ids_steps[t].data();
    for (std::size_t r = 0; r < batch_size; ++r) {
      float* grad_row = table_grad.row(static_cast<std::size_t>(ids[r]));
      const float* g = dx.row(r);
      for (std::size_t c = 0; c < embed_dim; ++c) grad_row[c] += g[c];
    }
  }
  return loss;
}

double SequenceModel::train_batch(const WindowBatch& batch,
                                  Optimizer& optimizer, double max_grad_norm) {
  NFV_CHECK(batch.size() != 0, "train_batch on empty batch");
  check_windows(batch);
  const double loss = forward_backward(batch);
  clip_gradients(params(), max_grad_norm);
  optimizer.step();
  return loss;
}

std::size_t SequenceModel::ScoringImage::gate_weight_bytes() const {
  std::size_t total = 0;
  for (const LstmStepWeights& layer : layers) {
    total += layer.weights.size() * sizeof(float) + layer.quant.bytes() +
             layer.quant_input.bytes();
  }
  return total;
}

SequenceModel::ScoringImage SequenceModel::build_scoring_image(
    bool int8) const {
  ScoringImage image;
  const Lstm& first = lstm_layers_[0];
  const Matrix& w0 = first.weight().value;
  const std::size_t embed = config_.embed_dim;
  const std::size_t width =
      gate_block_count(config_.hidden) * kGateBlockWidth;
  // input_gates = embed · W_x[:, :E]ᵀ + b: each template's share of the
  // layer-0 gate pre-activation, computed once instead of per window.
  std::vector<float> pack;
  pack_transb(w0, 0, embed, pack);
  Matrix table;
  matmul_transb_packed(embedding_.table().value, w0.rows(), pack, table);
  add_row_vector(table, first.bias().value);
  image.input_gates.reshape(config_.vocab, width);
  for (std::size_t v = 0; v < config_.vocab; ++v) {
    pack_gate_vector(table.row(v), config_.hidden, image.input_gates.row(v));
  }
  std::vector<float> dt(w0.rows());
  for (std::size_t j = 0; j < w0.rows(); ++j) dt[j] = w0.at(j, embed);
  image.dt_gates.resize(width);
  pack_gate_vector(dt.data(), config_.hidden, image.dt_gates.data());
  for (std::size_t l = 0; l < lstm_layers_.size(); ++l) {
    image.layers.push_back(lstm_layers_[l].step_weights(l == 0, int8));
  }
  pack_transb(output_.weight().value, image.output);
  image.quantized = int8;
  image.vocab = config_.vocab;
  return image;
}

void SequenceModel::forward_logits(const ScoringImage& image,
                                   const WindowBatch& windows,
                                   std::size_t start, std::size_t n,
                                   InferenceScratch& scratch) const {
  NFV_CHECK(image.vocab == config_.vocab,
            "scoring image built at vocab " << image.vocab
                                            << ", model vocab is "
                                            << config_.vocab
                                            << " (stale image)");
  const std::size_t k = config_.window;
  // Layer 0's input term of every (t, row): its table row and Δt.
  scratch.table_rows.resize(k * n);
  scratch.dts.resize(k * n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t t = 0; t < k; ++t) {
      const std::size_t at = (start + r) * k + t;
      const auto id = windows.ids[at];
      NFV_CHECK(id >= 0 && static_cast<std::size_t>(id) < image.vocab,
                "template id " << id << " outside vocab " << image.vocab);
      scratch.table_rows[t * n + r] =
          image.input_gates.row(static_cast<std::size_t>(id));
      scratch.dts[t * n + r] = normalize_dt(windows.dts[at]);
    }
  }
  scratch.states.resize(lstm_layers_.size());
  for (std::size_t l = 0; l < lstm_layers_.size(); ++l) {
    lstm_layers_[l].reset_state(scratch.states[l], n);
  }
  for (std::size_t t = 0; t < k; ++t) {
    LstmStepInput input;
    input.table = scratch.table_rows.data() + t * n;
    input.dt = scratch.dts.data() + t * n;
    input.dt_gates = image.dt_gates.data();
    for (std::size_t l = 0; l < lstm_layers_.size(); ++l) {
      if (l > 0) {
        const LstmState& below = scratch.states[l - 1];
        input = LstmStepInput{&below.h[t % 2], below.codes[t % 2].data()};
      }
      lstm_layers_[l].score_step(image.layers[l], input, t, scratch.states[l]);
    }
  }
  const Matrix& top = scratch.states.back().h[(k - 1) % 2];
  matmul_transb_packed(top, config_.vocab, image.output, scratch.logits);
  add_row_vector(scratch.logits, output_.bias().value);
}

void SequenceModel::score_batched(const ScoringImage& image,
                                  const WindowBatch& windows,
                                  std::size_t batch_size,
                                  InferenceScratch& scratch,
                                  std::span<double> out) const {
  NFV_CHECK(batch_size >= 1, "score_batched requires batch_size >= 1");
  NFV_CHECK(out.size() == windows.size(),
            "score_batched: " << out.size() << " outputs for "
                              << windows.size() << " windows");
  check_windows(windows);
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
  NFV_CHECK(out.size() == windows.size(),
            "score_ranks_batched: " << out.size() << " outputs for "
                                    << windows.size() << " windows");
  check_windows(windows);
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

void SequenceModel::predict(const WindowBatch& batch, Matrix& probs) const {
  NFV_CHECK(batch.size() != 0, "scoring an empty batch");
  check_windows(batch);
  InferenceScratch scratch;
  forward_logits(build_scoring_image(), batch, 0, batch.size(), scratch);
  softmax(scratch.logits, probs);
}

std::vector<double> SequenceModel::score_log_likelihood(
    const WindowBatch& batch) const {
  NFV_CHECK(batch.size() != 0, "scoring an empty batch");
  InferenceScratch scratch;
  std::vector<double> out(batch.size());
  score_batched(build_scoring_image(), batch, batch.size(), scratch, out);
  return out;
}

std::vector<std::size_t> SequenceModel::score_target_ranks(
    const WindowBatch& batch) const {
  NFV_CHECK(batch.size() != 0, "scoring an empty batch");
  InferenceScratch scratch;
  std::vector<std::size_t> out(batch.size());
  score_ranks_batched(build_scoring_image(), batch, batch.size(), scratch,
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
}

std::size_t SequenceModel::fp32_weight_bytes() const {
  auto* self = const_cast<SequenceModel*>(this);
  std::size_t total = 0;
  for (Param* p : self->params()) total += p->value.size() * sizeof(float);
  return total;
}

void SequenceModel::save(std::ostream& os) const {
  write_u64(os, kSequenceModelMagic);
  write_u64(os, config_.vocab);
  write_u64(os, config_.embed_dim);
  write_u64(os, config_.hidden);
  write_u64(os, config_.layers);
  write_u64(os, config_.window);
  write_u64(os, 1);  // dt_feature: layer 0 reads Δt (always on)
  auto* self = const_cast<SequenceModel*>(this);
  for (Param* p : self->params()) write_matrix(os, p->value);
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
  const std::uint64_t dt_feature = read_u64(is);
  NFV_CHECK(dt_feature == 1,
            "unsupported SequenceModel checkpoint: dt_feature = "
                << dt_feature << ", but every model reads Δt");
  // Validate the header before the constructor allocates from it: a
  // corrupt field must fail as a CheckError, not as std::bad_alloc.
  const std::size_t in0 = config.embed_dim + 1;
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
  NFV_CHECK(parameters <= kMaxCheckpointElements &&
                parameters * sizeof(float) <= bytes_left(is),
            "corrupt SequenceModel checkpoint: " << parameters
                                                 << " parameters");
  nfv::util::Rng rng(0);  // weights are overwritten below
  SequenceModel model(config, rng);
  // Each tensor's header must declare the shape the config implies,
  // checked before its body is allocated. A NaN or infinite parameter
  // would score NaN, which never crosses a threshold, in either precision.
  for (Param* p : model.params()) {
    p->value = read_matrix(is, p->value.rows(), p->value.cols());
    const std::vector<float>& values = p->value.storage();
    const auto bad = std::find_if(values.begin(), values.end(),
                                  [](float v) { return !std::isfinite(v); });
    NFV_CHECK(bad == values.end(),
              "corrupt SequenceModel checkpoint: tensor "
                  << p->name << " holds " << *bad << " at element "
                  << bad - values.begin());
  }
  return model;
}

}  // namespace nfv::ml
