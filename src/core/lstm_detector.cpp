#include "core/lstm_detector.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>

#include "ml/optimizer.h"
#include "ml/serialize.h"
#include "util/check.h"
#include "util/stats.h"

namespace nfv::core {

using nfv::util::Rng;

namespace {

/// Rows 0 … n − 1: one pass over every window of a batch.
std::vector<std::size_t> all_rows(std::size_t n) {
  std::vector<std::size_t> rows(n);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  return rows;
}

}  // namespace

LstmDetector::LstmDetector(const LstmDetectorConfig& config)
    : config_(config), rng_(config.seed) {}

ml::WindowBatch LstmDetector::prepare_windows(
    std::span<const LogView> streams) const {
  const std::size_t k = config_.window;
  ml::WindowBatch windows;
  for (const LogView& logs : streams) {
    logproc::append_sequence_windows(logs, k, windows);
  }
  const std::size_t cap = config_.max_train_windows;
  if (windows.size() > cap) {
    // Deterministic uniform subsample preserving time order, compacted in
    // place: the kept rows increase and row i comes from a row ≥ i, so no
    // row is overwritten before it is read.
    const double stride =
        static_cast<double>(windows.size()) / static_cast<double>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      const auto from = static_cast<std::size_t>(i * stride);
      std::copy_n(windows.ids.begin() + from * k, k,
                  windows.ids.begin() + i * k);
      std::copy_n(windows.dts.begin() + from * k, k,
                  windows.dts.begin() + i * k);
      windows.targets[i] = windows.targets[from];
    }
    windows.ids.resize(cap * k);
    windows.dts.resize(cap * k);
    windows.targets.resize(cap);
  }
  return windows;
}

void LstmDetector::train_epochs(const ml::WindowBatch& windows,
                                std::vector<std::size_t> rows,
                                std::size_t epochs, float lr) {
  if (rows.empty()) return;
  ml::Adam optimizer(lr);
  optimizer.bind(model_->params());
  // Shuffling the rows themselves permutes them exactly as shuffling
  // positions into them would: the draws depend only on the count.
  ml::WindowBatch batch;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng_.shuffle(rows);
    for (std::size_t start = 0; start < rows.size();
         start += config_.batch_size) {
      const std::size_t end =
          std::min(start + config_.batch_size, rows.size());
      batch.clear();
      for (std::size_t i = start; i < end; ++i) {
        batch.append_row(windows, rows[i], config_.window);
      }
      model_->train_batch(batch, optimizer);
    }
  }
  // The over-sampling loop scores between training rounds, in fp32.
  image_ = model_->build_scoring_image();
}

void LstmDetector::refresh_image() {
  image_ = model_->build_scoring_image(config_.quantize);
}

void LstmDetector::score_gathered(const ml::WindowBatch& windows,
                                  WindowScratch& scratch) const {
  const std::size_t n = windows.size();
  if (n == 0) return;
  if (config_.score_mode == LstmScoreMode::kTargetRank) {
    scratch.ranks.resize(n);
    model_->score_ranks_batched(image_, windows, kScoreBatch, scratch.model,
                                scratch.ranks);
    for (std::size_t i = 0; i < n; ++i) {
      *scratch.slots[i] = static_cast<double>(scratch.ranks[i]);
    }
  } else {
    scratch.scores.resize(n);
    model_->score_batched(image_, windows, kScoreBatch, scratch.model,
                          scratch.scores);
    for (std::size_t i = 0; i < n; ++i) {
      *scratch.slots[i] = -scratch.scores[i];
    }
  }
}

void LstmDetector::oversample_refine(const ml::WindowBatch& windows) {
  if (windows.size() == 0) return;
  std::vector<double> scores(windows.size());
  WindowScratch scratch;
  for (double& score : scores) scratch.slots.push_back(&score);
  double previous_fp_rate = 1.0;
  for (std::size_t round = 0; round < config_.oversample_rounds; ++round) {
    score_gathered(windows, scratch);
    // "Misclassified as anomaly": the highest-score (lowest-likelihood)
    // quantile of the *normal* training data.
    const double threshold =
        nfv::util::quantile(scores, 1.0 - config_.oversample_quantile);
    std::vector<std::size_t> minority;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      if (scores[i] >= threshold) minority.push_back(i);
    }
    const double fp_rate = static_cast<double>(minority.size()) /
                           static_cast<double>(scores.size());
    if (minority.empty() || fp_rate >= previous_fp_rate) break;
    previous_fp_rate = fp_rate;

    // Over-sample the minority patterns, random-sample the rest (§4.2).
    std::vector<std::size_t> refined;
    refined.reserve(minority.size() * config_.oversample_factor +
                    windows.size() / 2);
    for (std::size_t idx : minority) {
      refined.insert(refined.end(), config_.oversample_factor, idx);
    }
    for (std::size_t i = 0; i < windows.size(); ++i) {
      if (rng_.bernoulli(0.5)) refined.push_back(i);
    }
    train_epochs(windows, std::move(refined), 1, config_.update_lr);
  }
}

void LstmDetector::fit(std::span<const LogView> streams, std::size_t vocab) {
  NFV_CHECK(vocab > 0, "fit requires a non-empty vocabulary");
  ml::SequenceModelConfig model_config;
  model_config.vocab = vocab;
  model_config.embed_dim = config_.embed_dim;
  model_config.hidden = config_.hidden;
  model_config.layers = config_.layers;
  model_config.window = config_.window;
  Rng init_rng = rng_.fork(1);
  model_.emplace(model_config, init_rng);

  const ml::WindowBatch windows = prepare_windows(streams);
  train_epochs(windows, all_rows(windows.size()), config_.initial_epochs,
               config_.initial_lr);
  if (config_.oversample) oversample_refine(windows);
  // Quantize once, after ALL training (including the over-sampling
  // rounds, which score with the fp32 model they just trained).
  refresh_image();
}

void LstmDetector::update(std::span<const LogView> streams,
                          std::size_t vocab) {
  NFV_CHECK(trained(), "update before fit");
  if (vocab > model_->config().vocab) {
    Rng grow_rng = rng_.fork(2);
    model_->grow_vocab(vocab, grow_rng);
  }
  const ml::WindowBatch windows = prepare_windows(streams);
  train_epochs(windows, all_rows(windows.size()), config_.update_epochs,
               config_.update_lr);
  // Also after a grow_vocab with no training windows.
  refresh_image();
}

void LstmDetector::adapt(std::span<const LogView> streams,
                         std::size_t vocab) {
  NFV_CHECK(trained(), "adapt before fit");
  if (vocab > model_->config().vocab) {
    Rng grow_rng = rng_.fork(3);
    model_->grow_vocab(vocab, grow_rng);
  }
  // Teacher → student: the current weights are the teacher; fine-tune the
  // top layers on the small fresh dataset. The unfreeze is scope-guarded:
  // if train_epochs throws (e.g. an id-bounds check on a corrupt stream),
  // the lower layers must not stay silently frozen and cripple every
  // later update() on this detector.
  {
    model_->freeze_lower_layers(
        std::min(config_.adapt_frozen_layers, config_.layers));
    struct UnfreezeGuard {
      ml::SequenceModel* model;
      ~UnfreezeGuard() { model->freeze_lower_layers(0); }
    } guard{&*model_};
    const ml::WindowBatch windows = prepare_windows(streams);
    train_epochs(windows, all_rows(windows.size()), config_.adapt_epochs,
                 config_.adapt_lr);
  }
  refresh_image();
}

void LstmDetector::score_windows(std::span<const logproc::ParsedLog> windows,
                                 std::size_t window_events,
                                 WindowScratch& scratch,
                                 std::span<double> out) const {
  check_windows(windows, window_events, out);
  const auto vocab = static_cast<std::int32_t>(model_->config().vocab);
  // Templates the model has never seen are maximally surprising.
  const double unknown = config_.score_mode == LstmScoreMode::kTargetRank
                             ? static_cast<double>(vocab)
                             : config_.unknown_score;
  ml::WindowBatch& batch = scratch.windows;
  batch.clear();
  scratch.slots.clear();
  for (std::size_t w = 0; w < out.size(); ++w) {
    const auto window = windows.subspan(w * window_events, window_events);
    // The first event lends only its time; the k + 1 after it are scored.
    if (std::any_of(window.begin() + 1, window.end(),
                    [&](const logproc::ParsedLog& log) {
                      return log.template_id >= vocab;
                    })) {
      out[w] = unknown;
      continue;
    }
    for (std::size_t j = 1; j + 1 < window.size(); ++j) {
      batch.ids.push_back(window[j].template_id);
      batch.dts.push_back(
          static_cast<float>((window[j].time - window[j - 1].time).seconds));
    }
    batch.targets.push_back(window.back().template_id);
    scratch.slots.push_back(&out[w]);
  }
  score_gathered(batch, scratch);
}

void LstmDetector::set_quantized(bool on) {
  config_.quantize = on;
  if (!model_) return;  // mode takes effect at the next fit
  refresh_image();
}

ModelMemoryStats LstmDetector::model_memory() const {
  ModelMemoryStats stats;
  if (!model_) return stats;
  stats.weight_bytes_fp32 = model_->fp32_weight_bytes();
  stats.quantized = image_.quantized;
  if (image_.quantized) {
    stats.weight_bytes_quantized = image_.gate_weight_bytes();
  }
  return stats;
}

void LstmDetector::save(std::ostream& os) const {
  NFV_CHECK(trained(), "cannot save an untrained detector");
  ml::write_u64(os, 0x4e465644455431ULL);  // "NFVDET1"
  ml::write_u64(os, static_cast<std::uint64_t>(config_.score_mode));
  ml::write_u64(os, config_.window);
  model_->save(os);
  ml::write_u64(os, config_.quantize ? 1 : 0);
}

LstmDetector LstmDetector::load(std::istream& is) {
  NFV_CHECK(ml::read_u64(is) == 0x4e465644455431ULL,
            "not an LstmDetector checkpoint");
  LstmDetectorConfig config;
  const std::uint64_t score_mode = ml::read_u64(is);
  NFV_CHECK(score_mode <= 1, "corrupt LstmDetector checkpoint: score_mode "
                                 << score_mode << " is not 0 or 1");
  config.score_mode = static_cast<LstmScoreMode>(score_mode);
  config.window = ml::read_u64(is);
  ml::SequenceModel model = ml::SequenceModel::load(is);
  NFV_CHECK(config.window == model.config().window,
            "corrupt LstmDetector checkpoint: header window "
                << config.window << " != model window "
                << model.config().window);
  const std::uint64_t int8 = ml::read_u64(is);
  NFV_CHECK(int8 <= 1, "corrupt LstmDetector checkpoint: precision flag "
                           << int8 << " is not 0 or 1");
  config.embed_dim = model.config().embed_dim;
  config.hidden = model.config().hidden;
  config.layers = model.config().layers;
  config.quantize = int8 == 1;
  LstmDetector detector(config);
  detector.model_.emplace(std::move(model));
  detector.refresh_image();
  return detector;
}

}  // namespace nfv::core
