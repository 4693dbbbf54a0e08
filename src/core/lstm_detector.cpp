#include "core/lstm_detector.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "ml/optimizer.h"
#include "ml/serialize.h"
#include "util/check.h"
#include "util/stats.h"

namespace nfv::core {

using ml::SeqExample;
using nfv::util::Rng;

LstmDetector::LstmDetector(const LstmDetectorConfig& config)
    : config_(config), rng_(config.seed) {}

LstmDetector::LstmDetector(const LstmDetector& other)
    : config_(other.config_),
      model_(other.model_),
      image_(other.image_),
      rng_(other.rng_) {}

LstmDetector& LstmDetector::operator=(const LstmDetector& other) {
  if (this != &other) {
    config_ = other.config_;
    model_ = other.model_;
    image_ = other.image_;
    rng_ = other.rng_;
    optimizer_.reset();
  }
  return *this;
}

std::vector<SeqExample> LstmDetector::prepare_examples(
    std::span<const LogView> streams) const {
  std::vector<SeqExample> examples;
  for (const LogView& logs : streams) {
    std::vector<SeqExample> part =
        logproc::build_sequence_examples(logs, config_.window);
    examples.insert(examples.end(),
                    std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
  }
  if (examples.size() > config_.max_train_windows) {
    // Deterministic uniform subsample preserving time order.
    std::vector<SeqExample> kept;
    kept.reserve(config_.max_train_windows);
    const double stride = static_cast<double>(examples.size()) /
                          static_cast<double>(config_.max_train_windows);
    for (std::size_t i = 0; i < config_.max_train_windows; ++i) {
      kept.push_back(examples[static_cast<std::size_t>(i * stride)]);
    }
    examples = std::move(kept);
  }
  return examples;
}

void LstmDetector::train_epochs(std::span<const SeqExample> examples,
                                std::size_t epochs, float lr) {
  if (examples.empty()) return;
  // Default path: a fresh Adam per training round (the seed behavior).
  // Persistent path: one instance lives on the detector and is re-pointed
  // at the (possibly moved or vocab-grown) parameters each round, keeping
  // its moment state warm across incremental updates.
  std::optional<ml::Adam> local_optimizer;
  ml::Adam* optimizer = nullptr;
  if (config_.persistent_optimizer) {
    if (!optimizer_) optimizer_ = std::make_unique<ml::Adam>(lr);
    optimizer_->set_learning_rate(lr);
    optimizer_->rebind(model_->params());
    optimizer = optimizer_.get();
  } else {
    local_optimizer.emplace(lr);
    local_optimizer->bind(model_->params());
    optimizer = &*local_optimizer;
  }
  std::vector<std::size_t> order(examples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Hoisted out of the batch loop: the pointer buffer (and the model's
  // input scratch, inside train_batch) is reused for every batch.
  std::vector<const SeqExample*> batch;
  batch.reserve(std::min<std::size_t>(config_.batch_size, order.size()));
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng_.shuffle(order);
    for (std::size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const std::size_t end =
          std::min(start + config_.batch_size, order.size());
      batch.clear();
      for (std::size_t i = start; i < end; ++i) {
        batch.push_back(&examples[order[i]]);
      }
      model_->train_batch(batch, *optimizer);
    }
  }
  // The over-sampling loop scores between training rounds.
  refresh_image();
}

void LstmDetector::refresh_image() {
  image_ = model_->build_scoring_image();
}

bool LstmDetector::gather(LogView logs, std::size_t i,
                          ml::WindowBatch& windows) const {
  const std::size_t k = config_.window;
  const auto vocab = static_cast<std::int32_t>(model_->config().vocab);
  for (std::size_t j = i - k; j <= i; ++j) {
    if (logs[j].template_id >= vocab) return false;
  }
  // Δt as build_sequence_examples computes it: the stream's first event
  // has no predecessor and gets 0.
  for (std::size_t j = i - k; j < i; ++j) {
    windows.ids.push_back(logs[j].template_id);
    windows.dts.push_back(
        j == 0 ? 0.0f
               : static_cast<float>((logs[j].time - logs[j - 1].time).seconds));
  }
  windows.targets.push_back(logs[i].template_id);
  return true;
}

double LstmDetector::unknown_score() const {
  // Templates the model has never seen are maximally surprising.
  return config_.score_mode == LstmScoreMode::kTargetRank
             ? static_cast<double>(model_->config().vocab)
             : config_.unknown_score;
}

void LstmDetector::score_gathered(WindowScratch& scratch) const {
  const std::size_t n = scratch.windows.size();
  if (n == 0) return;
  if (config_.score_mode == LstmScoreMode::kTargetRank) {
    scratch.ranks.resize(n);
    model_->score_ranks_batched(image_, scratch.windows, kScoreBatch,
                                scratch.model, scratch.ranks);
    for (std::size_t i = 0; i < n; ++i) {
      *scratch.slots[i] = static_cast<double>(scratch.ranks[i]);
    }
  } else {
    scratch.scores.resize(n);
    model_->score_batched(image_, scratch.windows, kScoreBatch, scratch.model,
                          scratch.scores);
    for (std::size_t i = 0; i < n; ++i) {
      *scratch.slots[i] = -scratch.scores[i];
    }
  }
}

std::vector<double> LstmDetector::score_examples(
    std::span<const SeqExample> examples) const {
  NFV_CHECK(trained(), "score_examples before fit");
  std::vector<double> scores(examples.size());
  WindowScratch scratch;
  for (std::size_t i = 0; i < examples.size(); ++i) {
    scratch.windows.push_back(examples[i], config_.window);
    scratch.slots.push_back(&scores[i]);
  }
  score_gathered(scratch);
  return scores;
}

void LstmDetector::oversample_refine(std::vector<SeqExample> examples) {
  if (examples.empty()) return;
  double previous_fp_rate = 1.0;
  for (std::size_t round = 0; round < config_.oversample_rounds; ++round) {
    const std::vector<double> scores = score_examples(examples);
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
    std::vector<SeqExample> refined;
    refined.reserve(minority.size() * config_.oversample_factor +
                    examples.size() / 2);
    for (std::size_t idx : minority) {
      for (std::size_t r = 0; r < config_.oversample_factor; ++r) {
        refined.push_back(examples[idx]);
      }
    }
    for (std::size_t i = 0; i < examples.size(); ++i) {
      if (rng_.bernoulli(0.5)) refined.push_back(examples[i]);
    }
    train_epochs(refined, 1, config_.update_lr);
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
  // A freshly initialized model invalidates any accumulated moment state.
  optimizer_.reset();

  std::vector<SeqExample> examples = prepare_examples(streams);
  train_epochs(examples, config_.initial_epochs, config_.initial_lr);
  if (config_.oversample) oversample_refine(std::move(examples));
  // Calibrate once, after ALL training (including the over-sampling
  // rounds, which score with the fp32 model they just trained).
  if (config_.quantize) model_->quantize();
  refresh_image();
}

void LstmDetector::update(std::span<const LogView> streams,
                          std::size_t vocab) {
  NFV_CHECK(trained(), "update before fit");
  if (vocab > model_->config().vocab) {
    Rng grow_rng = rng_.fork(2);
    model_->grow_vocab(vocab, grow_rng);
  }
  std::vector<SeqExample> examples = prepare_examples(streams);
  train_epochs(examples, config_.update_epochs, config_.update_lr);
  if (config_.quantize) model_->quantize();
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
    std::vector<SeqExample> examples = prepare_examples(streams);
    train_epochs(examples, config_.adapt_epochs, config_.adapt_lr);
  }
  if (config_.quantize) model_->quantize();
  refresh_image();
}

std::vector<ScoredEvent> LstmDetector::score(LogView logs,
                                             std::size_t vocab) const {
  return std::move(score_streams({&logs, 1}, vocab)[0]);
}

std::vector<std::vector<ScoredEvent>> LstmDetector::score_streams(
    std::span<const LogView> streams, std::size_t vocab) const {
  NFV_CHECK(trained(), "score before fit");
  (void)vocab;
  // Gather every stream's model-known windows into one flat batch, each
  // with a pointer to its output slot (out[s] is sized once, so the
  // pointers stay valid); unknown-template windows score the pessimistic
  // constant at once. Every log with k predecessors gets a score, so
  // window e is position window + e.
  const std::size_t k = config_.window;
  std::vector<std::vector<ScoredEvent>> out(streams.size());
  WindowScratch scratch;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const LogView logs = streams[s];
    if (logs.size() <= k) continue;
    out[s].resize(logs.size() - k);
    for (std::size_t i = k; i < logs.size(); ++i) {
      ScoredEvent& event = out[s][i - k];
      event.time = logs[i].time;
      if (gather(logs, i, scratch.windows)) {
        scratch.slots.push_back(&event.score);
      } else {
        event.score = unknown_score();
      }
    }
  }
  score_gathered(scratch);
  return out;
}

void LstmDetector::score_windows(std::span<const logproc::ParsedLog> windows,
                                 std::size_t window_events,
                                 WindowScratch& scratch,
                                 std::span<double> out) const {
  NFV_CHECK(trained(), "score before fit");
  NFV_CHECK(window_events == config_.window + 1 &&
                windows.size() == out.size() * window_events,
            "score_windows: " << windows.size() << " events are not "
                              << out.size() << " windows of "
                              << config_.window + 1);
  scratch.windows.clear();
  scratch.slots.clear();
  for (std::size_t w = 0; w < out.size(); ++w) {
    if (gather(windows.subspan(w * window_events, window_events),
               config_.window, scratch.windows)) {
      scratch.slots.push_back(&out[w]);
    } else {
      out[w] = unknown_score();
    }
  }
  score_gathered(scratch);
}

void LstmDetector::set_quantized(bool on) {
  config_.quantize = on;
  if (!model_) return;  // mode takes effect at the next fit
  if (on) {
    model_->quantize();
  } else {
    model_->clear_quantized();
  }
  refresh_image();
}

ModelMemoryStats LstmDetector::model_memory() const {
  ModelMemoryStats stats;
  if (!model_) return stats;
  stats.weight_bytes_fp32 = model_->fp32_weight_bytes();
  stats.weight_bytes_quantized = model_->quantized_weight_bytes();
  stats.quantized = model_->quantized();
  return stats;
}

void LstmDetector::save(std::ostream& os) const {
  NFV_CHECK(trained(), "cannot save an untrained detector");
  ml::write_u64(os, 0x4e465644455431ULL);  // "NFVDET1"
  ml::write_u64(os, static_cast<std::uint64_t>(config_.score_mode));
  ml::write_u64(os, config_.window);
  model_->save(os);
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
  config.embed_dim = model.config().embed_dim;
  config.hidden = model.config().hidden;
  config.layers = model.config().layers;
  config.quantize = model.quantized();
  LstmDetector detector(config);
  detector.model_.emplace(std::move(model));
  detector.refresh_image();
  return detector;
}

}  // namespace nfv::core
