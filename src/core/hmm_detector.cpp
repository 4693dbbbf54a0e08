#include "core/hmm_detector.h"

#include <algorithm>

#include "util/check.h"

namespace nfv::core {

HmmDetector::HmmDetector(const HmmDetectorConfig& config)
    : config_(config), model_(config.hmm), rng_(config.seed) {}

std::vector<std::vector<std::int32_t>> HmmDetector::make_windows(
    std::span<const LogView> streams) const {
  std::vector<std::vector<std::int32_t>> windows;
  const std::size_t k = config_.window;
  for (const LogView& logs : streams) {
    if (logs.size() <= k) continue;
    for (std::size_t i = k; i < logs.size(); ++i) {
      std::vector<std::int32_t> window;
      window.reserve(k + 1);
      for (std::size_t j = i - k; j <= i; ++j) {
        window.push_back(logs[j].template_id);
      }
      windows.push_back(std::move(window));
    }
  }
  if (windows.size() > config_.max_train_windows) {
    std::vector<std::vector<std::int32_t>> kept;
    kept.reserve(config_.max_train_windows);
    const double stride = static_cast<double>(windows.size()) /
                          static_cast<double>(config_.max_train_windows);
    for (std::size_t i = 0; i < config_.max_train_windows; ++i) {
      kept.push_back(std::move(windows[static_cast<std::size_t>(i * stride)]));
    }
    windows = std::move(kept);
  }
  return windows;
}

void HmmDetector::refit() {
  if (buffer_.empty()) return;
  if (buffer_.size() > config_.refit_buffer_windows) {
    buffer_.erase(buffer_.begin(),
                  buffer_.end() - static_cast<std::ptrdiff_t>(
                                      config_.refit_buffer_windows));
  }
  model_ = ml::Hmm(config_.hmm);
  nfv::util::Rng fit_rng = rng_.fork(buffer_.size());
  model_.fit(buffer_, vocab_, fit_rng);
}

void HmmDetector::fit(std::span<const LogView> streams, std::size_t vocab) {
  NFV_CHECK(vocab > 0, "fit requires a vocabulary");
  vocab_ = vocab;
  buffer_ = make_windows(streams);
  refit();
}

void HmmDetector::update(std::span<const LogView> streams,
                         std::size_t vocab) {
  NFV_CHECK(trained(), "update before fit");
  vocab_ = std::max(vocab_, vocab);
  auto windows = make_windows(streams);
  for (auto& window : windows) buffer_.push_back(std::move(window));
  refit();
}

void HmmDetector::adapt(std::span<const LogView> streams, std::size_t vocab) {
  NFV_CHECK(trained(), "adapt before fit");
  vocab_ = std::max(vocab_, vocab);
  // No incremental path: adaptation = refit dominated by the fresh data.
  buffer_ = make_windows(streams);
  refit();
}

void HmmDetector::score_windows(std::span<const logproc::ParsedLog> windows,
                                std::size_t window_events,
                                WindowScratch& scratch,
                                std::span<double> out) const {
  check_windows(windows, window_events, out);
  std::vector<std::int32_t>& ids = scratch.windows.ids;
  for (std::size_t w = 0; w < out.size(); ++w) {
    ids.clear();
    for (const logproc::ParsedLog& log :
         windows.subspan(w * window_events + 1, window_events - 1)) {
      ids.push_back(log.template_id);
    }
    out[w] = model_.anomaly_score(ids);
  }
}

}  // namespace nfv::core
