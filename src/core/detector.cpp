#include "core/detector.h"

namespace nfv::core {

std::vector<ScoredEvent> AnomalyDetector::score(LogView logs,
                                                std::size_t) const {
  return std::move(score_staged({&logs, 1}).front());
}

std::vector<std::vector<ScoredEvent>> AnomalyDetector::score_streams(
    std::span<const LogView> streams, std::size_t vocab) const {
  if (granularity() == EventGranularity::kPerLog) {
    return score_staged(streams);
  }
  std::vector<std::vector<ScoredEvent>> out;
  for (const LogView& logs : streams) out.push_back(score(logs, vocab));
  return out;
}

void AnomalyDetector::score_windows(std::span<const logproc::ParsedLog>,
                                    std::size_t, WindowScratch&,
                                    std::span<double>) const {
  NFV_CHECK(false, to_string(kind()) << " does not score staged windows");
}

void AnomalyDetector::check_windows(
    std::span<const logproc::ParsedLog> windows, std::size_t window_events,
    std::span<const double> out) const {
  NFV_CHECK(trained(), "score before fit");
  NFV_CHECK(window_events == window() + 2 &&
                windows.size() == out.size() * window_events,
            "score_windows: " << windows.size() << " events in windows of "
                              << window_events << " are not " << out.size()
                              << " windows of " << window() + 2);
}

std::vector<std::vector<ScoredEvent>> AnomalyDetector::score_staged(
    std::span<const LogView> streams) const {
  NFV_CHECK(trained(), "score before fit");
  const std::size_t k = window();
  std::vector<std::vector<ScoredEvent>> out(streams.size());
  std::vector<logproc::ParsedLog> windows;  // staged, k + 2 events each
  std::vector<ScoredEvent*> events;         // the event each one scores
  std::vector<double> scores;
  WindowScratch scratch;
  const auto score_chunk = [&] {
    scores.resize(events.size());
    score_windows(windows, k + 2, scratch, scores);
    for (std::size_t w = 0; w < events.size(); ++w) {
      events[w]->score = scores[w];
    }
    windows.clear();
    events.clear();
  };
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const LogView logs = streams[s];
    // Sized once, so the event pointers stay valid.
    out[s].resize(logs.size() > k ? logs.size() - k : 0);
    for (std::size_t i = k; i < logs.size(); ++i) {
      // The time-only event; the first window repeats logs[0].
      windows.push_back(logs[i == k ? 0 : i - k - 1]);
      windows.insert(windows.end(), logs.begin() + (i - k),
                     logs.begin() + (i + 1));
      out[s][i - k].time = logs[i].time;
      events.push_back(&out[s][i - k]);
      if (events.size() == kScoreBatch) score_chunk();
    }
  }
  if (!events.empty()) score_chunk();
  return out;
}

}  // namespace nfv::core
