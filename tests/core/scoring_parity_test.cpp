// The runtime scores what score() scores: every line a streaming
// front-end scores (StreamMonitor, StreamMonitorGroup, AsyncIngest at 1,
// 2 and 4 workers) gets, bit for bit, the score LstmDetector::score()
// gives that position of the line's whole per-vPE stream. Covered in fp32
// and int8, in log-likelihood and target-rank modes, across detector
// swaps and, for AsyncIngest, across two swaps of runtime-owned
// generations. The streams carry irregular gaps (so every
// window's Δt matters, its oldest event's included), a multi-day silence
// and templates the model has never seen.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/async_ingest.h"
#include "core/lstm_detector.h"
#include "core/streaming.h"
#include "util/rng.h"

namespace nfv::core {
namespace {

using logproc::ParsedLog;
using nfv::util::SimTime;

constexpr std::size_t kVpes = 5;
constexpr std::size_t kLines = 150;  // per vPE
constexpr std::size_t kWindow = 4;
constexpr std::size_t kVocab = 8;  // ids >= kVocab are unknown to the models

/// Per-vPE streams of a cyclic motif with noise. Times are unique across
/// the fleet (vPE v's are v mod kVpes), so a scored line's time names its
/// vPE and position. With `unknown`, about one line in 30 carries a
/// template outside the models' vocabulary, and vPE 1 falls silent for
/// four days halfway through.
std::vector<std::vector<ParsedLog>> fleet(std::uint64_t seed, bool unknown) {
  nfv::util::Rng rng(seed);
  std::vector<std::vector<ParsedLog>> streams(kVpes);
  for (std::size_t v = 0; v < kVpes; ++v) {
    std::int64_t t = static_cast<std::int64_t>(v);
    for (std::size_t i = 0; i < kLines; ++i) {
      t += static_cast<std::int64_t>(kVpes * (1 + rng.uniform_index(240)));
      if (unknown && v == 1 && i == kLines / 2) t += kVpes * 4 * 86400;
      auto id = static_cast<std::int32_t>((i + v) % 5);
      if (rng.uniform_index(10) == 0) {
        id = static_cast<std::int32_t>(rng.uniform_index(kVocab));
      }
      if (unknown && rng.uniform_index(30) == 0) {
        id = static_cast<std::int32_t>(kVocab + rng.uniform_index(3));
      }
      streams[v].push_back({SimTime{t}, id});
    }
  }
  return streams;
}

/// Two model generations of one score mode, the second an update of the
/// first on fresh traffic: the swap targets.
struct Generations {
  LstmDetector first;
  LstmDetector second;
};

const Generations& generations(LstmScoreMode mode) {
  const auto train = [](LstmScoreMode m) {
    LstmDetectorConfig config;
    config.window = kWindow;
    config.embed_dim = 4;
    config.hidden = 8;
    config.initial_epochs = 2;
    config.update_epochs = 1;
    config.oversample = false;
    config.max_train_windows = 600;
    config.score_mode = m;
    Generations g{LstmDetector(config), LstmDetector(config)};
    const auto streams = fleet(11, false);
    const std::vector<LogView> views(streams.begin(), streams.end());
    g.first.fit(views, kVocab);
    g.second = g.first;
    const auto fresh = fleet(12, false);
    const std::vector<LogView> fresh_views(fresh.begin(), fresh.end());
    g.second.update(fresh_views, kVocab);
    return g;
  };
  static const Generations log_likelihood =
      train(LstmScoreMode::kLogLikelihood);
  static const Generations target_rank = train(LstmScoreMode::kTargetRank);
  return mode == LstmScoreMode::kTargetRank ? target_rank : log_likelihood;
}

struct Variant {
  LstmScoreMode mode;
  bool int8;
};

std::string variant_name(const ::testing::TestParamInfo<Variant>& info) {
  return std::string(info.param.int8 ? "Int8" : "Fp32") +
         (info.param.mode == LstmScoreMode::kTargetRank ? "TargetRank"
                                                        : "LogLikelihood");
}

void PrintTo(const Variant& variant, std::ostream* os) {
  *os << variant_name({variant, 0});
}

/// score() of every stream by `detector`: expected[v][i] is the score of
/// vPE v's line i (i >= kWindow).
std::vector<std::vector<double>> score_streams_by_position(
    const LstmDetector& detector,
    const std::vector<std::vector<ParsedLog>>& streams) {
  std::vector<std::vector<double>> expected(kVpes);
  for (std::size_t v = 0; v < kVpes; ++v) {
    expected[v].assign(kLines, 0.0);
    const std::vector<ScoredEvent> events = detector.score(streams[v], 0);
    EXPECT_EQ(events.size(), kLines - kWindow);
    for (std::size_t e = 0; e < events.size(); ++e) {
      EXPECT_EQ(events[e].time, streams[v][kWindow + e].time);
      expected[v][kWindow + e] = events[e].score;
    }
  }
  return expected;
}

StreamMonitorConfig monitor_config() {
  StreamMonitorConfig config;
  config.window = kWindow;
  config.threshold = std::numeric_limits<double>::infinity();
  return config;
}

class StreamingScoreParity : public ::testing::TestWithParam<Variant> {
 protected:
  StreamingScoreParity()
      : first_(generations(GetParam().mode).first),
        second_(generations(GetParam().mode).second),
        streams_(fleet(42, true)) {
    if (GetParam().int8) {
      first_.set_quantized(true);
      second_.set_quantized(true);
    }
    expected_first_ = score_streams_by_position(first_, streams_);
    expected_second_ = score_streams_by_position(second_, streams_);
    // Not vacuous: a swap changes the scores.
    EXPECT_NE(expected_first_, expected_second_);
  }

  /// The score line i of vPE v must get from generation 1 or 2.
  double expected(std::size_t v, std::size_t i, bool second) const {
    return (second ? expected_second_ : expected_first_)[v][i];
  }

  LstmDetector first_;
  LstmDetector second_;
  std::vector<std::vector<ParsedLog>> streams_;
  std::vector<std::vector<double>> expected_first_;
  std::vector<std::vector<double>> expected_second_;
};

constexpr std::size_t kSwapAt = kLines / 2;

// One immediate monitor per vPE, swapped to the second generation at
// kSwapAt; the history survives the swap.
TEST_P(StreamingScoreParity, StreamMonitorScoresEveryLineAsScore) {
  logproc::SignatureTree tree;
  for (std::size_t v = 0; v < kVpes; ++v) {
    StreamMonitor monitor(static_cast<std::int32_t>(v), &first_, &tree,
                          monitor_config(), nullptr);
    for (std::size_t i = 0; i < kLines; ++i) {
      if (i == kSwapAt) monitor.set_detector(&second_);
      const double score = monitor.ingest_parsed(streams_[v][i]);
      ASSERT_EQ(score, expected(v, i, i >= kSwapAt))
          << "vPE " << v << " line " << i;
    }
  }
}

// Every vPE a shard of one group, lines interleaved across shards and
// flushed every 37 lines, the group swapped at a flush boundary.
TEST_P(StreamingScoreParity, StreamMonitorGroupScoresEveryLineAsScore) {
  logproc::SignatureTree tree;
  std::vector<StreamMonitor> monitors;
  monitors.reserve(kVpes);
  StreamMonitorGroup group(&first_);
  for (std::size_t v = 0; v < kVpes; ++v) {
    monitors.emplace_back(static_cast<std::int32_t>(v), &first_, &tree,
                          monitor_config(), nullptr);
    group.add(&monitors.back());
  }
  std::vector<std::pair<std::size_t, std::size_t>> staged;  // (vPE, line)
  bool swapped = false;
  const auto flush = [&] {
    const std::span<const double> scores = group.flush();
    ASSERT_EQ(scores.size(), staged.size());
    for (std::size_t e = 0; e < staged.size(); ++e) {
      const auto [v, i] = staged[e];
      ASSERT_EQ(scores[e], expected(v, i, swapped))
          << "vPE " << v << " line " << i;
    }
    staged.clear();
  };
  for (std::size_t i = 0; i < kLines; ++i) {
    if (i == kSwapAt) {
      flush();
      group.set_detector(&second_);
      swapped = true;
    }
    for (std::size_t v = 0; v < kVpes; ++v) {
      group.ingest_parsed(v, streams_[v][i]);
      staged.emplace_back(v, i);
      if (staged.size() == 37) flush();
    }
  }
  flush();
}

/// Forwards score_windows to a detector and logs each window's score by
/// the time of its scored (last) event into a caller-owned record, so a
/// test can check every line AsyncIngest scored, also after the runtime
/// has freed the generation. Workers score concurrently, so the record is
/// locked.
class RecordingDetector final : public AnomalyDetector {
 public:
  struct Record {
    std::mutex mutex;
    std::vector<std::pair<SimTime, double>> scored;  // in scoring order
  };

  RecordingDetector(const LstmDetector* inner, Record* record)
      : inner_(inner), record_(record) {}

  void fit(std::span<const LogView>, std::size_t) override {}
  void update(std::span<const LogView>, std::size_t) override {}
  void adapt(std::span<const LogView>, std::size_t) override {}
  std::size_t window() const override { return inner_->window(); }
  void score_windows(std::span<const ParsedLog> windows,
                     std::size_t window_events, WindowScratch& scratch,
                     std::span<double> out) const override {
    inner_->score_windows(windows, window_events, scratch, out);
    const std::lock_guard<std::mutex> lock(record_->mutex);
    for (std::size_t w = 0; w < out.size(); ++w) {
      record_->scored.emplace_back(windows[(w + 1) * window_events - 1].time,
                                   out[w]);
    }
  }
  bool trained() const override { return inner_->trained(); }
  DetectorKind kind() const override { return DetectorKind::kLstm; }
  EventGranularity granularity() const override {
    return EventGranularity::kPerLog;
  }

 private:
  const LstmDetector* inner_;
  Record* record_;
};

// Three generations, each swapped in at the flush boundary swap_detector()
// makes: the constructor's recorder of the first model, then runtime-owned
// recorders of the second model and of the first again. The runtime frees
// the second generation at the barrier after the next swap; its record
// outlives it. Every line is scored by the generation installed when it
// was submitted.
TEST_P(StreamingScoreParity, AsyncIngestScoresEveryLineAsScore) {
  constexpr std::size_t kFirstSwap = kLines / 3;
  constexpr std::size_t kSecondSwap = 2 * kLines / 3;
  const auto generation_of = [](std::size_t i) -> std::size_t {
    return i >= kSecondSwap ? 2 : i >= kFirstSwap ? 1 : 0;
  };
  for (const std::size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " worker(s)");
    std::array<RecordingDetector::Record, 3> records;
    const RecordingDetector constructed(&first_, &records[0]);
    AsyncIngestConfig config;
    config.workers = workers;
    config.flush_batch = 16;
    config.queue_capacity = 64;
    AsyncIngest ingest(&constructed, config);
    for (std::size_t v = 0; v < kVpes; ++v) {
      ingest.add_shard(static_cast<std::int32_t>(v), monitor_config());
    }
    ingest.start();
    const auto submit = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        for (std::size_t v = 0; v < kVpes; ++v) {
          ingest.submit_parsed(v, streams_[v][i]);
        }
      }
    };
    submit(0, kFirstSwap);
    ingest.swap_detector(
        std::make_unique<RecordingDetector>(&second_, &records[1]));
    submit(kFirstSwap, kSecondSwap);
    ingest.swap_detector(
        std::make_unique<RecordingDetector>(&first_, &records[2]));
    submit(kSecondSwap, kLines);
    ingest.flush();
    ingest.stop();

    // Every line with a full history scored exactly once, by the
    // generation it belongs to, with that generation's score() score.
    std::vector<std::vector<int>> seen(kVpes, std::vector<int>(kLines, 0));
    for (std::size_t generation = 0; generation < records.size();
         ++generation) {
      for (const auto& [time, score] : records[generation].scored) {
        const auto v = static_cast<std::size_t>(time.seconds % kVpes);
        std::size_t i = 0;
        while (i < kLines && streams_[v][i].time != time) ++i;
        ASSERT_LT(i, kLines) << "scored a line never submitted";
        ++seen[v][i];
        EXPECT_EQ(generation, generation_of(i))
            << "vPE " << v << " line " << i;
        EXPECT_EQ(score, expected(v, i, generation == 1))
            << "vPE " << v << " line " << i;
      }
    }
    for (std::size_t v = 0; v < kVpes; ++v) {
      for (std::size_t i = 0; i < kLines; ++i) {
        EXPECT_EQ(seen[v][i], i < kWindow ? 0 : 1)
            << "vPE " << v << " line " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPrecisionsAndModes, StreamingScoreParity,
    ::testing::Values(Variant{LstmScoreMode::kLogLikelihood, false},
                      Variant{LstmScoreMode::kTargetRank, false},
                      Variant{LstmScoreMode::kLogLikelihood, true},
                      Variant{LstmScoreMode::kTargetRank, true}),
    variant_name);

}  // namespace
}  // namespace nfv::core
