// The batched inference engine's determinism contract: packing scoring
// windows from many streams into fused forward batches must produce
// scores bit-identical to window-by-window scoring — for ANY batch
// composition (the per-row forward math never depends on batch
// neighbours). These tests sweep the model's fused batch size
// ∈ {1, 5, 64, 1024} against the serial fp32 references, check the
// detector's cross-stream call (empty and short streams included)
// against one-window calls, and prove the StreamMonitorGroup
// micro-batch flush equivalent to immediate per-line ingestion. Run under
// -DNFVPRED_SANITIZE=thread via ctest -L concurrency.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/lstm_detector.h"
#include "core/streaming.h"
#include "logproc/dataset.h"
#include "logproc/signature_tree.h"
#include "ml/sequence_model.h"
#include "util/rng.h"

namespace nfv::core {
namespace {

using logproc::ParsedLog;
using nfv::util::SimTime;

constexpr std::size_t kStreams = 3;
constexpr std::size_t kVocab = 12;      // ids 10, 11 never seen in training
constexpr std::size_t kTrainVocab = 10;
constexpr std::size_t kWindow = 4;

std::vector<ParsedLog> make_stream(std::size_t stream, std::size_t length,
                                   bool with_unknowns) {
  std::vector<ParsedLog> logs;
  logs.reserve(length);
  std::int64_t t = 0;
  for (std::size_t i = 0; i < length; ++i) {
    t += 20 + static_cast<std::int64_t>((i * 13 + stream * 7) % 45);
    std::size_t id = (i * 5 + stream * 3 + i / 17) % kTrainVocab;
    if (with_unknowns && i % 41 == 19) id = kTrainVocab + (stream % 2);
    logs.push_back({SimTime{t}, static_cast<std::int32_t>(id)});
  }
  return logs;
}

LstmDetector make_trained_detector(LstmScoreMode mode) {
  LstmDetectorConfig config;
  config.window = kWindow;
  config.embed_dim = 8;
  config.hidden = 8;
  config.initial_epochs = 1;
  config.max_train_windows = 800;
  config.oversample = false;
  config.score_mode = mode;
  LstmDetector detector(config);
  std::vector<std::vector<ParsedLog>> train(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    train[s] = make_stream(s, 300, /*with_unknowns=*/false);
  }
  std::vector<LogView> views(train.begin(), train.end());
  detector.fit(views, kTrainVocab);
  return detector;
}

void expect_identical_events(
    const std::vector<std::vector<ScoredEvent>>& expected,
    const std::vector<std::vector<ScoredEvent>>& actual,
    const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (std::size_t s = 0; s < expected.size(); ++s) {
    ASSERT_EQ(expected[s].size(), actual[s].size()) << label << " stream " << s;
    for (std::size_t e = 0; e < expected[s].size(); ++e) {
      ASSERT_EQ(expected[s][e].time.seconds, actual[s][e].time.seconds)
          << label << " stream " << s << " event " << e;
      // Bit-identical, not approximately equal.
      ASSERT_EQ(expected[s][e].score, actual[s][e].score)
          << label << " stream " << s << " event " << e;
    }
  }
}

TEST(BatchInvarianceTest, ScoresIdenticalForAnyBatchComposition) {
  for (const LstmScoreMode mode :
       {LstmScoreMode::kLogLikelihood, LstmScoreMode::kTargetRank}) {
    LstmDetector detector = make_trained_detector(mode);

    // Unknown templates exercise the gather/scatter split between
    // model-scored and constant-scored windows; the empty stream and the
    // stream shorter than the window sit in the middle, so every later
    // stream's windows must still land in their own slots.
    std::vector<std::vector<ParsedLog>> test_streams = {
        make_stream(10, 200, /*with_unknowns=*/true),
        {},
        make_stream(11, kWindow - 1, /*with_unknowns=*/false),
        make_stream(12, 200, /*with_unknowns=*/true),
        make_stream(13, 200, /*with_unknowns=*/true),
    };
    std::vector<LogView> views(test_streams.begin(), test_streams.end());

    // Reference: the window ending at each log, scored in a call of its
    // own (a fused batch of at most two rows), serial. The slice starts
    // one log before the window so the window's first Δt matches the
    // full stream's; its last event is that window's score.
    std::vector<std::vector<ScoredEvent>> reference(views.size());
    for (std::size_t s = 0; s < views.size(); ++s) {
      for (std::size_t i = kWindow; i < views[s].size(); ++i) {
        const std::size_t begin = i == kWindow ? 0 : i - kWindow - 1;
        const std::vector<ScoredEvent> one =
            detector.score(views[s].subspan(begin, i + 1 - begin), kVocab);
        ASSERT_FALSE(one.empty());
        reference[s].push_back(one.back());
      }
    }
    EXPECT_TRUE(reference[1].empty());
    EXPECT_TRUE(reference[2].empty());
    ASSERT_FALSE(reference.back().empty());

    const std::string label =
        "mode=" + std::to_string(static_cast<int>(mode));
    // Every stream's windows in one fused batch...
    expect_identical_events(reference, detector.score_streams(views, kVocab),
                            label + " all streams");
    // ...and one stream's windows per batch.
    std::vector<std::vector<ScoredEvent>> per_stream;
    for (const LogView& view : views) {
      per_stream.push_back(detector.score(view, kVocab));
    }
    expect_identical_events(reference, per_stream, label + " per stream");
  }
}

/// Window `row` of `from` alone, as a one-window batch.
ml::WindowBatch one_window(const ml::WindowBatch& from, std::size_t row,
                           std::size_t window) {
  ml::WindowBatch one;
  one.append_row(from, row, window);
  return one;
}

// The fused path must agree with the completely independent serial
// reference paths (SequenceModel::score_log_likelihood for the NLL mode,
// score_target_ranks for DeepLog's rank mode) window by window.
TEST(BatchInvarianceTest, FusedScoresMatchSerialModelReference) {
  const std::vector<ParsedLog> logs =
      make_stream(42, 150, /*with_unknowns=*/false);
  ml::WindowBatch windows;
  logproc::append_sequence_windows(logs, kWindow, windows,
                                   nfv::util::Duration::of_days(3650));

  const LstmDetector nll_detector =
      make_trained_detector(LstmScoreMode::kLogLikelihood);
  const std::vector<ScoredEvent> nll = nll_detector.score(logs, kTrainVocab);
  ASSERT_EQ(nll.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const std::vector<double> ll = nll_detector.model().score_log_likelihood(
        one_window(windows, i, kWindow));
    ASSERT_EQ(nll[i].score, -ll[0]) << "window " << i;
  }

  const LstmDetector rank_detector =
      make_trained_detector(LstmScoreMode::kTargetRank);
  const std::vector<ScoredEvent> ranks = rank_detector.score(logs, kTrainVocab);
  ASSERT_EQ(ranks.size(), windows.size());
  bool any_nonzero_rank = false;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const std::vector<std::size_t> rank =
        rank_detector.model().score_target_ranks(
            one_window(windows, i, kWindow));
    ASSERT_EQ(ranks[i].score, static_cast<double>(rank[0])) << "window " << i;
    any_nonzero_rank = any_nonzero_rank || rank[0] != 0;
  }
  EXPECT_TRUE(any_nonzero_rank) << "vacuous: every target ranked first";
}

ml::WindowBatch make_windows(std::size_t count, std::size_t window,
                             std::size_t vocab, std::uint64_t seed) {
  nfv::util::Rng rng(seed);
  ml::WindowBatch windows;
  for (std::size_t e = 0; e < count; ++e) {
    for (std::size_t t = 0; t < window; ++t) {
      windows.ids.push_back(
          static_cast<std::int32_t>(rng.uniform_index(vocab)));
      windows.dts.push_back(static_cast<float>(rng.uniform_index(300)));
    }
    windows.targets.push_back(
        static_cast<std::int32_t>(rng.uniform_index(vocab)));
  }
  return windows;
}

// The fp32 model's fused scoring entry points against its serial
// references, for fused batch sizes that run only the kernels' 1-row tail
// (1, 2, 3), split the 130 windows into tile-plus-tail batches (5, 7, 9,
// 63), leave one partial batch (64) or match the detector's
// LstmDetector::kScoreBatch (1024). One scratch is
// reused across every call, as a caller scoring many batches would.
TEST(BatchInvarianceTest, ModelBatchedScoringMatchesSerialForAnyBatchSize) {
  ml::SequenceModelConfig config;
  config.vocab = 9;
  config.embed_dim = 6;
  config.hidden = 6;
  config.window = 3;
  nfv::util::Rng rng(7);
  const ml::SequenceModel model(config, rng);  // untrained weights suffice

  const ml::WindowBatch windows =
      make_windows(130, config.window, config.vocab, 99);
  std::vector<double> serial_ll;
  std::vector<std::size_t> serial_ranks;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const ml::WindowBatch one = one_window(windows, i, config.window);
    serial_ll.push_back(model.score_log_likelihood(one)[0]);
    serial_ranks.push_back(model.score_target_ranks(one)[0]);
  }

  const ml::SequenceModel::ScoringImage image = model.build_scoring_image();
  ml::SequenceModel::InferenceScratch scratch;
  for (const std::size_t batch_size :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
        std::size_t{7}, std::size_t{9}, std::size_t{63}, std::size_t{64},
        LstmDetector::kScoreBatch}) {
    std::vector<double> ll(windows.size());
    model.score_batched(image, windows, batch_size, scratch, ll);
    EXPECT_EQ(ll, serial_ll) << "batch_size " << batch_size;
    std::vector<std::size_t> ranks(windows.size());
    model.score_ranks_batched(image, windows, batch_size, scratch, ranks);
    EXPECT_EQ(ranks, serial_ranks) << "batch_size " << batch_size;
  }
}

TEST(BatchInvarianceTest, MonitorGroupFlushMatchesImmediateIngestion) {
  LstmDetector detector = make_trained_detector(LstmScoreMode::kLogLikelihood);

  std::vector<std::vector<ParsedLog>> test_streams(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    test_streams[s] = make_stream(s + 20, 180, /*with_unknowns=*/true);
  }

  StreamMonitorConfig config;
  config.window = kWindow;
  config.threshold = 5.0;
  config.min_cluster_size = 2;

  // Immediate per-line ingestion (the reference).
  std::vector<std::vector<double>> direct_scores(kStreams);
  std::vector<std::vector<StreamWarning>> direct_warnings(kStreams);
  std::vector<logproc::SignatureTree> direct_trees(kStreams);
  {
    std::vector<StreamMonitor> monitors;
    monitors.reserve(kStreams);
    for (std::size_t s = 0; s < kStreams; ++s) {
      monitors.emplace_back(
          static_cast<std::int32_t>(s), &detector, &direct_trees[s], config,
          [&direct_warnings, s](const StreamWarning& warning) {
            direct_warnings[s].push_back(warning);
          });
    }
    for (std::size_t i = 0; i < test_streams[0].size(); ++i) {
      for (std::size_t s = 0; s < kStreams; ++s) {
        direct_scores[s].push_back(
            monitors[s].ingest_parsed(test_streams[s][i]));
      }
    }
  }

  // Micro-batched: stage the same interleaving, flush periodically.
  std::vector<std::vector<StreamWarning>> group_warnings(kStreams);
  std::vector<logproc::SignatureTree> group_trees(kStreams);
  std::vector<StreamMonitor> monitors;
  monitors.reserve(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    monitors.emplace_back(
        static_cast<std::int32_t>(s), &detector, &group_trees[s], config,
        [&group_warnings, s](const StreamWarning& warning) {
          group_warnings[s].push_back(warning);
        });
  }
  StreamMonitorGroup group(&detector);
  for (std::size_t s = 0; s < kStreams; ++s) group.add(&monitors[s]);

  std::vector<std::vector<double>> group_scores(kStreams);
  std::vector<std::size_t> flush_shard_order;
  const auto drain = [&] {
    const std::span<const double> scores = group.flush();
    ASSERT_EQ(scores.size(), flush_shard_order.size());
    for (std::size_t i = 0; i < scores.size(); ++i) {
      group_scores[flush_shard_order[i]].push_back(scores[i]);
    }
    flush_shard_order.clear();
  };
  for (std::size_t i = 0; i < test_streams[0].size(); ++i) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      group.ingest_parsed(s, test_streams[s][i]);
      flush_shard_order.push_back(s);
    }
    if (i % 17 == 16) drain();  // micro-batch flush cadence
  }
  drain();

  for (std::size_t s = 0; s < kStreams; ++s) {
    ASSERT_EQ(direct_scores[s].size(), group_scores[s].size());
    for (std::size_t i = 0; i < direct_scores[s].size(); ++i) {
      ASSERT_EQ(direct_scores[s][i], group_scores[s][i])
          << "shard " << s << " line " << i;
    }
    ASSERT_EQ(direct_warnings[s].size(), group_warnings[s].size())
        << "shard " << s;
    for (std::size_t w = 0; w < direct_warnings[s].size(); ++w) {
      EXPECT_EQ(direct_warnings[s][w].time.seconds,
                group_warnings[s][w].time.seconds);
      EXPECT_EQ(direct_warnings[s][w].anomaly_count,
                group_warnings[s][w].anomaly_count);
      EXPECT_EQ(direct_warnings[s][w].peak_score,
                group_warnings[s][w].peak_score);
      EXPECT_EQ(direct_warnings[s][w].trigger_template,
                group_warnings[s][w].trigger_template);
    }
  }
}

}  // namespace
}  // namespace nfv::core
