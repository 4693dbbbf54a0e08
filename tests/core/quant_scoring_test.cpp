// Detector-level contracts of the int8 quantized scoring tier.
//
// What must hold when LstmDetector scores from an int8 scoring image
// instead of an fp32 one:
//   - DeepLog-style top-k decisions agree with fp32 on predictable
//     traffic (the statistical 99.5% gate over a noisy corpus runs in
//     bench_scoring_throughput --smoke; here the corpus is margin-y and
//     agreement must be near-total);
//   - the warning stream of the async ingest runtime is unchanged by
//     quantization when anomalies have real margin — the operational
//     parity the paper's deployment story needs;
//   - save → load reproduces the int8 scores bit-exactly: the checkpoint
//     holds the fp32 weights and a precision flag, and the loader
//     re-derives the same int8 image from them; an fp32 and an int8
//     checkpoint differ only in that flag, and a flag other than 0 or 1
//     is refused;
//   - set_quantized() is a reversible toggle: returning to fp32 restores
//     bit-exact fp32 scoring;
//   - AsyncIngest::stats_json() reports the detector's model memory once,
//     in its top-level model block, so the fleet bytes/vPE axis is
//     observable at runtime.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/async_ingest.h"
#include "core/lstm_detector.h"
#include "logproc/signature_tree.h"
#include "util/check.h"
#include "util/json.h"

namespace nfv::core {
namespace {

using logproc::ParsedLog;
using logproc::SignatureTree;
using nfv::util::SimTime;

constexpr std::size_t kVpes = 3;
constexpr std::size_t kTrainShapes = 8;  // shapes 8/9 are never trained on
constexpr std::size_t kTrainLen = 400;
constexpr std::size_t kTestLen = 200;
constexpr std::int64_t kStepSeconds = 30;

// Letters-only head tokens so the tokenizer's digit masking cannot merge
// two shapes into one template (same trick as async_ingest_test.cpp).
std::string make_line(std::size_t shape, std::size_t salt) {
  static const char* kShapeNames[] = {"alpha", "bravo", "charlie", "delta",
                                      "echo",  "golf",  "hotel",   "kilo",
                                      "oscar", "tango"};
  return std::string(kShapeNames[shape]) + " event code " +
         std::to_string(salt);
}

void prime_tree(SignatureTree& tree) {
  for (std::size_t shape = 0; shape < kTrainShapes; ++shape) {
    tree.learn(make_line(shape, 0));
  }
}

std::size_t train_shape(std::size_t vpe, std::size_t i) {
  return (i * 7 + vpe * 3 + i / 31) % kTrainShapes;
}

SimTime line_time(std::size_t i) {
  return SimTime{static_cast<std::int64_t>(i) * kStepSeconds};
}

std::vector<std::vector<ParsedLog>> train_streams() {
  SignatureTree tree;
  prime_tree(tree);
  std::vector<std::vector<ParsedLog>> streams(kVpes);
  for (std::size_t v = 0; v < kVpes; ++v) {
    for (std::size_t i = 0; i < kTrainLen; ++i) {
      ParsedLog log;
      log.time = line_time(i);
      log.template_id = tree.learn(make_line(train_shape(v, i), i));
      streams[v].push_back(log);
    }
  }
  return streams;
}

LstmDetector train_detector(LstmScoreMode mode, bool quantize_config) {
  LstmDetectorConfig config;
  config.window = 4;
  config.embed_dim = 8;
  config.hidden = 8;
  config.initial_epochs = 2;
  config.max_train_windows = 1200;
  config.oversample = false;
  config.score_mode = mode;
  config.quantize = quantize_config;
  LstmDetector detector(config);
  const auto streams = train_streams();
  std::vector<LogView> views(streams.begin(), streams.end());
  detector.fit(views, kTrainShapes);
  return detector;
}

std::vector<double> flat_scores(const LstmDetector& detector,
                                const std::vector<std::vector<ParsedLog>>&
                                    streams) {
  std::vector<LogView> views(streams.begin(), streams.end());
  std::vector<double> out;
  for (const auto& events :
       detector.score_streams(views, kTrainShapes)) {
    for (const ScoredEvent& event : events) out.push_back(event.score);
  }
  return out;
}

TEST(QuantScoring, TopKDecisionsAgreeWithFp32OnPredictableTraffic) {
  const LstmDetector fp32 =
      train_detector(LstmScoreMode::kTargetRank, false);
  LstmDetector quant(fp32);  // the swap_detector-style quantized shadow
  quant.set_quantized(true);
  ASSERT_TRUE(quant.model_memory().quantized);

  // Fresh streams from the trained motif family: the model is confident
  // here, so the DeepLog decision (observed rank <= k) has margin and
  // must survive quantization on essentially every window. The 99.5%
  // statistical gate over a *noisy* corpus is bench_scoring_throughput
  // --smoke; this is the unit-sized margin case.
  SignatureTree tree;
  prime_tree(tree);
  std::vector<std::vector<ParsedLog>> streams(kVpes);
  for (std::size_t v = 0; v < kVpes; ++v) {
    for (std::size_t i = 0; i < kTestLen; ++i) {
      streams[v].push_back(
          {line_time(i),
           tree.learn(make_line(train_shape(v + 1, i), i))});
    }
  }
  const std::vector<double> ranks_fp32 = flat_scores(fp32, streams);
  const std::vector<double> ranks_quant = flat_scores(quant, streams);
  ASSERT_EQ(ranks_fp32.size(), ranks_quant.size());
  ASSERT_FALSE(ranks_fp32.empty());

  const double k = 3.0;  // top-k rule at k < vocab/2
  std::size_t agree = 0;
  for (std::size_t i = 0; i < ranks_fp32.size(); ++i) {
    agree += (ranks_fp32[i] <= k) == (ranks_quant[i] <= k) ? 1 : 0;
  }
  EXPECT_GE(static_cast<double>(agree) /
                static_cast<double>(ranks_fp32.size()),
            0.995);
}

TEST(QuantScoring, AsyncIngestWarningStreamMatchesFp32) {
  const LstmDetector fp32 =
      train_detector(LstmScoreMode::kLogLikelihood, false);
  LstmDetector quant(fp32);
  quant.set_quantized(true);

  // Threshold halfway between the worst normal score of EITHER tier and
  // the unknown-template score: anomaly decisions then differ only if
  // quantization error eats the whole margin — which is exactly the
  // regression this test guards.
  const auto normal = train_streams();
  double normal_max = 0.0;
  for (const double s : flat_scores(fp32, normal)) {
    normal_max = std::max(normal_max, s);
  }
  for (const double s : flat_scores(quant, normal)) {
    normal_max = std::max(normal_max, s);
  }
  const double unknown = fp32.config().unknown_score;
  ASSERT_LT(normal_max, unknown);
  StreamMonitorConfig monitor;
  monitor.threshold = (normal_max + unknown) / 2.0;
  monitor.window = fp32.config().window;

  // Identical submissions to two runtimes that differ only in the
  // detector tier. Bursts of never-trained shapes 8/9 form the warning
  // clusters (>= 2 anomalies within 2 minutes).
  auto run = [&](const LstmDetector& detector) {
    AsyncIngestConfig config;
    config.workers = 2;
    AsyncIngest ingest(&detector, config);
    for (std::size_t v = 0; v < kVpes; ++v) {
      prime_tree(ingest.mutable_tree(ingest.add_shard(
          static_cast<std::int32_t>(v), monitor)));
    }
    ingest.start();
    for (std::size_t i = 0; i < kTestLen; ++i) {
      for (std::size_t v = 0; v < kVpes; ++v) {
        const std::size_t shape = (i % 61 == 20 || i % 61 == 21)
                                      ? 8 + (v % 2)
                                      : train_shape(v, i);
        ingest.submit(v, line_time(i), make_line(shape, i));
      }
    }
    ingest.flush();
    ingest.stop();
    std::vector<StreamWarning> warnings;
    ingest.drain_warnings(warnings);
    return merge_warnings_by_vpe(std::move(warnings));
  };

  const std::vector<StreamWarning> from_fp32 = run(fp32);
  const std::vector<StreamWarning> from_quant = run(quant);
  ASSERT_FALSE(from_fp32.empty());
  ASSERT_EQ(from_fp32.size(), from_quant.size());
  for (std::size_t i = 0; i < from_fp32.size(); ++i) {
    EXPECT_EQ(from_fp32[i].vpe, from_quant[i].vpe) << "warning " << i;
    EXPECT_EQ(from_fp32[i].time.seconds, from_quant[i].time.seconds)
        << "warning " << i;
    EXPECT_EQ(from_fp32[i].anomaly_count, from_quant[i].anomaly_count)
        << "warning " << i;
    EXPECT_EQ(from_fp32[i].trigger_template, from_quant[i].trigger_template)
        << "warning " << i;
    // Cluster members are unknown-template events; that score bypasses
    // the model, so the peaks agree exactly across tiers.
    EXPECT_EQ(from_fp32[i].peak_score, from_quant[i].peak_score)
        << "warning " << i;
  }
}

TEST(QuantScoring, SaveLoadReproducesQuantizedScoresExactly) {
  const LstmDetector detector =
      train_detector(LstmScoreMode::kLogLikelihood, true);
  ASSERT_TRUE(detector.model_memory().quantized);

  const auto streams = train_streams();
  const std::vector<double> before = flat_scores(detector, streams);

  std::stringstream buffer;
  detector.save(buffer);
  const LstmDetector loaded = LstmDetector::load(buffer);
  EXPECT_TRUE(loaded.config().quantize);
  const ModelMemoryStats memory = loaded.model_memory();
  EXPECT_TRUE(memory.quantized);
  EXPECT_EQ(memory.weight_bytes_quantized,
            detector.model_memory().weight_bytes_quantized);
  EXPECT_EQ(memory.weight_bytes_fp32,
            detector.model_memory().weight_bytes_fp32);

  // The int8 image is a pure function of the fp32 weights, which the
  // checkpoint holds byte for byte: loaded scores are bit-identical, not
  // merely close (a quantization of perturbed weights would betray itself
  // here).
  EXPECT_EQ(flat_scores(loaded, streams), before);
}

// The checkpoint is score mode, window, the fp32 model and the precision
// flag: the same detector saved in fp32 and in int8 differs in the last
// u64 alone, 0 against 1.
TEST(QuantScoring, Fp32AndInt8CheckpointsDifferOnlyInTheFlag) {
  LstmDetector detector =
      train_detector(LstmScoreMode::kLogLikelihood, false);
  std::stringstream fp32;
  detector.save(fp32);
  detector.set_quantized(true);
  std::stringstream int8;
  detector.save(int8);
  const std::string a = fp32.str();
  const std::string b = int8.str();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 8u);
  const std::size_t flag = a.size() - 8;
  EXPECT_EQ(a.substr(0, flag), b.substr(0, flag));
  std::uint64_t fp32_flag = 7, int8_flag = 7;
  std::memcpy(&fp32_flag, a.data() + flag, 8);
  std::memcpy(&int8_flag, b.data() + flag, 8);
  EXPECT_EQ(fp32_flag, 0u);
  EXPECT_EQ(int8_flag, 1u);
}

// A flag other than 0 or 1 is corrupt, not "some other int8": the loader
// throws, naming the flag.
TEST(QuantScoring, PrecisionFlagOtherThanZeroOrOneThrows) {
  const LstmDetector detector =
      train_detector(LstmScoreMode::kLogLikelihood, true);
  std::stringstream saved;
  detector.save(saved);
  std::string bytes = saved.str();
  const std::uint64_t two = 2;
  std::memcpy(bytes.data() + bytes.size() - 8, &two, 8);
  std::stringstream corrupt(bytes);
  try {
    LstmDetector::load(corrupt);
    ADD_FAILURE() << "a checkpoint with precision flag 2 loaded";
  } catch (const nfv::util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("precision flag 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(QuantScoring, SetQuantizedTogglesAndRestoresFp32Exactly) {
  LstmDetector detector =
      train_detector(LstmScoreMode::kLogLikelihood, false);
  const ModelMemoryStats fp32_memory = detector.model_memory();
  EXPECT_FALSE(fp32_memory.quantized);
  EXPECT_GT(fp32_memory.weight_bytes_fp32, 0u);
  EXPECT_EQ(fp32_memory.weight_bytes_quantized, 0u);

  const auto streams = train_streams();
  const std::vector<double> fp32_scores = flat_scores(detector, streams);

  detector.set_quantized(true);
  const ModelMemoryStats quant_memory = detector.model_memory();
  EXPECT_TRUE(quant_memory.quantized);
  EXPECT_TRUE(detector.config().quantize);
  EXPECT_EQ(quant_memory.weight_bytes_fp32, fp32_memory.weight_bytes_fp32);
  // The int8 gate blocks are smaller than the fp32 gate packs they
  // replace even at this toy size (hidden 8 fills half of each 16-unit
  // block, and k-padding and the per-channel scale/col-sum overhead blunt
  // the ratio); the ratio at a production shape is reported by
  // bench_scoring_throughput (BENCH_scoring.json: weight_bytes_ratio).
  EXPECT_EQ(quant_memory.weight_bytes_quantized,
            detector.model().build_scoring_image(true).gate_weight_bytes());
  EXPECT_LT(quant_memory.weight_bytes_quantized,
            detector.model().build_scoring_image(false).gate_weight_bytes());

  detector.set_quantized(false);
  EXPECT_FALSE(detector.model_memory().quantized);
  EXPECT_FALSE(detector.config().quantize);
  EXPECT_EQ(flat_scores(detector, streams), fp32_scores);
}

TEST(QuantScoring, StatsJsonReportsModelMemory) {
  const LstmDetector detector =
      train_detector(LstmScoreMode::kLogLikelihood, true);
  const ModelMemoryStats memory = detector.model_memory();

  AsyncIngest ingest(&detector);
  StreamMonitorConfig monitor;
  monitor.window = detector.config().window;
  ingest.add_shard(7, monitor);
  ingest.add_shard(9, monitor);

  // snapshot()/stats_json() work before start(); the model every shard
  // shares is reported once, at the top level, and not per shard row.
  const RuntimeStatsSnapshot snap = ingest.snapshot();
  EXPECT_EQ(snap.model.weight_bytes_fp32, memory.weight_bytes_fp32);
  EXPECT_EQ(snap.model.weight_bytes_quantized, memory.weight_bytes_quantized);
  EXPECT_TRUE(snap.model.quantized);
  std::string error;
  const auto doc = nfv::util::json_parse(
      ingest.stats_json(/*shard_rows=*/true), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const nfv::util::JsonValue* model = doc->find("model");
  ASSERT_NE(model, nullptr);
  const nfv::util::JsonValue* fp32_bytes = model->find("weight_bytes_fp32");
  const nfv::util::JsonValue* quant_bytes =
      model->find("weight_bytes_quantized");
  const nfv::util::JsonValue* quantized = model->find("quantized");
  ASSERT_NE(fp32_bytes, nullptr);
  ASSERT_NE(quant_bytes, nullptr);
  ASSERT_NE(quantized, nullptr);
  EXPECT_GT(fp32_bytes->number, 0.0);
  EXPECT_EQ(fp32_bytes->number, static_cast<double>(memory.weight_bytes_fp32));
  EXPECT_EQ(quant_bytes->number,
            static_cast<double>(memory.weight_bytes_quantized));
  EXPECT_TRUE(quantized->boolean);
  const nfv::util::JsonValue* shards = doc->find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->items.size(), 2u);
  for (const nfv::util::JsonValue& shard : shards->items) {
    EXPECT_EQ(shard.find("model"), nullptr);
  }
}

}  // namespace
}  // namespace nfv::core
