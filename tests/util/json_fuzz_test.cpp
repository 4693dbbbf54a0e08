// Seeded mutation fuzzer for json_parse. The seed is a real
// AsyncIngest::stats_json() document with every shard's row requested
// (shard array, worker and fleet histograms, model and retrain blocks);
// from it a fixed-seed generator derives byte flips, byte insertions and
// byte deletions, and every truncation. (The document's latency figures
// vary from run to run; the mutations do not.) Each input must parse to a
// value or return nullopt with an error message, and nothing may crash:
// the ASan and UBSan legs of tools/ci.sh run this file, so an
// out-of-bounds read or an undefined conversion fails there.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/async_ingest.h"
#include "core/detector.h"
#include "util/json.h"
#include "util/rng.h"

namespace nfv::util {
namespace {

/// Scores template ids ≥ 100 as anomalous, everything else as normal, so
/// warnings form without a trained model.
class ThresholdDetector final : public core::AnomalyDetector {
 public:
  void fit(std::span<const core::LogView>, std::size_t) override {}
  void update(std::span<const core::LogView>, std::size_t) override {}
  void adapt(std::span<const core::LogView>, std::size_t) override {}
  void score_windows(std::span<const logproc::ParsedLog> windows,
                     std::size_t window_events, core::WindowScratch&,
                     std::span<double> out) const override {
    for (std::size_t w = 0; w < out.size(); ++w) {
      out[w] = windows[(w + 1) * window_events - 1].template_id >= 100 ? 50.0
                                                                       : 0.0;
    }
  }
  bool trained() const override { return true; }
  core::DetectorKind kind() const override { return core::DetectorKind::kLstm; }
  core::EventGranularity granularity() const override {
    return core::EventGranularity::kPerLog;
  }
};

/// stats_json() of a two-shard runtime after a few hundred lines with
/// warning clusters, with both shards' rows.
std::string stats_document() {
  ThresholdDetector detector;
  core::AsyncIngestConfig config;
  config.workers = 1;
  core::AsyncIngest ingest(&detector, config);
  core::StreamMonitorConfig monitor;
  monitor.threshold = 10.0;
  monitor.window = 4;
  for (std::int32_t v = 0; v < 2; ++v) ingest.add_shard(v, monitor);
  ingest.start();
  for (std::size_t i = 0; i < 200; ++i) {
    for (std::size_t v = 0; v < 2; ++v) {
      logproc::ParsedLog log;
      log.time = SimTime{static_cast<std::int64_t>(i) * 30};
      log.template_id = i % 37 == 20 || i % 37 == 21
                            ? static_cast<std::int32_t>(100 + v)
                            : static_cast<std::int32_t>((i + v) % 11);
      ingest.submit_parsed(v, log);
    }
  }
  ingest.flush();
  std::string json = ingest.stats_json(/*shard_rows=*/true);
  ingest.stop();
  return json;
}

struct FuzzTally {
  std::size_t parsed = 0;
  std::size_t rejected = 0;
};

/// Parses `text`; a rejection must come with an error message.
bool parse_or_reject(const std::string& text, const std::string& what,
                     FuzzTally& tally) {
  std::string error;
  const auto doc = json_parse(text, &error);
  if (doc.has_value()) {
    ++tally.parsed;
    return true;
  }
  ++tally.rejected;
  EXPECT_FALSE(error.empty()) << what << ": rejected without an error";
  return false;
}

TEST(JsonFuzzTest, MutatedStatsJsonParsesOrFailsWithError) {
  const std::string valid = stats_document();
  FuzzTally tally;
  ASSERT_TRUE(parse_or_reject(valid, "valid", tally)) << valid;
  ASSERT_GT(valid.size(), 500u);

  Rng rng(20261019);
  // Bytes that steer the parser: structure, literals, escapes and number
  // syntax, plus a control byte and a byte above 0x7f.
  const std::string steering = "{}[]:,\"\\-+.eE0123456789tfnu \n\x01\xff";
  for (int i = 0; i < 2000; ++i) {
    std::string flipped = valid;
    const std::size_t at = rng.uniform_index(valid.size());
    flipped[at] = static_cast<char>(flipped[at] ^ (1 + rng.uniform_index(255)));
    parse_or_reject(flipped, "flip at " + std::to_string(at), tally);

    std::string inserted = valid;
    const std::size_t in_at = rng.uniform_index(valid.size() + 1);
    const char byte =
        rng.bernoulli(0.5)
            ? steering[rng.uniform_index(steering.size())]
            : static_cast<char>(rng.uniform_index(256));
    inserted.insert(in_at, 1, byte);
    parse_or_reject(inserted, "insert at " + std::to_string(in_at), tally);

    std::string deleted = valid;
    const std::size_t del_at = rng.uniform_index(valid.size());
    deleted.erase(del_at, 1);
    parse_or_reject(deleted, "delete at " + std::to_string(del_at), tally);
  }
  // A strict prefix is a complete document only when all it drops is
  // trailing whitespace.
  const std::size_t end = valid.find_last_not_of(" \t\r\n") + 1;
  for (std::size_t at = 0; at < valid.size(); ++at) {
    const bool ok = parse_or_reject(valid.substr(0, at),
                                    "truncated at " + std::to_string(at),
                                    tally);
    EXPECT_EQ(ok, at >= end) << "truncated at " << at;
  }
  // Not vacuous: flips inside digits and strings parse, structural ones
  // do not.
  EXPECT_GT(tally.parsed, 500u);
  EXPECT_GT(tally.rejected, 2000u);
}

}  // namespace
}  // namespace nfv::util
