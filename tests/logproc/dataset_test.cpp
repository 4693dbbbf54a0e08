#include "logproc/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/check.h"

namespace nfv::logproc {
namespace {

using nfv::util::Duration;
using nfv::util::SimTime;

std::vector<ParsedLog> make_stream(std::size_t count,
                                   std::int64_t gap_seconds = 60,
                                   std::int32_t vocab = 5) {
  std::vector<ParsedLog> logs;
  for (std::size_t i = 0; i < count; ++i) {
    logs.push_back({SimTime{static_cast<std::int64_t>(i) * gap_seconds},
                    static_cast<std::int32_t>(i % vocab)});
  }
  return logs;
}

TEST(ExcludeIntervals, DropsLogsInside) {
  const auto logs = make_stream(10, 60);
  const std::vector<TimeInterval> drop{{SimTime{120}, SimTime{300}}};
  const auto kept = exclude_intervals(logs, drop);
  EXPECT_EQ(kept.size(), 7u);  // drops t=120,180,240 (300 is exclusive)
  for (const auto& log : kept) {
    EXPECT_TRUE(log.time < SimTime{120} || log.time >= SimTime{300});
  }
}

TEST(ExcludeIntervals, OverlappingIntervals) {
  const auto logs = make_stream(10, 60);
  const std::vector<TimeInterval> drop{{SimTime{0}, SimTime{120}},
                                       {SimTime{60}, SimTime{240}}};
  EXPECT_EQ(exclude_intervals(logs, drop).size(), 6u);
}

TEST(ExcludeIntervals, NoIntervalsKeepsAll) {
  const auto logs = make_stream(5);
  EXPECT_EQ(exclude_intervals(logs, {}).size(), 5u);
}

TEST(SliceTime, HalfOpenWindow) {
  const auto logs = make_stream(10, 60);
  const auto window = slice_time(logs, SimTime{60}, SimTime{180});
  ASSERT_EQ(window.size(), 2u);
  EXPECT_EQ(window[0].time.seconds, 60);
  EXPECT_EQ(window[1].time.seconds, 120);
}

/// The windows of one stream, in a fresh batch.
nfv::ml::WindowBatch windows_of(
    std::span<const ParsedLog> logs, std::size_t window,
    Duration max_gap = Duration::of_hours(12)) {
  nfv::ml::WindowBatch out;
  append_sequence_windows(logs, window, out, max_gap);
  return out;
}

// BuildSequenceExamples: the windows append_sequence_windows builds.
TEST(BuildSequenceExamples, WindowContentsAndTarget) {
  const auto logs = make_stream(8, 60);
  const nfv::ml::WindowBatch windows = windows_of(logs, 3);
  ASSERT_EQ(windows.size(), 5u);
  ASSERT_EQ(windows.ids.size(), 15u);
  ASSERT_EQ(windows.dts.size(), 15u);
  EXPECT_EQ(windows.ids[0], 0);
  EXPECT_EQ(windows.ids[1], 1);
  EXPECT_EQ(windows.ids[2], 2);
  EXPECT_EQ(windows.targets[0], 3);
  // Δt of the window head is 0 only for the stream's first log.
  EXPECT_FLOAT_EQ(windows.dts[0], 0.0f);
  EXPECT_FLOAT_EQ(windows.dts[1], 60.0f);
  EXPECT_FLOAT_EQ(windows.dts[3], 60.0f);  // the second window's head
}

TEST(BuildSequenceExamples, TooFewLogsYieldNothing) {
  const auto logs = make_stream(3, 60);
  EXPECT_EQ(windows_of(logs, 3).size(), 0u);
  EXPECT_EQ(windows_of({}, 3).size(), 0u);
}

TEST(BuildSequenceExamples, GapBreaksWindows) {
  std::vector<ParsedLog> logs = make_stream(4, 60);
  // Insert a 2-day silence before two more logs.
  logs.push_back({logs.back().time + Duration::of_days(2), 0});
  logs.push_back({logs.back().time + Duration::of_seconds(30), 1});
  const nfv::ml::WindowBatch windows = windows_of(logs, 2);
  // Windows spanning the silence are rejected.
  for (float dt : windows.dts) EXPECT_LE(dt, 12.0f * 3600.0f);
  EXPECT_LT(windows.size(), logs.size() - 2);
}

TEST(BuildSequenceExamples, RejectsZeroWindow) {
  const auto logs = make_stream(5);
  EXPECT_THROW(windows_of(logs, 0), nfv::util::CheckError);
}

// A second stream's windows land after the first's, whole, so one batch
// can hold a training round's every stream.
TEST(BuildSequenceExamples, AppendsAfterExistingWindows) {
  const auto first = make_stream(6, 60);
  const auto second = make_stream(5, 30);
  nfv::ml::WindowBatch windows;
  append_sequence_windows(first, 2, windows);
  append_sequence_windows(second, 2, windows);
  const nfv::ml::WindowBatch alone = windows_of(second, 2);
  ASSERT_EQ(windows.size(), 4u + alone.size());
  ASSERT_EQ(windows.ids.size(), 2 * windows.size());
  EXPECT_TRUE(std::equal(alone.ids.begin(), alone.ids.end(),
                         windows.ids.begin() + 8));
  EXPECT_TRUE(std::equal(alone.dts.begin(), alone.dts.end(),
                         windows.dts.begin() + 8));
  EXPECT_TRUE(std::equal(alone.targets.begin(), alone.targets.end(),
                         windows.targets.begin() + 4));
}

TEST(TemplateDistribution, NormalizedCounts) {
  std::vector<ParsedLog> logs;
  logs.push_back({SimTime{0}, 0});
  logs.push_back({SimTime{1}, 0});
  logs.push_back({SimTime{2}, 2});
  logs.push_back({SimTime{3}, 7});  // out of vocab → ignored
  const auto dist = template_distribution(logs, 4);
  ASSERT_EQ(dist.size(), 4u);
  EXPECT_NEAR(dist[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(dist[2], 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(dist[1], 0.0);
}

TEST(TemplateDistribution, EmptyLogsAllZero) {
  const auto dist = template_distribution({}, 3);
  for (double d : dist) EXPECT_DOUBLE_EQ(d, 0.0);
}

TEST(BuildDocuments, HalfOverlappingWindows) {
  const auto logs = make_stream(20, 60);
  const auto docs = build_documents(logs, 10);
  ASSERT_EQ(docs.size(), 3u);  // starts at 0, 5, 10
  EXPECT_EQ(docs[0].template_ids.size(), 10u);
  EXPECT_EQ(docs[0].time, logs[9].time);
  EXPECT_EQ(docs[1].time, logs[14].time);
}

TEST(BuildDocuments, ShortStreamYieldsNothing) {
  const auto logs = make_stream(5);
  EXPECT_TRUE(build_documents(logs, 10).empty());
}

TEST(Tfidf, TransformIsL2Normalized) {
  const auto logs = make_stream(40, 60, 4);
  const auto docs = build_documents(logs, 8);
  TfidfFeaturizer featurizer;
  featurizer.fit(docs, 4);
  const auto features = featurizer.transform(docs[0]);
  double norm = 0.0;
  for (float f : features) norm += static_cast<double>(f) * f;
  EXPECT_NEAR(norm, 1.0, 1e-5);
}

TEST(Tfidf, RareTemplatesWeighHeavierAtEqualCount) {
  // Template 0 appears in every document, template 3 in just one. At equal
  // term frequency, the rarer template must get the larger idf weight.
  std::vector<Document> docs(4);
  for (auto& doc : docs) doc.template_ids = {0, 1};
  docs[3].template_ids = {0, 3};
  TfidfFeaturizer featurizer;
  featurizer.fit(docs, 4);
  const auto features = featurizer.transform(docs[3]);
  EXPECT_GT(features[3], features[0]);
}

TEST(Tfidf, UnknownIdsIgnored) {
  std::vector<Document> docs(2);
  docs[0].template_ids = {0, 1};
  docs[1].template_ids = {1, 2};
  TfidfFeaturizer featurizer;
  featurizer.fit(docs, 3);
  Document with_unknown;
  with_unknown.template_ids = {0, 99, -1};
  EXPECT_NO_THROW(featurizer.transform(with_unknown));
}

TEST(Tfidf, TransformBeforeFitThrows) {
  TfidfFeaturizer featurizer;
  Document doc;
  EXPECT_THROW(featurizer.transform(doc), nfv::util::CheckError);
}

TEST(Tfidf, BatchMatchesSingle) {
  const auto logs = make_stream(30, 60, 4);
  const auto docs = build_documents(logs, 6);
  TfidfFeaturizer featurizer;
  featurizer.fit(docs, 4);
  const auto batch = featurizer.transform_batch(docs);
  ASSERT_EQ(batch.rows(), docs.size());
  const auto single = featurizer.transform(docs[1]);
  for (std::size_t c = 0; c < batch.cols(); ++c) {
    EXPECT_FLOAT_EQ(batch.at(1, c), single[c]);
  }
}

}  // namespace
}  // namespace nfv::logproc
