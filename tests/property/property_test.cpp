// Property-style parameterized sweeps (TEST_P) over the library's core
// invariants: distribution moments across seeds, signature-tree
// idempotence across merge thresholds, dataset-window algebra across
// window lengths, mapper accounting across predictive periods, K-means
// label validity across K, and ν-OC-SVM's outlier bound across ν.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/mapper.h"
#include "logproc/dataset.h"
#include "logproc/signature_tree.h"
#include "ml/kmeans.h"
#include "ml/ocsvm.h"
#include "simnet/template_catalog.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "util/stats.h"

namespace nfv {
namespace {

// ---------------------------------------------------------- RNG sweeps ----

class RngMomentsP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngMomentsP, UniformMoments) {
  util::Rng rng(GetParam());
  const int n = 50000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum2 += u * u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0 / 3.0, 0.02);
}

TEST_P(RngMomentsP, ExponentialMeanMatches) {
  util::Rng rng(GetParam());
  const double mean = 3.0 + static_cast<double>(GetParam() % 5);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(mean);
  EXPECT_NEAR(sum / n, mean, mean * 0.05);
}

TEST_P(RngMomentsP, PoissonMeanMatches) {
  util::Rng rng(GetParam());
  const double mean = 1.0 + static_cast<double>(GetParam() % 7);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.poisson(mean);
  EXPECT_NEAR(sum / n, mean, mean * 0.06);
}

TEST_P(RngMomentsP, ForkedStreamsAreDecorrelated) {
  util::Rng parent(GetParam());
  util::Rng a = parent.fork(1);
  util::Rng b = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 256; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngMomentsP,
                         ::testing::Values(1u, 7u, 42u, 1000u, 31337u,
                                           0xdeadbeefu));

// ------------------------------------------------ signature-tree sweeps ----

class SignatureTreeP : public ::testing::TestWithParam<double> {};

TEST_P(SignatureTreeP, LearnThenMatchIsIdempotent) {
  // Whatever the merge threshold, a learned line must afterwards match to
  // the same id it was assigned, and matching must not grow the tree.
  logproc::SignatureTreeConfig config;
  config.merge_threshold = GetParam();
  logproc::SignatureTree tree(config);

  const auto catalog = simnet::TemplateCatalog::standard();
  util::Rng rng(11);
  std::vector<std::string> lines;
  std::vector<std::int32_t> ids;
  for (int i = 0; i < 400; ++i) {
    const auto template_id =
        static_cast<std::int32_t>(rng.uniform_index(catalog.size()));
    lines.push_back(catalog.render(template_id, rng));
    ids.push_back(tree.learn(lines.back()));
  }
  const std::size_t size_after_learning = tree.size();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(tree.match(lines[i]), ids[i]) << lines[i];
  }
  EXPECT_EQ(tree.size(), size_after_learning);
}

TEST_P(SignatureTreeP, IdsStayDense) {
  logproc::SignatureTreeConfig config;
  config.merge_threshold = GetParam();
  logproc::SignatureTree tree(config);
  const auto catalog = simnet::TemplateCatalog::standard();
  util::Rng rng(13);
  for (int i = 0; i < 300; ++i) {
    const auto id = tree.learn(catalog.render(
        static_cast<std::int32_t>(rng.uniform_index(catalog.size())), rng));
    EXPECT_GE(id, 0);
    EXPECT_LT(static_cast<std::size_t>(id), tree.size());
  }
  for (std::size_t i = 0; i < tree.size(); ++i) {
    // Ids are dense in creation order: every one renders and was hit.
    EXPECT_GE(tree.match_count(static_cast<std::int32_t>(i)), 1u);
    EXPECT_FALSE(tree.pattern(static_cast<std::int32_t>(i)).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(MergeThresholds, SignatureTreeP,
                         ::testing::Values(0.5, 0.6, 0.75, 0.9, 1.0));

// ------------------------------------------------------- dataset sweeps ----

class WindowLengthP : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WindowLengthP, ExampleCountAndContents) {
  const std::size_t k = GetParam();
  std::vector<logproc::ParsedLog> logs;
  for (int i = 0; i < 100; ++i) {
    logs.push_back({util::SimTime{i * 30}, i % 6});
  }
  ml::WindowBatch windows;
  logproc::append_sequence_windows(logs, k, windows);
  ASSERT_EQ(windows.size(), logs.size() - k);
  ASSERT_EQ(windows.ids.size(), windows.size() * k);
  ASSERT_EQ(windows.dts.size(), windows.size() * k);
  for (std::size_t e = 0; e < windows.size(); ++e) {
    // Window contents are exactly the k logs preceding the target.
    for (std::size_t j = 0; j < k; ++j) {
      EXPECT_EQ(windows.ids[e * k + j], logs[e + j].template_id);
    }
    EXPECT_EQ(windows.targets[e], logs[e + k].template_id);
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowLengthP,
                         ::testing::Values(1u, 2u, 5u, 10u, 25u, 60u));

// -------------------------------------------------------- mapper sweeps ----

class MapperPeriodP : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(MapperPeriodP, AccountingAlwaysBalances) {
  // early warnings + errors + false alarms == number of anomalies, for any
  // predictive-period length.
  core::MappingConfig config;
  config.predictive_period = util::Duration::of_minutes(GetParam());

  std::vector<simnet::Ticket> tickets;
  for (int i = 0; i < 5; ++i) {
    simnet::Ticket t;
    t.ticket_id = i;
    t.vpe = 0;
    t.category = simnet::TicketCategory::kCircuit;
    t.report = util::SimTime{100000 + i * 50000};
    t.repair_finish = t.report + util::Duration::of_hours(2);
    tickets.push_back(t);
  }
  std::vector<util::SimTime> anomalies;
  util::Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    anomalies.push_back(util::SimTime{static_cast<std::int64_t>(
        rng.uniform(0.0, 400000.0))});
  }
  std::sort(anomalies.begin(), anomalies.end());
  const auto result = core::map_anomalies(anomalies, tickets, 0, config);
  EXPECT_EQ(result.early_warnings + result.errors + result.false_alarms,
            anomalies.size());
  EXPECT_EQ(result.anomalies.size(), anomalies.size());
  EXPECT_EQ(result.tickets.size(), tickets.size());
  // Every early warning's lead is within the configured period.
  for (const auto& anomaly : result.anomalies) {
    if (anomaly.outcome == core::AnomalyOutcome::kEarlyWarning) {
      EXPECT_GT(anomaly.lead.seconds, 0);
      EXPECT_LE(anomaly.lead.seconds, config.predictive_period.seconds);
    }
  }
}

TEST_P(MapperPeriodP, LargerPeriodNeverDecreasesWarnings) {
  // Early warnings are monotone in the predictive-period length.
  std::vector<simnet::Ticket> tickets;
  simnet::Ticket t;
  t.ticket_id = 1;
  t.vpe = 0;
  t.report = util::SimTime{500000};
  t.repair_finish = util::SimTime{510000};
  tickets.push_back(t);
  std::vector<util::SimTime> anomalies;
  util::Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    anomalies.push_back(util::SimTime{static_cast<std::int64_t>(
        rng.uniform(0.0, 520000.0))});
  }
  std::sort(anomalies.begin(), anomalies.end());

  core::MappingConfig narrow;
  narrow.predictive_period = util::Duration::of_minutes(GetParam());
  core::MappingConfig wide;
  wide.predictive_period =
      util::Duration::of_minutes(GetParam()) + util::Duration::of_hours(6);
  const auto narrow_result =
      core::map_anomalies(anomalies, tickets, 0, narrow);
  const auto wide_result = core::map_anomalies(anomalies, tickets, 0, wide);
  EXPECT_GE(wide_result.early_warnings, narrow_result.early_warnings);
  EXPECT_LE(wide_result.false_alarms, narrow_result.false_alarms);
}

INSTANTIATE_TEST_SUITE_P(Periods, MapperPeriodP,
                         ::testing::Values(1, 15, 60, 360, 1440, 2880));

// -------------------------------------------------------- kmeans sweeps ----

class KMeansKP : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KMeansKP, LabelsValidAndInertiaMonotone) {
  util::Rng rng(23);
  ml::Matrix data(60, 4);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  const std::size_t k = GetParam();
  ml::KMeansConfig config;
  config.k = k;
  util::Rng kr(1);
  const auto result = ml::kmeans(data, config, kr);
  ASSERT_EQ(result.labels.size(), 60u);
  for (std::size_t label : result.labels) EXPECT_LT(label, k);
  EXPECT_EQ(result.centroids.rows(), k);

  if (k > 1) {
    ml::KMeansConfig fewer;
    fewer.k = k - 1;
    util::Rng kr2(1);
    const auto coarser = ml::kmeans(data, fewer, kr2);
    // k-means++ + farthest-point reseeding make this hold in practice for
    // random data with these seeds.
    EXPECT_LE(result.inertia, coarser.inertia * 1.05);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KMeansKP,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 12u));

// --------------------------------------------------------- ocsvm sweeps ----

class OcSvmNuP : public ::testing::TestWithParam<double> {};

TEST_P(OcSvmNuP, NuBoundsTrainingOutliers) {
  const double nu = GetParam();
  util::Rng rng(29);
  ml::Matrix data(250, 2);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    data.at(r, 0) = static_cast<float>(rng.normal(0.0, 1.0));
    data.at(r, 1) = static_cast<float>(rng.normal(0.0, 1.0));
  }
  ml::OcSvmConfig config;
  config.nu = nu;
  ml::OcSvm svm(config);
  svm.fit(data);
  std::size_t outliers = 0;
  for (std::size_t r = 0; r < data.rows(); ++r) {
    if (svm.decision_value(data.row_span(r)) < 0.0) ++outliers;
  }
  EXPECT_LE(static_cast<double>(outliers) / 250.0, nu + 0.1) << "nu=" << nu;
}

INSTANTIATE_TEST_SUITE_P(Nus, OcSvmNuP,
                         ::testing::Values(0.05, 0.1, 0.2, 0.35, 0.5));

// ------------------------------------------------------ sim-time sweeps ----

class MonthArithmeticP : public ::testing::TestWithParam<int> {};

TEST_P(MonthArithmeticP, MonthOfIsInverseOfMonthStart) {
  const int m = GetParam();
  const auto start = util::month_start(m);
  EXPECT_EQ(util::month_of(start), m);
  EXPECT_EQ(util::month_of(start + util::Duration::of_seconds(1)), m);
  EXPECT_EQ(util::month_of(util::month_start(m + 1) -
                           util::Duration::of_seconds(1)),
            m);
}

INSTANTIATE_TEST_SUITE_P(Months, MonthArithmeticP,
                         ::testing::Values(0, 1, 5, 12, 17, 100));

// ---------------------------------------------------------- stats sweep ----

class QuantileP : public ::testing::TestWithParam<double> {};

TEST_P(QuantileP, QuantileWithinRangeAndMonotone) {
  util::Rng rng(31);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.normal(10.0, 3.0));
  const double q = GetParam();
  const double value = util::quantile(xs, q);
  const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
  EXPECT_GE(value, *lo);
  EXPECT_LE(value, *hi);
  if (q >= 0.01) {
    EXPECT_GE(value, util::quantile(xs, q - 0.01));
  }
}

INSTANTIATE_TEST_SUITE_P(Qs, QuantileP,
                         ::testing::Values(0.0, 0.01, 0.25, 0.5, 0.9, 0.995,
                                           1.0));

}  // namespace
}  // namespace nfv
