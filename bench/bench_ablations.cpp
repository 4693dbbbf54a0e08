// Ablations over the design choices DESIGN.md calls out:
//   1. minority over-sampling on/off (§4.2),
//   2. sequence-window length k,
//   3. LSTM hidden width (paper: "fairly insensitive to parameter choices"),
//   4. number of vPE groups K (+ the modularity curve used to pick K),
//   5. the ≥2-anomaly warning-signature cluster rule (§5.1).
#include "bench/bench_common.h"

#include "core/metrics.h"

namespace {

using namespace nfv;

simnet::FleetConfig ablation_config() {
  simnet::FleetConfig config = bench::standard_config();
  config.months = 6;        // ablations don't need the full 18 months
  config.update_month = -1; // steady-state comparisons
  return config;
}

/// Best-F over a fresh pipeline run with the given options.
core::PrcPoint run_best_f(const bench::BenchFleet& fleet,
                          const core::PipelineOptions& options) {
  const auto result = core::run_pipeline(fleet.trace, fleet.parsed, options);
  core::MappingConfig mapping;
  const auto curve = core::precision_recall_curve(result.streams, mapping,
                                                  result.eval_days, 20);
  return core::best_f_point(curve);
}

}  // namespace

int main() {
  using namespace nfv;
  bench::print_header("Ablations — design-choice sweeps",
                      "LSTM hyper-parameters are 'fairly insensitive'; "
                      "over-sampling lowers false alarms; K=4 groups; "
                      "warning signatures need >=2 clustered anomalies");

  const auto fleet = bench::make_bench_fleet(ablation_config());

  // --- 1. Over-sampling. ---
  {
    util::Table table({"oversampling", "best_P", "best_R", "best_F",
                       "FA/day"});
    for (const bool oversample : {false, true}) {
      core::PipelineOptions options = bench::bench_pipeline_options();
      options.lstm_config->oversample = oversample;
      std::cerr << "[bench] oversample=" << oversample << "...\n";
      const auto best = run_best_f(fleet, options);
      table.add_row({oversample ? "on" : "off",
                     util::fmt_double(best.precision, 3),
                     util::fmt_double(best.recall, 3),
                     util::fmt_double(best.f_measure, 3),
                     util::fmt_double(best.false_alarms_per_day, 2)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  // --- 2. Window length k. ---
  {
    util::Table table({"window k", "best_F"});
    for (const std::size_t k : {5u, 10u, 20u}) {
      core::PipelineOptions options = bench::bench_pipeline_options();
      options.lstm_config->window = k;
      std::cerr << "[bench] window=" << k << "...\n";
      table.add_row({std::to_string(k),
                     util::fmt_double(run_best_f(fleet, options).f_measure,
                                      3)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  // --- 3. Hidden width. ---
  {
    util::Table table({"hidden", "best_F"});
    for (const std::size_t h : {16u, 32u, 64u}) {
      core::PipelineOptions options = bench::bench_pipeline_options();
      options.lstm_config->hidden = h;
      std::cerr << "[bench] hidden=" << h << "...\n";
      table.add_row({std::to_string(h),
                     util::fmt_double(run_best_f(fleet, options).f_measure,
                                      3)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  // --- 4. Number of groups K + modularity curve. ---
  {
    util::Rng rng(5);
    const auto selection = core::cluster_vpes(
        fleet.parsed, util::SimTime::epoch(), util::month_start(1),
        {.fixed_k = 0, .k_min = 2, .k_max = 8}, rng);
    util::Table modularity({"K", "modularity"},
                           "modularity curve (K selection)");
    for (std::size_t i = 0; i < selection.modularity_by_k.size(); ++i) {
      modularity.add_row(
          {std::to_string(i + 2),
           util::fmt_double(selection.modularity_by_k[i], 4)});
    }
    modularity.print(std::cout);
    std::cout << "selected K = " << selection.selected_k
              << " (paper: 4 clusters)\n\n";

    util::Table table({"K groups", "best_F"});
    for (const std::size_t k : {1u, 2u, 4u, 8u}) {
      core::PipelineOptions options = bench::bench_pipeline_options();
      if (k == 1) {
        options.customize = false;
      } else {
        options.clustering.fixed_k = k;
      }
      std::cerr << "[bench] K=" << k << "...\n";
      table.add_row({std::to_string(k),
                     util::fmt_double(run_best_f(fleet, options).f_measure,
                                      3)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  // --- 5. Warning-signature cluster rule (mapping-level; reuses one run). ---
  {
    core::PipelineOptions options = bench::bench_pipeline_options();
    std::cerr << "[bench] cluster-rule sweep...\n";
    const auto result =
        core::run_pipeline(fleet.trace, fleet.parsed, options);
    util::Table table({"min cluster size", "best_P", "best_R", "best_F",
                       "FA/day"});
    for (const std::size_t min_size : {1u, 2u, 3u}) {
      core::MappingConfig mapping;
      mapping.min_cluster_size = min_size;
      const auto curve = core::precision_recall_curve(
          result.streams, mapping, result.eval_days, 20);
      const auto best = core::best_f_point(curve);
      table.add_row({std::to_string(min_size),
                     util::fmt_double(best.precision, 3),
                     util::fmt_double(best.recall, 3),
                     util::fmt_double(best.f_measure, 3),
                     util::fmt_double(best.false_alarms_per_day, 2)});
    }
    table.print(std::cout);
    std::cout << "(paper: matched tickets always had >=2 anomalies <1 min "
                 "apart; the rule suppresses isolated false positives)\n";
  }
  return 0;
}
