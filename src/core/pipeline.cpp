#include "core/pipeline.h"

#include <algorithm>
#include <map>

#include "util/check.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace nfv::core {

using logproc::ParsedLog;
using logproc::TimeInterval;
using nfv::util::Duration;
using nfv::util::Rng;
using nfv::util::SimTime;

std::vector<simnet::Ticket> tickets_in_window(const simnet::FleetTrace& trace,
                                              std::int32_t vpe, SimTime begin,
                                              SimTime end,
                                              Duration predictive_period) {
  std::vector<simnet::Ticket> out;
  for (const simnet::Ticket& ticket : trace.tickets) {
    if (ticket.vpe != vpe) continue;
    // Mapping-relevant span of the ticket: [report − P, repair_finish].
    if (ticket.report - predictive_period < end &&
        ticket.repair_finish >= begin) {
      out.push_back(ticket);
    }
  }
  return out;
}

namespace {

struct GroupState {
  std::vector<std::int32_t> members;
  std::unique_ptr<AnomalyDetector> detector;
  double threshold = 0.0;
};

/// Normal (training) logs of one vPE in a window: ticket vicinity removed.
std::vector<ParsedLog> normal_logs(
    const ParsedFleet& parsed,
    const std::vector<std::vector<TimeInterval>>& exclusions, std::int32_t vpe,
    SimTime begin, SimTime end) {
  const std::vector<ParsedLog> window = logproc::slice_time(
      parsed.logs_by_vpe[static_cast<std::size_t>(vpe)], begin, end);
  return logproc::exclude_intervals(
      window, exclusions[static_cast<std::size_t>(vpe)]);
}

/// Set the group's operating threshold to a quantile of the detector's
/// scores on (normal) calibration streams. All member streams are scored
/// in one batched score_streams call.
void calibrate_threshold(GroupState& group,
                         const std::vector<std::vector<ParsedLog>>& streams,
                         double quantile_q) {
  // Cap calibration work: the quantile is stable well below full coverage.
  constexpr std::size_t kMaxCalibrationLogsPerStream = 3000;
  std::vector<LogView> views;
  views.reserve(streams.size());
  for (const std::vector<ParsedLog>& stream : streams) {
    const std::size_t take =
        std::min(stream.size(), kMaxCalibrationLogsPerStream);
    views.push_back(LogView{stream.data() + (stream.size() - take), take});
  }
  const std::vector<std::vector<ScoredEvent>> events_by_stream =
      group.detector->score_streams(views, 0);
  std::vector<double> scores;
  for (const std::vector<ScoredEvent>& events : events_by_stream) {
    for (const ScoredEvent& event : events) scores.push_back(event.score);
  }
  if (scores.empty()) return;  // keep the previous threshold
  group.threshold = nfv::util::quantile(scores, quantile_q);
}

/// Merge per-month ticket detections (a ticket straddling two months is
/// mapped in both) into one row per ticket.
std::vector<TicketDetection> merge_detections(
    std::span<const TicketDetection> raw) {
  std::map<std::int64_t, TicketDetection> merged;
  for (const TicketDetection& detection : raw) {
    auto [it, inserted] = merged.emplace(detection.ticket_id, detection);
    if (inserted) continue;
    TicketDetection& existing = it->second;
    existing.detected = existing.detected || detection.detected;
    if (detection.detected_before) {
      existing.best_lead = existing.detected_before
                               ? std::max(existing.best_lead,
                                          detection.best_lead)
                               : detection.best_lead;
      existing.detected_before = true;
    }
    if (detection.detected_after) {
      existing.first_error_delay =
          existing.detected_after
              ? std::min(existing.first_error_delay,
                         detection.first_error_delay)
              : detection.first_error_delay;
      existing.detected_after = true;
    }
    existing.anomaly_count += detection.anomaly_count;
  }
  std::vector<TicketDetection> out;
  out.reserve(merged.size());
  for (auto& [id, detection] : merged) out.push_back(detection);
  return out;
}

}  // namespace

PipelineResult run_pipeline(const simnet::FleetTrace& trace,
                            const ParsedFleet& parsed,
                            const PipelineOptions& options) {
  const auto n = static_cast<std::size_t>(trace.num_vpes());
  const int months = trace.config.months;
  NFV_CHECK(options.initial_train_months >= 1 &&
                options.initial_train_months < months,
            "initial_train_months must leave at least one test month");
  Rng rng(options.seed);

  // The per-group / per-vPE fan-out. Determinism for every pool size
  // holds because (a) each group owns its detector and an explicitly split
  // RNG stream (seed + 100·(g+1)), (b) every parallel task writes only its
  // own pre-sized output slot, and (c) per-group results are collected in
  // group order before any cross-group merge.
  nfv::util::ThreadPool& pool = nfv::util::global_pool();

  PipelineResult result;

  // --- Customization: group the vPEs. ---
  const SimTime train_end =
      nfv::util::month_start(options.initial_train_months);
  if (options.customize) {
    Rng cluster_rng = rng.fork(1);
    result.clustering = cluster_vpes(parsed, SimTime::epoch(), train_end,
                                     options.clustering, cluster_rng);
  } else {
    result.clustering = single_group(n);
  }

  // --- Exclusion windows (±3 days around every ticket). ---
  std::vector<std::vector<TimeInterval>> exclusions(n);
  for (std::size_t v = 0; v < n; ++v) {
    exclusions[v] = ticket_exclusion_windows(
        trace, static_cast<std::int32_t>(v), options.exclusion_margin);
  }

  // --- Group construction + initial fit. ---
  std::vector<GroupState> groups(result.clustering.num_groups);
  for (std::size_t v = 0; v < n; ++v) {
    groups[static_cast<std::size_t>(result.clustering.group_of_vpe[v])]
        .members.push_back(static_cast<std::int32_t>(v));
  }
  const std::size_t vocab_initial =
      parsed.vocab_at(options.initial_train_months);
  pool.parallel_for(0, groups.size(), [&](std::size_t g) {
    GroupState& group = groups[g];
    if (options.detector == DetectorKind::kLstm) {
      LstmDetectorConfig config =
          options.lstm_config.value_or(LstmDetectorConfig{});
      config.seed = options.seed + 100 * (g + 1);
      group.detector = std::make_unique<LstmDetector>(config);
    } else {
      group.detector =
          make_detector(options.detector, options.seed + 100 * (g + 1));
    }
    std::vector<std::vector<ParsedLog>> train_streams;
    for (std::int32_t v : group.members) {
      train_streams.push_back(
          normal_logs(parsed, exclusions, v, SimTime::epoch(), train_end));
    }
    std::vector<LogView> views(train_streams.begin(), train_streams.end());
    group.detector->fit(views, vocab_initial);
    calibrate_threshold(group, train_streams, options.threshold_quantile);
  });

  // --- Rolling monthly evaluation. ---
  result.streams.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    result.streams[v].vpe = static_cast<std::int32_t>(v);
    result.streams[v].tickets = tickets_in_window(
        trace, static_cast<std::int32_t>(v), train_end, trace.horizon,
        options.mapping.predictive_period);
  }
  std::vector<TicketDetection> raw_detections;

  // Flat (group, member) task list in the canonical group-major order —
  // per-task result slots collected in list order reproduce the serial
  // iteration order. Because members are appended group-major, group g's
  // tasks occupy the contiguous range [group_task_begin[g],
  // group_task_begin[g+1]) — the unit the batched scorer consumes.
  struct MemberTask {
    std::size_t group;
    std::int32_t vpe;
  };
  std::vector<MemberTask> member_tasks;
  std::vector<std::size_t> group_task_begin(groups.size() + 1, 0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    group_task_begin[g] = member_tasks.size();
    for (std::int32_t v : groups[g].members) member_tasks.push_back({g, v});
  }
  group_task_begin[groups.size()] = member_tasks.size();

  for (int month = options.initial_train_months; month < months; ++month) {
    const SimTime month_begin = nfv::util::month_start(month);
    const SimTime month_end = nfv::util::month_start(month + 1);

    // The paper's fast adaptation kicks in one week after a software
    // update: if any member of a group is updated this month, the
    // remainder of the month is scored by the adapted model. Planning is
    // cheap and stays serial.
    struct GroupMonthPlan {
      SimTime adapt_at = simnet::never();
      SimTime phase1_end;
      bool split_month = false;
      std::vector<std::pair<std::int32_t, SimTime>> updated_members;
    };
    std::vector<GroupMonthPlan> plans(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      GroupMonthPlan& plan = plans[g];
      if (options.adapt) {
        for (std::int32_t v : groups[g].members) {
          const SimTime u =
              trace.update_time_by_vpe[static_cast<std::size_t>(v)];
          if (u >= month_begin && u < month_end) {
            plan.updated_members.emplace_back(v, u);
            plan.adapt_at = std::min(plan.adapt_at, u + options.adapt_span);
          }
        }
      }
      plan.split_month =
          !plan.updated_members.empty() && plan.adapt_at < month_end;
      plan.phase1_end = plan.split_month ? plan.adapt_at : month_end;
    }

    // Phase 1 — batched per-group scoring up to the adaptation point (or
    // the whole month): all member streams of a group go through ONE
    // score_streams call, which stages their windows into fused forward
    // batches (AnomalyDetector::score_windows) instead of scoring
    // window-by-window per vPE. Detectors are strictly read-only while
    // scoring; every group writes only its own members' pre-sized slots,
    // so results stay bit-identical for any thread count.
    std::vector<std::vector<ScoredEvent>> events_by_task(
        member_tasks.size());
    pool.parallel_for(0, groups.size(), [&](std::size_t g) {
      const std::size_t t0 = group_task_begin[g];
      const std::size_t t1 = group_task_begin[g + 1];
      std::vector<std::vector<ParsedLog>> logs(t1 - t0);
      for (std::size_t t = t0; t < t1; ++t) {
        logs[t - t0] = logproc::slice_time(
            parsed.logs_by_vpe[static_cast<std::size_t>(
                member_tasks[t].vpe)],
            month_begin, plans[g].phase1_end);
      }
      std::vector<LogView> views(logs.begin(), logs.end());
      std::vector<std::vector<ScoredEvent>> events =
          groups[g].detector->score_streams(views, parsed.vocab());
      for (std::size_t t = t0; t < t1; ++t) {
        events_by_task[t] = std::move(events[t - t0]);
      }
    });

    // Adaptation — parallel per group; the only phase that mutates a
    // detector, and each group mutates only its own.
    pool.parallel_for(0, groups.size(), [&](std::size_t g) {
      const GroupMonthPlan& plan = plans[g];
      if (!plan.split_month) return;
      GroupState& group = groups[g];
      // Adapt on ~1 week of post-update data, then score the rest of the
      // month with the adapted model.
      std::vector<std::vector<ParsedLog>> adapt_streams;
      for (const auto& [v, u] : plan.updated_members) {
        adapt_streams.push_back(logproc::slice_time(
            parsed.logs_by_vpe[static_cast<std::size_t>(v)], u,
            u + options.adapt_span));
      }
      std::vector<LogView> adapt_views(adapt_streams.begin(),
                                       adapt_streams.end());
      group.detector->adapt(adapt_views, parsed.vocab_at(month + 1));
      // Recalibrate on the adaptation data itself (what operations has).
      calibrate_threshold(group, adapt_streams, options.threshold_quantile);
    });

    // Phase 2 — batched per-group tail scoring for split months, appended
    // to each member task's own slot.
    pool.parallel_for(0, groups.size(), [&](std::size_t g) {
      const GroupMonthPlan& plan = plans[g];
      if (!plan.split_month) return;
      const std::size_t t0 = group_task_begin[g];
      const std::size_t t1 = group_task_begin[g + 1];
      std::vector<std::vector<ParsedLog>> logs(t1 - t0);
      for (std::size_t t = t0; t < t1; ++t) {
        logs[t - t0] = logproc::slice_time(
            parsed.logs_by_vpe[static_cast<std::size_t>(
                member_tasks[t].vpe)],
            plan.adapt_at, month_end);
      }
      std::vector<LogView> views(logs.begin(), logs.end());
      const std::vector<std::vector<ScoredEvent>> tails =
          groups[g].detector->score_streams(views, parsed.vocab());
      for (std::size_t t = t0; t < t1; ++t) {
        const std::vector<ScoredEvent>& tail = tails[t - t0];
        events_by_task[t].insert(events_by_task[t].end(), tail.begin(),
                                 tail.end());
      }
    });

    // Detect at each group's operating threshold and map to tickets —
    // parallel per vPE into ordered slots; each vPE appears exactly once,
    // so the result.streams appends are disjoint.
    std::vector<MappingResult> month_parts(member_tasks.size());
    pool.parallel_for(0, member_tasks.size(), [&](std::size_t t) {
      const MemberTask& task = member_tasks[t];
      const GroupState& group = groups[task.group];
      const MappingConfig group_mapping = adapt_mapping_for(
          group.detector->granularity(), options.mapping);
      const std::vector<ScoredEvent>& events = events_by_task[t];
      const std::vector<SimTime> clusters =
          cluster_anomalies(events, group.threshold, group_mapping);
      const std::vector<simnet::Ticket> tickets =
          tickets_in_window(trace, task.vpe, month_begin, month_end,
                            options.mapping.predictive_period);
      month_parts[t] =
          map_anomalies(clusters, tickets, task.vpe, group_mapping);
      // Keep the raw scores for threshold sweeps.
      auto& stream = result.streams[static_cast<std::size_t>(task.vpe)];
      stream.events.insert(stream.events.end(), events.begin(),
                           events.end());
    });

    const MappingResult month_mapping = merge_mappings(month_parts);
    MonthlyMetrics metrics;
    metrics.month = month;
    metrics.prf = compute_prf(month_mapping);
    metrics.false_alarms_per_day =
        static_cast<double>(month_mapping.false_alarms) /
        static_cast<double>(nfv::util::kDaysPerMonth);
    metrics.anomaly_clusters = month_mapping.anomalies.size();
    result.monthly.push_back(metrics);
    raw_detections.insert(raw_detections.end(), month_mapping.tickets.begin(),
                          month_mapping.tickets.end());
    result.mapping.early_warnings += month_mapping.early_warnings;
    result.mapping.errors += month_mapping.errors;
    result.mapping.false_alarms += month_mapping.false_alarms;
    result.mapping.anomalies.insert(result.mapping.anomalies.end(),
                                    month_mapping.anomalies.begin(),
                                    month_mapping.anomalies.end());

    // --- End-of-month model maintenance (parallel per group). ---
    if (month + 1 >= months) break;  // nothing left to score
    const std::size_t vocab_now = parsed.vocab_at(month + 1);
    pool.parallel_for(0, groups.size(), [&](std::size_t g) {
      GroupState& group = groups[g];
      std::vector<std::vector<ParsedLog>> update_streams;
      for (std::int32_t v : group.members) {
        update_streams.push_back(
            normal_logs(parsed, exclusions, v, month_begin, month_end));
      }
      std::vector<LogView> views(update_streams.begin(),
                                 update_streams.end());
      group.detector->update(views, vocab_now);
      calibrate_threshold(group, update_streams, options.threshold_quantile);
    });
  }

  // --- Aggregates. ---
  result.group_thresholds.reserve(groups.size());
  for (const GroupState& group : groups) {
    result.group_thresholds.push_back(group.threshold);
  }
  result.detections = merge_detections(raw_detections);
  result.mapping.tickets = result.detections;
  result.aggregate = compute_prf(result.mapping);
  result.eval_days = static_cast<double>(
      (months - options.initial_train_months) * nfv::util::kDaysPerMonth);
  result.false_alarms_per_day =
      result.eval_days > 0.0
          ? static_cast<double>(result.mapping.false_alarms) /
                result.eval_days
          : 0.0;
  return result;
}

}  // namespace nfv::core
