// Open-loop ledger of nfvpred's syslog -> warning path.
//
// One binary measures the deployed path end to end through the public
// AsyncIngest API on three workloads:
//   fleet10k        10,000 vPEs x 80 catalog-rendered lines, round-robin,
//                   uniform spacing (fleet-proportional costs dominate);
//   paper38         the 38-vPE simnet fleet, trained on month 0, replaying
//                   months 1-12 merged by sim time (scoring dominates);
//   paper38_update  the same fleet trained on month 11, replaying months
//                   12-17 across the month-13 software update, int8
//                   scoring and the online trainer on (the write side).
//
// A run (see run_workload):
//   1. generates every input line from --seed, off the clock;
//   2. capacity passes (3; 5 on paper38_update): closed-loop firehose of the
//      pre-rendered lines, from the first submit() until flush() returns;
//      median reported;
//   3. paced passes (1 on fleet10k, 2 on paper38, 3 on paper38_update): this
//      thread is the open-loop generator. It submits each line at its due
//      time at the workload's fixed offered rate and, between submits, calls
//      drain_warnings() (every ~20 us while idle) and stats_json() (every
//      1 s). Probe warnings give each pass's p50 and p99 (traced runs);
//   4. every pass runs on a freshly set-up runtime (detector training,
//      threshold, AsyncIngest construction, add_shard + tree priming,
//      start()); setup_s is the median over the run's set-ups;
//   5. checks correctness: every offered line scored by stop(), and (fleet10k,
//      paper38) per-vPE warning streams of every pass byte-identical to a
//      serial StreamMonitor replay.
// With --trace 1 it runs one pass of each kind plus a traced capacity pass,
// records spans around the calls into each layer (submit, drain_warnings,
// snapshot, to_json, flush), replays the same lines in-process through
// SignatureTree::learn, StreamMonitorGroup::ingest_parsed, flush every 64
// lines and a twin score_streams, and prints the per-layer metrics instead
// of the end-to-end ones.
//
// A probe is a pair of never-seen-template lines closer together than the
// cluster span; its warning's latency runs from the second line's due time
// until the drain_warnings() call that returns it. Heads are fresh per probe
// on the paper38 workloads. On paper38_update the trainer folds other vPEs'
// new template ids into the vocabulary, so a fresh probe id can alias a known
// one there and only part of the probes raise their own warning.
//
// stdout: a provenance line, then (last) one JSON object with the keys
// correct, attempted, failed and metrics. Diagnostics go to stderr. A
// correctness failure exits 1 and prints no metrics.
//
//   ledger --workload fleet10k --seed 1 --seconds 10 --trace 0
//          --rate 80000 [--tiny] [--perturb] [--trace-out FILE]
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/async_ingest.h"
#include "core/lstm_detector.h"
#include "core/mapper.h"
#include "core/metrics.h"
#include "core/parsed_fleet.h"
#include "core/streaming.h"
#include "logproc/dataset.h"
#include "logproc/shared_forest.h"
#include "logproc/signature_tree.h"
#include "logproc/tokenizer.h"
#include "ml/matrix.h"
#include "simnet/fleet.h"
#include "simnet/template_catalog.h"
#include "util/interner.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace {

using namespace nfv;

constexpr std::size_t kWorkers = 2;
constexpr std::uint64_t kDrainEveryNs = 20'000;
constexpr std::uint64_t kStatsEveryNs = 1'000'000'000;
constexpr std::size_t kInProcessFlushLines = 64;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ms_between(std::uint64_t from, std::uint64_t to) {
  return static_cast<double>(to - from) / 1e6;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Letters-only encoding of n: digit-bearing tokens are masked to wildcards
// by the tokenizer, so a probe's identity must ride on letters.
std::string letters(std::size_t n) {
  std::string out;
  do {
    out.push_back(static_cast<char>('a' + n % 10));
    n /= 10;
  } while (n != 0);
  return out;
}

double median(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : util::quantile(xs, 0.5);
}

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double rate = 0.0;      // fixed offered rate of the paced pass, lines/s
  bool tiny = false;      // self-test scale
  bool perturb = false;   // serial reference skips every probe's 2nd line
  std::string trace_out;  // span summary file (trace runs)
};

// ---------------------------------------------------------------------------
// Workload inputs
// ---------------------------------------------------------------------------

struct TextLine {
  std::int32_t vpe = -1;  // -1: priming only, not part of a training stream
  util::SimTime time;
  std::string text;
};

struct Line {
  std::uint32_t shard = 0;
  std::uint32_t text_len = 0;
  std::uint64_t text_off = 0;
  util::SimTime time;
  std::uint64_t due_ns = 0;  // offset from the paced pass's start
};

struct Probe {
  std::int32_t vpe = -1;
  util::SimTime time;              // the warning's (first line's) time
  std::size_t second_line = 0;     // index into Workload::lines
  util::SimTime shadow_end;        // last time whose window holds the probe
};

std::uint64_t probe_key(std::int32_t vpe, util::SimTime time) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(vpe)) << 40) ^
         static_cast<std::uint64_t>(time.seconds);
}

struct Workload {
  std::string name;
  std::size_t vpes = 0;
  core::LstmDetectorConfig model;
  bool quantize = false;
  bool online_retrain = false;
  std::uint64_t retrain_interval_lines = 0;
  bool parity = false;  // serial-replay gate applies
  bool uniform_spacing = false;  // else due times follow sim time
  // Passes per untraced run. Each has its own set-up; more passes steady a
  // median, and short passes are cheap to repeat.
  std::size_t capacity_passes = 3;
  std::size_t paced_passes = 2;
  double threshold_quantile = 0.995;

  std::vector<TextLine> prime;        // learned by every shard tree
  std::vector<TextLine> train_extra;  // extra training lines (after priming)
  std::vector<std::vector<logproc::TimeInterval>> exclusions;  // by vPE

  std::string text;          // every line's bytes, back to back
  std::vector<Line> lines;   // submission order
  std::vector<Probe> probes;
  std::unordered_map<std::uint64_t, std::size_t> probe_index;  // key -> probe
  std::vector<std::vector<simnet::Ticket>> tickets;  // by vPE; empty = none

  double render_ns_per_line = 0.0;
  std::uint64_t digest = 0;  // input fingerprint (changes with --seed)

  std::string_view line_text(const Line& line) const {
    return std::string_view(text).substr(line.text_off, line.text_len);
  }
  void add_line(std::size_t shard, util::SimTime time, std::string_view body) {
    Line line;
    line.shard = static_cast<std::uint32_t>(shard);
    line.text_off = text.size();
    line.text_len = static_cast<std::uint32_t>(body.size());
    line.time = time;
    text.append(body);
    lines.push_back(line);
  }
  void add_probe(std::int32_t vpe, util::SimTime time, util::SimTime shadow_end) {
    Probe p{vpe, time, lines.size() - 1, shadow_end};
    probe_index.emplace(probe_key(vpe, time), probes.size());
    probes.push_back(p);
  }
};

// fleet10k: bench_fleet_soak's generator (render_seeded, round-robin,
// uniform 30 s sim spacing) with a seeded template mix and probe phase, 80
// lines per vPE (the soak's 96 do not fit one 10 s pass at the fixed rate).
// The soak's anomaly slots are the probes: two fault shapes outside the
// catalog, never in any model's vocabulary.
constexpr std::int64_t kSoakStepSeconds = 30;
constexpr std::size_t kSoakLinesPerVpe = 80;
constexpr std::size_t kSoakProbePeriod = 47;

Workload make_fleet10k(const Options& opt) {
  Workload w;
  w.name = "fleet10k";
  w.vpes = opt.tiny ? 300 : 10000;
  w.parity = true;
  w.uniform_spacing = true;
  w.paced_passes = 1;  // ~19k probe warnings per 9.6 s pass
  w.model.window = 4;
  w.model.embed_dim = 8;
  w.model.hidden = 16;
  w.model.initial_epochs = 1;
  w.model.max_train_windows = 1200;
  w.model.oversample = false;
  w.model.seed = 20260809;
  w.threshold_quantile = 0.995;

  const simnet::TemplateCatalog catalog = simnet::TemplateCatalog::standard();
  std::vector<std::int32_t> ids;
  for (const auto kind :
       {simnet::TemplateKind::kNormal, simnet::TemplateKind::kMaintenance}) {
    for (const std::int32_t id : catalog.ids_of_kind(kind)) ids.push_back(id);
  }
  const std::uint64_t s = mix64(opt.seed);
  const auto templ = [&](std::size_t v, std::size_t i) {
    return ids[(i * 7 + v * 3 + i / 31 + s % 101) % ids.size()];
  };
  const auto salt = [&](std::size_t v, std::size_t i) {
    return s ^ ((static_cast<std::uint64_t>(v) << 32) | i);
  };
  const auto time_of = [](std::size_t i) {
    return util::SimTime{static_cast<std::int64_t>(i) * kSoakStepSeconds};
  };
  for (const simnet::LogTemplate& t : catalog.all()) {
    w.prime.push_back({-1, util::SimTime{0}, catalog.render_seeded(t.id, 0)});
  }
  for (std::size_t v = 0; v < 4; ++v) {
    for (std::size_t i = 0; i < 400; ++i) {
      w.train_extra.push_back({static_cast<std::int32_t>(v), time_of(i),
                               catalog.render_seeded(templ(v, i), salt(v, i))});
    }
  }
  w.exclusions.resize(w.vpes);

  std::vector<std::size_t> phase(w.vpes);
  for (std::size_t v = 0; v < w.vpes; ++v) {
    phase[v] = mix64(s ^ (v * 0x100000001b3ULL)) % kSoakProbePeriod;
  }
  const auto slot = [&](std::size_t v, std::size_t i) {
    return (i + phase[v]) % kSoakProbePeriod;
  };
  w.text.reserve(w.vpes * kSoakLinesPerVpe * 72);
  w.lines.reserve(w.vpes * kSoakLinesPerVpe);
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < kSoakLinesPerVpe; ++i) {
    for (std::size_t v = 0; v < w.vpes; ++v) {
      const std::size_t r = slot(v, i);
      if (r == 20 || r == 21) {
        const char* shape = (v % 2 == 0)
                                ? "zulufault cascade overload detected code "
                                : "yankeefault thermal runaway shutdown code ";
        w.add_line(v, time_of(i), std::string(shape) + std::to_string(i));
        if (r == 21 && i > 0) {
          w.add_probe(static_cast<std::int32_t>(v), time_of(i - 1),
                      time_of(std::min(i + w.model.window, kSoakLinesPerVpe)));
        }
      } else {
        w.add_line(v, time_of(i), catalog.render_seeded(templ(v, i), salt(v, i)));
      }
    }
  }
  w.render_ns_per_line =
      static_cast<double>(now_ns() - t0) / static_cast<double>(w.lines.size());
  return w;
}

// paper38 / paper38_update: the simnet fleet, one month mined and trained
// on (ticket windows excluded), a span of later months replayed merged by
// sim time, with fresh-head probe pairs inserted before seeded natural lines.
Workload make_paper38(const Options& opt, bool update) {
  Workload w;
  w.name = update ? "paper38_update" : "paper38";
  w.parity = !update;
  w.quantize = update;
  w.online_retrain = update;
  w.retrain_interval_lines = opt.tiny ? 4000 : 5000;
  w.capacity_passes = update ? 5 : 3;
  w.paced_passes = update ? 3 : 2;
  w.model.window = 10;
  w.model.hidden = 32;
  w.model.layers = 2;
  w.model.initial_epochs = 2;
  w.model.update_epochs = 1;
  w.model.adapt_epochs = 2;
  w.model.max_train_windows = 3000;
  w.model.oversample = false;
  w.model.seed = 1234;
  w.threshold_quantile = 0.999;

  const int train_month = update ? 11 : 0;
  const int first = update ? 12 : 1;
  const int last = update ? (opt.tiny ? 14 : 18) : (opt.tiny ? 2 : 13);
  const std::size_t probe_target = opt.tiny ? 40 : 1000;

  // One fixed trace, like the paper's one dataset: across seeds only the
  // probe sites move, so detection quality compares like with like.
  simnet::FleetConfig config;
  config.seed = 42;
  config.months = last;
  config.syslog.gap_scale = opt.tiny ? 4.0 : 2.0;
  const std::uint64_t t0 = now_ns();  // render cost includes the simulation
  const simnet::FleetTrace trace = simnet::simulate_fleet(config);
  w.vpes = static_cast<std::size_t>(trace.num_vpes());

  // Merge the per-vPE streams by sim time (ties by vPE) once; slice both
  // the priming month and the replay span out of the merged order.
  struct Ref {
    std::int32_t vpe;
    std::size_t index;
  };
  std::vector<Ref> merged;
  std::vector<std::size_t> cursor(w.vpes, 0);
  for (;;) {
    std::size_t best = w.vpes;
    for (std::size_t v = 0; v < w.vpes; ++v) {
      if (cursor[v] >= trace.logs_by_vpe[v].size()) continue;
      if (best == w.vpes || trace.logs_by_vpe[v][cursor[v]].time <
                                trace.logs_by_vpe[best][cursor[best]].time) {
        best = v;
      }
    }
    if (best == w.vpes) break;
    merged.push_back({static_cast<std::int32_t>(best), cursor[best]++});
  }
  const auto rec = [&](const Ref& r) -> const simnet::RawLogRecord& {
    return trace.logs_by_vpe[static_cast<std::size_t>(r.vpe)][r.index];
  };

  std::vector<std::size_t> replay;  // merged positions
  for (std::size_t m = 0; m < merged.size(); ++m) {
    const int month = util::month_of(rec(merged[m]).time);
    if (month == train_month) {
      w.prime.push_back({merged[m].vpe, rec(merged[m]).time, rec(merged[m]).text});
    }
    if (month >= first && month < last) replay.push_back(m);
  }
  // The paced pass offers rate x seconds lines: replay that prefix of the
  // span, so every probe lands inside the measured window.
  const auto budget = static_cast<std::size_t>(opt.rate * opt.seconds);
  if (budget > 4 * probe_target && replay.size() + 2 * probe_target > budget) {
    replay.resize(budget - 2 * probe_target);
  }
  std::vector<std::vector<std::size_t>> natural(w.vpes);  // replay positions
  for (std::size_t r = 0; r < replay.size(); ++r) {
    natural[static_cast<std::size_t>(merged[replay[r]].vpe)].push_back(r);
  }
  const util::SimTime replay_end = rec(merged[replay.back()]).time;
  w.exclusions.resize(w.vpes);
  w.tickets.resize(w.vpes);
  for (std::size_t v = 0; v < w.vpes; ++v) {
    w.exclusions[v] =
        core::ticket_exclusion_windows(trace, static_cast<std::int32_t>(v));
  }
  for (const simnet::Ticket& t : trace.tickets) {
    if (t.report >= util::month_start(first) && t.report <= replay_end) {
      w.tickets[static_cast<std::size_t>(t.vpe)].push_back(t);
    }
  }

  // Probe sites: seeded (vPE, natural line) picks
  //  - more than a cluster span after the vPE's previous line, so the probe
  //    always opens a fresh anomaly run and its warning carries its own time
  //    (otherwise it would join a storm's run, common after the update);
  //  - at least window + 2 lines apart on one vPE, so no window ever holds
  //    two probes;
  //  - outside every ticket's exclusion window, so probe shadows never hide
  //    a ticket's warnings and precision/recall do not depend on where
  //    probes land.
  const util::Duration span = core::StreamMonitorConfig{}.cluster_span;
  util::Rng rng(mix64(opt.seed ^ 0x70726f6265ULL));
  const std::size_t gap = w.model.window + 2;
  std::vector<std::vector<char>> blocked(w.vpes);
  for (std::size_t v = 0; v < w.vpes; ++v) blocked[v].assign(natural[v].size(), 0);
  std::vector<std::int64_t> probe_before(replay.size(), -1);  // -> probe ordinal
  std::size_t placed = 0;
  for (std::size_t attempt = 0; placed < probe_target && attempt < probe_target * 20;
       ++attempt) {
    const std::size_t v = rng.uniform_index(w.vpes);
    if (natural[v].empty()) continue;
    const std::size_t j = rng.uniform_index(natural[v].size());
    if (j == 0 || blocked[v][j]) continue;
    const util::SimTime t = rec(merged[replay[natural[v][j]]]).time;
    if (t - rec(merged[replay[natural[v][j - 1]]]).time <= span) continue;
    if (std::any_of(w.exclusions[v].begin(), w.exclusions[v].end(),
                    [t](const logproc::TimeInterval& x) { return x.contains(t); })) {
      continue;
    }
    for (std::size_t k = (j >= gap ? j - gap : 0);
         k < std::min(natural[v].size(), j + gap + 1); ++k) {
      blocked[v][k] = 1;
    }
    probe_before[natural[v][j]] = static_cast<std::int64_t>(placed++);
  }

  std::vector<std::size_t> seen(w.vpes, 0);  // natural lines emitted per vPE
  for (std::size_t r = 0; r < replay.size(); ++r) {
    const simnet::RawLogRecord& rr = rec(merged[replay[r]]);
    const auto v = static_cast<std::size_t>(rr.vpe);
    if (probe_before[r] >= 0) {
      const auto k = static_cast<std::size_t>(probe_before[r]);
      const std::string body = "zprobe" + letters(v) + "q" + letters(k) +
                               " canary fault raised code " + std::to_string(k);
      const std::size_t shadow = std::min(seen[v] + w.model.window,
                                          natural[v].size() - 1);
      const util::SimTime shadow_end =
          rec(merged[replay[natural[v][shadow]]]).time;
      if (!w.probe_index.contains(probe_key(rr.vpe, rr.time))) {
        w.add_line(v, rr.time, body);
        w.add_line(v, rr.time, body);
        w.add_probe(rr.vpe, rr.time, shadow_end);
      }
    }
    w.add_line(v, rr.time, rr.text);
    ++seen[v];
  }
  w.render_ns_per_line =
      static_cast<double>(now_ns() - t0) / static_cast<double>(w.lines.size());
  return w;
}

// Due times: fleet10k is uniform; the paper38 workloads keep the sim
// inter-arrival shape (log storms stay bursty) scaled to the fixed rate.
void schedule(Workload& w, double rate) {
  const std::size_t n = w.lines.size();
  const double span_ns = static_cast<double>(n) / rate * 1e9;
  const std::int64_t t_first = w.lines.front().time.seconds;
  const std::int64_t t_last = w.lines.back().time.seconds;
  const bool uniform = w.uniform_spacing || t_last == t_first;
  for (std::size_t i = 0; i < n; ++i) {
    const double frac =
        uniform ? static_cast<double>(i) / static_cast<double>(n)
                : static_cast<double>(w.lines[i].time.seconds - t_first) /
                      static_cast<double>(t_last - t_first);
    w.lines[i].due_ns = static_cast<std::uint64_t>(frac * span_ns);
  }
}

void fingerprint(Workload& w) {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < w.lines.size(); i += 97) {
    h = mix64(h ^ std::hash<std::string_view>{}(w.line_text(w.lines[i])) ^
              w.lines[i].shard);
  }
  w.digest = h;
}

// ---------------------------------------------------------------------------
// Spans (trace runs): durations kept in memory per span name, summarised
// into the trace file when the run ends.
// ---------------------------------------------------------------------------

class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}
  bool on() const { return on_; }

  template <typename Fn>
  auto time(const char* name, Fn&& fn) {
    if (!on_) return fn();
    const std::uint64_t start = now_ns();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      record(name, now_ns() - start);
    } else {
      auto result = fn();
      record(name, now_ns() - start);
      return result;
    }
  }
  void record(const char* name, std::uint64_t ns) { by_name_[name].push_back(ns); }

  const std::vector<std::uint64_t>& get(const std::string& name) {
    return by_name_[name];
  }
  double quantile_ns(const std::string& name, double q) {
    const auto& xs = get(name);
    if (xs.empty()) return 0.0;
    std::vector<double> d(xs.begin(), xs.end());
    return util::quantile(d, q);
  }

  void write(const std::string& path) {
    if (path.empty()) return;
    util::JsonWriter jw;
    jw.begin_object();
    for (auto& [name, xs] : by_name_) {
      std::vector<double> d(xs.begin(), xs.end());
      double total = 0.0;
      for (double x : d) total += x;
      jw.key(name).begin_object();
      jw.kv("count", xs.size());
      jw.kv("total_ns", total);
      jw.kv("p50_ns", d.empty() ? 0.0 : util::quantile(d, 0.5));
      jw.kv("p99_ns", d.empty() ? 0.0 : util::quantile(d, 0.99));
      jw.end_object();
    }
    jw.end_object();
    std::ofstream(path) << jw.str() << "\n";
  }

 private:
  bool on_;
  std::map<std::string, std::vector<std::uint64_t>> by_name_;
};

// ---------------------------------------------------------------------------
// Runtime set-up
// ---------------------------------------------------------------------------

core::StreamMonitorConfig monitor_config(const Workload& w, double threshold) {
  core::StreamMonitorConfig config;
  config.threshold = threshold;
  config.window = w.model.window;
  return config;
}

struct Runtime {
  std::unique_ptr<core::LstmDetector> detector;  // outlives ingest
  std::unique_ptr<core::AsyncIngest> ingest;
  double threshold = 0.0;
  double setup_s = 0.0;
};

/// Mine the priming lines into `tree`, train and calibrate the detector.
/// Deterministic: every call yields the same tree, weights and threshold.
std::unique_ptr<core::LstmDetector> train_detector(const Workload& w,
                                                   logproc::SignatureTree& tree,
                                                   double& threshold) {
  std::vector<std::vector<logproc::ParsedLog>> streams(
      std::max<std::size_t>(w.vpes, 1));
  for (const TextLine& l : w.prime) {
    const std::int32_t id = tree.learn(l.text);
    if (l.vpe >= 0) streams[static_cast<std::size_t>(l.vpe)].push_back({l.time, id});
  }
  logproc::SignatureTree extra_tree = tree;  // keeps `tree` the shards' twin
  for (const TextLine& l : w.train_extra) {
    streams[static_cast<std::size_t>(l.vpe)].push_back(
        {l.time, extra_tree.learn(l.text)});
  }
  std::vector<std::vector<logproc::ParsedLog>> clean;
  for (std::size_t v = 0; v < streams.size(); ++v) {
    if (streams[v].size() <= w.model.window) continue;
    clean.push_back(v < w.exclusions.size()
                        ? logproc::exclude_intervals(streams[v], w.exclusions[v])
                        : streams[v]);
  }
  auto detector = std::make_unique<core::LstmDetector>(w.model);
  std::vector<core::LogView> views(clean.begin(), clean.end());
  detector->fit(views, tree.size());

  // Threshold: a high quantile of training scores (a bounded prefix of each
  // stream keeps calibration cheap), held below the unknown-template score
  // so probes always cross it.
  std::vector<double> scores;
  for (const auto& stream : clean) {
    const std::size_t len = std::min<std::size_t>(stream.size(), 400);
    for (const core::ScoredEvent& e :
         detector->score(core::LogView(stream.data(), len), tree.size())) {
      scores.push_back(e.score);
    }
  }
  threshold = std::min(util::quantile(scores, w.threshold_quantile),
                       0.75 * w.model.unknown_score);
  if (w.quantize) detector->set_quantized(true);
  return detector;
}

Runtime set_up(const Workload& w, logproc::SignatureTree* primed_out,
               bool trainer) {
  Runtime rt;
  const std::uint64_t t0 = now_ns();
  logproc::SignatureTree tree;
  rt.detector = train_detector(w, tree, rt.threshold);
  core::AsyncIngestConfig config;
  config.workers = kWorkers;
  config.online_retrain = w.online_retrain && trainer;
  if (w.online_retrain) config.retrain_interval_lines = w.retrain_interval_lines;
  rt.ingest = std::make_unique<core::AsyncIngest>(rt.detector.get(), config);
  for (std::size_t v = 0; v < w.vpes; ++v) {
    const std::size_t shard = rt.ingest->add_shard(static_cast<std::int32_t>(v),
                                                   monitor_config(w, rt.threshold));
    logproc::SignatureTree& t = rt.ingest->mutable_tree(shard);
    for (const TextLine& l : w.prime) t.learn(l.text);
  }
  rt.ingest->start();
  rt.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  if (primed_out != nullptr) *primed_out = std::move(tree);
  return rt;
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

struct PassResult {
  double wall_s = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t scored = 0;
  std::vector<core::StreamWarning> warnings;  // merged by vPE
  core::RuntimeStatsSnapshot final_snapshot;
  // paced pass only
  std::vector<double> probe_latency_ms;
  std::vector<double> stats_json_ms;
  double late_ms_max = 0.0;
  double offered_lines_per_s = 0.0;
  std::uint64_t queue_depth_max = 0;
  double flush_call_ms = 0.0;
};

void finish_pass(core::AsyncIngest& ingest, std::vector<core::StreamWarning>& all,
                 PassResult& r) {
  r.final_snapshot = ingest.snapshot();
  ingest.stop();
  ingest.drain_warnings(all);
  r.scored = ingest.stats().lines_scored;
  r.warnings = core::merge_warnings_by_vpe(std::move(all));
}

PassResult capacity_pass(const Workload& w, Runtime& rt, std::size_t n,
                         Spans& spans) {
  core::AsyncIngest& ingest = *rt.ingest;
  PassResult r;
  r.offered = n;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    const Line& line = w.lines[i];
    std::string body(w.line_text(line));
    spans.time("submit_firehose",
               [&] { ingest.submit(line.shard, line.time, std::move(body)); });
  }
  const std::uint64_t f0 = now_ns();
  ingest.flush();
  const std::uint64_t t1 = now_ns();
  r.wall_s = static_cast<double>(t1 - t0) / 1e9;
  r.flush_call_ms = ms_between(f0, t1);
  std::vector<core::StreamWarning> all;
  ingest.drain_warnings(all);
  finish_pass(ingest, all, r);
  return r;
}

PassResult paced_pass(const Workload& w, Runtime& rt, std::size_t n,
                      Spans& spans) {
  core::AsyncIngest& ingest = *rt.ingest;
  PassResult r;
  r.offered = n;
  std::vector<core::StreamWarning> all;
  std::vector<core::StreamWarning> batch;
  std::size_t json_bytes = 0;
  const std::uint64_t t0 = now_ns() + 1'000'000;

  const auto drain = [&] {
    batch.clear();
    spans.time("drain_warnings", [&] { return ingest.drain_warnings(batch); });
    const std::uint64_t t = now_ns();
    for (const core::StreamWarning& warning : batch) {
      const auto it = w.probe_index.find(probe_key(warning.vpe, warning.time));
      if (it != w.probe_index.end()) {
        const Probe& p = w.probes[it->second];
        if (p.second_line < n) {
          r.probe_latency_ms.push_back(ms_between(t0 + w.lines[p.second_line].due_ns, t));
        }
      }
      all.push_back(warning);
    }
  };
  const auto poll_stats = [&] {
    const std::uint64_t s0 = now_ns();
    if (spans.on()) {
      const core::RuntimeStatsSnapshot snap =
          spans.time("snapshot", [&] { return ingest.snapshot(); });
      json_bytes += spans.time("to_json", [&] { return core::to_json(snap); }).size();
      for (const core::WorkerStatsSnapshot& ws : snap.workers) {
        r.queue_depth_max = std::max(r.queue_depth_max, ws.queue.depth);
      }
    } else {
      json_bytes += ingest.stats_json().size();
    }
    r.stats_json_ms.push_back(ms_between(s0, now_ns()));
  };

  std::uint64_t last_drain = 0;
  std::uint64_t next_stats = t0 + kStatsEveryNs;
  std::uint64_t late_max = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Line& line = w.lines[i];
    const std::uint64_t due = t0 + line.due_ns;
    std::uint64_t now = now_ns();
    while (now < due) {
      if (now >= next_stats) {
        poll_stats();
        next_stats = now_ns() + kStatsEveryNs;
      } else if (now - last_drain >= kDrainEveryNs) {
        drain();
        last_drain = now;
      }
      now = now_ns();
    }
    late_max = std::max(late_max, now - due);
    std::string body(w.line_text(line));
    spans.time("submit", [&] { ingest.submit(line.shard, line.time, std::move(body)); });
    if ((i & 255) == 255) {
      if (now >= next_stats) {
        poll_stats();
        next_stats = now_ns() + kStatsEveryNs;
      }
      drain();
      last_drain = now_ns();
    }
  }
  const std::uint64_t submitted = now_ns();
  ingest.flush();
  drain();
  r.wall_s = static_cast<double>(submitted - t0) / 1e9;
  r.offered_lines_per_s = static_cast<double>(n) / r.wall_s;
  r.late_ms_max = static_cast<double>(late_max) / 1e6;
  finish_pass(ingest, all, r);
  std::cerr << "stats_json: " << r.stats_json_ms.size() << " calls, "
            << json_bytes << " bytes\n";
  return r;
}

// ---------------------------------------------------------------------------
// Serial reference: one StreamMonitor per vPE over a copy of the primed tree,
// immediate per-line scoring. vPEs are independent, so untimed replays fan
// the vPEs out over threads; each vPE's stream is still replayed in order.
// ---------------------------------------------------------------------------

std::vector<core::StreamWarning> serial_replay(
    const Workload& w, const core::LstmDetector& detector, double threshold,
    const logproc::SignatureTree& primed, std::size_t n, std::size_t threads,
    bool perturb) {
  std::vector<std::vector<std::size_t>> by_vpe(w.vpes);
  for (std::size_t i = 0; i < n; ++i) by_vpe[w.lines[i].shard].push_back(i);
  std::vector<char> probe_second(w.lines.size(), 0);
  for (const Probe& p : w.probes) probe_second[p.second_line] = 1;

  std::vector<std::vector<core::StreamWarning>> out(w.vpes);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    util::ThreadPool::ScopedRegion serial_kernels;
    for (std::size_t v = next++; v < w.vpes; v = next++) {
      logproc::SignatureTree tree = primed;
      core::StreamMonitor monitor(
          static_cast<std::int32_t>(v), &detector, &tree,
          monitor_config(w, threshold),
          [&out, v](const core::StreamWarning& warning) { out[v].push_back(warning); });
      for (const std::size_t i : by_vpe[v]) {
        if (perturb && probe_second[i]) continue;
        monitor.ingest(w.lines[i].time, w.line_text(w.lines[i]));
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();

  std::vector<core::StreamWarning> merged;
  for (const auto& ws : out) merged.insert(merged.end(), ws.begin(), ws.end());
  return merged;
}

bool same_warnings(const std::vector<core::StreamWarning>& serial,
                   const std::vector<core::StreamWarning>& async,
                   const std::string& label) {
  if (serial.size() != async.size()) {
    std::cerr << "parity: " << label << " has " << async.size()
              << " warnings, serial replay " << serial.size() << "\n";
    return false;
  }
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const core::StreamWarning& a = serial[i];
    const core::StreamWarning& b = async[i];
    if (a.vpe != b.vpe || a.time.seconds != b.time.seconds ||
        a.anomaly_count != b.anomaly_count ||
        std::memcmp(&a.peak_score, &b.peak_score, sizeof(double)) != 0 ||
        a.trigger_template != b.trigger_template) {
      std::cerr << "parity: " << label << " warning " << i << " (vPE " << b.vpe
                << ") diverges from the serial replay\n";
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Detection quality
// ---------------------------------------------------------------------------

struct Quality {
  double precision = 0.0;
  double recall = 0.0;
  std::size_t probe_warnings = 0;
};

bool is_probe_warning(const Workload& w, const core::StreamWarning& warning) {
  return w.probe_index.contains(probe_key(warning.vpe, warning.time));
}

bool in_probe_shadow(const Workload& w, const core::StreamWarning& warning) {
  for (const Probe& p : w.probes) {
    if (p.vpe == warning.vpe && warning.time >= p.time &&
        warning.time <= p.shadow_end) {
      return true;
    }
  }
  return false;
}

Quality quality(const Workload& w, const std::vector<core::StreamWarning>& warnings,
                std::size_t n) {
  Quality q;
  std::size_t probes_offered = 0;
  for (const Probe& p : w.probes) probes_offered += p.second_line < n ? 1 : 0;
  for (const core::StreamWarning& warning : warnings) {
    q.probe_warnings += is_probe_warning(w, warning) ? 1 : 0;
  }
  if (w.tickets.empty()) {
    // fleet10k has no ticket feed: its ground truth is the soak's fault
    // slots, so precision is the probe share of all warnings and recall
    // the share of offered probe pairs that raised their own warning.
    q.precision = warnings.empty() ? 0.0
                                   : static_cast<double>(q.probe_warnings) /
                                         static_cast<double>(warnings.size());
    q.recall = probes_offered == 0 ? 0.0
                                   : static_cast<double>(q.probe_warnings) /
                                         static_cast<double>(probes_offered);
    return q;
  }
  std::vector<std::vector<util::SimTime>> times(w.vpes);
  for (const core::StreamWarning& warning : warnings) {
    if (is_probe_warning(w, warning) || in_probe_shadow(w, warning)) continue;
    times[static_cast<std::size_t>(warning.vpe)].push_back(warning.time);
  }
  std::vector<core::MappingResult> parts;
  for (std::size_t v = 0; v < w.vpes; ++v) {
    parts.push_back(core::map_anomalies(times[v], w.tickets[v],
                                        static_cast<std::int32_t>(v),
                                        core::MappingConfig{}));
  }
  const core::PrfMetrics prf = core::compute_prf(core::merge_mappings(parts));
  q.precision = prf.precision;
  q.recall = prf.recall;
  return q;
}

// ---------------------------------------------------------------------------
// In-process layer replay (trace runs)
// ---------------------------------------------------------------------------

struct LayerTimes {
  double tokenize_ns_per_line = 0.0;
  double mine_ns_per_line = 0.0;
  double stage_ns_per_line = 0.0;
  double flush_ns_per_line = 0.0;
  double track_ns_per_line = 0.0;
  double score_ns_per_window = 0.0;
  double windows_per_flush = 0.0;
  std::uint64_t windows_scored = 0;
  std::uint64_t templates_learned = 0;
};

LayerTimes layer_replay(const Workload& w, const core::LstmDetector& detector,
                        double threshold, std::size_t n) {
  LayerTimes lt;
  {
    std::vector<std::string_view> tokens;
    std::vector<unsigned char> variable;
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      logproc::tokenize_spans(w.line_text(w.lines[i]), tokens, variable);
    }
    lt.tokenize_ns_per_line =
        static_cast<double>(now_ns() - t0) / static_cast<double>(n);
  }

  // The runtime's layout: fleet token arena + template forest, one primed
  // tree and monitor per vPE, one group per worker's shard set.
  util::SharedInterner arena;
  logproc::SharedSignatureForest forest(&arena);
  std::vector<std::unique_ptr<logproc::SignatureTree>> trees;
  std::vector<std::unique_ptr<core::StreamMonitor>> monitors;
  std::vector<std::size_t> primed_size(w.vpes);
  for (std::size_t v = 0; v < w.vpes; ++v) {
    trees.push_back(std::make_unique<logproc::SignatureTree>(
        logproc::SignatureTreeConfig{}, &arena, &forest));
    for (const TextLine& l : w.prime) trees[v]->learn(l.text);
    primed_size[v] = trees[v]->size();
    monitors.push_back(std::make_unique<core::StreamMonitor>(
        static_cast<std::int32_t>(v), &detector, trees[v].get(),
        monitor_config(w, threshold), [](const core::StreamWarning&) {}));
  }
  std::vector<std::unique_ptr<core::StreamMonitorGroup>> groups;
  for (std::size_t g = 0; g < kWorkers; ++g) {
    groups.push_back(std::make_unique<core::StreamMonitorGroup>(&detector));
  }
  std::vector<std::size_t> local(w.vpes);
  for (std::size_t v = 0; v < w.vpes; ++v) {
    local[v] = groups[v % kWorkers]->add(monitors[v].get());
  }

  // Mirror of each monitor's history, to hand the twin score_streams the
  // exact windows a flush scores.
  std::vector<std::deque<logproc::ParsedLog>> history(w.vpes);
  std::vector<std::vector<std::vector<logproc::ParsedLog>>> pending(kWorkers);
  std::vector<std::size_t> staged(kWorkers, 0);
  std::uint64_t mine = 0, stage = 0, flush = 0, score = 0, flushes = 0;
  const auto flush_group = [&](std::size_t g) {
    std::uint64_t t = now_ns();
    groups[g]->flush();
    flush += now_ns() - t;
    std::vector<core::LogView> views(pending[g].begin(), pending[g].end());
    t = now_ns();
    const auto twin = detector.score_streams(views, trees[g]->size());
    score += now_ns() - t;
    lt.windows_scored += twin.size();
    pending[g].clear();
    staged[g] = 0;
    ++flushes;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Line& line = w.lines[i];
    const std::size_t v = line.shard;
    const std::size_t g = v % kWorkers;
    std::uint64_t t = now_ns();
    const std::int32_t id = trees[v]->learn(w.line_text(line));
    const std::uint64_t t1 = now_ns();
    const logproc::ParsedLog parsed{line.time, id};
    groups[g]->ingest_parsed(local[v], parsed);
    const std::uint64_t t2 = now_ns();
    mine += t1 - t;
    stage += t2 - t1;
    history[v].push_back(parsed);
    if (history[v].size() > w.model.window + 1) history[v].pop_front();
    if (history[v].size() == w.model.window + 1) {
      pending[g].emplace_back(history[v].begin(), history[v].end());
    }
    if (++staged[g] == kInProcessFlushLines) flush_group(g);
  }
  for (std::size_t g = 0; g < kWorkers; ++g) {
    if (staged[g] > 0) flush_group(g);
  }
  const double lines = static_cast<double>(n);
  lt.mine_ns_per_line = static_cast<double>(mine) / lines;
  lt.stage_ns_per_line = static_cast<double>(stage) / lines;
  lt.flush_ns_per_line = static_cast<double>(flush) / lines;
  lt.track_ns_per_line = static_cast<double>(flush - std::min(flush, score)) / lines;
  lt.score_ns_per_window =
      lt.windows_scored == 0 ? 0.0
                             : static_cast<double>(score) /
                                   static_cast<double>(lt.windows_scored);
  lt.windows_per_flush = flushes == 0 ? 0.0
                                      : static_cast<double>(lt.windows_scored) /
                                            static_cast<double>(flushes);
  for (std::size_t v = 0; v < w.vpes; ++v) {
    lt.templates_learned += trees[v]->size() - primed_size[v];
  }
  return lt;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  bool all_finite() const {
    for (const Entry& e : entries_) {
      if (!std::isfinite(e.value)) {
        std::cerr << "metric " << e.name << " is not finite\n";
        return false;
      }
    }
    return true;
  }
  void write(util::JsonWriter& jw) const {
    jw.key("metrics").begin_object();
    for (const Entry& e : entries_) {
      jw.key(e.name).begin_object();
      jw.kv("value", e.value);
      jw.kv("unit", e.unit);
      jw.end_object();
    }
    jw.end_object();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string one_line(const std::string& json) {
  std::string out;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (!in_string && (c == '\n' || c == ' ')) continue;
    out.push_back(c);
  }
  return out;
}

void print_provenance(const Options& opt, const Workload& w, std::size_t n) {
  util::JsonWriter jw;
  jw.begin_object().key("provenance").begin_object();
  jw.kv("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  jw.kv("simd_tier", ml::simd_kernels_enabled() ? "avx2+fma" : "baseline");
  jw.kv("build_type", LEDGER_BUILD_TYPE);
  jw.kv("compiler", __VERSION__);
  jw.kv("kernel_pool_threads", util::global_pool().size());
  jw.kv("shard_workers", kWorkers);
  jw.kv("workload", w.name);
  jw.kv("seed", opt.seed);
  jw.kv("seconds", opt.seconds);
  jw.kv("offered_rate_lines_per_s", opt.rate);
  jw.kv("lines", n);
  jw.kv("probes", w.probes.size());
  jw.kv("input_digest", std::to_string(w.digest));
  jw.kv("tiny", opt.tiny);
  jw.end_object().end_object();
  std::cout << one_line(jw.str()) << std::endl;
}

int run_workload(const Options& opt) {
  util::set_global_threads(1);  // kernel pool: shard workers + producer fit nproc
  Workload w;
  if (opt.workload == "fleet10k") {
    w = make_fleet10k(opt);
  } else if (opt.workload == "paper38") {
    w = make_paper38(opt, false);
  } else if (opt.workload == "paper38_update") {
    w = make_paper38(opt, true);
  } else {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  schedule(w, opt.rate);
  fingerprint(w);
  // A paced pass lasts at most --seconds at the fixed rate; every pass and
  // the serial reference use the same prefix of the line stream.
  std::size_t n = w.lines.size();
  while (n > 0 && static_cast<double>(w.lines[n - 1].due_ns) > opt.seconds * 1e9) --n;
  std::cerr << w.name << ": " << n << " of " << w.lines.size() << " lines, "
            << w.vpes << " vPEs, " << w.probes.size() << " probes\n";

  Spans spans(opt.trace);
  Spans untraced(false);
  std::vector<double> setup_s;

  // Every pass gets a freshly set-up runtime (so each can be checked against
  // the serial replay), and every set-up is a setup_s sample. Capacity passes
  // run without the online trainer: under a firehose its installs wait for a
  // random queue gap, so the number of installs (and with it the scoring
  // cost of post-update lines) would swing capacity from pass to pass. The
  // trainer's effects are measured where the layer map puts them:
  // warn_p99_ms and ticket_recall of the paced passes.
  //
  // A traced run needs one untraced capacity pass (the tracing-overhead
  // baseline) and one paced pass; its end-to-end numbers are not reported.
  const std::size_t capacity_passes = opt.trace ? 1 : w.capacity_passes;
  const std::size_t paced_passes = opt.trace ? 1 : w.paced_passes;
  std::vector<PassResult> capacity;
  for (std::size_t k = 0; k < capacity_passes; ++k) {
    Runtime rt = set_up(w, nullptr, false);
    setup_s.push_back(rt.setup_s);
    capacity.push_back(capacity_pass(w, rt, n, untraced));
    std::cerr << "capacity pass " << k << ": "
              << static_cast<double>(n) / capacity.back().wall_s << " lines/s\n";
  }
  PassResult traced_capacity;
  if (opt.trace) {
    Runtime rt = set_up(w, nullptr, false);
    traced_capacity = capacity_pass(w, rt, n, spans);
  }
  std::vector<PassResult> paced;
  logproc::SignatureTree primed;
  Runtime paced_rt;  // the last paced runtime: its detector serves the replays
  for (std::size_t k = 0; k < paced_passes; ++k) {
    paced_rt.ingest.reset();  // before the detector it scores with
    paced_rt = set_up(w, &primed, true);
    setup_s.push_back(paced_rt.setup_s);
    paced.push_back(paced_pass(w, paced_rt, n, spans));
  }

  // ---- correctness ----
  bool correct = true;
  std::uint64_t failed = 0;
  std::vector<const PassResult*> passes;
  for (const PassResult& r : capacity) passes.push_back(&r);
  for (const PassResult& r : paced) passes.push_back(&r);
  if (opt.trace) passes.push_back(&traced_capacity);
  for (const PassResult* r : passes) {
    if (r->scored != r->offered) {
      std::cerr << "unscored lines: " << r->offered - std::min(r->offered, r->scored)
                << " of " << r->offered << "\n";
      failed += r->offered - std::min(r->offered, r->scored);
      correct = false;
    }
  }
  std::vector<double> p50_ms, p99_ms, stats_ms, precision, recall;
  double late_ms_max = 0.0;
  std::size_t probe_warnings = 0;
  for (const PassResult& r : paced) {
    const Quality q = quality(w, r.warnings, n);
    if (r.probe_latency_ms.empty() || q.probe_warnings == 0) {
      std::cerr << "no probe warning was drained (vacuous latency)\n";
      correct = false;
    }
    if (!r.probe_latency_ms.empty()) {
      p50_ms.push_back(util::quantile(r.probe_latency_ms, 0.50));
      p99_ms.push_back(util::quantile(r.probe_latency_ms, 0.99));
    }
    stats_ms.insert(stats_ms.end(), r.stats_json_ms.begin(), r.stats_json_ms.end());
    precision.push_back(q.precision);
    recall.push_back(q.recall);
    std::cerr << "paced pass: " << r.probe_latency_ms.size()
              << " probe latencies, precision " << q.precision << ", recall "
              << q.recall << ", " << r.warnings.size() << " warnings, "
              << r.final_snapshot.retrain.swaps << " model swaps ("
              << r.final_snapshot.retrain.adapt_rounds << " adapt rounds)\n";
    probe_warnings += q.probe_warnings;
    late_ms_max = std::max(late_ms_max, r.late_ms_max);
  }
  double serial_lines_per_s = 0.0;
  if (w.parity || opt.trace) {
    const std::uint64_t t0 = now_ns();
    const std::vector<core::StreamWarning> serial = serial_replay(
        w, *paced_rt.detector, paced_rt.threshold, primed, n,
        opt.trace ? 1 : std::max(1u, std::thread::hardware_concurrency()),
        opt.perturb);
    serial_lines_per_s = static_cast<double>(n) /
                         (static_cast<double>(now_ns() - t0) / 1e9);
    if (w.parity) {
      for (std::size_t k = 0; k < passes.size(); ++k) {
        correct = same_warnings(serial, passes[k]->warnings,
                                "pass " + std::to_string(k)) && correct;
      }
    }
  }
  if (!correct) {
    std::cerr << w.name << ": correctness check failed; no metrics printed\n";
    return 1;
  }

  // ---- metrics ----
  std::vector<double> capacity_lps;
  for (const PassResult& r : capacity) {
    capacity_lps.push_back(static_cast<double>(n) / r.wall_s);
  }
  const double capacity_median = median(capacity_lps);
  const PassResult& last_paced = paced.back();
  const auto& snap = last_paced.final_snapshot;
  Metrics m;
  if (!opt.trace) {
    m.add("capacity_lines_per_s", capacity_median, "lines/s");
    m.add("bytes_per_vpe", snap.memory.bytes_per_vpe, "B");
    m.add("rss_peak_mb", rss_peak_mb(), "MB");
    m.add("setup_s", median(setup_s), "s");
    m.add("ticket_precision", median(precision), "ratio");
    m.add("ticket_recall", median(recall), "ratio");
  } else {
    const LayerTimes lt = layer_replay(w, *paced_rt.detector, paced_rt.threshold, n);
    m.add("loadgen.late_ms_max", late_ms_max, "ms");
    m.add("loadgen.offered_lines_per_s", last_paced.offered_lines_per_s, "lines/s");
    m.add("loadgen.render_ns_per_line", w.render_ns_per_line, "ns");
    m.add("loadgen.probe_warnings", static_cast<double>(probe_warnings), "count");
    // Paced-pass latencies are reported here, unbounded: on a shared host
    // they swing with CPU steal and memory contention, and with the stalls
    // they exist to show (stats_json at 10k shards, trainer installs), by
    // more than any regression bound allows.
    m.add("paced.warn_p50_ms", median(p50_ms), "ms");
    m.add("paced.warn_p99_ms", median(p99_ms), "ms");
    m.add("paced.stats_json_ms", median(stats_ms), "ms");
    m.add("async_ingest.submit_ns_p50", spans.quantile_ns("submit", 0.50), "ns");
    m.add("async_ingest.submit_ns_p99", spans.quantile_ns("submit", 0.99), "ns");
    std::uint64_t stalls = 0;
    for (const auto& ws : snap.workers) stalls += ws.queue.stalls;
    m.add("async_ingest.queue_stalls", static_cast<double>(stalls), "count");
    m.add("async_ingest.queue_depth_max", static_cast<double>(last_paced.queue_depth_max),
          "count");
    m.add("async_ingest.lines_per_flush",
          snap.totals.flushes == 0 ? 0.0
                                   : static_cast<double>(snap.totals.lines_scored) /
                                         static_cast<double>(snap.totals.flushes),
          "lines");
    m.add("async_ingest.flush_call_ms", traced_capacity.flush_call_ms, "ms");
    const double worker_ns_per_line =
        static_cast<double>(kWorkers) * 1e9 / capacity_median;
    m.add("async_ingest.overhead_ns_per_line",
          worker_ns_per_line -
              (lt.mine_ns_per_line + lt.stage_ns_per_line + lt.flush_ns_per_line),
          "ns");
    m.add("runtime_stats.snapshot_ms", spans.quantile_ns("snapshot", 0.5) / 1e6, "ms");
    m.add("runtime_stats.to_json_ms", spans.quantile_ns("to_json", 0.5) / 1e6, "ms");
    m.add("logproc.tokenize_ns_per_line", lt.tokenize_ns_per_line, "ns");
    m.add("logproc.mine_ns_per_line", lt.mine_ns_per_line, "ns");
    m.add("logproc.templates_learned", static_cast<double>(lt.templates_learned),
          "count");
    m.add("logproc.forest_templates", static_cast<double>(snap.memory.forest_templates),
          "count");
    m.add("logproc.arena_tokens", static_cast<double>(snap.memory.arena_tokens),
          "count");
    m.add("logproc.tree_bytes_per_vpe",
          static_cast<double>(snap.memory.tree_bytes_total) /
              static_cast<double>(std::max<std::uint64_t>(snap.memory.shards, 1)),
          "B");
    m.add("streaming.stage_ns_per_line", lt.stage_ns_per_line, "ns");
    m.add("streaming.flush_ns_per_line", lt.flush_ns_per_line, "ns");
    m.add("streaming.track_ns_per_line", lt.track_ns_per_line, "ns");
    m.add("streaming.windows_per_flush", lt.windows_per_flush, "count");
    m.add("detector.score_ns_per_window", lt.score_ns_per_window, "ns");
    m.add("detector.windows_scored", static_cast<double>(lt.windows_scored), "count");
    const core::ShardStatsSnapshot* shard0 =
        snap.shards.empty() ? nullptr : &snap.shards.front();
    m.add("detector.model_bytes",
          shard0 == nullptr ? 0.0
                            : static_cast<double>(shard0->model_quantized
                                                      ? shard0->model_bytes_quantized
                                                      : shard0->model_bytes_fp32),
          "B");
    m.add("retrain.rounds", static_cast<double>(snap.retrain.rounds), "count");
    m.add("retrain.adapt_rounds", static_cast<double>(snap.retrain.adapt_rounds),
          "count");
    m.add("retrain.swaps", static_cast<double>(snap.retrain.swaps), "count");
    m.add("retrain.train_s", snap.retrain.train_seconds, "s");
    m.add("retrain.samples_dropped_frac",
          snap.retrain.samples_seen == 0
              ? 0.0
              : static_cast<double>(snap.retrain.samples_dropped) /
                    static_cast<double>(snap.retrain.samples_seen),
          "ratio");
    m.add("baseline.serial_lines_per_s", serial_lines_per_s, "lines/s");
    const double traced_lps = static_cast<double>(n) / traced_capacity.wall_s;
    m.add("tracing.capacity_lines_per_s", traced_lps, "lines/s");
    m.add("tracing.overhead_frac", 1.0 - traced_lps / capacity_median, "ratio");
    spans.write(opt.trace_out);
  }
  if (!m.all_finite()) return 1;

  std::cerr << w.name << ": capacity " << capacity_median << " lines/s, paced "
            << last_paced.offered_lines_per_s << " lines/s (late max " << late_ms_max
            << " ms), " << last_paced.warnings.size() << " warnings\n";
  print_provenance(opt, w, n);
  util::JsonWriter jw;
  jw.begin_object();
  jw.kv("correct", true);
  jw.kv("attempted", static_cast<std::uint64_t>(n));
  jw.kv("failed", failed);
  m.write(jw);
  jw.end_object();
  std::cout << one_line(jw.str()) << std::endl;
  return 0;
}

int usage() {
  std::cerr << "usage: ledger --workload {fleet10k|paper38|paper38_update} "
               "--seed N --seconds S --trace {0|1} --rate LINES_PER_S "
               "[--tiny] [--perturb] [--trace-out FILE]\n";
  return 2;
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(out);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    double number = 0.0;
    if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--perturb") {
      opt.perturb = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else if ((arg == "--seed" || arg == "--seconds" || arg == "--trace" ||
                arg == "--rate") &&
               has_value && parse_number(argv[i + 1], number)) {
      ++i;
      if (arg == "--seed") opt.seed = static_cast<std::uint64_t>(number);
      if (arg == "--seconds") opt.seconds = number;
      if (arg == "--trace") opt.trace = number != 0.0;
      if (arg == "--rate") opt.rate = number;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || opt.rate <= 0.0 || opt.seconds <= 0.0) return usage();
  try {
    return run_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "ledger: " << e.what() << "\n";
    return 1;
  }
}
