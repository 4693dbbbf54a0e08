// nfvpred — command-line front end for the library.
//
// Works on plain text log files, one event per line:
//     <epoch-seconds> <free-form syslog message>
// so it can be pointed at real (suitably exported) router logs, not just
// the simulator. Subcommands:
//
//   simulate --out FILE [--vpe N] [--months M] [--seed S] [--tickets FILE]
//       Generate a synthetic vPE log stream (and optionally its ticket
//       feed) in the CLI's log format.
//
//   mine --logs FILE [--max N]
//       Run signature-tree template mining and print the learned patterns.
//
//   train --logs FILE --model FILE [--window K] [--epochs E]
//       Train the LSTM detector on a (normal) log file; write a
//       checkpoint.
//
//   score --logs FILE --model FILE [--threshold-quantile Q]
//       Score a log file with a trained model and print warning
//       signatures (clusters of >=2 anomalies within 2 minutes).
//
// Exit codes: 0 ok, 1 usage error, 2 runtime failure.
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/async_ingest.h"
#include "core/lstm_detector.h"
#include "core/mapper.h"
#include "core/parsed_fleet.h"
#include "logproc/dataset.h"
#include "logproc/signature_tree.h"
#include "simnet/fleet.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace {

using namespace nfv;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  std::optional<std::string> get(const std::string& key) const {
    const auto it = options.find(key);
    return it == options.end() ? std::nullopt
                               : std::optional<std::string>(it->second);
  }
  std::string require(const std::string& key) const {
    const auto value = get(key);
    if (!value) {
      std::cerr << "error: missing required option --" << key << "\n";
      std::exit(1);
    }
    return *value;
  }
  long get_long(const std::string& key, long fallback) const {
    return get_number(key, fallback, [](const char* text, char** end) {
      return std::strtol(text, end, 10);
    });
  }
  /// get_long() that also rejects values below `min`: "--flush-batch -1"
  /// is a usage error, not SIZE_MAX after a cast.
  long get_long_min(const std::string& key, long fallback, long min) const {
    const long value = get_long(key, fallback);
    if (value < min) {
      std::cerr << "error: --" << key << " must be >= " << min << "\n";
      std::exit(1);
    }
    return value;
  }
  double get_double(const std::string& key, double fallback) const {
    return get_number(key, fallback, [](const char* text, char** end) {
      return std::strtod(text, end);
    });
  }

 private:
  // The whole value must parse, in range: "--threads abc" is a usage
  // error, not a silent 0.
  template <typename T, typename Parse>
  T get_number(const std::string& key, T fallback, Parse parse) const {
    const auto value = get(key);
    if (!value) return fallback;
    const char* text = value->c_str();
    char* end = nullptr;
    errno = 0;
    const T parsed = parse(text, &end);
    if (value->empty() || *end != '\0' || errno == ERANGE) {
      std::cerr << "error: --" << key << " expects a number, got '" << *value
                << "'\n";
      std::exit(1);
    }
    return parsed;
  }
};

// The options each subcommand reads, besides the common ones. Anything
// else is a usage error: a misspelt or retired flag must not be ignored.
const std::set<std::string> kCommonOptions = {"threads", "quantize"};
const std::map<std::string, std::set<std::string>> kCommandOptions = {
    {"simulate", {"out", "vpe", "months", "seed", "tickets", "gap-scale"}},
    {"mine", {"logs", "max"}},
    {"train", {"logs", "model", "window", "epochs"}},
    {"score",
     {"logs", "model", "threshold-quantile", "async-ingest", "ingest-workers",
      "flush-batch", "flush-deadline", "stats-json", "online-retrain",
      "retrain-interval", "retrain-samples"}},
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) return args;
  args.command = argv[1];
  const auto command = kCommandOptions.find(args.command);
  if (command == kCommandOptions.end()) return args;  // main prints usage
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::cerr << "error: expected --option, got '" << key << "'\n";
      std::exit(1);
    }
    const std::string name = key.substr(2);
    if (kCommonOptions.count(name) == 0 && command->second.count(name) == 0) {
      std::cerr << "error: unknown option " << key << " for "
                << args.command << "\n";
      std::exit(1);
    }
    if (i + 1 >= argc) {
      std::cerr << "error: missing value for " << key << "\n";
      std::exit(1);
    }
    args.options[name] = argv[i + 1];
  }
  return args;
}

void usage() {
  std::cerr <<
      "usage: nfvpred <command> [options]\n"
      "  simulate --out FILE [--vpe N] [--months M] [--seed S]"
      " [--tickets FILE]\n"
      "  mine     --logs FILE [--max N]\n"
      "  train    --logs FILE --model FILE [--window K] [--epochs E]\n"
      "  score    --logs FILE --model FILE [--threshold-quantile Q]\n"
      "           [--async-ingest 1]    replay the file through the\n"
      "           asynchronous streaming ingest runtime (per-line warning\n"
      "           rule; identical warnings for any worker count)\n"
      "           [--ingest-workers N]  shard workers (default: auto)\n"
      "           [--flush-batch N]     micro-batch size (default 64,\n"
      "           min 1)\n"
      "           [--flush-deadline US] micro-batch deadline in\n"
      "           microseconds (default 2000; 0 = immediate)\n"
      "           [--stats-json FILE]   dump the runtime observability\n"
      "           snapshot as JSON after the replay: totals, per-worker\n"
      "           queue gauges and ingest-to-scored latency histograms,\n"
      "           fleet memory, model, retrain and the shard's row\n"
      "           [--online-retrain 1]  continual learning: a background\n"
      "           trainer samples the template stream, fine-tunes a\n"
      "           shadow model (update / post-update adapt) and installs\n"
      "           it via the epoch barrier — detection never stops\n"
      "           [--retrain-interval N] retrain every N scored lines\n"
      "           (default 50000; 0 = never on its own)\n"
      "           [--retrain-samples N] per-shard recency-window sample\n"
      "           budget for each retrain round (default 2048)\n"
      "common options:\n"
      "  --threads N   global thread pool size; simulate generates the\n"
      "                vPE traces on it in parallel (default:\n"
      "                NFVPRED_THREADS env, else all cores; results are\n"
      "                identical for any thread count)\n"
      "  --quantize 1  int8 quantized scoring (train: mark the checkpoint\n"
      "                int8, so loading it quantizes the fp32 weights;\n"
      "                score: quantize after load). Training stays\n"
      "                fp32; see README \"Quantized scoring\"\n"
      "log file format: '<epoch-seconds> <syslog message>' per line\n";
}

struct RawLine {
  util::SimTime time;
  std::string text;
};

std::vector<RawLine> read_log_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot open " << path << "\n";
    std::exit(2);
  }
  std::vector<RawLine> lines;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    const auto space = trimmed.find(' ');
    if (space == std::string_view::npos) {
      std::cerr << "warning: line " << lineno << " has no message; skipped\n";
      continue;
    }
    char* end = nullptr;
    const long long ts =
        std::strtoll(std::string(trimmed.substr(0, space)).c_str(), &end, 10);
    lines.push_back(
        {util::SimTime{ts}, std::string(util::trim(trimmed.substr(space)))});
  }
  if (lines.empty()) {
    std::cerr << "error: no usable lines in " << path << "\n";
    std::exit(2);
  }
  return lines;
}

int cmd_simulate(const Args& args) {
  simnet::FleetConfig config;
  config.profiles.num_vpes = static_cast<int>(args.get_long_min("vpe", 1, 1));
  config.profiles.num_clusters =
      std::min(config.profiles.num_vpes, 4);
  config.profiles.num_outliers = 0;
  config.months = static_cast<int>(args.get_long_min("months", 3, 1));
  config.seed = static_cast<std::uint64_t>(args.get_long("seed", 42));
  config.syslog.gap_scale = args.get_double("gap-scale", 2.0);
  const auto trace = simnet::simulate_fleet(config);

  std::ofstream out(args.require("out"));
  if (!out) {
    std::cerr << "error: cannot write output file\n";
    return 2;
  }
  std::size_t written = 0;
  for (const auto& stream : trace.logs_by_vpe) {
    for (const auto& rec : stream) {
      out << rec.time.seconds << ' ' << rec.text << '\n';
      ++written;
    }
  }
  std::cerr << "wrote " << written << " log lines\n";

  if (const auto tickets_path = args.get("tickets")) {
    std::ofstream tickets_out(*tickets_path);
    for (const auto& t : trace.tickets) {
      tickets_out << t.report.seconds << ' ' << t.vpe << ' '
                  << simnet::to_string(t.category) << ' '
                  << t.repair_finish.seconds << '\n';
    }
    std::cerr << "wrote " << trace.tickets.size() << " tickets\n";
  }
  return 0;
}

int cmd_mine(const Args& args) {
  const auto lines = read_log_file(args.require("logs"));
  logproc::SignatureTree tree;
  for (const auto& line : lines) tree.learn(line.text);
  const auto max_shown =
      static_cast<std::size_t>(args.get_long("max", 1000));
  std::cout << tree.size() << " templates from " << lines.size()
            << " lines\n";
  for (std::size_t i = 0; i < tree.size() && i < max_shown; ++i) {
    const auto id = static_cast<std::int32_t>(i);
    std::cout << "[" << id << "] x" << tree.match_count(id) << "  "
              << tree.pattern(id) << "\n";
  }
  return 0;
}

int cmd_train(const Args& args) {
  core::LstmDetectorConfig config;
  config.window = static_cast<std::size_t>(args.get_long_min("window", 10, 1));
  config.initial_epochs =
      static_cast<std::size_t>(args.get_long_min("epochs", 4, 1));
  config.quantize = args.get_long("quantize", 0) != 0;

  const auto lines = read_log_file(args.require("logs"));
  logproc::SignatureTree tree;
  std::vector<logproc::ParsedLog> logs;
  logs.reserve(lines.size());
  for (const auto& line : lines) {
    logs.push_back({line.time, tree.learn(line.text)});
  }
  if (logs.size() <= config.window) {
    std::cerr << "not enough events to train (need window+1)\n";
    return 2;
  }
  core::LstmDetector detector(config);
  std::cerr << "training on " << logs.size() << " events ("
            << tree.size() << " templates)...\n";
  const core::LogView view{logs};
  detector.fit({&view, 1}, tree.size());

  std::ofstream out(args.require("model"), std::ios::binary);
  if (!out) {
    std::cerr << "error: cannot write model file\n";
    return 2;
  }
  detector.save(out);
  std::cerr << "model written\n";
  return 0;
}

/// The --async-ingest runtime options, validated up front so a bad value
/// fails before any file is read.
core::AsyncIngestConfig ingest_config_from(const Args& args) {
  core::AsyncIngestConfig config;
  config.workers =
      static_cast<std::size_t>(args.get_long_min("ingest-workers", 0, 0));
  config.flush_batch =
      static_cast<std::size_t>(args.get_long_min("flush-batch", 64, 1));
  config.flush_deadline =
      std::chrono::microseconds(args.get_long_min("flush-deadline", 2000, 0));
  config.online_retrain = args.get_long("online-retrain", 0) != 0;
  config.retrain_interval_lines = static_cast<std::uint64_t>(
      args.get_long_min("retrain-interval", 50000, 0));
  config.retrain_samples =
      static_cast<std::size_t>(args.get_long_min("retrain-samples", 2048, 1));
  return config;
}

int cmd_score(const Args& args) {
  const core::AsyncIngestConfig ingest_config = ingest_config_from(args);
  const auto lines = read_log_file(args.require("logs"));
  std::ifstream model_in(args.require("model"), std::ios::binary);
  if (!model_in) {
    std::cerr << "error: cannot open model file\n";
    return 2;
  }
  core::LstmDetector detector = core::LstmDetector::load(model_in);
  if (args.get_long("quantize", 0) != 0) {
    // Score from an int8 image of the loaded fp32 weights (the image an
    // int8 checkpoint already loads with).
    detector.set_quantized(true);
  }

  // Template ids must be assigned consistently with training: the
  // signature tree is rebuilt from the scored file itself (the tree is
  // deterministic given the same message shapes; novel shapes map to new
  // ids, which the detector treats as maximally surprising).
  logproc::SignatureTree tree;
  std::vector<logproc::ParsedLog> logs;
  for (const auto& line : lines) {
    logs.push_back({line.time, tree.learn(line.text)});
  }
  const auto events = detector.score(logs, tree.size());
  if (events.empty()) {
    std::cerr << "not enough events to score (need window+1)\n";
    return 2;
  }
  std::vector<double> scores;
  scores.reserve(events.size());
  for (const auto& e : events) scores.push_back(e.score);
  const double q = args.get_double("threshold-quantile", 0.99);
  const double threshold = util::quantile(scores, q);

  if (args.get_long("async-ingest", 0) != 0) {
    // Streaming replay: raw lines flow through the asynchronous ingest
    // runtime (online template mining + micro-batched scoring + the
    // >=2-anomalies-within-minutes warning rule). The threshold comes
    // from the batch calibration above; warnings are deterministic for
    // any worker count / flush batch / deadline.
    core::AsyncIngest ingest(&detector, ingest_config);
    core::StreamMonitorConfig monitor_config;
    monitor_config.threshold = threshold;
    monitor_config.window = detector.config().window;
    const std::size_t shard = ingest.add_shard(0, monitor_config);
    ingest.start();
    for (const auto& line : lines) {
      ingest.submit(shard, line.time, line.text);
    }
    ingest.flush();
    const auto stats_path = args.get("stats-json");
    const auto dump_stats = [&ingest, &stats_path]() -> bool {
      std::ofstream stats_out(*stats_path);
      if (!stats_out) {
        std::cerr << "error: cannot write " << *stats_path << "\n";
        return false;
      }
      // The replay runs one shard, so the dump carries every shard row
      // at the cost of one: the summary alone would drop its counters.
      stats_out << ingest.stats_json(/*shard_rows=*/true) << "\n";
      std::cerr << "wrote runtime stats to " << *stats_path << "\n";
      return true;
    };
    if (stats_path && !ingest_config.online_retrain) {
      // flush() is an epoch barrier, so the snapshot's counters and
      // latency buckets are exact for every submitted line — and the
      // queue gauges still describe the live (not yet stopped) runtime.
      if (!dump_stats()) return 2;
    }
    ingest.stop();
    if (stats_path && ingest_config.online_retrain) {
      // With the trainer running, a pre-stop cut could catch a retrain
      // round mid-flight (train_seconds advanced, rounds/swaps not yet);
      // stop() joins the trainer, making the retrain block final.
      if (!dump_stats()) return 2;
    }
    std::vector<core::StreamWarning> warnings;
    ingest.drain_warnings(warnings);
    const core::AsyncIngestStats stats = ingest.stats();
    std::cout << "async ingest: " << stats.lines_scored << " lines over "
              << ingest.workers() << " worker(s); threshold " << threshold
              << " (q=" << q << ")\n";
    if (ingest_config.online_retrain) {
      const core::RetrainStats retrain = ingest.snapshot().retrain;
      std::cout << "online retrain: " << retrain.rounds << " round(s), "
                << retrain.adapt_rounds << " adapt, " << retrain.swaps
                << " model swap(s), " << retrain.samples_seen
                << " sampled events (" << retrain.samples_dropped
                << " dropped), " << retrain.train_seconds
                << "s shadow training\n";
    }
    std::cout << warnings.size() << " warning signature(s):\n";
    for (const auto& warning : warnings) {
      std::cout << "  t=" << warning.time.seconds
                << " anomalies=" << warning.anomaly_count
                << " peak=" << warning.peak_score << "\n";
    }
    return 0;
  }

  core::MappingConfig mapping;
  const auto clusters = core::cluster_anomalies(events, threshold, mapping);

  std::cout << "scored " << events.size() << " events; threshold "
            << threshold << " (q=" << q << ")\n";
  std::cout << clusters.size() << " warning signature(s):\n";
  for (const auto& t : clusters) {
    std::cout << "  t=" << t.seconds << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    const long threads = args.get_long_min("threads", 0, 0);
    if (threads > 0) {
      util::set_global_threads(static_cast<std::size_t>(threads));
    }
    if (args.command == "simulate") return cmd_simulate(args);
    if (args.command == "mine") return cmd_mine(args);
    if (args.command == "train") return cmd_train(args);
    if (args.command == "score") return cmd_score(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  usage();
  return 1;
}
