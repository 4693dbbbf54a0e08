// Fleet-scale soak: simnet-driven syslog through the async ingest runtime
// at 1k / 10k vPEs on one box.
//
// The paper validates on 38 vPEs (§2); the production target is a box
// multiplexing thousands of monitors, where per-vPE MEMORY — not per-line
// CPU — is the scaling wall. Every shard mines raw rendered syslog from
// the shared simnet TemplateCatalog, so the fleet token set AND
// template set overlap almost completely across vPEs: exactly the
// workload the runtime's shared token arena (util::SharedInterner) and
// shared signature forest (logproc::SharedSignatureForest, cross-vPE
// template dedup with copy-on-write divergence) exist for. This bench
// measures, per {vpes, workers, quantize} configuration:
//   - sustained lines/sec over the submit -> flush soak window,
//   - bytes/vPE from the runtime's fleet memory stats (arena + forest
//     counted once + per-shard tree bytes), with a per-row breakdown
//     (per-vPE tree bytes vs amortized shared bytes vs amortized model
//     bytes), against the private baseline: the bytes/vPE of one fully
//     private SignatureTree per vPE, measured on the serial replay's trees,
//   - warning latency p50/p99/p999 (ingest -> scored, µs) from the
//     runtime's per-shard histograms,
//   - model bytes (fp32 vs --quantize int8 sidecar from the quant tier).
// and proves determinism at scale: per-vPE warning streams are compared
// byte-for-byte against a serial StreamMonitor replay at the FULL vPE
// count for multiple worker counts. Lines are regenerated on demand from
// (template id, vpe, line index) via TemplateCatalog::render_seeded, so
// the serial replay never needs the multi-million-line workload in memory.
//
// Modes:
//   --json FILE   full soak (1k and 10k vPE rows) → BENCH_soak.json
//   --smoke       fast CI gate: small fleet; asserts warning parity with
//                 the serial replay at 2 worker counts AND that the
//                 runtime's bytes/vPE is below the private baseline
//   --vpes N      replace the default 1k/10k row scales with a single N
//                 (local iteration; acceptance runs use the default)
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/async_ingest.h"
#include "core/lstm_detector.h"
#include "logproc/signature_tree.h"
#include "simnet/template_catalog.h"
#include "util/stats.h"

namespace {

using namespace nfv;

constexpr std::size_t kWindow = 4;
constexpr std::int64_t kStepSeconds = 30;

// Two synthetic fault shapes NOT in the catalog: letters-only heads so
// the tokenizer keeps them stable, mined online during the soak onto ids
// >= the model vocabulary (the deterministic unknown-template score
// path). Pairs land 30s apart — inside the 2-minute cluster span.
std::string anomaly_line(std::size_t vpe, std::size_t i) {
  const char* shape = (vpe % 2 == 0) ? "zulufault cascade overload detected"
                                     : "yankeefault thermal runaway shutdown";
  return std::string(shape) + " code " + std::to_string(i);
}

bool is_anomaly_slot(std::size_t i) { return i % 47 == 20 || i % 47 == 21; }

struct Workload {
  simnet::TemplateCatalog catalog;
  std::vector<std::int32_t> stream_ids;  // normal traffic the soak draws on
  core::LstmDetector detector;
  core::LstmDetector detector_quantized;
  double threshold = 0.0;
  std::size_t vocab = 0;
};

/// Mine every catalog template once, in catalog order. All variable
/// fields render digit-bearing (masked to wildcards by the tokenizer), so
/// one pass per template yields a deterministic template set — identical
/// ids in every tree primed this way, which is what aligns mined ids with
/// the detector vocabulary across 10k shards and the serial replay.
void prime_tree(logproc::SignatureTree& tree,
                const simnet::TemplateCatalog& catalog) {
  for (const simnet::LogTemplate& t : catalog.all()) {
    tree.learn(catalog.render_seeded(t.id, 0));
  }
}

std::uint64_t line_salt(std::size_t vpe, std::size_t i) {
  return (static_cast<std::uint64_t>(vpe) << 32) | static_cast<std::uint64_t>(i);
}

/// The catalog template behind normal line i of vPE v (deterministic mix
/// with different phase per vPE).
std::int32_t stream_template(const Workload& w, std::size_t vpe,
                             std::size_t i) {
  const std::size_t n = w.stream_ids.size();
  return w.stream_ids[(i * 7 + vpe * 3 + i / 31) % n];
}

std::string render_line(const Workload& w, std::size_t vpe, std::size_t i) {
  if (is_anomaly_slot(i)) return anomaly_line(vpe, i);
  return w.catalog.render_seeded(stream_template(w, vpe, i),
                                 line_salt(vpe, i));
}

util::SimTime line_time(std::size_t i) {
  return util::SimTime{static_cast<std::int64_t>(i) * kStepSeconds};
}

Workload build_workload() {
  Workload w;
  w.catalog = simnet::TemplateCatalog::standard();
  for (const auto kind :
       {simnet::TemplateKind::kNormal, simnet::TemplateKind::kMaintenance}) {
    for (const std::int32_t id : w.catalog.ids_of_kind(kind)) {
      w.stream_ids.push_back(id);
    }
  }

  logproc::SignatureTree train_tree;
  prime_tree(train_tree, w.catalog);
  w.vocab = train_tree.size();

  // Training streams: the same deterministic normal mix the soak replays
  // (no anomaly slots), mined through an identically-primed tree.
  constexpr std::size_t kTrainVpes = 4;
  constexpr std::size_t kTrainLen = 400;
  std::vector<std::vector<logproc::ParsedLog>> streams(kTrainVpes);
  for (std::size_t v = 0; v < kTrainVpes; ++v) {
    for (std::size_t i = 0; i < kTrainLen; ++i) {
      const std::int32_t tid = stream_template(w, v, i);
      streams[v].push_back(
          {line_time(i),
           train_tree.learn(w.catalog.render_seeded(tid, line_salt(v, i)))});
    }
  }

  core::LstmDetectorConfig config;
  config.window = kWindow;
  config.embed_dim = 8;
  config.hidden = 16;
  config.initial_epochs = 1;
  config.max_train_windows = 1200;
  config.oversample = false;
  config.seed = 20260809;
  w.detector = core::LstmDetector(config);
  std::vector<core::LogView> views(streams.begin(), streams.end());
  w.detector.fit(views, w.vocab);

  std::vector<double> scores;
  for (const auto& stream : streams) {
    for (const core::ScoredEvent& e : w.detector.score(stream, w.vocab)) {
      scores.push_back(e.score);
    }
  }
  w.threshold = util::quantile(scores, 0.995);

  // Same fp32 weights + the int8 sidecar for the --quantize rows.
  w.detector_quantized = w.detector;
  w.detector_quantized.set_quantized(true);
  return w;
}

core::StreamMonitorConfig monitor_config(const Workload& w) {
  core::StreamMonitorConfig config;
  config.threshold = w.threshold;
  config.window = kWindow;
  return config;
}

struct SoakResult {
  double lines_per_sec = 0.0;
  std::size_t total_lines = 0;
  std::size_t warnings = 0;
  std::vector<core::StreamWarning> merged;  // per-vPE canonical order
  core::FleetMemoryStats memory;
  std::uint64_t model_bytes_fp32 = 0;
  std::uint64_t model_bytes_quantized = 0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_p999_us = 0.0;
};

/// One soak run: prime, start, submit the full fleet interleaved, flush,
/// read the epoch-consistent stats cut, stop, drain.
SoakResult run_soak(const Workload& w, const core::AnomalyDetector& detector,
                    std::size_t vpes, std::size_t lines_per_vpe,
                    std::size_t workers) {
  core::AsyncIngestConfig config;
  config.workers = workers;
  config.flush_batch = 64;
  config.flush_deadline = std::chrono::microseconds(2000);
  core::AsyncIngest ingest(&detector, config);
  for (std::size_t v = 0; v < vpes; ++v) {
    const std::size_t shard =
        ingest.add_shard(static_cast<std::int32_t>(v), monitor_config(w));
    prime_tree(ingest.mutable_tree(shard), w.catalog);
  }
  ingest.start();

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < lines_per_vpe; ++i) {
    for (std::size_t v = 0; v < vpes; ++v) {
      ingest.submit(v, line_time(i), render_line(w, v, i));
    }
  }
  ingest.flush();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  SoakResult r;
  r.total_lines = vpes * lines_per_vpe;
  r.lines_per_sec = static_cast<double>(r.total_lines) / elapsed.count();
  const core::RuntimeStatsSnapshot snap = ingest.snapshot();
  r.memory = snap.memory;
  if (!snap.shards.empty()) {
    r.model_bytes_fp32 = snap.shards[0].model_bytes_fp32;
    r.model_bytes_quantized = snap.shards[0].model_bytes_quantized;
  }
  const core::HistogramSnapshot latency = snap.merged_latency();
  r.latency_p50_us = latency.p50() / 1000.0;
  r.latency_p99_us = latency.p99() / 1000.0;
  r.latency_p999_us = latency.p999() / 1000.0;

  ingest.stop();
  std::vector<core::StreamWarning> drained;
  ingest.drain_warnings(drained);
  r.merged = core::merge_warnings_by_vpe(std::move(drained));
  r.warnings = r.merged.size();
  return r;
}

struct SerialResult {
  /// Per-vPE streams concatenated in ascending vPE order.
  std::vector<core::StreamWarning> warnings;
  /// Private baseline: mean memory_bytes() of the fully private trees
  /// (own interner, no arena, no forest) after each mined its vPE's lines.
  double private_bytes_per_vpe = 0.0;
};

/// Serial reference at the same fleet size: one monitor at a time (O(1)
/// trees alive, whatever the vPE count), lines regenerated on demand.
SerialResult run_serial(const Workload& w,
                        const core::AnomalyDetector& detector,
                        std::size_t vpes, std::size_t lines_per_vpe) {
  SerialResult r;
  std::uint64_t tree_bytes = 0;
  for (std::size_t v = 0; v < vpes; ++v) {
    logproc::SignatureTree tree;
    prime_tree(tree, w.catalog);
    core::StreamMonitor monitor(
        static_cast<std::int32_t>(v), &detector, &tree, monitor_config(w),
        [&r](const core::StreamWarning& warning) {
          r.warnings.push_back(warning);
        });
    for (std::size_t i = 0; i < lines_per_vpe; ++i) {
      monitor.ingest(line_time(i), render_line(w, v, i));
    }
    tree_bytes += tree.memory_bytes();
  }
  r.private_bytes_per_vpe =
      static_cast<double>(tree_bytes) / static_cast<double>(vpes);
  return r;
}

/// The memory gate: sharing the arena and forest must cut bytes/vPE below
/// one private tree per vPE, even with the shared structures' own bytes
/// charged against it.
bool beats_private_baseline(const SoakResult& r, const SerialResult& serial,
                            const std::string& label) {
  if (r.memory.forest_templates == 0) {
    std::cerr << label << ": runtime published no forest templates "
              << "(vacuous)\n";
    return false;
  }
  if (!(r.memory.bytes_per_vpe < serial.private_bytes_per_vpe)) {
    std::cerr << label << ": bytes/vPE (" << r.memory.bytes_per_vpe
              << ") did not beat the private baseline ("
              << serial.private_bytes_per_vpe << ")\n";
    return false;
  }
  return true;
}

bool same_warnings(const std::vector<core::StreamWarning>& serial,
                   const std::vector<core::StreamWarning>& merged,
                   const std::string& label) {
  if (serial.size() != merged.size()) {
    std::cerr << label << ": warning count " << merged.size() << " != serial "
              << serial.size() << "\n";
    return false;
  }
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const core::StreamWarning& a = serial[i];
    const core::StreamWarning& b = merged[i];
    if (a.vpe != b.vpe || a.time.seconds != b.time.seconds ||
        a.anomaly_count != b.anomaly_count || a.peak_score != b.peak_score ||
        a.trigger_template != b.trigger_template) {
      std::cerr << label << ": warning " << i
                << " diverges from serial replay\n";
      return false;
    }
  }
  return true;
}

struct Row {
  std::size_t vpes = 0;
  std::size_t lines_per_vpe = 0;
  std::size_t workers = 0;
  bool quantize = false;
  double private_bytes_per_vpe = 0.0;
  bool parity_checked = false;
  SoakResult result;
};

/// Per-vPE bytes of one component of the row's footprint; shared and
/// model bytes are amortized over the fleet (counted once, divided by
/// the vPE count), mirroring how FleetMemoryStats::bytes_per_vpe is
/// built. Together the three components decompose bytes/vPE + model.
double per_vpe(const Row& row, std::uint64_t fleet_bytes) {
  return static_cast<double>(fleet_bytes) / static_cast<double>(row.vpes);
}

double tree_bytes_per_vpe(const Row& row) {
  return per_vpe(row, row.result.memory.tree_bytes_total);
}

double shared_bytes_per_vpe(const Row& row) {
  return per_vpe(row,
                 row.result.memory.arena_bytes + row.result.memory.forest_bytes);
}

double model_bytes_per_vpe(const Row& row) {
  return per_vpe(row, row.quantize ? row.result.model_bytes_quantized
                                   : row.result.model_bytes_fp32);
}

void write_row(util::JsonWriter& w, const Row& row) {
  w.begin_object();
  w.kv("vpes", row.vpes);
  w.kv("lines_per_vpe", row.lines_per_vpe);
  w.kv("total_lines", row.result.total_lines);
  w.kv("workers", row.workers);
  w.kv("quantize", row.quantize);
  w.kv("lines_per_sec", row.result.lines_per_sec);
  w.kv("bytes_per_vpe", row.result.memory.bytes_per_vpe);
  w.kv("private_bytes_per_vpe", row.private_bytes_per_vpe);
  // The bytes/vPE breakdown: private tree state vs the amortized shared
  // structures (arena + forest) vs the amortized model.
  w.kv("bytes_per_vpe_tree", tree_bytes_per_vpe(row));
  w.kv("bytes_per_vpe_shared", shared_bytes_per_vpe(row));
  w.kv("bytes_per_vpe_model", model_bytes_per_vpe(row));
  w.kv("arena_bytes", row.result.memory.arena_bytes);
  w.kv("arena_tokens", row.result.memory.arena_tokens);
  w.kv("forest_bytes", row.result.memory.forest_bytes);
  w.kv("forest_templates", row.result.memory.forest_templates);
  w.kv("tree_bytes_total", row.result.memory.tree_bytes_total);
  w.kv("tree_bytes_max", row.result.memory.tree_bytes_max);
  w.kv("model_bytes_fp32", row.result.model_bytes_fp32);
  w.kv("model_bytes_quantized", row.result.model_bytes_quantized);
  w.kv("latency_p50_us", row.result.latency_p50_us);
  w.kv("latency_p99_us", row.result.latency_p99_us);
  w.kv("latency_p999_us", row.result.latency_p999_us);
  w.kv("warnings", row.result.warnings);
  w.kv("serial_parity_checked", row.parity_checked);
  w.end_object();
}

void log_row(const Row& row) {
  std::cerr << "vpes=" << row.vpes << (row.quantize ? " quantized" : "")
            << " workers=" << row.workers << ": " << row.result.lines_per_sec
            << " lines/s, " << row.result.memory.bytes_per_vpe
            << " bytes/vPE (" << tree_bytes_per_vpe(row) << " tree + "
            << shared_bytes_per_vpe(row) << " shared; private "
            << row.private_bytes_per_vpe << "), p99="
            << row.result.latency_p99_us << "us, p999="
            << row.result.latency_p999_us << "us, " << row.result.warnings
            << " warnings\n";
}

int run_smoke() {
  const Workload w = build_workload();
  constexpr std::size_t kVpes = 48;
  constexpr std::size_t kLines = 120;

  const SerialResult serial = run_serial(w, w.detector, kVpes, kLines);
  if (serial.warnings.empty()) {
    std::cerr << "smoke: serial replay produced no warnings (vacuous)\n";
    return 1;
  }

  // Warning parity at multiple worker counts — template storage location
  // can never leak into scores.
  SoakResult first;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    SoakResult r = run_soak(w, w.detector, kVpes, kLines, workers);
    const std::string label = "workers=" + std::to_string(workers);
    if (!same_warnings(serial.warnings, r.merged, label) ||
        !beats_private_baseline(r, serial, label)) {
      return 1;
    }
    if (workers == 1) first = std::move(r);
  }
  std::cerr << "smoke ok: " << serial.warnings.size()
            << " warnings identical across serial and async (1 and 3 "
            << "workers); bytes/vPE " << first.memory.bytes_per_vpe
            << " < private baseline " << serial.private_bytes_per_vpe
            << "\n";
  return 0;
}

int run_json_mode(const std::string& path, std::size_t vpes_override) {
  const Workload w = build_workload();

  struct Scale {
    std::size_t vpes;
    std::size_t lines_per_vpe;
  };
  std::vector<Scale> scales;
  if (vpes_override != 0) {
    scales.push_back({vpes_override, 96});
  } else {
    scales.push_back({1000, 192});
    scales.push_back({10000, 96});
  }

  std::vector<Row> rows;
  bool gates_ok = true;
  for (const Scale scale : scales) {
    // Serial reference once per scale; every fp32 async run at ANY worker
    // count must reproduce it byte-for-byte.
    const SerialResult serial =
        run_serial(w, w.detector, scale.vpes, scale.lines_per_vpe);
    if (serial.warnings.empty()) {
      std::cerr << "soak: serial replay produced no warnings at "
                << scale.vpes << " vPEs (vacuous)\n";
      return 1;
    }

    const auto add_row = [&](std::size_t workers, bool quantize) {
      const core::AnomalyDetector& det =
          quantize ? static_cast<const core::AnomalyDetector&>(
                         w.detector_quantized)
                   : w.detector;
      Row row;
      row.vpes = scale.vpes;
      row.lines_per_vpe = scale.lines_per_vpe;
      row.workers = workers;
      row.quantize = quantize;
      row.private_bytes_per_vpe = serial.private_bytes_per_vpe;
      row.result =
          run_soak(w, det, scale.vpes, scale.lines_per_vpe, workers);
      const std::string label = "vpes=" + std::to_string(scale.vpes) +
                                " workers=" + std::to_string(workers) +
                                (quantize ? " quantized" : "");
      // Quantized scoring legitimately shifts scores; parity is pinned on
      // the fp32 rows (the quant tier has its own rank-agreement gate).
      if (!quantize) {
        row.parity_checked = true;
        gates_ok =
            same_warnings(serial.warnings, row.result.merged, label) &&
            gates_ok;
      }
      gates_ok = beats_private_baseline(row.result, serial, label) && gates_ok;
      log_row(row);
      rows.push_back(std::move(row));
    };

    add_row(1, false);
    add_row(4, false);
    add_row(1, true);  // int8 scoring
  }
  if (!gates_ok) return 1;

  util::JsonWriter jw;
  jw.begin_object();
  jw.kv("bench", "fleet_soak");
  jw.kv("window", kWindow);
  jw.kv("flush_batch", 64);
  jw.kv("catalog_templates", w.catalog.size());
  jw.kv("model_vocab", w.vocab);
  jw.kv("threshold", w.threshold);
  jw.key("rows").begin_array();
  for (const Row& row : rows) write_row(jw, row);
  jw.end_array();
  jw.end_object();
  return bench::write_json_file(path, jw) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t vpes_override = 0;
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--vpes") == 0 && i + 1 < argc) {
      vpes_override =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strncmp(argv[i], "--vpes=", 7) == 0) {
      vpes_override =
          static_cast<std::size_t>(std::strtoull(argv[i] + 7, nullptr, 10));
    } else {
      std::cerr << "usage: bench_fleet_soak [--smoke | --json FILE] "
                << "[--vpes N]\n";
      return 1;
    }
  }
  if (smoke) return run_smoke();
  if (!json_path.empty()) return run_json_mode(json_path, vpes_override);
  return run_json_mode("BENCH_soak.json", vpes_override);
}
