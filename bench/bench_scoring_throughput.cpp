// Scoring throughput: window-by-window vs fused cross-stream batching,
// with an optional int8-quantized tier of the batched regime.
//
// The paper's deployment budget (§5.1: "<1 hour" for model maintenance
// across 38 vPEs) is dominated by how fast trained models can score log
// windows. This benchmark measures windows/sec for the inference regimes
// over the same fleet of streams:
//   - window-by-window: one detector.score() call per (k+1)-log window,
//     the call granularity of the immediate streaming monitor;
//   - batched: one detector.score_streams() call over all streams, which
//     stages every window into fused forward batches of
//     LstmDetector::kScoreBatch rows;
//   - batched+int8 (--quantize): the same fused path from the detector's
//     int8 scoring image, so every LSTM gate product runs the fused
//     step's int8 gate blocks (vpmaddubsw or VNNI vpdpbusd), quantized
//     per channel from the fp32 weights; the head stays fp32.
// fp32 scores are bit-identical between the first two (see
// batch_invariance_test); the quantized tier trades exact score equality
// for the rank-agreement gate checked by `--smoke` below.
//
// Run with `--json FILE` to skip google-benchmark and emit a
// machine-readable summary (windows/sec and speedups, plus a
// windows-per-call sweep in every kernel tier the CPU has, each row
// labelled with its tier: the first kSweepWindows windows
// scored in calls of 1, 3, 17, 63 and 64 single-window streams, the shape
// of a runtime flush holding that many staged windows), e.g.
// BENCH_scoring.json; add `--quantize` to include the int8 rows, the int8
// column of the sweep and the gate-product weight bytes of the fp32 and
// the int8 scoring image (`model`: weight_bytes_ratio is fp32 gate packs
// over int8 gate blocks, how many fewer weight bytes the int8 step
// streams; the int8 blocks are held next to the fp32 parameters). The
// `paper_shape` rows score the paper's model (hidden 32, window 10) in
// calls of 64 windows, a full runtime flush, in fp32 and int8 in every
// tier, and its `stages` rows split that forward pass per tier and
// precision into ns per window for the Δt normalization and layer-0
// table gather, layer 0's steps, layer 1's steps and the output head.
// The stage rounds alternate fp32 and int8 within each tier, and
// `paper_shape.int8_over_fp32` reports per tier the median and quartiles
// of the per-round fp32 time over int8 time (int8's speed over fp32's).
//
// Run with `--hashes` to print, one per line, an FNV-1a hash of the
// weights after 40 Adam steps per (tier, shape) and of the log-likelihoods
// and ranks per (tier, precision, shape, batch), at six (vocab, hidden,
// window) shapes and batches 1, 7, 64 and 256: `diff` the output of two
// builds to check that a change keeps every bit.
//
// Run with `--smoke` for the CI gate: trains a small model on a
// *patterned* corpus (cyclic template sequence + 10% noise, so the
// predicted distributions are sharp, unlike the uniform-random throughput
// fixture), switches a copy to int8 scoring, and checks
//   1. DeepLog top-k rank agreement fp32 vs int8 >= 99.5% of windows,
//   2. int8 ranks are bit-identical between every SIMD kernel tier the
//      CPU has and the baseline tier, int8 log-likelihoods (scored from
//      an int8 image built in each tier) between the SIMD tiers, and fp32
//      scores (log-likelihoods and ranks) between the SIMD tiers.
// Exit code is non-zero if any gate fails. Every ml kernel runs on its
// calling thread, so every row measures one core.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "core/detector.h"
#include "core/lstm_detector.h"
#include "logproc/dataset.h"
#include "ml/loss.h"
#include "ml/lstm.h"
#include "ml/matrix.h"
#include "ml/optimizer.h"
#include "ml/sequence_model.h"
#include "util/rng.h"

namespace {

using namespace nfv;

constexpr std::size_t kStreams = 12;
constexpr std::size_t kStreamLen = 600;
constexpr std::size_t kVocab = 64;

std::vector<logproc::ParsedLog> sample_logs(std::size_t count,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<logproc::ParsedLog> logs;
  logs.reserve(count);
  std::int64_t t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    t += static_cast<std::int64_t>(rng.exponential(60.0)) + 1;
    logs.push_back({util::SimTime{t},
                    static_cast<std::int32_t>(rng.uniform_index(kVocab))});
  }
  return logs;
}

/// Windows scored by each point of the windows-per-call sweep.
constexpr std::size_t kSweepWindows = 1008;

struct Fixture {
  core::LstmDetector detector;
  /// Same trained weights, scoring from an int8 image.
  core::LstmDetector quantized;
  std::vector<std::vector<logproc::ParsedLog>> streams;
  /// The first kSweepWindows (k+1)-line windows, one view each.
  std::vector<core::LogView> sweep_windows;
  std::size_t window = 0;
  std::size_t total_windows = 0;
};

Fixture make_fixture(std::size_t hidden) {
  Fixture fx;
  core::LstmDetectorConfig config;
  config.initial_epochs = 1;
  config.oversample = false;
  config.hidden = hidden;
  fx.detector = core::LstmDetector(config);
  fx.window = config.window;
  const auto train = sample_logs(2000, 2);
  const core::LogView view{train};
  fx.detector.fit({&view, 1}, kVocab);
  fx.quantized = fx.detector;
  fx.quantized.set_quantized(true);
  fx.streams.reserve(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    fx.streams.push_back(sample_logs(kStreamLen, 100 + s));
    fx.total_windows += kStreamLen - fx.window;
  }
  for (const auto& stream : fx.streams) {
    for (std::size_t i = fx.window; i < stream.size(); ++i) {
      if (fx.sweep_windows.size() == kSweepWindows) break;
      fx.sweep_windows.emplace_back(stream.data() + (i - fx.window),
                                    fx.window + 1);
    }
  }
  return fx;
}

// Inference-heavy sizing: at the library default (hidden=32) the forward
// pass is dominated by the fixed fp32 work every tier shares (gate
// sigmoids/tanh, softmax, embedding gather), which hides what this
// benchmark exists to compare — the GEMM regimes. hidden=128 makes the
// per-step GEMMs the dominant term, the regime a production-scale model
// lives in.
const Fixture& fixture() {
  static const Fixture f = make_fixture(128);
  return f;
}

// The paper's §5.1 model at the library defaults (hidden 32, window 10):
// the shape the runtime scores, where the activations weigh as much as
// the products.
const Fixture& paper_fixture() {
  static const Fixture f = make_fixture(32);
  return f;
}

// One detector.score() call per sliding (k+1)-log window: one window per
// call, the call granularity of an immediate (unbatched) streaming
// monitor. Each view is a stream of its own, so its oldest event reads
// Δt 0 where the monitor's window reads the true gap.
double run_window_by_window(const Fixture& f) {
  double sink = 0.0;
  for (const auto& stream : f.streams) {
    for (std::size_t i = f.window; i < stream.size(); ++i) {
      const core::LogView view{stream.data() + (i - f.window), f.window + 1};
      const std::vector<core::ScoredEvent> events =
          f.detector.score(view, kVocab);
      sink += events.back().score;
    }
  }
  return sink;
}

// One fused call over all streams (score_streams stages every window).
double run_batched_with(const core::LstmDetector& detector, const Fixture& f) {
  std::vector<core::LogView> views(f.streams.begin(), f.streams.end());
  const std::vector<std::vector<core::ScoredEvent>> events =
      detector.score_streams(views, kVocab);
  double sink = 0.0;
  for (const auto& stream_events : events) {
    for (const core::ScoredEvent& event : stream_events) sink += event.score;
  }
  return sink;
}

// The sweep windows in calls of `per_call` single-window streams each.
double run_calls_of(const core::LstmDetector& detector, const Fixture& f,
                    std::size_t per_call) {
  const std::span<const core::LogView> windows(f.sweep_windows);
  double sink = 0.0;
  for (std::size_t start = 0; start < windows.size(); start += per_call) {
    const std::vector<std::vector<core::ScoredEvent>> events =
        detector.score_streams(
            windows.subspan(start, std::min(per_call, windows.size() - start)),
            kVocab);
    sink += events.back().back().score;
  }
  return sink;
}

double run_batched(const Fixture& f) { return run_batched_with(f.detector, f); }

double run_batched_quant(const Fixture& f) {
  return run_batched_with(f.quantized, f);
}

void BM_ScoreWindowByWindow(benchmark::State& state) {
  const Fixture& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_window_by_window(f));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.total_windows));
}
BENCHMARK(BM_ScoreWindowByWindow)->Unit(benchmark::kMillisecond);

void BM_ScoreBatchedCrossStream(benchmark::State& state) {
  const Fixture& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_batched(f));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.total_windows));
}
BENCHMARK(BM_ScoreBatchedCrossStream)->Unit(benchmark::kMillisecond);

void BM_ScoreBatchedQuantized(benchmark::State& state) {
  const Fixture& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_batched_quant(f));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.total_windows));
}
BENCHMARK(BM_ScoreBatchedQuantized)->Unit(benchmark::kMillisecond);

// The per-stage split of the paper shape (--json `paper_shape.stages`):
// SequenceModel::forward_logits' stages replayed through the public step
// API on the model's own scoring image, each stage timed on its own. The
// replay must score the same bits as score_batched, or --json fails.
struct StageTimes {
  double gather = 0.0;  // Δt normalization and the layer-0 table gather
  double layer0 = 0.0;  // layer 0's k steps
  double upper = 0.0;   // the k steps of every layer above
  double head = 0.0;    // output product, bias and log-sum-exp
};

struct StagedScorer {
  const ml::SequenceModel& model;
  ml::SequenceModel::ScoringImage image;
  const ml::Matrix& out_bias;
  std::vector<ml::Lstm> layers;  // shapes only: score_step reads `image`
  std::vector<ml::LstmState> states;
  std::vector<const float*> table_rows;
  std::vector<float> dts;
  ml::Matrix logits;

  StagedScorer(const ml::SequenceModel& m, bool int8)
      : model(m),
        image(m.build_scoring_image(int8)),
        out_bias(m.params().back()->value) {
    const ml::SequenceModelConfig& c = m.config();
    util::Rng rng(1);
    for (std::size_t l = 0; l < c.layers; ++l) {
      layers.emplace_back("lstm", l == 0 ? c.embed_dim + 1 : c.hidden,
                          c.hidden, rng);
    }
    states.resize(c.layers);
  }

  /// Log-likelihoods of windows [start, start + n) into out, each stage's
  /// wall time added to t.
  void score(const ml::WindowBatch& windows, std::size_t start,
             std::size_t n, std::span<double> out, StageTimes& t) {
    using Clock = std::chrono::steady_clock;
    const auto seconds = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double>(b - a).count();
    };
    const std::size_t k = model.config().window;
    auto t0 = Clock::now();
    table_rows.resize(k * n);
    dts.resize(k * n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t s = 0; s < k; ++s) {
        const std::size_t at = (start + r) * k + s;
        table_rows[s * n + r] = image.input_gates.row(
            static_cast<std::size_t>(windows.ids[at]));
        dts[s * n + r] = ml::normalize_dt(windows.dts[at]);
      }
    }
    for (std::size_t l = 0; l < layers.size(); ++l) {
      layers[l].reset_state(states[l], n);
    }
    auto t1 = Clock::now();
    t.gather += seconds(t0, t1);
    for (std::size_t s = 0; s < k; ++s) {
      ml::LstmStepInput input;
      input.table = table_rows.data() + s * n;
      input.dt = dts.data() + s * n;
      input.dt_gates = image.dt_gates.data();
      layers[0].score_step(image.layers[0], input, s, states[0]);
      t0 = Clock::now();
      t.layer0 += seconds(t1, t0);
      for (std::size_t l = 1; l < layers.size(); ++l) {
        input = ml::LstmStepInput{&states[l - 1].h[s % 2],
                                  states[l - 1].codes[s % 2].data()};
        layers[l].score_step(image.layers[l], input, s, states[l]);
      }
      t1 = Clock::now();
      t.upper += seconds(t0, t1);
    }
    const ml::Matrix& top = states.back().h[(k - 1) % 2];
    ml::matmul_transb_packed(top, image.vocab, image.output, logits);
    ml::add_row_vector(logits, out_bias);
    for (std::size_t r = 0; r < n; ++r) {
      out[r] = ml::log_softmax_at(
          logits.row_span(r),
          static_cast<std::size_t>(windows.targets[start + r]));
    }
    t.head += seconds(t1, Clock::now());
  }
};

/// The windows of `views` ((k+1)-line views) as one WindowBatch.
ml::WindowBatch window_batch(std::span<const core::LogView> views,
                             std::size_t window) {
  ml::WindowBatch batch;
  for (const core::LogView& view : views) {
    logproc::append_sequence_windows(view, window, batch);
  }
  return batch;
}

// --json mode: interleaved best-of-N wall-clock timing (robust to CPU
// contention from neighbouring processes), machine-readable output.
template <typename Fn>
double timed_seconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  volatile double sink = fn();
  (void)sink;
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

int run_json_mode(const std::string& path, bool quantize) {
  const Fixture& f = fixture();
  const double windows = static_cast<double>(f.total_windows);
  constexpr std::size_t kReps = 7;

  run_window_by_window(f);  // warm-up (also stabilizes scratch shapes)
  run_batched(f);
  if (quantize) run_batched_quant(f);
  // Alternate the regimes so a burst of external CPU load cannot penalize
  // only one of them; report the best (least-disturbed) rep.
  double wbw_best = 1e300, batched_best = 1e300, quant_best = 1e300;
  for (std::size_t r = 0; r < kReps; ++r) {
    wbw_best = std::min(wbw_best,
                        timed_seconds([&] { return run_window_by_window(f); }));
    batched_best =
        std::min(batched_best, timed_seconds([&] { return run_batched(f); }));
    if (quantize) {
      quant_best = std::min(
          quant_best, timed_seconds([&] { return run_batched_quant(f); }));
    }
  }
  const double wbw_wps = windows / wbw_best;
  const double batched_wps = windows / batched_best;
  const double quant_wps = quantize ? windows / quant_best : 0.0;
  std::cerr << "window-by-window=" << wbw_wps
            << " windows/s, batched=" << batched_wps
            << " windows/s (speedup " << batched_wps / wbw_wps << "x)";
  if (quantize) {
    std::cerr << ", batched+int8=" << quant_wps << " windows/s ("
              << quant_wps / batched_wps << "x over fp32 batched)";
  }
  std::cerr << "\n";

  struct SweepRow {
    const char* tier;
    std::size_t per_call;
    double fp32_wps;
    double quant_wps = 0.0;  // 0 when the int8 tier was not measured
  };
  std::vector<SweepRow> sweep;
  const double sweep_windows = static_cast<double>(f.sweep_windows.size());
  const ml::KernelTier default_tier = ml::kernel_tier();
  for (const ml::KernelTier tier :
       {ml::KernelTier::kBaseline, ml::KernelTier::kAvx2,
        ml::KernelTier::kAvx512}) {
    if (ml::set_kernel_tier(tier) != tier) continue;  // CPU lacks it
    for (const std::size_t per_call : {1, 3, 17, 63, 64}) {
      run_calls_of(f.detector, f, per_call);  // warm-up
      if (quantize) run_calls_of(f.quantized, f, per_call);
      double fp32_best = 1e300, quant_best = 1e300;
      for (std::size_t r = 0; r < kReps; ++r) {
        fp32_best = std::min(fp32_best, timed_seconds([&] {
                               return run_calls_of(f.detector, f, per_call);
                             }));
        if (quantize) {
          quant_best = std::min(quant_best, timed_seconds([&] {
                                  return run_calls_of(f.quantized, f,
                                                      per_call);
                                }));
        }
      }
      SweepRow row{ml::kernel_tier_name(tier), per_call,
                   sweep_windows / fp32_best};
      if (quantize) row.quant_wps = sweep_windows / quant_best;
      sweep.push_back(row);
      std::cerr << "tier=" << row.tier << " windows/call=" << per_call
                << " fp32=" << row.fp32_wps << " windows/s";
      if (quantize) std::cerr << ", int8=" << row.quant_wps << " windows/s";
      std::cerr << "\n";
    }
  }

  // The paper shape at the runtime's flush size, 64 windows per call, in
  // fp32 and int8.
  struct ShapeRow {
    const char* tier;
    double fp32_wps;
    double quant_wps;
  };
  std::vector<ShapeRow> paper_rows;
  const Fixture& paper = paper_fixture();
  constexpr std::size_t kFlushWindows = 64;
  for (const ml::KernelTier tier :
       {ml::KernelTier::kBaseline, ml::KernelTier::kAvx2,
        ml::KernelTier::kAvx512}) {
    if (ml::set_kernel_tier(tier) != tier) continue;  // CPU lacks it
    run_calls_of(paper.detector, paper, kFlushWindows);  // warm-up
    run_calls_of(paper.quantized, paper, kFlushWindows);
    double fp32_best = 1e300, quant_best = 1e300;
    for (std::size_t r = 0; r < kReps; ++r) {
      fp32_best = std::min(fp32_best, timed_seconds([&] {
                             return run_calls_of(paper.detector, paper,
                                                 kFlushWindows);
                           }));
      quant_best = std::min(quant_best, timed_seconds([&] {
                              return run_calls_of(paper.quantized, paper,
                                                  kFlushWindows);
                            }));
    }
    const double n = static_cast<double>(paper.sweep_windows.size());
    paper_rows.push_back(
        {ml::kernel_tier_name(tier), n / fp32_best, n / quant_best});
    std::cerr << "paper shape tier=" << paper_rows.back().tier
              << " fp32=" << paper_rows.back().fp32_wps
              << " windows/s, int8=" << paper_rows.back().quant_wps
              << " windows/s (int8/fp32 "
              << paper_rows.back().quant_wps / paper_rows.back().fp32_wps
              << "x)\n";
  }

  // The paper shape's per-stage split, per tier and precision. fp32 and
  // int8 rounds (each a pass of the sweep windows in calls of
  // kFlushWindows) alternate, the order swapping every round, so a burst
  // of load from a neighbouring process lands on both; each stage keeps
  // its best round, and each tier records the median and quartiles of
  // the per-round ratio fp32 total / int8 total (int8's speed over
  // fp32's, > 1 when int8 is faster).
  constexpr std::size_t kStageRounds = 21;
  struct StageRow {
    const char* tier;
    bool int8;
    StageTimes ns;  // per window
  };
  struct RatioRow {
    const char* tier;
    double q1, median, q3;  // of the per-round int8_over_fp32
  };
  std::vector<StageRow> stage_rows;
  std::vector<RatioRow> ratio_rows;
  const ml::WindowBatch paper_windows =
      window_batch(paper.sweep_windows, paper.window);
  const std::size_t paper_n = paper_windows.size();
  const auto total = [](const StageTimes& t) {
    return t.gather + t.layer0 + t.upper + t.head;
  };
  for (const ml::KernelTier tier :
       {ml::KernelTier::kBaseline, ml::KernelTier::kAvx2,
        ml::KernelTier::kAvx512}) {
    if (ml::set_kernel_tier(tier) != tier) continue;  // CPU lacks it
    const ml::SequenceModel& model = paper.detector.model();
    StagedScorer staged[2] = {StagedScorer(model, false),
                              StagedScorer(model, true)};
    std::vector<double> expected[2];
    for (const std::size_t p : {0, 1}) {
      expected[p].resize(paper_n);
      ml::SequenceModel::InferenceScratch scratch;
      model.score_batched(staged[p].image, paper_windows, kFlushWindows,
                          scratch, expected[p]);
    }
    std::vector<double> got(paper_n);
    StageTimes best[2];
    for (StageTimes& b : best) b = {1e300, 1e300, 1e300, 1e300};
    std::vector<double> ratios;
    for (std::size_t r = 0; r <= kStageRounds; ++r) {  // round 0 warms up
      double round_total[2];
      for (const std::size_t o : {0, 1}) {
        const std::size_t p = (r + o) % 2;
        StageTimes t;
        for (std::size_t start = 0; start < paper_n; start += kFlushWindows) {
          const std::size_t count = std::min(kFlushWindows, paper_n - start);
          staged[p].score(paper_windows, start, count,
                          std::span<double>(got).subspan(start, count), t);
        }
        round_total[p] = total(t);
        if (r == 0) {
          if (got == expected[p]) continue;
          std::cerr << "paper shape stages: the staged replay's scores "
                       "differ from score_batched ("
                    << ml::kernel_tier_name(tier)
                    << (p == 1 ? " int8" : " fp32") << ")\n";
          return 1;
        }
        best[p] = {std::min(best[p].gather, t.gather),
                   std::min(best[p].layer0, t.layer0),
                   std::min(best[p].upper, t.upper),
                   std::min(best[p].head, t.head)};
      }
      if (r > 0) ratios.push_back(round_total[0] / round_total[1]);
    }
    const double per = 1e9 / static_cast<double>(paper_n);
    for (const std::size_t p : {0, 1}) {
      stage_rows.push_back({ml::kernel_tier_name(tier), p == 1,
                            {best[p].gather * per, best[p].layer0 * per,
                             best[p].upper * per, best[p].head * per}});
      const StageTimes& ns = stage_rows.back().ns;
      std::cerr << "paper shape stages tier=" << stage_rows.back().tier
                << (p == 1 ? " int8" : " fp32") << ": dt+gather=" << ns.gather
                << " layer0=" << ns.layer0 << " layer1=" << ns.upper
                << " head=" << ns.head << " ns/window\n";
    }
    std::sort(ratios.begin(), ratios.end());
    const auto quantile = [&](double q) {
      return ratios[static_cast<std::size_t>(
          q * static_cast<double>(ratios.size() - 1) + 0.5)];
    };
    ratio_rows.push_back({ml::kernel_tier_name(tier), quantile(0.25),
                          quantile(0.5), quantile(0.75)});
    std::cerr << "paper shape stages tier=" << ratio_rows.back().tier
              << ": int8_over_fp32 median " << ratio_rows.back().median
              << " (quartiles " << ratio_rows.back().q1 << "–"
              << ratio_rows.back().q3 << ", " << ratios.size()
              << " rounds)\n";
  }
  ml::set_kernel_tier(default_tier);

  nfv::util::JsonWriter w;
  w.begin_object();
  w.kv("bench", "scoring_throughput");
  bench::write_provenance(w);
  w.kv("streams", kStreams);
  w.kv("stream_length", kStreamLen);
  w.kv("window", f.window);
  w.kv("hidden", f.detector.config().hidden);
  w.kv("total_windows", f.total_windows);
  w.kv("score_batch", core::LstmDetector::kScoreBatch);
  if (quantize) {
    const core::ModelMemoryStats quant_mem = f.quantized.model_memory();
    const std::size_t fp32_gate_bytes =
        f.detector.model().build_scoring_image().gate_weight_bytes();
    w.key("model").begin_object();
    w.kv("weight_bytes_fp32", quant_mem.weight_bytes_fp32);
    w.kv("gate_weight_bytes_fp32", fp32_gate_bytes);
    w.kv("weight_bytes_quantized", quant_mem.weight_bytes_quantized);
    w.kv("weight_bytes_ratio",
         static_cast<double>(fp32_gate_bytes) /
             static_cast<double>(quant_mem.weight_bytes_quantized));
    w.end_object();
  }
  w.key("results").begin_object();
  w.kv("window_by_window_windows_per_sec", wbw_wps)
      .kv("batched_windows_per_sec", batched_wps)
      .kv("speedup", batched_wps / wbw_wps);
  if (quantize) {
    w.kv("quantized_batched_windows_per_sec", quant_wps)
        .kv("quantized_speedup_vs_fp32_batched", quant_wps / batched_wps);
  }
  w.end_object();
  w.key("windows_per_call_sweep").begin_object();
  w.kv("windows", f.sweep_windows.size());
  w.key("rows").begin_array();
  for (const SweepRow& row : sweep) {
    w.begin_object()
        .kv("kernel_tier", row.tier)
        .kv("windows_per_call", row.per_call)
        .kv("fp32_windows_per_sec", row.fp32_wps);
    if (quantize) w.kv("int8_windows_per_sec", row.quant_wps);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("paper_shape").begin_object();
  w.kv("hidden", paper.detector.config().hidden);
  w.kv("window", paper.window);
  w.kv("windows_per_call", kFlushWindows);
  w.kv("windows", paper.sweep_windows.size());
  w.key("rows").begin_array();
  for (const ShapeRow& row : paper_rows) {
    w.begin_object()
        .kv("kernel_tier", row.tier)
        .kv("fp32_windows_per_sec", row.fp32_wps)
        .kv("int8_windows_per_sec", row.quant_wps)
        .kv("int8_speedup_vs_fp32", row.quant_wps / row.fp32_wps)
        .end_object();
  }
  w.end_array();
  w.key("stages").begin_array();
  for (const StageRow& row : stage_rows) {
    w.begin_object()
        .kv("kernel_tier", row.tier)
        .kv("precision", row.int8 ? "int8" : "fp32")
        .kv("dt_gather_ns_per_window", row.ns.gather)
        .kv("layer0_steps_ns_per_window", row.ns.layer0)
        .kv("layer1_steps_ns_per_window", row.ns.upper)
        .kv("head_ns_per_window", row.ns.head)
        .kv("total_ns_per_window",
            row.ns.gather + row.ns.layer0 + row.ns.upper + row.ns.head)
        .end_object();
  }
  w.end_array();
  w.kv("stage_rounds", kStageRounds);
  w.key("int8_over_fp32").begin_array();
  for (const RatioRow& row : ratio_rows) {
    w.begin_object()
        .kv("kernel_tier", row.tier)
        .kv("median", row.median)
        .kv("q1", row.q1)
        .kv("q3", row.q3)
        .end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();
  return bench::write_json_file(path, w) ? 0 : 1;
}

// --smoke: the int8 correctness gate (see file comment). Uses a patterned
// corpus — a cyclic template walk with 10% uniform noise — because rank
// agreement is only a meaningful gate when the model has sharp predictions
// to rank; the uniform-random throughput fixture trains to a nearly flat
// distribution whose ranks are tie-break noise.
std::vector<logproc::ParsedLog> patterned_logs(std::size_t count,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<logproc::ParsedLog> logs;
  logs.reserve(count);
  std::int64_t t = 0;
  std::int32_t prev = static_cast<std::int32_t>(rng.uniform_index(kVocab));
  for (std::size_t i = 0; i < count; ++i) {
    t += static_cast<std::int64_t>(rng.exponential(60.0)) + 1;
    const std::int32_t id =
        rng.uniform_index(10) == 0
            ? static_cast<std::int32_t>(rng.uniform_index(kVocab))
            : (prev + 1) % static_cast<std::int32_t>(kVocab);
    logs.push_back({util::SimTime{t}, id});
    prev = id;
  }
  return logs;
}

std::vector<std::vector<double>> score_all(
    const core::LstmDetector& detector,
    const std::vector<std::vector<logproc::ParsedLog>>& streams) {
  std::vector<core::LogView> views(streams.begin(), streams.end());
  const auto events = detector.score_streams(views, kVocab);
  std::vector<std::vector<double>> scores;
  scores.reserve(events.size());
  for (const auto& stream_events : events) {
    std::vector<double> row;
    row.reserve(stream_events.size());
    for (const core::ScoredEvent& event : stream_events) {
      row.push_back(event.score);
    }
    scores.push_back(std::move(row));
  }
  return scores;
}

int run_smoke_mode() {
  core::LstmDetectorConfig config;
  config.initial_epochs = 3;
  config.oversample = false;
  config.score_mode = core::LstmScoreMode::kTargetRank;
  core::LstmDetector detector(config);
  const auto train = patterned_logs(4000, 11);
  const core::LogView view{train};
  detector.fit({&view, 1}, kVocab);

  core::LstmDetector quantized = detector;
  quantized.set_quantized(true);

  std::vector<std::vector<logproc::ParsedLog>> streams;
  for (std::size_t s = 0; s < 6; ++s) {
    streams.push_back(patterned_logs(400, 500 + s));
  }

  // Gate 1: DeepLog top-k agreement, window for window. The anomaly rule
  // thresholds the rank at k (anomalous iff the observed template is not
  // among the k most likely continuations), so the quantity that must
  // survive quantization is that decision — exact ranks deep in the flat
  // tail of the distribution (the noise windows) are tie-break order
  // among near-equal probabilities and are reported informationally.
  constexpr double kTopK = 9.0;
  const auto fp32_ranks = score_all(detector, streams);
  const auto quant_ranks = score_all(quantized, streams);
  std::size_t total = 0, decision_agree = 0, exact_agree = 0;
  for (std::size_t s = 0; s < fp32_ranks.size(); ++s) {
    for (std::size_t i = 0; i < fp32_ranks[s].size(); ++i) {
      ++total;
      if (fp32_ranks[s][i] == quant_ranks[s][i]) ++exact_agree;
      if ((fp32_ranks[s][i] <= kTopK) == (quant_ranks[s][i] <= kTopK)) {
        ++decision_agree;
      }
    }
  }
  const double agreement =
      total == 0 ? 0.0
                 : static_cast<double>(decision_agree) /
                       static_cast<double>(total);
  std::cerr << "smoke: top-k (k=" << kTopK
            << ") decision agreement fp32 vs int8 = " << decision_agree << "/"
            << total << " = " << agreement * 100.0 << "% (exact ranks: "
            << exact_agree << "/" << total << ")\n";
  bool ok = true;
  if (total == 0 || agreement < 0.995) {
    std::cerr << "smoke: FAIL top-k agreement below 99.5%\n";
    ok = false;
  }

  // Gate 2: every SIMD tier's int8 ranks bit-identical to the baseline
  // tier's, and the SIMD tiers' int8 log-likelihoods and fp32
  // log-likelihoods and ranks bit-identical to each other. The int8
  // log-likelihoods come from an int8 image built in the tier under test
  // (the model's serial references score fp32).
  ml::WindowBatch batch;
  for (const auto& stream : streams) {
    logproc::append_sequence_windows(stream, config.window, batch);
  }
  const ml::KernelTier default_tier = ml::kernel_tier();
  ml::set_kernel_tier(ml::KernelTier::kBaseline);
  const auto baseline_ranks = score_all(quantized, streams);
  const char* first_simd = nullptr;  // the SIMD tier the others match
  std::vector<double> simd_lls;
  std::vector<double> simd_quant_lls;
  std::vector<std::vector<double>> simd_ranks;
  for (const ml::KernelTier tier :
       {ml::KernelTier::kAvx2, ml::KernelTier::kAvx512}) {
    const char* name = ml::kernel_tier_name(tier);
    if (ml::set_kernel_tier(tier) != tier) {
      std::cerr << "smoke: " << name << " tier not on this CPU, not checked\n";
      continue;
    }
    if (score_all(quantized, streams) != baseline_ranks) {
      std::cerr << "smoke: FAIL int8 " << name
                << " vs baseline scores differ\n";
      ok = false;
    } else {
      std::cerr << "smoke: int8 " << name << " == baseline (bit-identical)\n";
    }
    const std::vector<double> lls =
        detector.model().score_log_likelihood(batch);
    std::vector<double> quant_lls(batch.size());
    ml::SequenceModel::InferenceScratch scratch;
    quantized.model().score_batched(
        quantized.model().build_scoring_image(/*int8=*/true), batch,
        core::LstmDetector::kScoreBatch, scratch, quant_lls);
    const auto ranks = score_all(detector, streams);
    if (first_simd == nullptr) {
      first_simd = name;
      simd_lls = lls;
      simd_quant_lls = quant_lls;
      simd_ranks = ranks;
      continue;
    }
    if (quant_lls != simd_quant_lls) {
      std::cerr << "smoke: FAIL int8 " << name << " vs " << first_simd
                << " log-likelihoods differ\n";
      ok = false;
    } else {
      std::cerr << "smoke: int8 " << name << " == " << first_simd
                << " (bit-identical, " << quant_lls.size()
                << " log-likelihoods)\n";
    }
    if (lls != simd_lls || ranks != simd_ranks) {
      std::cerr << "smoke: FAIL fp32 " << name << " vs " << first_simd
                << " scores differ\n";
      ok = false;
    } else {
      std::cerr << "smoke: fp32 " << name << " == " << first_simd
                << " (bit-identical, " << lls.size()
                << " log-likelihoods and ranks)\n";
    }
  }
  ml::set_kernel_tier(default_tier);

  std::cerr << (ok ? "smoke: PASS\n" : "smoke: FAIL\n");
  return ok ? 0 : 1;
}

// --hashes: one FNV-1a hash per line on stdout, so two builds compare with
// `diff`: per (tier, shape) the weights after kHashSteps Adam steps, and
// per (tier, precision, shape, batch) the log-likelihoods and ranks of the
// trained model's windows scored in batches of that size.
constexpr std::size_t kHashShapes[][3] = {  // vocab, hidden, window
    {76, 32, 10}, {90, 32, 10}, {48, 16, 4},
    {37, 24, 5},  {41, 12, 3},  {70, 40, 6}};
constexpr std::size_t kHashSteps = 40;

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash = 14695981039346656037ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash = (hash ^ p[i]) * 1099511628211ull;
  }
  return hash;
}

/// 300 windows whose gaps mix whole seconds (short ones, both ends of
/// normalize_dt's table and far past it) with fractional, exponential
/// ones and zeros.
ml::WindowBatch hash_windows(const ml::SequenceModelConfig& config,
                             util::Rng& rng) {
  constexpr float kWhole[] = {16383.0f, 16384.0f, 16385.0f, 1e6f};
  ml::WindowBatch windows;
  for (std::size_t e = 0; e < 300; ++e) {
    for (std::size_t t = 0; t < config.window; ++t) {
      windows.ids.push_back(
          static_cast<std::int32_t>(rng.uniform_index(config.vocab)));
      const std::size_t kind = rng.uniform_index(8);
      windows.dts.push_back(
          kind < 3   ? static_cast<float>(rng.uniform_index(600))
          : kind < 6 ? static_cast<float>(rng.exponential(60.0))
          : kind < 7 ? kWhole[rng.uniform_index(4)]
                     : 0.0f);
    }
    windows.targets.push_back(
        static_cast<std::int32_t>(rng.uniform_index(config.vocab)));
  }
  return windows;
}

int run_hashes_mode() {
  const ml::KernelTier default_tier = ml::kernel_tier();
  for (const ml::KernelTier tier :
       {ml::KernelTier::kBaseline, ml::KernelTier::kAvx2,
        ml::KernelTier::kAvx512}) {
    const char* name = ml::kernel_tier_name(tier);
    if (ml::set_kernel_tier(tier) != tier) {
      std::cerr << "hashes: " << name << " tier not on this CPU\n";
      continue;
    }
    for (const auto& shape : kHashShapes) {
      ml::SequenceModelConfig config;
      config.vocab = shape[0];
      config.hidden = shape[1];
      config.window = shape[2];
      const std::string label = std::to_string(shape[0]) + "/" +
                                std::to_string(shape[1]) + "/" +
                                std::to_string(shape[2]);
      util::Rng rng(shape[0]);
      ml::SequenceModel model(config, rng);
      const ml::WindowBatch windows = hash_windows(config, rng);
      ml::Adam adam(1e-2f);
      adam.bind(model.params());
      for (std::size_t step = 0; step < kHashSteps; ++step) {
        ml::WindowBatch batch;
        for (std::size_t i = 0; i < 32; ++i) {
          batch.append_row(windows, (step * 32 + i) % windows.size(),
                           config.window);
        }
        model.train_batch(batch, adam);
      }
      std::uint64_t weights = fnv1a(nullptr, 0);
      for (const ml::Param* p : std::as_const(model).params()) {
        weights = fnv1a(p->value.data(), p->value.size() * sizeof(float),
                        weights);
      }
      std::cout << name << " weights " << label << " " << std::hex
                << weights << std::dec << "\n";
      for (const bool int8 : {false, true}) {
        const ml::SequenceModel::ScoringImage image =
            model.build_scoring_image(int8);
        ml::SequenceModel::InferenceScratch scratch;
        for (const std::size_t batch : {1ul, 7ul, 64ul, 256ul}) {
          std::vector<double> lls(windows.size());
          std::vector<std::size_t> ranks(windows.size());
          model.score_batched(image, windows, batch, scratch, lls);
          model.score_ranks_batched(image, windows, batch, scratch, ranks);
          const std::uint64_t hash =
              fnv1a(ranks.data(), ranks.size() * sizeof(std::size_t),
                    fnv1a(lls.data(), lls.size() * sizeof(double)));
          std::cout << name << (int8 ? " int8 " : " fp32 ") << label
                    << " batch " << batch << " " << std::hex << hash
                    << std::dec << "\n";
        }
      }
    }
  }
  ml::set_kernel_tier(default_tier);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quantize = false;
  std::string json_path;
  bool smoke = false;
  bool hashes = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
      ++i;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--quantize") == 0) {
      quantize = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--hashes") == 0) {
      hashes = true;
    } else if (std::strcmp(argv[i], "--no-avx2") == 0) {
      // Same escape hatch as the NFVPRED_NO_AVX2 environment variable:
      // score through the baseline kernels instead of a SIMD tier.
      ml::set_kernel_tier(ml::KernelTier::kBaseline);
    }
  }
  if (smoke) return run_smoke_mode();
  if (hashes) return run_hashes_mode();
  if (!json_path.empty()) return run_json_mode(json_path, quantize);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
