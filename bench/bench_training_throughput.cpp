// Training throughput: serial reference kernels vs the packed SIMD
// training fast path (the widest kernel tier the CPU has: AVX-512 or
// AVX2+FMA), at 1 and 4 threads.
//
// The paper's deployment story is dominated by repeated training (initial
// per-cluster fits, monthly incremental updates, transfer fine-tunes,
// over-sampling refinement rounds), so examples/sec through
// SequenceModel::train_batch is the budget that matters. Three regimes run
// the identical batch schedule:
//   - serial: SIMD kernel dispatch forced off, one thread — the explicitly
//     fused reference path the determinism tests pin everything against;
//   - packed: SIMD packed kernels, one thread;
//   - packed+parallel: SIMD packed kernels, four threads (sharded BPTT
//     partials, embedding scatter, Adam chunks).
// Within each SIMD mode the losses are bit-identical for any thread count.
//
// Run with `--json FILE` for a machine-readable summary (examples/sec and
// speedups, e.g. BENCH_training.json), `--smoke` for a ~2 s CI sanity pass
// that also re-checks 1T-vs-4T loss bit-equality, or `--no-avx2` to force
// the reference kernels in google-benchmark mode (same escape hatch as the
// NFVPRED_NO_AVX2 environment variable).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "ml/matrix.h"
#include "ml/optimizer.h"
#include "ml/sequence_model.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace nfv;

constexpr std::size_t kVocab = 64;
constexpr std::size_t kBatch = 64;

ml::SequenceModelConfig model_config() {
  ml::SequenceModelConfig config;
  config.vocab = kVocab;
  config.embed_dim = 16;
  config.hidden = 32;
  config.layers = 2;
  config.window = 10;
  return config;
}

std::vector<ml::SeqExample> make_dataset(std::size_t count) {
  const ml::SequenceModelConfig config = model_config();
  util::Rng rng(17);
  std::vector<ml::SeqExample> examples(count);
  for (ml::SeqExample& ex : examples) {
    ex.ids.resize(config.window);
    ex.dts.resize(config.window);
    for (std::size_t t = 0; t < config.window; ++t) {
      ex.ids[t] = static_cast<std::int32_t>(rng.uniform_index(kVocab));
      ex.dts[t] = static_cast<float>(rng.uniform(0.5, 600.0));
    }
    ex.target = static_cast<std::int32_t>(rng.uniform_index(kVocab));
  }
  return examples;
}

/// One full pass over the dataset in fixed batch order; returns the last
/// batch loss (kept alive as an optimization sink and a sanity value).
double train_pass(ml::SequenceModel& model, ml::Adam& adam,
                  const std::vector<ml::SeqExample>& examples) {
  double loss = 0.0;
  std::vector<const ml::SeqExample*> batch;
  batch.reserve(kBatch);
  for (std::size_t start = 0; start < examples.size(); start += kBatch) {
    batch.clear();
    const std::size_t end = std::min(start + kBatch, examples.size());
    for (std::size_t i = start; i < end; ++i) batch.push_back(&examples[i]);
    loss = model.train_batch(batch, adam);
  }
  return loss;
}

/// The widest SIMD tier the CPU has (on) or the baseline tier (off).
void set_simd(bool on) {
  ml::set_kernel_tier(on ? ml::KernelTier::kAvx512 : ml::KernelTier::kBaseline);
}

struct FreshModel {
  util::Rng rng;
  ml::SequenceModel model;
  ml::Adam adam;
  FreshModel() : rng(5), model(model_config(), rng), adam(3e-3f) {
    adam.bind(model.params());
  }
};

void BM_TrainSerialReference(benchmark::State& state) {
  const auto examples = make_dataset(512);
  util::set_global_threads(1);
  set_simd(false);
  FreshModel fm;
  for (auto _ : state) {
    benchmark::DoNotOptimize(train_pass(fm.model, fm.adam, examples));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(examples.size()));
  set_simd(true);
  util::set_global_threads(0);
}
BENCHMARK(BM_TrainSerialReference)->Unit(benchmark::kMillisecond);

void BM_TrainPacked(benchmark::State& state) {
  const auto examples = make_dataset(512);
  util::set_global_threads(static_cast<std::size_t>(state.range(0)));
  FreshModel fm;
  for (auto _ : state) {
    benchmark::DoNotOptimize(train_pass(fm.model, fm.adam, examples));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(examples.size()));
  util::set_global_threads(0);
}
BENCHMARK(BM_TrainPacked)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

template <typename Fn>
double timed_seconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  volatile double sink = fn();
  (void)sink;
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

struct Regime {
  const char* name;
  std::size_t threads;
  bool simd;
};

constexpr Regime kRegimes[] = {
    {"serial", 1, false},
    {"packed", 1, true},
    {"packed_parallel", 4, true},
};

/// One timed pass of a regime over a fresh model (identical workload every
/// time: same init seed, same batch schedule).
double regime_pass_seconds(const Regime& regime,
                           const std::vector<ml::SeqExample>& examples) {
  util::set_global_threads(regime.threads);
  set_simd(regime.simd);
  FreshModel fm;
  const double seconds = timed_seconds(
      [&] { return train_pass(fm.model, fm.adam, examples); });
  set_simd(true);
  util::set_global_threads(0);
  return seconds;
}

int run_json_mode(const std::string& path) {
  const auto examples = make_dataset(1024);
  constexpr std::size_t kReps = 7;
  // Warm-up (allocator, scratch shapes, pool threads), then interleaved
  // best-of-kReps: each rep times every regime back to back, so slow
  // phases of a noisy machine hit all regimes instead of skewing one.
  for (const Regime& regime : kRegimes) {
    (void)regime_pass_seconds(regime, examples);
  }
  double best[std::size(kRegimes)];
  std::fill(std::begin(best), std::end(best), 1e300);
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < std::size(kRegimes); ++i) {
      best[i] = std::min(best[i], regime_pass_seconds(kRegimes[i], examples));
    }
    std::cerr << "rep " << rep + 1 << "/" << kReps << " done\n";
  }
  std::vector<double> eps;
  for (std::size_t i = 0; i < std::size(kRegimes); ++i) {
    eps.push_back(static_cast<double>(examples.size()) / best[i]);
    std::cerr << kRegimes[i].name << " (threads=" << kRegimes[i].threads
              << ", simd=" << (kRegimes[i].simd ? "on" : "off")
              << "): " << eps.back() << " examples/s";
    if (i > 0) std::cerr << " (" << eps.back() / eps[0] << "x)";
    std::cerr << "\n";
  }

  nfv::util::JsonWriter w;
  w.begin_object();
  w.kv("bench", "training_throughput");
  bench::write_provenance(w);
  w.kv("examples", examples.size());
  w.kv("batch_size", kBatch);
  w.kv("window", model_config().window);
  w.kv("vocab", kVocab);
  w.key("results").begin_array();
  for (std::size_t i = 0; i < std::size(kRegimes); ++i) {
    w.begin_object()
        .kv("mode", kRegimes[i].name)
        .kv("threads", kRegimes[i].threads)
        .kv("simd", kRegimes[i].simd)
        .kv("examples_per_sec", eps[i])
        .kv("speedup_vs_serial", eps[i] / eps[0]);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return bench::write_json_file(path, w) ? 0 : 1;
}

/// ~2 s CI smoke: every regime runs one short pass (losses must be
/// finite), and the 1T/4T losses within each SIMD mode must be bitwise
/// equal — the fast canary for both kernel and determinism regressions.
int run_smoke_mode() {
  const auto examples = make_dataset(192);
  for (const bool simd : {true, false}) {
    std::uint64_t bits_1t = 0, bits_4t = 0;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      util::set_global_threads(threads);
      set_simd(simd);
      FreshModel fm;
      const double loss = train_pass(fm.model, fm.adam, examples);
      if (!std::isfinite(loss) || loss <= 0.0) {
        std::cerr << "smoke FAILED: non-finite loss (simd="
                  << (simd ? "on" : "off") << ", threads=" << threads
                  << ")\n";
        return 1;
      }
      std::uint64_t bits = 0;
      std::memcpy(&bits, &loss, sizeof(bits));
      (threads == 1 ? bits_1t : bits_4t) = bits;
    }
    if (bits_1t != bits_4t) {
      std::cerr << "smoke FAILED: 1T vs 4T losses differ (simd="
                << (simd ? "on" : "off") << ")\n";
      return 1;
    }
  }
  set_simd(true);
  util::set_global_threads(0);
  std::cerr << "training smoke ok (1T == 4T in both SIMD modes)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke_mode();
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      return run_json_mode(argv[i + 1]);
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      return run_json_mode(argv[i] + 7);
    }
    if (std::strcmp(argv[i], "--no-avx2") == 0) {
      set_simd(false);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
