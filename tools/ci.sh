#!/usr/bin/env bash
# CI entry point: tier-1 build + full test suite (its CLI chain scores
# both in batch and through the async streaming runtime), an explicit
# pass over the observability-labelled tests (latency histograms, runtime stats
# snapshots, JSON round-trip), the continual-labelled tests (online
# retrain update-shift scenario, per-epoch swap determinism, swap-storm
# races, adapt unfreeze safety), then a ThreadSanitizer pass over the
# concurrency-, observability- and continual-labelled tests (thread pool, lock-free
# queues, the shared token arena's lock-free reader/registrar stress,
# parallel-vs-serial pipeline determinism, shared-detector streaming,
# the async-ingest determinism/backpressure/control-plane suite, and the
# batched-inference invariance suite: fused model scoring at any batch
# size and thread count, cross-stream calls vs per-window calls, and
# one-call group flushes vs immediate ingestion). The
# benchmark ledger's self-test (perfbench/selftest.py) checks its metric
# set, its serial-replay parity gate and that gate's --perturb trip. The
# forest-labelled tests cover the shared signature forest (sequence-
# interner publication machinery, cross-vPE template dedup, copy-on-write
# divergence, and the fleet memory gate: the async runtime's bytes/vPE
# below the private-tree baseline with serial warning parity at two
# worker counts) and run in the regular, TSan and ASan legs. The
# quantized-scoring leg runs the quant-labelled tests, the
# bench_scoring_throughput --smoke gates (int8 rank agreement, int8 ranks
# of every SIMD tier bit-identical to the serial tier, fp32 scores of the
# SIMD tiers bit-identical to each other), and an ASan build of the int8 kernels, of the fp32 packed
# kernels (test_ml_grad's shape sweep reads every panel tail) and of the
# sequence model (test_ml_models: the scoring image, its table gather and
# the checkpoint loader's corrupt-header checks). The UBSan leg runs the
# same three ML binaries, whose kernels shift lane masks, index vector
# tails and convert floats to ints. The log opens with the kernel tier
# (avx512, avx2+fma or baseline) these legs exercise on this host.
#
# Usage: tools/ci.sh [jobs]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${1:-$(nproc)}"

# The tier ml::kernel_tier() picks here, by the same CPUID rule: AVX-512
# F/BW/DQ/VL + VNNI, else AVX2+FMA, else baseline; NFVPRED_NO_AVX2 forces
# baseline.
cpu_flags=" $(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null | cut -d: -f2) "
has_flag() { [[ "$cpu_flags" == *" $1 "* ]]; }
tier=baseline
if [[ -z "${NFVPRED_NO_AVX2:-}" ]]; then
  if has_flag avx512f && has_flag avx512bw && has_flag avx512dq &&
      has_flag avx512vl && has_flag avx512_vnni; then
    tier=avx512
  elif has_flag avx2 && has_flag fma; then
    tier=avx2+fma
  fi
fi
echo "=== kernel tier: $tier ==="

echo "=== tier-1: build + full ctest ==="
cmake -B "$ROOT/build" -S "$ROOT"
cmake --build "$ROOT/build" -j "$JOBS"
ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS"

echo "=== training fast path: bench smoke ==="
cmake --build "$ROOT/build" -j "$JOBS" --target bench_training_throughput
"$ROOT/build/bench/bench_training_throughput" --smoke

echo "=== observability: runtime stats + json round-trip ==="
ctest --test-dir "$ROOT/build" -L observability --output-on-failure -j "$JOBS"

echo "=== template mining: fast-path equivalence smoke ==="
cmake --build "$ROOT/build" -j "$JOBS" --target bench_parsing_throughput
"$ROOT/build/bench/bench_parsing_throughput" --smoke

echo "=== shared signature forest: dedup + divergence tests ==="
ctest --test-dir "$ROOT/build" -L forest --output-on-failure -j "$JOBS"

echo "=== benchmark ledger: metric-set, serial-replay parity and --perturb self-test ==="
python3 "$ROOT/perfbench/selftest.py"

echo "=== quantized scoring: kernel/lifecycle tests + rank-agreement and tier-identity smoke ==="
ctest --test-dir "$ROOT/build" -L quant --output-on-failure -j "$JOBS"
cmake --build "$ROOT/build" -j "$JOBS" --target bench_scoring_throughput
"$ROOT/build/bench/bench_scoring_throughput" --smoke

echo "=== ASan: logproc fast path (interner, AVX2 tokenizer, alloc hook), shared arena + forest, int8 and fp32 packed kernels, scoring image + checkpoint loader ==="
cmake -B "$ROOT/build-asan" -S "$ROOT" -DNFVPRED_SANITIZE=address
cmake --build "$ROOT/build-asan" -j "$JOBS" --target test_logproc --target test_logproc_alloc --target test_forest --target test_quant --target test_ml_grad --target test_ml_models
"$ROOT/build-asan/tests/test_logproc"
"$ROOT/build-asan/tests/test_logproc_alloc"
"$ROOT/build-asan/tests/test_forest"
"$ROOT/build-asan/tests/test_quant"
"$ROOT/build-asan/tests/test_ml_grad"
"$ROOT/build-asan/tests/test_ml_models"

echo "=== UBSan: fp32 packed, int8 and sequence-model kernels ($tier tier) ==="
cmake -B "$ROOT/build-ubsan" -S "$ROOT" -DNFVPRED_SANITIZE=undefined
cmake --build "$ROOT/build-ubsan" -j "$JOBS" --target test_ml_grad --target test_quant --target test_ml_models
"$ROOT/build-ubsan/tests/test_ml_grad"
"$ROOT/build-ubsan/tests/test_quant"
"$ROOT/build-ubsan/tests/test_ml_models"

echo "=== continual learning: online retrain + hot swap + adapt safety ==="
ctest --test-dir "$ROOT/build" -L continual --output-on-failure -j "$JOBS"

echo "=== TSan: concurrency + observability + continual + forest labels ==="
cmake -B "$ROOT/build-tsan" -S "$ROOT" -DNFVPRED_SANITIZE=thread
cmake --build "$ROOT/build-tsan" -j "$JOBS" --target test_concurrency --target test_observability --target test_continual --target test_forest
ctest --test-dir "$ROOT/build-tsan" -L 'concurrency|observability|continual|forest' --output-on-failure

echo "ci.sh: all passes clean"
