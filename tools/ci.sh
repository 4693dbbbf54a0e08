#!/usr/bin/env bash
# CI entry point: tier-1 build + full test suite (its CLI chain scores
# both in batch and through the async streaming runtime), an explicit
# pass over the observability-labelled tests (latency histograms, runtime stats
# snapshots, JSON round-trip), the continual-labelled tests (online
# retrain update-shift scenario, per-epoch swap determinism, swap-storm
# races, the refused caller swap, adapt unfreeze safety), then a
# ThreadSanitizer pass over the
# concurrency-, observability-, continual- and forest-labelled tests
# (thread pool, lock-free queues, parallel-vs-serial pipeline
# determinism, shared-detector streaming,
# the async-ingest determinism/backpressure/control-plane suite (among
# them flush() racing a line submitted right before it), the
# batched-inference invariance suite: fused model scoring at any batch
# size, score_streams over many streams vs score() per stream, and
# one-call group flushes vs immediate ingestion, and the streaming score
# parity suite: every line StreamMonitor, StreamMonitorGroup and
# AsyncIngest at 1, 2 and 4 workers score equals score() of its stream,
# in fp32 and int8, across detector swaps). The
# benchmark ledger's self-test (perfbench/selftest.py) checks its metric
# set, its serial-replay parity gate and that gate's --perturb trip. The
# forest-labelled tests cover the shared publication arena under the token
# arena and the signature forest (one typed suite over tokens and
# templates, with its lock-free reader/registrar and concurrent-admission
# stress), the token arena's ScopedInterner spill and promotion, the
# shared signature forest (cross-vPE template dedup, copy-on-write
# divergence, and the fleet memory gate: the async runtime's bytes/vPE
# below the private-tree baseline with serial warning parity at two
# worker counts) and the seeded mutation fuzzer of SignatureTree::learn
# (flipped, inserted, deleted and truncated bytes of simnet lines mined
# identically by a capped forest tree, a private tree and the reference
# miner). They run in the regular, TSan and ASan legs, and the UBSan leg
# runs test_forest too. The
# quantized-scoring leg runs the quant-labelled tests (among them the
# fixed activation-code rule in every tier and the codes the step's
# epilogue writes; there is no per-row quantizer, the epilogue converts
# the h it writes to codes), the
# bench_scoring_throughput --smoke gates (int8 rank agreement, int8 ranks
# of every SIMD tier bit-identical to the serial tier, fp32 scores of the
# SIMD tiers bit-identical to each other), and an ASan build of the int8 kernels, of the fp32 packed
# kernels (test_ml_grad's shape sweep reads every panel tail) and of the
# sequence model (test_ml_models: the scoring image, its table gather,
# the checkpoint loader's corrupt-header checks and its seeded mutation
# fuzzer). The UBSan leg runs the same three ML binaries, whose kernels
# shift lane masks, index vector tails and convert floats to ints (the
# epilogue's activation codes of NaN and ±Inf included). Both
# sanitizer legs also run the detector tests of test_core
# (LstmDetector*:HmmDetector*), whose training rounds subsample,
# over-sample and minibatch windows by row index, the HMM streaming
# test (HmmStreaming*) and the streaming score parity suite of
# test_concurrency (*StreamingScoreParity*), whose staged windows
# score_windows indexes by window length, and all of
# test_observability: the runtime stats suite (the per-worker seqlock
# slots and the optional shard rows) and the JSON tests, whose
# seeded mutation fuzzer feeds the parser flipped, inserted, deleted and
# truncated bytes of a stats_json() document. The log opens with the
# kernel tier (avx512, avx2+fma or baseline) these legs exercise on this
# host.
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

echo "=== tier-1: warning-free build (-Werror) + full ctest ==="
cmake -B "$ROOT/build" -S "$ROOT" -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
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

echo "=== shared arena + signature forest: arena, dedup, divergence and learn() fuzzer tests ==="
ctest --test-dir "$ROOT/build" -L forest --output-on-failure -j "$JOBS"

echo "=== benchmark ledger: metric-set, serial-replay parity and --perturb self-test ==="
python3 "$ROOT/perfbench/selftest.py"

echo "=== quantized scoring: kernel/checkpoint tests + rank-agreement and tier-identity smoke ==="
ctest --test-dir "$ROOT/build" -L quant --output-on-failure -j "$JOBS"
cmake --build "$ROOT/build" -j "$JOBS" --target bench_scoring_throughput
"$ROOT/build/bench/bench_scoring_throughput" --smoke

echo "=== ASan: logproc fast path (interner, AVX2 tokenizer, alloc hook), shared arena + forest and learn() fuzzer, int8 and fp32 packed kernels, scoring image + checkpoint loader + its fuzzer, detector training rounds, streaming score parity, runtime stats + JSON parser fuzzer ==="
cmake -B "$ROOT/build-asan" -S "$ROOT" -DNFVPRED_SANITIZE=address
cmake --build "$ROOT/build-asan" -j "$JOBS" --target test_logproc --target test_logproc_alloc --target test_forest --target test_quant --target test_ml_grad --target test_ml_models --target test_core
cmake --build "$ROOT/build-asan" -j "$JOBS" --target test_observability --target test_concurrency
"$ROOT/build-asan/tests/test_logproc"
"$ROOT/build-asan/tests/test_logproc_alloc"
"$ROOT/build-asan/tests/test_forest"
"$ROOT/build-asan/tests/test_quant"
"$ROOT/build-asan/tests/test_ml_grad"
"$ROOT/build-asan/tests/test_ml_models"
"$ROOT/build-asan/tests/test_core" --gtest_filter='LstmDetector*:HmmDetector*:HmmStreaming*'
"$ROOT/build-asan/tests/test_concurrency" --gtest_filter='*StreamingScoreParity*'
"$ROOT/build-asan/tests/test_observability"

echo "=== UBSan: fp32 packed, int8 and sequence-model kernels, checkpoint fuzzer, detector training rounds, streaming score parity, runtime stats + JSON parser fuzzer, shared arena + forest and learn() fuzzer ($tier tier) ==="
cmake -B "$ROOT/build-ubsan" -S "$ROOT" -DNFVPRED_SANITIZE=undefined
cmake --build "$ROOT/build-ubsan" -j "$JOBS" --target test_ml_grad --target test_quant --target test_ml_models --target test_core
cmake --build "$ROOT/build-ubsan" -j "$JOBS" --target test_observability --target test_forest --target test_concurrency
"$ROOT/build-ubsan/tests/test_ml_grad"
"$ROOT/build-ubsan/tests/test_quant"
"$ROOT/build-ubsan/tests/test_ml_models"
"$ROOT/build-ubsan/tests/test_core" --gtest_filter='LstmDetector*:HmmDetector*:HmmStreaming*'
"$ROOT/build-ubsan/tests/test_concurrency" --gtest_filter='*StreamingScoreParity*'
"$ROOT/build-ubsan/tests/test_observability"
"$ROOT/build-ubsan/tests/test_forest"

echo "=== continual learning: online retrain + hot swap + adapt safety ==="
ctest --test-dir "$ROOT/build" -L continual --output-on-failure -j "$JOBS"

echo "=== TSan: concurrency + observability + continual + forest labels ==="
cmake -B "$ROOT/build-tsan" -S "$ROOT" -DNFVPRED_SANITIZE=thread
cmake --build "$ROOT/build-tsan" -j "$JOBS" --target test_concurrency --target test_observability --target test_continual --target test_forest
ctest --test-dir "$ROOT/build-tsan" -L 'concurrency|observability|continual|forest' --output-on-failure

echo "ci.sh: all passes clean"
