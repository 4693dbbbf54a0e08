#!/usr/bin/env python3
"""Build and run the syslog -> warning ledger on one workload.

    python3 perfbench/run.py --workload fleet10k --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and builds
perfbench/ (library sources from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs rebuild
incrementally. The workload's fixed offered rate comes from
perfbench/workloads.json.

stdout ends with a provenance line and then one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
Any build, correctness or completeness failure exits non-zero without
printing metrics.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure (once) and build the ledger; returns the binary's path."""
    src = ROOT / "src"
    if not src.is_dir() or not any(src.rglob("*.cpp")):
        fail(f"no library sources under {src}; run from a full source checkout")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return out / "ledger"


def source_digest():
    """SHA-256 over the library sources and the benchmark: identifies the
    code under test where no git metadata exists."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".h", ".txt", ".py", ".json"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout, or "unknown" when it is not a git work tree of
    its own (git would otherwise report an enclosing repository)."""
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    out = r.stdout.split()
    if r.returncode != 0 or len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return "unknown"
    return out[1]


def workload_config():
    return json.loads((BENCH_DIR / "workloads.json").read_text())


def unique_keys(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"duplicate keys in {keys}")
    return dict(pairs)


def expected_metrics(trace):
    """(name -> unit) the run must print, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_ledger(binary, workload, seed, seconds, trace, extra=()):
    """Run the ledger; returns (returncode, provenance dict, result dict)."""
    config = workload_config()
    if workload not in config["workloads"]:
        fail(f"unknown workload {workload!r}")
    rate = config["workloads"][workload]["offered_lines_per_s"]
    trace_out = build_dir() / f"trace_{workload}_{seed}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--rate", str(rate),
           "--trace-out", str(trace_out), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"ledger exceeded {RUN_TIMEOUT_S} s")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    provenance, result = {}, None
    for line in lines:
        doc = json.loads(line, object_pairs_hook=unique_keys)
        if "provenance" in doc:
            provenance = doc["provenance"]
        else:
            result = doc
    return proc.returncode, provenance, result


def check_result(result, trace):
    """The result carries exactly the expected metrics, each finite and
    with its declared unit."""
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("ledger printed no well-formed result")
    if result["correct"] is not True or result["attempted"] < 1:
        fail("ledger reported an incorrect run")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"metric set mismatch: missing {sorted(set(want) - set(got))}, "
             f"unexpected {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            fail(f"metric {name} has value {value!r} unit {got[name]['unit']!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    code, provenance, result = run_ledger(binary, args.workload, args.seed,
                                          args.seconds, args.trace)
    if code != 0:
        fail(f"ledger exited with code {code}")
    check_result(result, args.trace)
    provenance["warn_p99_limit_ms"] = workload_config()["warn_p99_limit_ms"]
    provenance["git_sha"] = git_sha()
    provenance["source_digest"] = source_digest()
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
