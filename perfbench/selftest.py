#!/usr/bin/env python3
"""Self-test of the ledger at tiny sizes (a few seconds per workload).

    python3 perfbench/selftest.py

Builds like run.py, then checks that:
  - every metric of BENCHMARK.json is printed exactly once per workload,
    with its unit and a finite value, for --trace 0 and --trace 1;
  - another seed changes the inputs (the input digest) but not the metric set;
  - the parity gate fires: with a deliberately perturbed serial replay the
    ledger exits non-zero and prints no result.
Exits 0 when every check passes.
"""
import sys

import run

WORKLOADS = ("fleet10k", "paper38", "paper38_update")
SECONDS = 3


def main():
    binary = run.build()
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, file=sys.stderr)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        digests = {}
        for trace in (0, 1):
            for seed in ((1, 2) if trace == 0 else (1,)):
                code, provenance, result = run.run_ledger(
                    binary, workload, seed, SECONDS, trace, ["--tiny"])
                label = f"{workload} trace={trace} seed={seed}"
                check(code == 0 and result is not None, f"{label}: runs and prints a result")
                if code != 0 or result is None:
                    continue
                try:
                    run.check_result(result, trace)
                    check(True, f"{label}: every metric once, with unit, finite")
                except SystemExit:
                    check(False, f"{label}: every metric once, with unit, finite")
                if trace == 0:
                    digests[seed] = (provenance.get("input_digest"), set(result["metrics"]))
        if len(digests) == 2:
            (d1, m1), (d2, m2) = digests[1], digests[2]
            check(d1 != d2, f"{workload}: another seed changes the inputs")
            check(m1 == m2, f"{workload}: another seed keeps the metric set")

    for workload in ("fleet10k", "paper38"):
        code, _, result = run.run_ledger(binary, workload, 1, SECONDS, 0,
                                         ["--tiny", "--perturb"])
        check(code != 0 and result is None,
              f"{workload}: parity gate fails a perturbed replay with no result")

    print(f"selftest: {len(failures)} failure(s)", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
