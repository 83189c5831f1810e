#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload at toy size.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json, runs `run.py --size toy` with
--trace 0 and with --trace 1 and checks that the run exits 0, reports
`correct`, ran its reference checks, and prints exactly the metrics that
BENCHMARK.json names, with their units. Then checks that run.py, copied
into a directory without the dibmap sources, exits non-zero without
printing a result. Prints its own wall time and the peak memory of the
runs; exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def run(cwd, workload, trace) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines()


def main() -> int:
    t0 = time.perf_counter()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            t = time.perf_counter()
            rc, lines = run(ROOT, wl, trace)
            label = f"{wl} --trace {trace}"
            if rc != 0 or not lines:
                fail(f"{label}: exit code {rc}")
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{label}: {result['attempted']} attempted, {result['failed']} failed")
            checks = [l for l in lines if l.startswith("check ")]
            if len(checks) < 2 or any(not l.startswith("check ok") for l in checks):
                fail(f"{label}: reference checks {checks}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                fail(f"{label}: metrics differ from BENCHMARK.json: "
                     f"{sorted(set(units.items()) ^ set(expected[trace].items()))}")
            print(f"ok   {label}: {len(checks)} checks, {len(units)} metrics, "
                  f"{time.perf_counter() - t:.1f} s")

    bare = os.path.join(ROOT, ".bench_out", f"selftest-bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        rc, lines = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if rc == 0 or any(l.startswith("{") for l in lines):
        fail("without the dibmap sources the benchmark must fail without a result")
    print(f"ok   without dibmap sources: exit code {rc}, no result")

    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"self-test passed in {time.perf_counter() - t0:.1f} s, "
          f"peak child memory {peak_mb:.0f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
