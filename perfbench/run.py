#!/usr/bin/env python3
"""Run one dibmap benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, then makes its timed calls as
one closed-loop caller, pass after pass. The first pass always completes;
after it, the run stops before the first call that would end after S
seconds, judging by that call's last time. After each call, and once before
the first, it times the reference kernel of `reference.py` (once more for
every half second the call took). The first pass's output is checked
against an independent reference, and every whole pass must give the same
sha256 digest of its canonical frontier output. The last line of standard
output is one JSON object with `correct`, `attempted` (calls made),
`failed` and `metrics`; the lines above it give each call's times, each
check, the digests, and `failed_frac` = failed / attempted.

--trace 0 reports the end-to-end metrics, measured with tracing off:

- setup_s: median, over SETUP_REPS fresh processes, of the time from
  process start until it has imported dibmap, built the inputs and exited
- wall_rel: the time of one pass (the sum of each call's mean time) over
  the mean time of the reference kernel. The kernel is fixed code of the
  benchmark, timed between the calls, so the ratio follows the program's
  speed and not the shared host's, which changes from second to second.
  The pass time in seconds is printed above the result.
- peak_rss_mb: peak resident memory of this process through its first pass
- recall: share of the reference frontier the output reproduces

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the last whole traced pass, the tracing overhead (traced
wall_rel over untraced wall_rel, minus 1, and that share of the untraced
pass in seconds), and checks that both give the same digest. Its spans are
written to .bench_out/trace-<workload>-seed<N>.json.

The package is imported from src/ next to this directory, never from an
installed copy. Numeric libraries run single-threaded.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# after the thread settings: reference imports numpy
from reference import OutOfTime, Timer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 7
WORKLOADS = ("narrow-lattice", "wide-robust", "oracle-sweep")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy runs every workload at a few seconds' size (self-test)")
    p.add_argument("--setup-only", metavar="DIR", default=None,
                   help="build the inputs into DIR and exit (times set-up)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def import_workloads():
    """Import dibmap from this checkout's src/ and return the workloads."""
    if not os.path.isfile(os.path.join(SRC, "dibmap", "__init__.py")):
        raise SystemExit(f"error: no dibmap package under {SRC}")
    sys.path.insert(0, SRC)
    import dibmap

    if not os.path.abspath(dibmap.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: dibmap imported from {dibmap.__file__}, not {SRC}")
    import workloads

    return workloads


def measure_setup(args, workdir) -> float:
    """Median wall time of SETUP_REPS fresh set-up processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only", workdir]
    times = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120)
        times.append(time.perf_counter() - t)
        if proc.returncode != 0:
            raise RuntimeError("set-up process failed:\n" + proc.stderr.decode())
    return statistics.median(times)


class Run:
    """Counts failures and keeps the outputs of the passes of one run."""

    def __init__(self, wl, inputs):
        self.wl, self.inputs = wl, inputs
        self.failed = self.passes = 0
        self.digests: set[str] = set()
        self.first = None
        self.peak_rss_mb = None

    def one_pass(self, tr, timer) -> bool:
        """Run one pass; False if a call raised. OutOfTime passes through."""
        timer.start_pass()
        try:
            out = self.wl.run_pass(self.inputs, tr, timer)
        except OutOfTime:
            raise
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return False
        self.passes += 1
        self.digests.add(self.wl.digest(out))
        if self.first is None:
            # Later passes can reach a higher peak through allocator
            # fragmentation, and how many passes fit depends on machine speed.
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self.first = out
        return True


def main(argv=None) -> int:
    args = parse_args(argv)
    wls = import_workloads()
    wl = (wls.full_size() if args.size == "full" else wls.toy_size())[args.workload]

    if args.setup_only is not None:
        wl.setup(args.seed, args.setup_only)
        return 0

    from spans import NullTracer, Tracer, install, layer_metrics

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_s = measure_setup(args, workdir) if args.trace == 0 else None
        run = Run(wl, wl.setup(args.seed, workdir))
        untraced = Timer()
        traced = Timer() if args.trace else None
        last_tracer = None
        start = time.perf_counter()
        # Passes run until the next call would end after --seconds; the
        # first pass (and, traced, the first traced pass) always completes.
        try:
            while True:
                if not run.one_pass(NullTracer(), untraced):
                    break
                if traced is not None:
                    tr = Tracer()
                    with install(tr):
                        if not run.one_pass(tr, traced):
                            break
                    last_tracer = tr
                for timer in (untraced, traced):
                    if timer is not None:
                        timer.deadline = start + args.seconds
        except OutOfTime:
            pass

        checks, recall = ([], None) if run.first is None else wl.check(run.inputs, run.first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timers = [("untraced", untraced)] + ([("traced", traced)] if traced else [])
    attempted = sum(t.made() for _, t in timers) + run.failed
    same_digest = len(run.digests) == 1
    failed = min(attempted, run.failed + sum(not c.ok for c in checks) + (not same_digest))
    correct = failed == 0 and run.first is not None

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{run.passes} whole passes")
    for label, t in timers:
        print(f"calls_s {label}", " | ".join(
            " ".join(f"{x:.3f}" for x in v) for v in t.calls.values()))
        if t.calls:
            print(f"kernel_s {label} mean {statistics.fmean(t.kernel):.4f} over "
                  f"{len(t.kernel)} runs, min {min(t.kernel):.4f}, "
                  f"max {max(t.kernel):.4f}; wall_rel {t.wall_rel():.3f}")
    for c in checks:
        print(f"check {'ok  ' if c.ok else 'FAIL'} {c.name} {c.detail}".rstrip())
    print(f"check {'ok  ' if same_digest else 'FAIL'} every pass gives one digest "
          f"({len(run.digests)} seen)")
    for d in sorted(run.digests):
        print(f"digest sha256 {d}")

    metrics: dict[str, tuple[float, str]] = {}
    if run.first is not None:
        print(f"wall_s (informational, varies with the host) pass "
              f"{untraced.pass_s()!r} s")
        if args.trace == 0:
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_rel": (untraced.wall_rel(), "ratio"),
                "peak_rss_mb": (run.peak_rss_mb, "MB"),
                "recall": (recall, "ratio"),
            }
        elif last_tracer is not None:
            metrics = layer_metrics(last_tracer)
            frac = traced.wall_rel() / untraced.wall_rel() - 1.0
            metrics["trace.overhead_s"] = (frac * untraced.pass_s(), "s")
            metrics["trace.overhead_frac"] = (frac, "ratio")
            os.makedirs(OUT, exist_ok=True)
            last_tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
    print(f"metric failed_frac {failed / max(attempted, 1)!r} ratio "
          f"({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    if not metrics:
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
