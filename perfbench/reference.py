"""The reference kernel: fixed work timed between the workload's calls.

On a shared host the same call can take from 1x to 2x its fastest time, and
the host's speed changes from one second to the next. Timing this kernel
after every timed call samples the host's speed at the moments the workload
runs, so `wall_rel` (pass time over mean kernel time) keeps the program's
speed and drops most of the host's.

The kernel belongs to the benchmark, not to dibmap: a change to the program
cannot change it. It mixes the kinds of work the workloads do, because
contention slows each kind by a different factor: interpreter steps, numpy
calls on small arrays, a small merge search written like dibmap's (bytes
keys, a visited set, a sorted staircase, a few numpy calls per parent), and
passes over arrays larger than the CPU caches. It takes about 0.15 s on a
2-vCPU x86 host.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left

import numpy as np

_SMALL = np.linspace(0.01, 1.0, 64)
_BULK = np.linspace(0.5, 1.5, 2_000_000)
_BLOCKS = np.random.default_rng(7).random((4000, 10, 10))
_MIX = np.random.default_rng(8).random((10, 30))
_JOINT = np.random.default_rng(9).dirichlet(np.ones(28)).reshape(7, 4)


def _xlog2x(a: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a)
    np.log2(a, out=out, where=a > 0)
    out *= a
    return out


def _interpreter() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(120_000):
        acc += i * i % 7
        table[i & 1023] = acc
    return acc


def _small_arrays() -> float:
    s = 0.0
    for _ in range(2_000):
        b = _SMALL * 1.0001
        s += float(np.sum(b * np.log2(b)))
    return s


def _merge_search() -> int:
    """Every merge of a 7-symbol joint, breadth first: B(7) = 877 keys."""
    rows = _JOINT
    n = rows.shape[0]
    start = bytes(range(n))
    queue = [start]
    seen = {start}
    xs: list[float] = []
    ys: list[float] = []
    head = 0
    while head < len(queue):
        parent = queue[head]
        head += 1
        idx = np.frombuffer(parent, dtype=np.uint8)
        m = int(idx.max()) + 1
        if m == 1:
            continue
        pushed = np.zeros((m, rows.shape[1]))
        np.add.at(pushed, idx, rows)
        i_idx, j_idx = np.triu_indices(m, k=1)
        a = np.broadcast_to(idx, (len(i_idx), n))
        child = np.where(a == j_idx[:, None], i_idx[:, None], a - (a > j_idx[:, None]))
        flat = child.astype(np.uint8).tobytes()
        fold = _xlog2x(pushed[i_idx] + pushed[j_idx]).sum(axis=1)
        pz = _xlog2x(pushed.sum(axis=1)[i_idx])
        for k in range(len(i_idx)):
            key = flat[k * n:(k + 1) * n]
            if key in seen:
                continue
            seen.add(key)
            x, y = float(-pz[k]), float(fold[k])
            i = bisect_left(xs, x)
            if i == len(xs) or ys[i] < y:
                xs.insert(i, x)
                ys.insert(i, y)
            queue.append(key)
    return len(seen)


def _bulk_arrays() -> float:
    z = np.einsum("kic,iy->kcy", _BLOCKS, _MIX)
    return (float(_xlog2x(z.reshape(len(z), -1)).sum())
            + float(np.sum(np.log2(_BULK))) + float(np.sum(_BULK * _BULK)))


def kernel() -> float:
    return _interpreter() + _small_arrays() + _merge_search() + _bulk_arrays()


def time_kernel() -> float:
    """Wall seconds of one run of the kernel."""
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


class OutOfTime(Exception):
    """The next call would end after the run's deadline."""


class Timer:
    """Times a workload's calls, and runs the reference kernel once at the
    start and after each call: once more for every half second the call
    took, so the kernel samples long calls about as densely as short ones.

    Calls are told apart by their place in the pass. Once `deadline` is set
    (after the first pass), a call that would end after it, judging by its
    last time, raises OutOfTime instead of running.
    """

    def __init__(self):
        self.deadline: float | None = None
        self.calls: dict[int, list[float]] = {}  # place in pass -> seconds
        self.kernel: list[float] = [time_kernel()]
        self._place = 0

    def start_pass(self):
        self._place = 0

    def __call__(self, fn, *args):
        place = self._place
        self._place += 1
        if self.deadline is not None:
            last = self.calls[place][-1]
            est = last + self._kernel_runs(last) * self.kernel[-1]
            if time.perf_counter() + est > self.deadline:
                raise OutOfTime
        t = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t
        self.calls.setdefault(place, []).append(dt)
        for _ in range(self._kernel_runs(dt)):
            self.kernel.append(time_kernel())
        return out

    @staticmethod
    def _kernel_runs(call_s: float) -> int:
        return 1 + int(2 * call_s)

    def made(self) -> int:
        return sum(len(v) for v in self.calls.values())

    def pass_s(self) -> float:
        """Seconds of one pass: the sum of each call's mean time."""
        return sum(statistics.fmean(v) for v in self.calls.values())

    def wall_rel(self) -> float:
        return self.pass_s() / statistics.fmean(self.kernel)
