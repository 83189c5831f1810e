"""Finite-sample frontier mapping: plug-in estimates, bootstrap, filtering.

The search itself runs on the empirical (plug-in) joint. Every discovered
frontier point then gets bootstrap standard deviations for both
objectives, and a significance filter keeps only points that are
statistically distinguishable - in at least one coordinate - from every
point already kept, visiting points in ascending order of uncertainty so
low-variance points win ties.

The bootstrap runs one task per frontier point on a thread pool with one
worker per CPU the process may run on; numpy releases the GIL while it
draws and reduces. Each point seeds its own generator from its frontier
index, so the output is the same on any host.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ._util import check_seed, derive_seed
from .distributions import EmpiricalCounts, normalize_counts, xlog2x
from .encoders import Encoder
from .errors import DimensionMismatchError
from .mapper import SearchConfig, SearchStats, _objectives, _push, pareto_mapper
from .pareto import ParetoPoint, ParetoSet


@dataclass(frozen=True)
class RobustConfig:
    """Search scale, seed, bootstrap replicate count, and interval width z.

    z scales the +/- z*sigma intervals used by the significance filter
    (1.0 keeps points whose one-sigma intervals separate in some axis).
    """

    epsilon: float
    seed: int
    bootstrap_reps: int = 100
    z: float = 1.0

    def __post_init__(self):
        check_seed(self.seed)
        reps = self.bootstrap_reps
        if isinstance(reps, bool) or not isinstance(reps, (int, np.integer)):
            raise ValueError("bootstrap_reps must be an integer")
        if reps < 2:
            raise ValueError("bootstrap_reps must be at least 2")
        if not 0 < self.z < math.inf:  # also rejects NaN
            raise ValueError("z must be positive and finite")


def bootstrap_uncertainty(
    counts: EmpiricalCounts, f: Encoder, reps: int, seed: int
) -> tuple[float, float]:
    """Bootstrap standard deviations of (-H(f(X)), I(f(X); Y)).

    Draws `reps` multinomial resamples of the original sample size from the
    empirical PMF, pushes each through f, and returns the sample standard
    deviations of the two objectives across replicates.
    """
    if reps < 2:
        raise ValueError("reps must be at least 2")
    if f.n != counts.nx:
        raise DimensionMismatchError(
            f"encoder domain {f.n} != count matrix row count {counts.nx}"
        )
    rng = np.random.default_rng(seed)
    p_flat = (counts.n / counts.total).ravel()
    draws = rng.multinomial(counts.total, p_flat, size=reps)
    arr = draws.reshape(reps, counts.nx, counts.ny) / counts.total
    labels = np.broadcast_to(np.asarray(f.assignment), (reps, f.n))
    pushed = _push(labels, arr, f.m)
    xs, ys = _objectives(pushed, -xlog2x(pushed.sum(axis=1)).sum(axis=1))
    return float(np.std(xs, ddof=1)), float(np.std(ys, ddof=1))


def _distinguishable(p: ParetoPoint, q: ParetoPoint, z: float) -> bool:
    return abs(p.x - q.x) > z * (p.dx + q.dx) or abs(p.y - q.y) > z * (p.dy + q.dy)


def significance_filter(frontier: ParetoSet, z: float) -> ParetoSet:
    """Keep points distinguishable from every already-kept point.

    Points are visited in ascending order of uncertainty (the product
    dx*dy, ties broken by x); a point is kept iff its z-intervals are
    disjoint from each kept point's in at least one coordinate.
    """
    for p in frontier:
        if p.dx is None or p.dy is None:
            raise ValueError("significance_filter requires points with uncertainties")
    kept = ParetoSet()
    for p in sorted(frontier, key=lambda p: (p.dx * p.dy, p.x)):
        if all(_distinguishable(p, q, z) for q in kept):
            kept.add(p)
    return kept


def _cpus_available() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has sched_getaffinity
        return os.cpu_count() or 1


def robust_pareto_mapper(
    counts: EmpiricalCounts, cfg: RobustConfig
) -> tuple[ParetoSet, ParetoSet, SearchStats]:
    """Map the frontier of an empirical sample with quantified uncertainty.

    Returns (filtered, unfiltered, stats): the significance-filtered
    frontier, the full discovered frontier with (dx, dy) attached to every
    point, and the search counters. Deterministic per config.

    The bootstrap runs one task per frontier point on a thread pool with
    one worker per CPU available; point i is seeded with
    `derive_seed(seed, i)`, so the output is the same on any host.
    """
    # Imported here: at module level it would add `logging` to `import dibmap`.
    from concurrent.futures import ThreadPoolExecutor

    joint = normalize_counts(counts)
    frontier, stats = pareto_mapper(joint, SearchConfig(cfg.epsilon, cfg.seed))

    def spread(i):
        return bootstrap_uncertainty(
            counts, frontier[i].encoder, cfg.bootstrap_reps, derive_seed(cfg.seed, i)
        )

    with ThreadPoolExecutor(max_workers=_cpus_available()) as pool:
        spreads = pool.map(spread, range(len(frontier)))
        for p, (dx, dy) in zip(frontier, spreads):
            p.dx, p.dy = dx, dy
    return significance_filter(frontier, cfg.z), frontier, stats
