"""Finite-sample frontier mapping: plug-in estimates, bootstrap, filtering.

The search itself runs on the empirical (plug-in) joint. Every discovered
frontier point then gets bootstrap standard deviations for both
objectives, and a significance filter keeps only points that are
statistically distinguishable - in at least one coordinate - from every
point already kept, visiting points in ascending order of uncertainty so
low-variance points win ties.

The bootstrap resamples the sample once per replicate and reduces every
frontier encoder against the same replicates, as the standard
nonparametric bootstrap recomputes every statistic on each resample. Each
point's spread has the distribution it would have with replicates of its
own; only the correlation between points' spreads differs. The output
depends only on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import check_seed, derive_seed
from .distributions import EmpiricalCounts, normalize_counts, xlog2x
from .encoders import Encoder
from .errors import DimensionMismatchError
from .mapper import SearchConfig, SearchStats, _objectives, _push, pareto_mapper
from .pareto import ParetoPoint, ParetoSet


def _check_reps(reps, name: str) -> None:
    if isinstance(reps, bool) or not isinstance(reps, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")
    if reps < 2:
        raise ValueError(f"{name} must be at least 2")


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
        _check_reps(self.bootstrap_reps, "bootstrap_reps")
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
    _check_reps(reps, "reps")
    check_seed(seed)
    if f.n != counts.nx:
        raise DimensionMismatchError(
            f"encoder domain {f.n} != count matrix row count {counts.nx}"
        )
    return _spread(_replicates(counts, reps, seed), f)


def _replicates(counts: EmpiricalCounts, reps: int, seed: int) -> np.ndarray:
    """`reps` multinomial resamples of the sample, as (reps, nx, ny) PMFs."""
    rng = np.random.default_rng(seed)
    p_flat = (counts.n / counts.total).ravel()
    draws = rng.multinomial(counts.total, p_flat, size=reps)
    return draws.reshape(reps, counts.nx, counts.ny) / counts.total


def _spread(arr: np.ndarray, f: Encoder) -> tuple[float, float]:
    """Sample standard deviations of f's objectives over the replicates."""
    labels = np.broadcast_to(np.asarray(f.assignment), (len(arr), f.n))
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


def robust_pareto_mapper(
    counts: EmpiricalCounts, cfg: RobustConfig
) -> tuple[ParetoSet, ParetoSet, SearchStats]:
    """Map the frontier of an empirical sample with quantified uncertainty.

    Returns (filtered, unfiltered, stats): the significance-filtered
    frontier, the full discovered frontier with (dx, dy) attached to every
    point, and the search counters. Deterministic per config.

    The `bootstrap_reps` resamples are drawn once, from
    `derive_seed(seed, 0)`, and shared by every point. Each point's
    (dx, dy) has the distribution `bootstrap_uncertainty` gives it, and
    point 0's equals `bootstrap_uncertainty` at that seed; the spreads
    depend only on the seed.
    """
    joint = normalize_counts(counts)
    frontier, stats = pareto_mapper(joint, SearchConfig(cfg.epsilon, cfg.seed))
    arr = _replicates(counts, cfg.bootstrap_reps, derive_seed(cfg.seed, 0))
    for p in frontier:
        p.dx, p.dy = _spread(arr, p.encoder)
    return significance_filter(frontier, cfg.z), frontier, stats
