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

The frontier's encoders are reduced in batches of one cluster count m:
each batch pushes its encoders against every replicate at once, in slices
of at most _SPREAD_CELLS pushed cells, and takes its objectives and standard
deviations in one call each. The objectives come from mapper._objectives,
the reduction the search and the oracle also use, which sums each matrix's
terms in ascending order, so each point's (dx, dy) is bit for bit what
reducing it alone gives. H(Y) is taken once per replicate, its terms also
summed in ascending order. A constant encoder's one cluster holds the
replicate's Y marginal bit for bit, so its H(Z, Y) and H(Y) cancel exactly.
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

_SPREAD_CELLS = 1 << 20
"""Pushed cells per _objectives call of the bootstrap; bounds its working arrays."""


def _check_reps(reps, name: str) -> None:
    if isinstance(reps, bool) or not isinstance(reps, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")
    if reps < 2:
        raise ValueError(f"{name} must be at least 2")


@dataclass(frozen=True)
class RobustConfig(SearchConfig):
    """A SearchConfig plus bootstrap replicate count and interval width z.

    z scales the +/- z*sigma intervals used by the significance filter
    (1.0 keeps points whose one-sigma intervals separate in some axis).
    """

    bootstrap_reps: int = 100
    z: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        _check_reps(self.bootstrap_reps, "bootstrap_reps")
        if isinstance(self.z, bool) or not 0 < self.z < math.inf:  # also rejects NaN
            raise ValueError(f"z must be positive and finite, got {self.z!r}")


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
    dx, dy = _spreads(_replicates(counts, reps, seed), [f])[0]
    return float(dx), float(dy)


def _replicates(counts: EmpiricalCounts, reps: int, seed: int) -> np.ndarray:
    """`reps` multinomial resamples of the sample, as (reps, nx, ny) PMFs."""
    rng = np.random.default_rng(seed)
    p_flat = (counts.n / counts.total).ravel()
    draws = rng.multinomial(counts.total, p_flat, size=reps)
    return draws.reshape(reps, counts.nx, counts.ny) / counts.total


def _spreads(arr: np.ndarray, encoders) -> np.ndarray:
    """(len(encoders), 2) sample standard deviations of each encoder's
    objectives over the (reps, nx, ny) replicates arr.

    The encoders of one cluster count m are pushed together, as a
    (k, reps, m, ny) array of k encoders' pushed replicates, and reduced
    as the k * reps matrices `_objectives` takes, against each replicate's
    H(Y).
    """
    reps, _, ny = arr.shape
    hy = -np.sort(xlog2x(arr.sum(axis=1)), axis=1).sum(axis=1)
    out = np.empty((len(encoders), 2))
    by_m: dict[int, list[int]] = {}
    for i, f in enumerate(encoders):
        by_m.setdefault(f.m, []).append(i)
    for m, members in by_m.items():
        step = max(1, _SPREAD_CELLS // (reps * m * ny))
        for lo in range(0, len(members), step):
            idx = members[lo : lo + step]
            k = len(idx)
            labels = np.array([encoders[i].assignment for i in idx])[:, None]
            pushed = _push(labels, arr, m).reshape(k * reps, m, ny)
            xs, ys = _objectives(pushed, np.tile(hy, k))
            out[idx, 0] = np.std(xs.reshape(k, reps), axis=1, ddof=1)
            out[idx, 1] = np.std(ys.reshape(k, reps), axis=1, ddof=1)
    return out


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
    frontier, stats = pareto_mapper(joint, cfg)
    arr = _replicates(counts, cfg.bootstrap_reps, derive_seed(cfg.seed, 0))
    for p, (dx, dy) in zip(frontier, _spreads(arr, [p.encoder for p in frontier]).tolist()):
        p.dx, p.dy = dx, dy
    return significance_filter(frontier, cfg.z), frontier, stats
