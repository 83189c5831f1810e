"""Finite-sample frontier mapping: plug-in estimates, bootstrap, filtering.

The search itself runs on the empirical (plug-in) joint. Every discovered
frontier point then gets bootstrap standard deviations for both
objectives, and a significance filter keeps only points that are
statistically distinguishable - in at least one coordinate - from every
point already kept, visiting points in ascending order of uncertainty so
low-variance points win ties.

The bootstrap, bootstrap_uncertainty, resamples the sample once per
replicate and reduces every frontier encoder against the same replicates,
as the standard nonparametric bootstrap recomputes every statistic on each
resample. Each point's spread has the distribution it would have with
replicates of its own; only the correlation between points' spreads
differs. The output depends only on the seed. robust_pareto_mapper is
pareto_mapper, then bootstrap_uncertainty on the whole frontier, then
significance_filter.

The objectives come from mapper._objectives, the reduction the search and
the oracle also use, which sums each matrix's terms in ascending order, so
each point's (dx, dy) is bit for bit what reducing it alone gives. H(Y) is
taken once per replicate, its terms also summed in ascending order. A
constant encoder's one cluster holds the replicate's Y marginal bit for
bit, so its H(Z, Y) and H(Y) cancel exactly; but the cluster's mass, the
sum of the replicate's rounded cells, may be 1 +- a few ulps, and H(Z) of
such a mass is about 1e-16 bits, not 0. Its spreads are then float noise
of that size, not exactly 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._util import as_integer, check_seed, derive_seed
from .distributions import EmpiricalCounts, normalize_counts, xlog2x
from .encoders import Encoder
from .errors import DimensionMismatchError
from .mapper import SearchConfig, SearchStats, _objectives, _push, pareto_mapper
from .pareto import ParetoPoint, ParetoSet

_SPREAD_CELLS = 1 << 20
"""Pushed cells per _objectives call of the bootstrap; bounds its working arrays."""


def _check_z(z) -> None:
    # a str or None would fail the comparison with a bare TypeError; the
    # comparison also rejects NaN
    if isinstance(z, bool) or not isinstance(z, numbers.Real) or not 0 < z < math.inf:
        raise ValueError(f"z must be positive and finite, got {z!r}")


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
        as_integer("bootstrap_reps", self.bootstrap_reps, 2)
        _check_z(self.z)


def _replicates(counts: EmpiricalCounts, reps: int, seed: int) -> np.ndarray:
    """`reps` multinomial resamples of the sample, as (reps, nx, ny) PMFs."""
    rng = np.random.default_rng(seed)
    p_flat = (counts.n / counts.total).ravel()
    draws = rng.multinomial(counts.total, p_flat, size=reps)
    return draws.reshape(reps, counts.nx, counts.ny) / counts.total


def bootstrap_uncertainty(
    counts: EmpiricalCounts, encoders: list[Encoder], reps: int, seed: int
) -> list[tuple[float, float]]:
    """Bootstrap standard deviations of (-H(f(X)), I(f(X); Y)), one
    (dx, dy) per encoder f of `encoders`.

    Draws `reps` multinomial resamples of the original sample size from the
    empirical PMF once, pushes each through every encoder, and returns the
    sample standard deviations of the two objectives across replicates.

    The replicates lie side by side in one (nx, reps * ny) matrix. The
    encoders of one cluster count m are pushed against it together, in
    slices of at most _SPREAD_CELLS pushed cells, and each slice's
    (k, m, reps * ny) push is reduced as its (k, reps, m, ny) view against
    each replicate's H(Y).
    """
    as_integer("reps", reps, 2)
    check_seed(seed)
    for f in encoders:
        if f.n != counts.nx:
            raise DimensionMismatchError(
                f"encoder domain {f.n} != count matrix row count {counts.nx}"
            )
    arr = _replicates(counts, reps, seed)
    ny = counts.ny
    wide = arr.transpose(1, 0, 2).reshape(counts.nx, reps * ny)
    hy = -np.sort(xlog2x(arr.sum(axis=1)), axis=1).sum(axis=1)
    out = np.empty((len(encoders), 2))
    for m in dict.fromkeys(f.m for f in encoders):
        members = [i for i, f in enumerate(encoders) if f.m == m]
        step = max(1, _SPREAD_CELLS // (reps * m * ny))
        for lo in range(0, len(members), step):
            idx = members[lo : lo + step]
            labels = np.array([encoders[i].assignment for i in idx])
            pushed = _push(labels, wide, m).reshape(len(idx), m, reps, ny)
            xs, ys = _objectives(pushed.transpose(0, 2, 1, 3), hy)
            out[idx] = np.std((xs, ys), axis=2, ddof=1).T
    return list(map(tuple, out.tolist()))


def _distinguishable(p: ParetoPoint, q: ParetoPoint, z: float) -> bool:
    return abs(p.x - q.x) > z * (p.dx + q.dx) or abs(p.y - q.y) > z * (p.dy + q.dy)


def significance_filter(frontier: ParetoSet, z: float) -> ParetoSet:
    """Keep points distinguishable from every already-kept point.

    Points are visited in ascending order of uncertainty (the product
    dx*dy, ties broken by x); a point is kept iff its z-intervals are
    disjoint from each kept point's in at least one coordinate. z is
    positive and finite.
    """
    _check_z(z)
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

    The spreads are `bootstrap_uncertainty` of the whole frontier's
    encoders with `bootstrap_reps` resamples drawn once, from
    `derive_seed(seed, 0)`, and shared by every point; they depend only
    on the seed.
    """
    joint = normalize_counts(counts)
    frontier, stats = pareto_mapper(joint, cfg)
    spreads = bootstrap_uncertainty(
        counts, [p.encoder for p in frontier], cfg.bootstrap_reps, derive_seed(cfg.seed, 0)
    )
    for p, (dx, dy) in zip(frontier, spreads):
        p.dx, p.dy = dx, dy
    return significance_filter(frontier, cfg.z), frontier, stats
