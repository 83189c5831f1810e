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

A frontier's encoders are nested coarsenings that share most of their
clusters, so each replicate is pushed through a table of their distinct
clusters, each cluster once, and the xlog2x terms of its cells and its
mass are taken once. Each encoder's objectives are mapper._reduce_terms of
its clusters' terms, the reduction behind mapper._objectives and the
oracle's exact stage. It sums each matrix's terms in ascending order, and
a table cell is the cell the encoder's own push gives, so each point's
(dx, dy) is bit for bit what pushing and reducing it alone gives. H(Y) is
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
from .mapper import SearchConfig, SearchStats, _ascending_sum, _reduce_terms, pareto_mapper
from .pareto import ParetoPoint, ParetoSet

_SPREAD_CELLS = 1 << 20
"""Cells per slice of the bootstrap's cluster table and per batch of terms
it gathers from it; bounds its working arrays."""


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

    The encoders' clusters are pushed once per replicate, each distinct
    cluster once however many encoders hold it: a frontier's encoders are
    nested coarsenings that share most of their clusters. A cluster is
    keyed by its membership row, and its cells in the table add its rows
    to 0.0 in ascending position, as push_forward's np.add.at does, so
    they are the cells of every encoder's own push bit for bit. Their
    xlog2x terms and those of their masses are taken once, and each
    encoder's (x, y) per replicate is mapper._reduce_terms of its
    clusters' terms, gathered into one contiguous row: the sorted sums
    give the floats of reducing that encoder alone.

    The table holds at most _SPREAD_CELLS cells (or one replicate's), so
    it is built for a slice of replicates at a time, and the encoders of
    one cluster count gather their terms in batches of at most
    _SPREAD_CELLS cells. The values of all replicates are collected
    before the spreads are taken, over each encoder's contiguous row of
    replicates.
    """
    as_integer("reps", reps, 2)
    check_seed(seed)
    for f in encoders:
        if f.n != counts.nx:
            raise DimensionMismatchError(
                f"encoder domain {f.n} != count matrix row count {counts.nx}"
            )
    if not encoders:
        return []
    arr = _replicates(counts, reps, seed)
    ny = counts.ny
    hy = -_ascending_sum(xlog2x(arr.sum(axis=1)))
    ms = np.array([f.m for f in encoders])
    first = np.cumsum(ms) - ms  # each encoder's first cluster instance
    member = np.zeros((ms.sum(), counts.nx), dtype=bool)
    member[first[:, None] + [f.assignment for f in encoders], np.arange(counts.nx)] = True
    _, uniq, slot = np.unique(
        np.packbits(member, axis=1), axis=0, return_index=True, return_inverse=True
    )
    holders = [np.flatnonzero(col) for col in member[uniq].T]  # table rows per symbol
    vals = np.empty((2, len(encoders), reps))
    rstep = max(1, _SPREAD_CELLS // (len(uniq) * ny))
    for r0 in range(0, reps, rstep):
        part = arr[r0 : r0 + rstep]
        r1 = r0 + len(part)
        # built cluster-major, so each add moves whole (replicate, y) blocks,
        # then laid out replicate-major for the gathers
        cells = np.zeros((len(uniq), len(part), ny))
        for i, h in enumerate(holders):
            cells[h] += part[:, i]
        cells = np.ascontiguousarray(cells.transpose(1, 0, 2))
        masses = xlog2x(cells.sum(axis=-1))
        terms = xlog2x(cells)
        del cells  # the gathers below hold only the terms' table
        for m in dict.fromkeys(ms.tolist()):
            members = np.flatnonzero(ms == m)
            step = max(1, _SPREAD_CELLS // (len(part) * m * ny))
            for lo in range(0, len(members), step):
                idx = members[lo : lo + step]
                cl = slot[first[idx, None] + np.arange(m)]
                xs, ys = _reduce_terms(
                    np.take(terms, cl, axis=1).reshape(len(part), len(idx), m * ny),
                    np.take(masses, cl, axis=1),
                    hy[r0:r1, None],
                )
                vals[:, idx, r0:r1] = xs.T, ys.T
    return list(map(tuple, np.std(vals, axis=2, ddof=1).T.tolist()))


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
