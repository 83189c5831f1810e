"""Monte Carlo checks of Pareto-set sparsity under prescribed dependence.

Point clouds are drawn from four dependence structures (independent,
comonotone, countermonotone, correlated Gaussian) and the size of their
Pareto sets is measured as the cloud grows. For independent coordinates
the expected size equals the harmonic number H_N exactly, which serves as
the quantitative oracle; complete positive/negative dependence pin the
extremes at 1 and N. A second experiment measures how frontier size and
search work grow with the input size of the compression problem itself.

Two independent membership routes are used: the sort-based maxima filter
pareto.pareto_mask on coordinate values, and a rank-statistics route here
(membership depends only on the composed rank permutation, hence is
invariant under strictly monotonic transformations of either axis).

The batch experiment draws its clouds in turn from one stream, an
independent cloud's first coordinate before its second, and draws and
scans them in sub-blocks of max(1, CLOUD_BLOCK_POINTS // N) clouds. Memory
is therefore bounded by CLOUD_BLOCK_POINTS however many clouds are drawn,
and no draw depends on it.

Before the records scan, each cloud drops what its pivot strictly
dominates (Kung, Luccio & Preparata 1975; Bentley, Clarkson & Levine
1993): all but about 2 sqrt(N) points of an independent cloud.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._util import as_integer, check_seed, derive_seed, least_squares_line
from .distributions import sample_simplex
from .mapper import MAX_SEARCH_N, SearchConfig, pareto_mapper
from .errors import CapacityError
from .oracle import MAX_EXHAUSTIVE_N, bell_number, brute_force_frontier
from .pareto import pareto_mask

_TAGS = ("independent", "comonotone", "countermonotone", "gaussian")

# Clouds are drawn and scanned in sub-blocks of max(1, CLOUD_BLOCK_POINTS // n)
# clouds. It bounds the working arrays only: no draw depends on it.
CLOUD_BLOCK_POINTS = 1 << 18


@dataclass(frozen=True)
class CopulaKind:
    """A dependence structure for cloud sampling; r only for 'gaussian'."""

    tag: str
    r: Optional[float] = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown copula tag {self.tag!r}; choose from {_TAGS}")
        if self.tag == "gaussian":
            if self.r is None or not -1.0 < self.r < 1.0:
                raise ValueError("gaussian correlation must lie strictly in (-1, 1)")
        elif self.r is not None:
            raise ValueError(f"correlation is only meaningful for 'gaussian'")


# Expected Pareto-set sizes follow from the copula C(u, v) of the pair: the
# region where (u + v - C(u, v))^N stays non-negligible has large-N area
# log(N)/N for C = uv (independent), ~1/2 for C = max(u + v - 1, 0)
# (countermonotone, every point maximal) and 2/N for C = min(u, v)
# (comonotone, a single maximum). The Monte Carlo below checks the
# conclusions directly, so the areas are not integrated numerically.


def _draw_clouds(kind: CopulaKind, rng, trials: int, n: int):
    """Yield the coordinates (u, v), each (s, n), of `trials` clouds of n
    points, in sub-blocks of s = max(1, CLOUD_BLOCK_POINTS // n) clouds.

    The clouds are drawn in turn, an independent cloud's u before its v,
    and consecutive random and standard_normal calls continue one stream,
    so no draw depends on the sub-block size.
    """
    sub = max(1, CLOUD_BLOCK_POINTS // n)
    for first in range(0, trials, sub):
        s = min(sub, trials - first)
        if kind.tag == "independent":
            u, v = rng.random((s, 2, n)).transpose(1, 0, 2)
        elif kind.tag == "gaussian":
            z = rng.standard_normal((s, n, 2))
            u = z[:, :, 0]
            v = kind.r * u + math.sqrt(1.0 - kind.r**2) * z[:, :, 1]
        else:
            u = rng.random((s, n))
            v = u if kind.tag == "comonotone" else 1.0 - u
        yield u, v


def sample_cloud(kind: CopulaKind, n: int, seed: int) -> np.ndarray:
    """Draw an (n, 2) cloud with the given dependence; deterministic per seed."""
    n = as_integer("cloud size", n, 1)
    check_seed(seed)
    u, v = next(_draw_clouds(kind, np.random.default_rng(seed), 1, n))
    return np.column_stack([u[0], v[0]])


def pareto_mask_by_ranks(points) -> np.ndarray:
    """Maximality from rank statistics alone (coordinates must be distinct).

    A point is maximal iff, scanning points in order of increasing first
    coordinate, its second-coordinate rank exceeds every rank after it.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    rank_v = np.empty(n, dtype=np.int64)
    rank_v[np.argsort(pts[:, 1])] = np.arange(n)
    order = np.argsort(pts[:, 0])
    s = rank_v[order][::-1]
    rec = np.empty(n, dtype=bool)
    rec[:1] = True
    rec[1:] = s[1:] > np.maximum.accumulate(s)[:-1]
    mask = np.empty(n, dtype=bool)
    mask[order] = rec[::-1]
    return mask


def pareto_size(points) -> int:
    return int(pareto_mask(points).sum())


def harmonic_number(n: int) -> float:
    """H_n = sum_{k=1..n} 1/k, the expected Pareto size of independent clouds."""
    n = as_integer("n", n)
    if n < 0:
        raise ValueError(f"the harmonic number needs n >= 0, got {n}")
    return float(np.sum(1.0 / np.arange(1, n + 1)))


def _records(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pareto-set size of each cloud (u[i], v[i]): the strict records of v
    in descending (u, v) order. Trailing -inf padding is never a record."""
    s, n = u.shape
    at = np.argsort(-u, axis=1)  # made flat: one index serves both gathers
    at += np.arange(0, s * n, n)[:, None]
    # argsort leaves equal u in any order: a cloud with such a tie is sorted
    # again by (-u, -v), so only the first of a tie group can be a record
    us = np.take(u, at)
    t = np.flatnonzero(((us[:, 1:] == us[:, :-1]) & (us[:, 1:] > -np.inf)).any(1))
    del us  # freed before vs is made, which saves a page-faulted array
    vs = np.take(v, at)
    vs[t] = np.take_along_axis(v[t], np.lexsort((-v[t], -u[t]), axis=1), axis=1)
    run = np.maximum.accumulate(vs, axis=1, out=vs)
    return 1 + np.count_nonzero(run[:, 1:] > run[:, :-1], axis=1)


def _undominated(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mask of the points their cloud's pivot does not strictly dominate."""
    p = np.argmax(np.minimum(u, v), axis=1)[:, None]
    pu, pv = np.take_along_axis(u, p, 1), np.take_along_axis(v, p, 1)
    return (u >= pu) | (v >= pv)


def _maxima_counts(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pareto-set size of each cloud (u[i], v[i]), equal to pareto_size.

    The pivot, the point maximising min(u, v), precedes every point it
    strictly dominates, so none is a record or raises a later running max.
    The survivors are scanned left-packed into an (s, w) array padded with
    -inf, unless some cloud keeps over half its points: then the sub-block
    is scanned whole, which the first cloud alone often settles.
    """
    s, n = u.shape
    if 2 * np.count_nonzero(_undominated(u[:1], v[:1])) > n:
        return _records(u, v)
    keep = _undominated(u, v)
    count = np.count_nonzero(keep, axis=1)
    w = int(count.max())
    if 2 * w > n:
        return _records(u, v)
    rows, cols = np.nonzero(keep)
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
    packed = np.full((2, s, w), -np.inf)
    packed[:, rows, slot] = u[rows, cols], v[rows, cols]
    return _records(*packed)


def _batch_sizes(kind: CopulaKind, n: int, trials: int, seed: int) -> np.ndarray:
    """Pareto sizes of `trials` independent n-point clouds, vectorized.

    The clouds are drawn and scanned one sub-block at a time (see
    _draw_clouds), so the working arrays stay near CLOUD_BLOCK_POINTS
    points however many clouds there are.
    """
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [_maxima_counts(u, v) for u, v in _draw_clouds(kind, rng, trials, n)]
    )


@dataclass(frozen=True)
class CloudScalingRow:
    n: int
    mean: float
    std: float


def scaling_experiment(
    kind: CopulaKind, n_values: Sequence[int], trials: int, seed: int
) -> list[CloudScalingRow]:
    """Mean and std of the Pareto-set size per cloud size, over `trials` clouds."""
    trials = as_integer("trials", trials)
    if trials < 10:
        raise ValueError("at least 10 trials are required")
    n_values = [as_integer("cloud size", n, 1) for n in n_values]
    check_seed(seed)
    rows = []
    for n in n_values:
        sizes = _batch_sizes(kind, n, trials, derive_seed(seed, n))
        rows.append(CloudScalingRow(n, float(sizes.mean()), float(sizes.std())))
    return rows


@dataclass(frozen=True)
class FrontierScalingRow:
    n: int
    mean_frontier: float
    mean_searched: float
    mean_seconds: float


def dib_frontier_scaling(
    n_values: Sequence[int],
    trials: int,
    seed: int,
    ny: int = 30,
    engine: str = "oracle",
) -> list[FrontierScalingRow]:
    """Frontier size and work vs input size, on random simplex-sampled joints.

    engine 'oracle' enumerates every partition (n capped at 13); 'greedy'
    runs the agglomerative search at epsilon = 0 (n capped at 255).
    """
    if engine not in ("oracle", "greedy"):
        raise ValueError("engine must be 'oracle' or 'greedy'")
    trials = as_integer("trials", trials)
    if trials < 1:
        raise ValueError("at least 1 trial is required")
    n_values = [as_integer("input size", n, 1) for n in n_values]
    ny = as_integer("ny", ny, 1)
    check_seed(seed)
    if engine == "oracle" and max(n_values, default=0) > MAX_EXHAUSTIVE_N:
        raise CapacityError(
            f"n = {max(n_values)} exceeds the exhaustive cap {MAX_EXHAUSTIVE_N}"
        )
    if engine == "greedy" and max(n_values, default=0) > MAX_SEARCH_N:
        raise ValueError(f"search supports at most {MAX_SEARCH_N} input symbols")
    rows = []
    for n in n_values:
        front = np.empty(trials)
        searched = np.empty(trials)
        seconds = np.empty(trials)
        for t in range(trials):
            joint = sample_simplex(n, ny, derive_seed(seed, n, t))
            t0 = time.perf_counter()
            if engine == "oracle":
                frontier = brute_force_frontier(joint)
                searched[t] = bell_number(n)
            else:
                cfg = SearchConfig(epsilon=0.0, seed=derive_seed(seed, n, t, 1))
                frontier, stats = pareto_mapper(joint, cfg)
                searched[t] = stats.points_searched
            seconds[t] = time.perf_counter() - t0
            front[t] = len(frontier)
        rows.append(
            FrontierScalingRow(
                n, float(front.mean()), float(searched.mean()), float(seconds.mean())
            )
        )
    return rows


def fit_power_law(ns, values) -> tuple[float, float]:
    """Slope and R^2 of the log-log least-squares fit value ~ n^slope."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if ns.ndim != 1 or ns.shape != values.shape or len(np.unique(ns)) < 2:
        raise ValueError(
            "a power-law fit needs one value per n, at two or more distinct n"
        )
    if not (np.all(ns > 0) and np.all(values > 0)):
        raise ValueError("a power-law fit needs positive n and values")
    slope, _, r2 = least_squares_line(np.log(ns), np.log(values))
    return slope, r2
