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

The batch experiment fixes its draws by blocks: a block of
max(1, DRAW_BLOCK_POINTS // N) clouds is one stretch of the PCG64 stream,
with an independent block's whole first coordinate drawn before its
second. The clouds are drawn and scanned in sub-blocks of
max(1, CLOUD_BLOCK_POINTS // N) clouds, the second coordinate of an
independent block read through a copy of the bit generator jumped ahead
with PCG64.advance. Memory is therefore bounded by CLOUD_BLOCK_POINTS
however many clouds are drawn, and the sizes are those of drawing each
whole block at once.
"""

from __future__ import annotations

import copy
import math
import operator
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._util import derive_seed, least_squares_line
from .distributions import sample_simplex
from .mapper import SearchConfig, pareto_mapper
from .oracle import bell_number, brute_force_frontier
from .pareto import pareto_mask

_TAGS = ("independent", "comonotone", "countermonotone", "gaussian")

# Clouds are drawn in blocks of max(1, DRAW_BLOCK_POINTS // n) clouds of n
# points; this layout of the PCG64 stream fixes every table.
DRAW_BLOCK_POINTS = 4_000_000
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

    The stream is laid out in blocks of max(1, DRAW_BLOCK_POINTS // n)
    clouds, and for independent clouds a block's whole u is drawn before
    its v. Each block is drawn one sub-block at a time, which gives the
    same numbers, since consecutive random and standard_normal calls
    continue one stream. An independent block's v comes from a copy of the
    PCG64 bit generator advanced past the block's u: every random() double
    takes exactly one 64-bit output. rng then skips that v itself.
    """
    block = max(1, DRAW_BLOCK_POINTS // n)
    sub = max(1, CLOUD_BLOCK_POINTS // n)
    for start in range(0, trials, block):
        t = min(block, trials - start)
        if kind.tag == "independent":
            ahead = np.random.Generator(copy.deepcopy(rng.bit_generator))
            ahead.bit_generator.advance(t * n)
        for first in range(0, t, sub):
            s = min(sub, t - first)
            if kind.tag == "gaussian":
                z = rng.standard_normal((s, n, 2))
                u = z[:, :, 0]
                v = kind.r * u + math.sqrt(1.0 - kind.r**2) * z[:, :, 1]
            else:
                u = rng.random((s, n))
                if kind.tag == "independent":
                    v = ahead.random((s, n))
                elif kind.tag == "comonotone":
                    v = u
                else:
                    v = 1.0 - u
            yield u, v
        if kind.tag == "independent":
            rng.bit_generator.advance(t * n)


def _integer(name: str, value) -> int:
    """value as an int; ValueError naming `name` unless it is an integer."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def sample_cloud(kind: CopulaKind, n: int, seed: int) -> np.ndarray:
    """Draw an (n, 2) cloud with the given dependence; deterministic per seed."""
    n = _integer("cloud size", n)
    if n < 1:
        raise ValueError("cloud size must be at least 1")
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
    n = _integer("n", n)
    if n < 0:
        raise ValueError(f"the harmonic number needs n >= 0, got {n}")
    return float(np.sum(1.0 / np.arange(1, n + 1)))


def _maxima_counts(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pareto-set size of each cloud (u[i], v[i]): the strict records of v
    met while scanning in descending u."""
    vs = np.take_along_axis(v, np.argsort(-u, axis=1), axis=1)
    run = np.maximum.accumulate(vs, axis=1)
    return 1 + (vs[:, 1:] > run[:, :-1]).sum(axis=1)


def _batch_sizes(kind: CopulaKind, n: int, trials: int, seed: int) -> np.ndarray:
    """Pareto sizes of `trials` independent n-point clouds, vectorized.

    The clouds are drawn and scanned one sub-block at a time (see
    _draw_clouds), so the working arrays stay near CLOUD_BLOCK_POINTS
    points however many clouds there are, and the sizes are those of
    drawing each DRAW_BLOCK_POINTS block at once.
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
    trials = _integer("trials", trials)
    if trials < 10:
        raise ValueError("at least 10 trials are required")
    n_values = [_integer("cloud size", n) for n in n_values]
    if any(n < 1 for n in n_values):
        raise ValueError("cloud size must be at least 1")
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
    runs the agglomerative search at epsilon = 0.
    """
    if engine not in ("oracle", "greedy"):
        raise ValueError("engine must be 'oracle' or 'greedy'")
    trials = _integer("trials", trials)
    if trials < 1:
        raise ValueError("at least 1 trial is required")
    n_values = [_integer("input size", n) for n in n_values]
    if any(n < 1 for n in n_values):
        raise ValueError("input size must be at least 1")
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
