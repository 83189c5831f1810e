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
"""

from __future__ import annotations

import math
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


def _draw_clouds(kind: CopulaKind, rng, t: int, n: int):
    """Coordinates (u, v), each (t, n), of t clouds of n points.

    For independent clouds the whole u block is drawn before the v block.
    """
    if kind.tag == "gaussian":
        z = rng.standard_normal((t, n, 2))
        u = z[:, :, 0]
        return u, kind.r * u + math.sqrt(1.0 - kind.r**2) * z[:, :, 1]
    u = rng.random((t, n))
    if kind.tag == "independent":
        return u, rng.random((t, n))
    if kind.tag == "comonotone":
        return u, u
    return u, 1.0 - u


def sample_cloud(kind: CopulaKind, n: int, seed: int) -> np.ndarray:
    """Draw an (n, 2) cloud with the given dependence; deterministic per seed."""
    if n < 1:
        raise ValueError("cloud size must be at least 1")
    u, v = _draw_clouds(kind, np.random.default_rng(seed), 1, n)
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
    rec[0] = True
    if n > 1:
        rec[1:] = s[1:] > np.maximum.accumulate(s)[:-1]
    mask = np.empty(n, dtype=bool)
    mask[order] = rec[::-1]
    return mask


def pareto_size(points) -> int:
    return int(pareto_mask(points).sum())


def harmonic_number(n: int) -> float:
    """H_n = sum_{k=1..n} 1/k, the expected Pareto size of independent clouds."""
    return float(np.sum(1.0 / np.arange(1, n + 1)))


def _batch_sizes(kind: CopulaKind, n: int, trials: int, seed: int) -> np.ndarray:
    """Pareto sizes of `trials` independent n-point clouds, vectorized."""
    rng = np.random.default_rng(seed)
    sizes = np.empty(trials, dtype=np.int64)
    block = max(1, 4_000_000 // n)
    done = 0
    while done < trials:
        t = min(block, trials - done)
        u, v = _draw_clouds(kind, rng, t, n)
        idx = np.argsort(-u, axis=1)
        vs = np.take_along_axis(v, idx, axis=1)
        run = np.maximum.accumulate(vs, axis=1)
        sizes[done : done + t] = 1 + (vs[:, 1:] > run[:, :-1]).sum(axis=1)
        done += t
    return sizes


@dataclass(frozen=True)
class CloudScalingRow:
    n: int
    mean: float
    std: float


def scaling_experiment(
    kind: CopulaKind, n_values: Sequence[int], trials: int, seed: int
) -> list[CloudScalingRow]:
    """Mean and std of the Pareto-set size per cloud size, over `trials` clouds."""
    if trials < 10:
        raise ValueError("at least 10 trials are required")
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
    if trials < 1:
        raise ValueError("at least 1 trial is required")
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
    slope, _, r2 = least_squares_line(np.log(np.asarray(ns, float)), np.log(values))
    return slope, r2
