"""Sorted two-objective Pareto frontier with log-time optimality checks.

Points live in the (x, y) plane with both objectives maximized; the search
stores x = -H(Z) and y = I(Z; Y), both in bits. The container keeps points
sorted strictly ascending in x with strictly descending y, and x and y in
two float lists, so an optimality query is a single binary search and an
insertion evicts a contiguous run of newly dominated points.

Dominance is weak with strict rejection of exact duplicates: a point equal
to a stored point in both coordinates is not optimal, so one representative
per objective pair is kept (first arrival wins). staircase finds the
maximal points of a whole batch by the same rule, and weakly_dominated
answers is_optimal for a batch of probes against such a staircase, for the
search's offer screen and the oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

if TYPE_CHECKING:
    from .encoders import Encoder


@dataclass
class ParetoPoint:
    """One evaluated encoder: objectives, optional uncertainties and encoder."""

    x: float
    y: float
    dx: Optional[float] = None
    dy: Optional[float] = None
    encoder: Optional[Encoder] = None


class ParetoSet:
    """The maintained frontier of mutually non-dominated points."""

    def __init__(self, points: Optional[Iterator[ParetoPoint]] = None):
        self._xs: list[float] = []
        self._ys: list[float] = []
        self._points: list[ParetoPoint] = []
        if points is not None:
            for p in points:
                self.add(p)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[ParetoPoint]:
        return iter(self._points)

    def __getitem__(self, i: int) -> ParetoPoint:
        return self._points[i]

    @property
    def points(self) -> list[ParetoPoint]:
        return list(self._points)

    def objectives(self) -> np.ndarray:
        """The frontier as an (m, 2) array of (x, y) rows, ascending in x."""
        return np.column_stack((self._xs, self._ys))

    def is_optimal(self, x: float, y: float) -> bool:
        """True iff no stored point has both coordinates >= (x, y).

        Binary search: the stored points with x' >= x have their largest y
        first, so only one comparison is needed.
        """
        i = bisect_left(self._xs, x)
        return i == len(self._xs) or self._ys[i] < y

    def add(self, p: ParetoPoint) -> bool:
        """Insert p if optimal, evicting the points it weakly dominates.

        Returns True iff p was inserted; the set is unchanged otherwise.
        """
        i = bisect_left(self._xs, p.x)
        if i < len(self._xs) and self._ys[i] >= p.y:
            return False
        # Newly dominated points sit contiguously left of the insertion slot
        # (x' < x and y' <= y), plus an equal-x point which must have smaller y.
        k = i
        while k > 0 and self._ys[k - 1] <= p.y:
            k -= 1
        end = i + 1 if i < len(self._xs) and self._xs[i] == p.x else i
        if k < end:
            del self._xs[k:end]
            del self._ys[k:end]
            del self._points[k:end]
        self._xs.insert(k, p.x)
        self._ys.insert(k, p.y)
        self._points.insert(k, p)
        return True

    def distance(self, x: float, y: float) -> float:
        """Minimum Euclidean displacement of (x, y) before it would be optimal.

        Zero for optimal points (and for points exactly on the dominated
        region's boundary). A dominated point exits the region either
        straight up through the first ceiling above it, straight right
        through the last wall at height >= y, or diagonally through one of
        the staircase's inner corners; the minimum is taken over all exits,
        walking right only while the wall is closer than the best exit found.
        """
        i = bisect_left(self._xs, x)
        m = len(self._xs)
        if i == m or self._ys[i] < y:
            return 0.0
        d = self._ys[i] - y
        k = i
        while k < m and self._xs[k] - x < d:
            if k + 1 < m and self._ys[k + 1] >= y:
                d = min(d, math.hypot(self._xs[k] - x, self._ys[k + 1] - y))
                k += 1
            else:
                d = min(d, self._xs[k] - x)
                break
        return d


def weakly_dominated(fx, fy, xs, ys) -> np.ndarray:
    """Mask of the probes (xs, ys) that a point of the frontier (fx, fy),
    fx ascending and fy descending strictly, is >= in both coordinates:
    of the points with x' >= x the first has the largest y."""
    i = np.searchsorted(fx, xs, side="left")
    # a -inf sentinel keeps i in range where no point lies right of x
    return (i < len(fx)) & (np.append(fy, -math.inf)[i] >= ys)


def staircase(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Indices of the maximal points of (xs, ys) (no other point >= in both
    coordinates), ascending in x, so descending in y strictly.

    Sort-based filter: scan in descending x and keep strict records of y.
    The sort is stable, so of exact duplicates only the first in input
    order is kept, as ParetoSet's first arrival is.
    """
    order = np.lexsort((-ys, -xs))
    v = ys[order]
    rec = np.empty(len(v), dtype=bool)
    rec[:1] = True
    rec[1:] = v[1:] > np.maximum.accumulate(v)[:-1]
    return order[rec][::-1]


def pareto_mask(points) -> np.ndarray:
    """Boolean mask of maximal points (no other point >= in both
    coordinates), by staircase's rule: of exact duplicates only the first
    in input order is kept."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    mask = np.zeros(len(pts), dtype=bool)
    mask[staircase(pts[:, 0], pts[:, 1])] = True
    return mask
