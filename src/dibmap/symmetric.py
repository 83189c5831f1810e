"""Symmetric compression: one shared encoder applied to both inputs.

For a triple (X1, X2, Y) with X1 and X2 on a common domain, one encoder f
compresses both inputs at once; the objectives become
x = -H(f(X1), f(X2)) / 2 (so independent uniform inputs report the
single-input entropy) and y = I((f(X1), f(X2)); Y). The search over
encoders is identical to the plain mapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _check_pmf, save_matrix_csv, xlog2x
from .encoders import Encoder
from .errors import DimensionMismatchError, InvalidDistributionError
from .mapper import (
    SearchConfig, SearchStats, _in_slices, _objectives, _onehot, _run_search,
)
from .pareto import ParetoSet


@dataclass(frozen=True)
class TripleJointPMF:
    """A joint distribution p(x1, x2, y) with x1, x2 on one domain of size g."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 3 or p.shape[0] != p.shape[1] or p.shape[2] < 1:
            raise InvalidDistributionError("triple PMF must be a g*g*ny array")
        _check_pmf(p)
        object.__setattr__(self, "p", p)

    @property
    def g(self) -> int:
        return self.p.shape[0]

    @property
    def ny(self) -> int:
        return self.p.shape[2]


def _merged_cell_sums(q: np.ndarray, parent, i_idx, j_idx) -> np.ndarray:
    """Sum of xlog2x over the cells of each merge child of a batch of parents.

    q holds the parents' (P, m, m, k) cell arrays. Merging clusters i and j
    of q[parent] folds row j into row i and column j into column i, so only
    the cross of those rows and columns changes: each child's sum is its
    parent's minus the cross, plus the folded row and column outside the
    folded corner, plus the corner.
    """
    cell = xlog2x(q)
    row = cell.sum(axis=(2, 3))
    col = cell.sum(axis=(1, 3))
    corners = (i_idx, i_idx), (i_idx, j_idx), (j_idx, i_idx), (j_idx, j_idx)
    cross = row[parent, i_idx] + row[parent, j_idx] + col[parent, i_idx] + col[parent, j_idx]
    cross -= sum(cell[parent, a, b].sum(axis=1) for a, b in corners)

    child = np.arange(len(parent))
    fold_row = q[parent, i_idx] + q[parent, j_idx]  # (P, m, k), over columns
    fold_col = q[parent, :, i_idx] + q[parent, :, j_idx]  # (P, m, k), over rows
    corner = fold_row[child, i_idx] + fold_row[child, j_idx]
    folded = xlog2x(corner).sum(axis=1)
    for fold in (xlog2x(fold_row), xlog2x(fold_col)):
        in_corner = fold[child, i_idx] + fold[child, j_idx]
        folded += fold.sum(axis=(1, 2)) - in_corner.sum(axis=1)
    return row.sum(axis=1)[parent] - cross + folded


class _TripleEvaluator:
    """Objectives for shared-encoder compression of a fixed triple."""

    def __init__(self, triple: TripleJointPMF):
        self.p = triple.p
        self.n = triple.g
        self.hy = float(-xlog2x(self.p.sum(axis=(0, 1))).sum())

    def _cells(self, labels: np.ndarray) -> np.ndarray:
        """(P, m, m, ny) triples q[z1, z2, y] of P encoders' label strings."""
        onehot = _onehot(labels)  # (P, z, x)
        count, m, g = onehot.shape
        t = (onehot @ self.p.reshape(g, -1)).reshape(count, m, g, -1)  # (P, z1, x2, y)
        return onehot[:, None] @ t

    def objectives(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objectives of K >= 1 encoders of one cluster count, from scratch
        and path-independent: the plain objectives of each one's (m * m, ny)
        cells, with x halved."""

        def score(rows):
            q = self._cells(rows)
            xs, ys = _objectives(q.reshape(len(q), -1, q.shape[3]), self.hy)
            return xs / 2.0, ys

        return _in_slices(score, labels, self.p.size)

    def merge_objectives(self, parents: np.ndarray, parent, i_idx, j_idx):
        """Objectives of the children merging clusters i < j of parents[parent]."""
        q = self._cells(parents)
        hzy = -_merged_cell_sums(q, parent, i_idx, j_idx)
        pz = q.sum(axis=3)[..., None]
        hz = np.maximum(-_merged_cell_sums(pz, parent, i_idx, j_idx), 0.0)
        return -hz / 2.0, np.maximum(hz + self.hy - hzy, 0.0)


def symmetric_objectives(triple: TripleJointPMF, f: Encoder) -> tuple[float, float]:
    """(x, y) = (-H(f(X1), f(X2)) / 2, I((f(X1), f(X2)); Y)) for one encoder."""
    if f.n != triple.g:
        raise DimensionMismatchError(
            f"encoder domain {f.n} != triple domain {triple.g}"
        )
    # int64 labels: a domain of any size
    xs, ys = _TripleEvaluator(triple).objectives(np.array([f.assignment]))
    return float(xs[0]), float(ys[0])


def symmetric_pareto_mapper(
    triple: TripleJointPMF, cfg: SearchConfig
) -> tuple[ParetoSet, SearchStats]:
    """The agglomerative frontier search with the shared-encoder objectives."""
    return _run_search(_TripleEvaluator(triple), cfg)


def save_triple_csv(path, triple: TripleJointPMF) -> None:
    """Write a triple PMF as g^2 rows * ny columns (row index = x1*g + x2)."""
    save_matrix_csv(path, triple.p.reshape(triple.g**2, triple.ny))


def load_triple_csv(path) -> TripleJointPMF:
    """Read a triple PMF written by save_triple_csv."""
    flat = np.loadtxt(path, delimiter=",", ndmin=2)
    g = math.isqrt(flat.shape[0])
    if g * g != flat.shape[0]:
        raise InvalidDistributionError(
            f"triple CSV must have a square number of rows, got {flat.shape[0]}"
        )
    return TripleJointPMF(flat.reshape(g, g, flat.shape[1]))
