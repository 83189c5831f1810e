"""Ground truth by exhaustive enumeration, and frontier scoring against it.

Set partitions are enumerated as restricted growth strings (RGS) in
lexicographic order, so each partition of [n] is visited exactly once; the
count is the Bell number B(n). A hard cap of n = 13 (B(13) ~ 2.7e7) keeps
exhaustive runs desk-scale. The strings are streamed in uint8 blocks of at
most BLOCK_ROWS rows, for every n: all positions but the last two are
expanded at once, the last two per group of prefixes (Knuth, TAOCP 4A,
7.2.1.5).

Each block is screened through three tables built once per joint, one
entry per subset S of the n symbols (_subset_tables): S's pushed cell, its
sum of xlog2x terms and its mass term. A string's clusters are uint16
bitmasks of its positions. A group's prefixes start from the sums of
their clusters' terms; each later position grows one cluster's subset
and swaps its terms for the grown one's, O(1) per string and position
(_screen). The screen drops every row whose corner (x + delta, y + delta)
the frontier so far weakly dominates: nearly all rows of a random joint.
It sums the same floats as mapper._objectives in another order, and delta
is a summation error bound (_screen_slack), so each dropped row is
dominated exactly too. The rows left are scored exactly in one batch per
cluster count m, mapper._objectives of their clusters' table cells: these
are the cells _push gives, bit for bit, so every partition gets the floats
the search's evaluate gives it, exact ties included. They are merged with
the frontier so far, held as arrays, by one pareto_mask, which also drops
the rows that frontier weakly dominates. The final frontier's encoders are
checked canonical as one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .distributions import JointPMF, xlog2x
from .encoders import Encoder
from .errors import CapacityError
from .mapper import _objectives
from .pareto import ParetoPoint, ParetoSet, pareto_mask, weakly_dominated

MAX_EXHAUSTIVE_N = 13
BLOCK_ROWS = 8192
"""Label strings per enumerated block; bounds the oracle's working memory."""
SCORE_BLOCK = 256
"""Candidate points per precision_recall comparison; bounds its memory."""


def bell_number(n: int) -> int:
    """B(n), the number of partitions of an n-element set (Bell triangle)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _extend(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every RGS one longer than a string of the block, in lex order, and
    the index of the string each one extends.

    Each string is followed by 0 .. 1 + its maximum, so a lex-ordered block
    gives a lex-ordered result.
    """
    choices = block.max(axis=1).astype(np.intp) + 2
    src = np.repeat(np.arange(len(block)), choices)
    first = np.cumsum(choices) - choices
    out = np.empty((len(src), block.shape[1] + 1), dtype=np.uint8)
    out[:, :-1] = np.take(block, src, axis=0)
    out[:, -1] = np.arange(len(src)) - first[src]
    return out, src


def _rgs_groups(n: int) -> Iterator[tuple[list[np.ndarray], list[np.ndarray]]]:
    """Every RGS of length n, in lex order, as blocks of at most BLOCK_ROWS.

    Yields (levels, srcs): levels[0] is a group of prefixes, each later
    level every string one longer than a string of the level before, and
    levels[-1] the block; levels[j + 1][r] extends levels[j][srcs[j][r]].
    For n >= 3 the levels hold n - 2, n - 1 and n labels.
    """
    head = np.zeros((1, 1), dtype=np.uint8)
    while head.shape[1] < n - 2:
        head = _extend(head)[0]
    # two more positions give a prefix of m <= n - 2 clusters m*m + 2m + 2 strings
    step = max(1, BLOCK_ROWS // ((n - 1) ** 2 + 1))
    for start in range(0, len(head), step):
        levels, srcs = [head[start : start + step]], []
        for _ in range(n - head.shape[1]):
            level, src = _extend(levels[-1])
            levels.append(level)
            srcs.append(src)
        yield levels, srcs


def _rgs_blocks(n: int) -> Iterator[np.ndarray]:
    """Every RGS of length n, in lex order, as blocks of at most BLOCK_ROWS."""
    for levels, _ in _rgs_groups(n):
        yield levels[-1]


def _subset_tables(p: np.ndarray):
    """The pushed cell of every subset S of the n symbols, as a bitmask,
    with its sum of xlog2x terms and its mass term: cells (2^n, ny), rows
    and masses (2^n,).

    cells[S] is cells[S - 2^i] + p[i] for S's top symbol i, so a cluster's
    rows are added in ascending position from 0.0, as _push adds them: the
    cells of a string's cluster masks are its _push cells bit for bit.
    """
    n, ny = p.shape
    cells = np.zeros((1 << n, ny))
    for i in range(n):
        np.add(cells[: 1 << i], p[i], out=cells[1 << i : 2 << i])
    return cells, xlog2x(cells) @ np.ones(ny), xlog2x(cells.sum(axis=1))


def _screen(levels, srcs, rows: np.ndarray, masses: np.ndarray, hy: float):
    """Screening values (sx, sy) of a group's block (see _rgs_groups), and
    the block's cluster masks: bit i of masks[r, c] is set iff row r puts
    symbol i in cluster c. (sx, sy) lie within _screen_slack(n, ny) of the
    exact objectives of every row of m clusters,
    mapper._objectives(cells[masks[r, :m]], hy).

    rows and masses are _subset_tables' per-subset terms. Each prefix
    starts from the sums of its clusters' terms. At each later position i
    a string that lands in cluster c grows that cluster's subset S to
    S | 2^i, and its totals swap S's terms for the grown subset's: O(1) per
    string.
    """
    pre = levels[0]
    k, n = len(pre), levels[-1].shape[1]
    # a prefix cluster's mask is the sum of its positions' bits
    at = np.arange(0, k * n, n)[:, None] + pre
    bits = np.broadcast_to(np.ldexp(1.0, np.arange(pre.shape[1])), pre.shape)
    masks = np.bincount(at.ravel(), bits.ravel(), k * n).astype(np.uint16).reshape(k, n)
    row_tot = np.take(rows, masks).sum(axis=1)
    mass_tot = np.take(masses, masks).sum(axis=1)
    for i, (src, level) in enumerate(zip(srcs, levels[1:]), pre.shape[1]):
        masks = np.take(masks, src, axis=0)
        row_tot, mass_tot = np.take(row_tot, src), np.take(mass_tot, src)
        # flat index of each string's cluster at position i
        at = np.arange(0, masks.size, n) + level[:, i]
        old = np.take(masks, at)
        new = old | np.uint16(1 << i)
        np.put(masks, at, new)
        row_tot = row_tot - np.take(rows, old) + np.take(rows, new)
        mass_tot = mass_tot - np.take(masses, old) + np.take(masses, new)
    hz, hzy = np.maximum(-mass_tot, 0.0), -row_tot
    return -hz, np.maximum(hz + hy - hzy, 0.0), masks


def _screen_slack(n: int, ny: int) -> float:
    """A bound on |sx - x| and |sy - y| over the strings of an n x ny joint
    (see _screen).

    The screen and mapper._objectives sum the same floats, xlog2x of the
    same cells and of the same masses; only the order of the sums differs.
    The exact stage scores each row at its own c <= n clusters, so its sums
    have at most n ny terms, and the bound below, with N only shrinking,
    covers them too. Each screen sum adds at most N = (n + 4) ny terms t:
    the table terms of the prefix's n cluster subsets (empty ones add
    zeros), the two replaced subsets' subtracted and the two grown ones'
    added. Any order
    of summing N terms errs from their exact sum by at most
    gamma_N sum |t|, gamma_N = N u / (1 - N u), u = 2^-53 (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., section 4.2). Those
    terms come in at most five groups, each of m <= n ny cells or masses
    of total mass s <= 1, and sum -q log2 q <= s log2(m / s) <= log2 m + 1
    (Jensen), so sum |t| <= A = 5 (log2(n ny) + 1) for every sum. Both
    share the exact sums, and max(., 0) is 1-Lipschitz, so
    |sx - x| <= 2 gamma_N A. y adds two roundings per side, of values at
    most A: |sy - y| <= 4 gamma_N A + 4 u A. As N >= 5, gamma_N >= 5 u, so
    6 gamma_N A also covers the float terms' own rounding and that of the
    corner sx + delta.
    """
    terms = (n + 4) * ny
    u = 2.0**-53
    gamma = terms * u / (1 - terms * u)
    return 6 * gamma * 5 * (math.log2(n * ny) + 1)


def enumerate_partitions(n: int) -> Iterator[Encoder]:
    """Every canonical partition of [n] exactly once, in lex order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_EXHAUSTIVE_N:
        raise CapacityError(f"n = {n} exceeds the exhaustive cap {MAX_EXHAUSTIVE_N}")
    for block in _rgs_blocks(n):
        yield from _encoders(block)


def brute_force_frontier(joint: JointPMF) -> ParetoSet:
    """The exact frontier: every partition evaluated, merged in lex order.

    A row whose screening corner (sx + delta, sy + delta) the frontier so
    far weakly dominates is dropped first: delta bounds the screen's error
    (_screen_slack), so that row's exact (x, y) is dominated too, and only
    the rest are scored exactly, in one mapper._objectives batch per cluster
    count m <= n. That stage sums fewer terms than the screen, so delta
    still covers it, and its values are those of the search's evaluate.
    Each block's rows follow the frontier's,
    which come earlier in lex order, and pareto_mask keeps the first of
    exact duplicates, so the merge drops every row the frontier so far
    weakly dominates, and the points and their representatives are those
    of offering every partition to a ParetoSet in lex order. The frontier
    so far holds no two points with equal x, so keeping it in ascending x
    changes nothing.
    """
    n = joint.nx
    if n > MAX_EXHAUSTIVE_N:
        raise CapacityError(f"nx = {n} exceeds the exhaustive cap {MAX_EXHAUSTIVE_N}")
    hy = float(-xlog2x(joint.marginal_y()).sum())
    delta = _screen_slack(n, joint.ny)
    cells, rows, masses = _subset_tables(joint.p)
    xs = ys = np.empty(0)
    labels = np.empty((0, n), dtype=np.uint8)
    for levels, srcs in _rgs_groups(n):
        sx, sy, masks = _screen(levels, srcs, rows, masses, hy)
        keep = ~weakly_dominated(xs, ys, sx + delta, sy + delta)
        block, masks = levels[-1][keep], masks[keep]
        bx, by = np.empty(len(block)), np.empty(len(block))
        ms = block.max(axis=1) + 1
        for m in np.unique(ms).tolist():
            at = ms == m
            bx[at], by[at] = _objectives(cells[masks[at, :m]], hy)
        xs, ys = np.concatenate((xs, bx)), np.concatenate((ys, by))
        labels = np.concatenate((labels, block))
        keep = np.flatnonzero(pareto_mask(np.column_stack((xs, ys))))
        # ascending x, so the next pareto_mask sorts mostly sorted rows
        keep = keep[np.argsort(xs[keep], kind="stable")]
        xs, ys, labels = xs[keep], ys[keep], labels[keep]
    points = zip(xs.tolist(), ys.tolist(), _encoders(labels))
    return ParetoSet(ParetoPoint(x, y, encoder=e) for x, y, e in points)


def _encoders(labels: np.ndarray) -> list[Encoder]:
    """One Encoder per label row, the canonical form checked once for all:
    each row starts at 0 and no label exceeds 1 + the maximum before it."""
    top = np.maximum.accumulate(labels, axis=1).astype(np.intp)
    if labels[:, 0].any() or (labels[:, 1:] > top[:, :-1] + 1).any():
        raise ValueError("label rows are not in first-occurrence canonical form")
    ms = (top[:, -1] + 1).tolist()
    return [Encoder._prechecked(r, m) for r, m in zip(zip(*labels.T.tolist()), ms)]


@dataclass(frozen=True)
class FrontierScore:
    """Match counts of a candidate frontier against the true one."""

    points: int
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float


def precision_recall(
    candidate: ParetoSet, truth: ParetoSet, tol: float = 1e-9
) -> FrontierScore:
    """Score a candidate frontier: a point is a true positive iff some truth
    point matches both coordinates within tol.

    Both sets ascend in x, so each block of SCORE_BLOCK candidates is
    compared only with the band of truth points whose x lies within 2 * tol
    of the block's x-range. A rounded |dx| <= tol implies an exact |dx| <
    2 * tol, so the band holds every match, and the test inside it is the
    exact one.
    """
    if not 0 <= tol < math.inf:  # also rejects NaN
        raise ValueError("tolerance must be finite and >= 0")
    cand = candidate.objectives()
    true = truth.objectives()
    found = np.zeros(len(true), dtype=bool)
    tp = 0
    for lo in range(0, len(cand), SCORE_BLOCK):
        block = cand[lo : lo + SCORE_BLOCK]
        a = np.searchsorted(true[:, 0], block[0, 0] - 2 * tol, side="left")
        b = np.searchsorted(true[:, 0], block[-1, 0] + 2 * tol, side="right")
        close = (np.abs(block[:, None, 0] - true[None, a:b, 0]) <= tol) & (
            np.abs(block[:, None, 1] - true[None, a:b, 1]) <= tol
        )
        tp += int(close.any(axis=1).sum())
        found[a:b] |= close.any(axis=0)
    fn = int((~found).sum())
    points = len(cand)
    precision = tp / points if points else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    return FrontierScore(points, tp, points - tp, fn, precision, recall)
