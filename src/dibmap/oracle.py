"""Ground truth by exhaustive enumeration, and frontier scoring against it.

Set partitions are enumerated as restricted growth strings (RGS) in
lexicographic order, so each partition of [n] is visited exactly once; the
count is the Bell number B(n). A hard cap of n = 13 (B(13) ~ 2.7e7) keeps
exhaustive runs desk-scale. A string is held only as its clusters, uint16
bitmasks of its positions, and its number of clusters. One step (_grow)
puts the next symbol in each cluster of a string in turn, then in a new
one, which keeps lex order (Knuth, TAOCP 4A, 7.2.1.5). It builds the
prefixes of all positions but the last two, a slice at a time, and then
grows each group of prefixes into a block of at most BLOCK_ROWS strings,
for every n. Label rows are built only for what leaves the module: the
final frontier, or each block enumerate_partitions yields.

Each block is screened through three tables built once per joint, one
entry per subset S of the n symbols (_subset_tables): the xlog2x terms
of S's pushed cell, their sum and S's mass term. A group's prefixes
start from the sums of their clusters' terms; each of the last two
positions grows one cluster's subset and swaps its terms for the grown
one's, O(1) per string and position (_screen). The screen drops every
row whose corner (x + delta, y + delta) the frontier so far weakly
dominates: nearly all rows of a random joint. It sums the same floats as
mapper._objectives in another order, and delta is a summation error
bound (_screen_slack), so each dropped row is dominated exactly too. The
first block meets an empty frontier, so it is screened against its own
screening values instead. The rows left are scored exactly in one batch
per cluster count m, mapper._reduce_terms of their clusters' table
terms. A cluster's table cell adds its rows to 0.0 in ascending
position, as push_forward's np.add.at does, so every partition gets the
floats the evaluators' objectives give it, exact ties included. They are
merged with the frontier so far, held as arrays, by one staircase,
which also drops the rows that frontier weakly dominates, and carries
the survivors' masks. The final frontier's label rows are checked
canonical as one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .distributions import JointPMF, xlog2x
from .encoders import Encoder
from .errors import CapacityError
from .mapper import _reduce_terms
from .pareto import ParetoPoint, ParetoSet, staircase, weakly_dominated

MAX_EXHAUSTIVE_N = 13
BLOCK_ROWS = 8192
"""Strings per enumerated block; bounds the oracle's working memory."""
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


def _grow(masks: np.ndarray, counts: np.ndarray, i: int):
    """Every RGS one symbol longer than a row of (masks, counts), in lex order.

    Bit j of masks[r, c] is set iff row r puts symbol j in cluster c, and
    counts[r] is its number of clusters. Symbol i joins each cluster of a
    row in turn, then a new one, so a lex-ordered block gives a lex-ordered
    result. Returns the grown (masks, counts), the row each grown row
    extends and the grown cluster's new mask.
    """
    choices = counts.astype(np.intp) + 1
    src = np.repeat(np.arange(len(masks)), choices)
    c = np.arange(len(src)) - (np.cumsum(choices) - choices)[src]
    masks, counts = np.take(masks, src, axis=0), np.take(counts, src)
    # flat index of each grown row's cluster c
    at = np.arange(0, masks.size, masks.shape[1]) + c
    new = np.take(masks, at) | np.uint16(1 << i)
    np.put(masks, at, new)
    counts += c == counts
    return masks, counts, src, new


def _tail(n: int) -> range:
    """The positions each group of prefixes grows: the last two, or all after
    position 0 for n < 3."""
    return range(max(1, n - 2), n)


def _rgs_groups(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every RGS of length n, in lex order, as groups of prefixes: (masks,
    counts) of the symbols before _tail(n), which that tail grows into a
    block of at most BLOCK_ROWS strings.

    The prefixes' last symbol is grown BLOCK_ROWS rows at a time, so the
    B(n - 2) prefixes are never held whole.
    """
    stop = _tail(n).start
    masks, counts = np.eye(1, n, dtype=np.uint16), np.ones(1, dtype=np.uint8)
    for i in range(1, stop - 1):
        masks, counts = _grow(masks, counts, i)[:2]
    # two more positions give a prefix of m <= n - 2 clusters m*m + 2m + 2 strings
    step = max(1, BLOCK_ROWS // ((n - 1) ** 2 + 1))
    for lo in range(0, len(masks), BLOCK_ROWS):
        pre, cnt = masks[lo : lo + BLOCK_ROWS], counts[lo : lo + BLOCK_ROWS]
        if stop > 1:
            pre, cnt = _grow(pre, cnt, stop - 1)[:2]
        for at in range(0, len(pre), step):
            yield pre[at : at + step], cnt[at : at + step]


def _labels(masks: np.ndarray) -> np.ndarray:
    """The label rows of cluster-mask rows: symbol i gets the cluster whose
    mask holds bit i."""
    labels = np.zeros(masks.shape, dtype=np.uint8)
    bits = np.uint16(1) << np.arange(masks.shape[1], dtype=np.uint16)
    for c in range(1, masks.shape[1]):
        labels += ((masks[:, c, None] & bits) != 0) * np.uint8(c)
    return labels


def _subset_tables(p: np.ndarray):
    """The xlog2x terms of the pushed cell of every subset S of the n
    symbols, as a bitmask, with their sum and S's mass term: terms (2^n,
    ny), rows and masses (2^n,).

    S's cell is S - 2^i's cell plus p[i] for S's top symbol i, so a
    cluster's rows are added to 0.0 in ascending position, as push_forward's
    np.add.at adds them: the terms of a string's cluster masks are those of
    its pushed matrix bit for bit.
    """
    n, ny = p.shape
    cells = np.zeros((1 << n, ny))
    for i in range(n):
        np.add(cells[: 1 << i], p[i], out=cells[1 << i : 2 << i])
    terms = xlog2x(cells)
    return terms, terms @ np.ones(ny), xlog2x(cells.sum(axis=1))


def _screen(masks, counts, rows: np.ndarray, masses: np.ndarray, hy: float):
    """Screening values (sx, sy) of the block a group of prefixes (masks,
    counts) grows into (see _rgs_groups), and the block's (masks, counts).
    (sx, sy) lie within _screen_slack(n, ny) of the exact objectives of
    every row r of m clusters, the mapper._objectives of its pushed matrix.

    rows and masses are _subset_tables' per-subset term sums and mass
    terms. Each prefix starts from the sums of its clusters' terms. At
    each tail position i a string that puts symbol i in cluster c grows
    that cluster's subset S to S | 2^i, and its totals swap S's terms
    for the grown subset's: O(1) per string.
    """
    row_tot = np.take(rows, masks).sum(axis=1)
    mass_tot = np.take(masses, masks).sum(axis=1)
    for i in _tail(masks.shape[1]):
        masks, counts, src, new = _grow(masks, counts, i)
        old = new ^ np.uint16(1 << i)
        row_tot = np.take(row_tot, src) - np.take(rows, old) + np.take(rows, new)
        mass_tot = np.take(mass_tot, src) - np.take(masses, old) + np.take(masses, new)
    hz, hzy = np.maximum(-mass_tot, 0.0), -row_tot
    return -hz, np.maximum(hz + hy - hzy, 0.0), masks, counts


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
    for masks, counts in _rgs_groups(n):
        for i in _tail(n):
            masks, counts = _grow(masks, counts, i)[:2]
        yield from _encoders(_labels(masks))


def brute_force_frontier(joint: JointPMF) -> ParetoSet:
    """The exact frontier: every partition evaluated, merged in lex order.

    A row whose screening corner (sx + delta, sy + delta) the frontier so
    far weakly dominates is dropped first: delta bounds the screen's error
    (_screen_slack), so that row's exact (x, y) is dominated too, and only
    the rest are scored exactly, in one mapper._reduce_terms batch per
    cluster count m <= n. That stage sums fewer terms than the screen, so
    delta still covers it, and its values are those of the evaluators'
    objectives.

    The first block meets an empty frontier. There a row r is dropped
    when a row q of the block reaches its corner at 3 delta: sx_q >=
    sx_r + 3 delta and sy_q >= sy_r + 3 delta, as rounded. Those rows
    are the ones whose corner the block's maximal screening values
    (staircase) weakly dominate. |sx_r| and |sy_r| stay below log2(n
    ny) + 1 - 3 delta, so the rounded corner errs from the exact one by
    at most 2 u (log2(n ny) + 1), u = 2^-53, while delta >= 150 u
    (log2(n ny) + 1) (gamma_N >= 5 u in _screen_slack). So sx_q > sx_r +
    2 delta and x_q >= sx_q - delta > sx_r + delta >= x_r; likewise y_q
    > y_r. So r is strictly dominated and is neither a frontier point
    nor the representative of a tie. The block's maximal rows reach no
    corner of their own, so the block keeps at least one row.

    Each block's rows follow the frontier's, which come earlier in lex
    order, and staircase keeps the first of exact duplicates, so the
    merge drops every row the frontier so far weakly dominates, and the
    points and their representatives are those of offering every
    partition to a ParetoSet in lex order. The frontier so far holds no
    two points with equal x, so keeping it in ascending x changes
    nothing.
    """
    n = joint.nx
    if n > MAX_EXHAUSTIVE_N:
        raise CapacityError(f"nx = {n} exceeds the exhaustive cap {MAX_EXHAUSTIVE_N}")
    hy = float(-xlog2x(joint.marginal_y()).sum())
    delta = _screen_slack(n, joint.ny)
    terms, rows, masses = _subset_tables(joint.p)
    xs = ys = np.empty(0)
    front = np.empty((0, n), dtype=np.uint16)
    for group in _rgs_groups(n):
        sx, sy, masks, counts = _screen(*group, rows, masses, hy)
        if len(xs):
            keep = ~weakly_dominated(xs, ys, sx + delta, sy + delta)
        else:  # the first block, against its own maximal screening values
            best = staircase(sx, sy)
            keep = ~weakly_dominated(sx[best], sy[best], sx + 3 * delta, sy + 3 * delta)
        masks, counts = masks[keep], counts[keep]
        bx, by = np.empty(len(masks)), np.empty(len(masks))
        for m in np.unique(counts).tolist():
            at = counts == m
            cl = masks[at, :m]
            bx[at], by[at] = _reduce_terms(terms[cl].reshape(len(cl), -1), masses[cl], hy)
        xs, ys = np.concatenate((xs, bx)), np.concatenate((ys, by))
        front = np.concatenate((front, masks))
        keep = staircase(xs, ys)
        xs, ys, front = xs[keep], ys[keep], front[keep]
    points = zip(xs.tolist(), ys.tolist(), _encoders(_labels(front)))
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
