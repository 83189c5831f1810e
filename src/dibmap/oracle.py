"""Ground truth by exhaustive enumeration, and frontier scoring against it.

Set partitions are enumerated as restricted growth strings (RGS) in
lexicographic order, so each partition of [n] is visited exactly once; the
count is the Bell number B(n). A hard cap of n = 13 (B(13) ~ 2.7e7) keeps
exhaustive runs desk-scale. The strings are streamed in uint8 blocks of at
most BLOCK_ROWS rows, for every n: all positions but the last two are
expanded at once, the last two per group of prefixes (Knuth, TAOCP 4A,
7.2.1.5).

Each block is evaluated from its prefixes. A group's prefixes are pushed
forward once, padded to n clusters, with their xlog2x terms and cluster
masses; each string gathers its prefix's and rebuilds only the one or
two clusters its last positions land in. Every cell receives the same
additions in the same order as a full push, and the reductions run over
arrays of the same shape, so the objectives equal the search's batched
plain kernel bit for bit. Each block is then merged with the frontier so
far, held as arrays, by one pareto_mask, and the final frontier's
encoders are checked canonical as one array. Block rows the frontier so
far weakly dominates, nearly all on a random joint, are dropped before
the merge by one binary search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .distributions import JointPMF, xlog2x
from .encoders import Encoder
from .errors import CapacityError
from .mapper import _push
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
    out[:, :-1] = block[src]
    out[:, -1] = np.arange(len(src)) - first[src]
    return out, src


def _rgs_groups(n: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every RGS of length n, in lex order, as blocks of at most BLOCK_ROWS.

    Yields (prefixes, src, block): the block's strings are the completions
    of a group of prefixes, and block[r] starts with prefixes[src[r]].
    """
    head = np.zeros((1, 1), dtype=np.uint8)
    while head.shape[1] < n - 2:
        head = _extend(head)[0]
    # two more positions give a prefix of m <= n - 2 clusters m*m + 2m + 2 strings
    step = max(1, BLOCK_ROWS // ((n - 1) ** 2 + 1))
    for start in range(0, len(head), step):
        prefixes = block = head[start : start + step]
        src = np.arange(len(prefixes))
        for _ in range(n - head.shape[1]):
            block, rows = _extend(block)
            src = src[rows]
        yield prefixes, src, block


def _rgs_blocks(n: int) -> Iterator[np.ndarray]:
    """Every RGS of length n, in lex order, as blocks of at most BLOCK_ROWS."""
    for _, _, block in _rgs_groups(n):
        yield block


def _block_objectives(prefixes, src, block, p: np.ndarray, hy: float):
    """mapper._objectives(_push(block, p, n), hy), bit for bit, from the
    block's prefixes (see _rgs_groups).

    The prefixes are pushed once, padded to n clusters, with their xlog2x
    terms and cluster masses. Each string gathers its prefix's, then
    rebuilds the clusters its tail positions land in: the prefix cell plus
    those tail rows, added in input order, as _push adds them. Both
    reductions run over arrays of _objectives' shape and values.
    """
    k, n = block.shape
    lead = prefixes.shape[1]
    pre = _push(prefixes, p[:lead], n)
    terms = xlog2x(pre)[src]
    marg = pre.sum(axis=2)[src]
    strings = np.arange(k)
    cells = []
    for i in range(lead, n):
        c = block[:, i]
        cell = pre[src, c]
        # a cluster an earlier tail row landed in continues from that cell
        for j, earlier in enumerate(cells, lead):
            cell = np.where((block[:, j] == c)[:, None], earlier, cell)
        cell += p[i]
        cells.append(cell)
        terms[strings, c] = xlog2x(cell)
        marg[strings, c] = cell.sum(axis=1)
    hz = np.maximum(-xlog2x(marg).sum(axis=1), 0.0)
    hzy = -terms.reshape(k, -1).sum(axis=1)
    return -hz, np.maximum(hz + hy - hzy, 0.0)


def enumerate_partitions(n: int) -> Iterator[Encoder]:
    """Every canonical partition of [n] exactly once, in lex order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_EXHAUSTIVE_N:
        raise CapacityError(f"n = {n} exceeds the exhaustive cap {MAX_EXHAUSTIVE_N}")
    for block in _rgs_blocks(n):
        for labels in block.tolist():
            yield Encoder(tuple(labels))


def brute_force_frontier(joint: JointPMF) -> ParetoSet:
    """The exact frontier: every partition evaluated, merged in lex order.

    Each block's rows follow the frontier's, which come earlier in lex
    order, and pareto_mask keeps the first of exact duplicates, so the
    points and their representatives are those of offering every
    partition to a ParetoSet in lex order; a block row the frontier so far
    weakly dominates would fall to it, so it is dropped first. The
    frontier so far holds no two points with equal x, so keeping it in
    ascending x changes nothing.
    """
    n = joint.nx
    if n > MAX_EXHAUSTIVE_N:
        raise CapacityError(f"nx = {n} exceeds the exhaustive cap {MAX_EXHAUSTIVE_N}")
    hy = float(-xlog2x(joint.marginal_y()).sum())
    xs = ys = np.empty(0)
    labels = np.empty((0, n), dtype=np.uint8)
    for prefixes, src, block in _rgs_groups(n):
        bx, by = _block_objectives(prefixes, src, block, joint.p, hy)
        live = ~weakly_dominated(xs, ys, bx, by)
        xs, ys = np.concatenate((xs, bx[live])), np.concatenate((ys, by[live]))
        labels = np.concatenate((labels, block[live]))
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
