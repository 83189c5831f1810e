"""Ground truth by exhaustive enumeration, and frontier scoring against it.

Set partitions are enumerated as restricted growth strings (RGS) in
lexicographic order, so each partition of [n] is visited exactly once; the
count is the Bell number B(n). A hard cap of n = 13 (B(13) ~ 2.7e7) keeps
exhaustive runs desk-scale. The strings are streamed in uint8 blocks of at
most BLOCK_ROWS rows, for every n: all positions but the last two are
expanded at once, the last two per group of prefixes (Knuth, TAOCP 4A,
7.2.1.5). Each block is evaluated with the search's batched plain kernel
and merged with the frontier so far, held as arrays, by one pareto_mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .distributions import JointPMF, xlog2x
from .encoders import Encoder
from .errors import CapacityError
from .mapper import _objectives, _push
from .pareto import ParetoPoint, ParetoSet, pareto_mask

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


def _extend(block: np.ndarray) -> np.ndarray:
    """Every RGS one longer than a string of the block, in lex order.

    Each string is followed by 0 .. 1 + its maximum, so a lex-ordered block
    gives a lex-ordered result.
    """
    choices = block.max(axis=1).astype(np.intp) + 2
    src = np.repeat(np.arange(len(block)), choices)
    first = np.cumsum(choices) - choices
    out = np.empty((len(src), block.shape[1] + 1), dtype=np.uint8)
    out[:, :-1] = block[src]
    out[:, -1] = np.arange(len(src)) - first[src]
    return out


def _rgs_blocks(n: int) -> Iterator[np.ndarray]:
    """Every RGS of length n, in lex order, as blocks of at most BLOCK_ROWS."""
    head = np.zeros((1, 1), dtype=np.uint8)
    while head.shape[1] < n - 2:
        head = _extend(head)
    # two more positions give a prefix of m <= n - 2 clusters m*m + 2m + 2 strings
    step = max(1, BLOCK_ROWS // ((n - 1) ** 2 + 1))
    for start in range(0, len(head), step):
        block = head[start : start + step]
        for _ in range(n - head.shape[1]):
            block = _extend(block)
        yield block


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
    partition to a ParetoSet in lex order.
    """
    n = joint.nx
    if n > MAX_EXHAUSTIVE_N:
        raise CapacityError(f"nx = {n} exceeds the exhaustive cap {MAX_EXHAUSTIVE_N}")
    hy = float(-xlog2x(joint.marginal_y()).sum())
    xs = ys = np.empty(0)
    labels = np.empty((0, n), dtype=np.uint8)
    for block in _rgs_blocks(n):
        bx, by = _objectives(_push(block, joint.p, n), hy)
        xs, ys = np.concatenate((xs, bx)), np.concatenate((ys, by))
        labels = np.concatenate((labels, block))
        keep = pareto_mask(np.column_stack((xs, ys)))
        xs, ys, labels = xs[keep], ys[keep], labels[keep]
    order = np.argsort(xs)
    points = zip(xs[order].tolist(), ys[order].tolist(), labels[order].tolist())
    return ParetoSet(ParetoPoint(x, y, encoder=Encoder(tuple(r))) for x, y, r in points)


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
