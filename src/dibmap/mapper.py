"""Epsilon-greedy agglomerative frontier search plus frontier post-processing.

The search starts from the identity clustering and explores the merge
lattice one level at a time. Every merge child has exactly one cluster
fewer than its parent, so a level holds clusterings of a single cluster
count, and one partition can be reached twice only within one level. Each
child of a level is evaluated on the objective plane, offered to the
maintained frontier, and kept as a parent of the next level with
probability exp(-d / epsilon), where d is the child's distance to the
frontier *before* it is offered. epsilon = 0 degenerates to a greedy
search that keeps only the children that enter the frontier (not those
tying it on a wall of its staircase, where d is also 0); an infinite
epsilon keeps everything (brute force).

A level's children are held as one uint8 array of canonical labels, built
in one pass. One np.unique drops later occurrences of a partition, and the
evaluator's merge_objectives computes the survivors' objectives from their
parents' pushed-forward arrays, updating only the cells each merge touches,
in parent-aligned slices of about CHUNK_CHILDREN children. Frontier offers
stay strictly sequential in (parent, merge pair) order, the order of a
breadth-first queue, and so do the random draws.
The batched values depend on the merge path in their last bits, so a
child within INFO_TOL of the frontier is evaluated again from scratch, and
the offer is decided on that path-independent value: one partition, or
two with equal objectives, never becomes several frontier points.
Clusterings travel as rows of that array; a child's labels become a byte
string only when it is evaluated again, and an Encoder only when it enters
the frontier.

Most children are far inside the dominated region, so each block of
OFFER_BLOCK children is first tested against a snapshot of the frontier in
one batched query. A child is skipped when its corner (x + r, y + r) is
dominated; its reach r (see _reach) makes such a child provably one the
offer would neither re-evaluate nor admit, and fixes its keep decision:
dropped below an infinite epsilon, kept at it. The dominated region only
grows during a search, so a corner dominated by the snapshot is dominated
at offer time too, and skipping these children leaves the frontier, the
counters and the random draws exactly as offering them would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import INFO_TOL, JointPMF, xlog2x
from .encoders import Encoder
from .pareto import ParetoPoint, ParetoSet

CHUNK_CHILDREN = 1 << 16
"""Merge children per merge_objectives call; bounds the kernel's working arrays."""

OFFER_BLOCK = 256
"""Children tested against one frontier snapshot before they are offered."""


@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs for one search run.

    epsilon is the search depth scale in bits (math.inf for brute force).
    """

    epsilon: float
    seed: int

    def __post_init__(self):
        if not self.epsilon >= 0:  # also rejects NaN
            raise ValueError("epsilon must be >= 0")


@dataclass
class SearchStats:
    """Work counters for one run, deterministic for a fixed config.

    points_searched counts objective evaluations actually consumed (one per
    offered child plus the identity); every canonical partition is counted
    at most once. enqueued counts the clusterings kept as parents, the
    identity included.
    """

    points_searched: int
    enqueued: int


def enqueue_probability(d: float, epsilon: float) -> float:
    """exp(-d / epsilon), with the greedy and brute-force limits.

    epsilon = 0 returns 1 for d = 0 and 0 otherwise; an infinite epsilon
    always returns 1. The greedy search does not call this at epsilon = 0:
    it keeps only the children that enter the frontier, not the wall ties
    that also have d = 0.
    """
    if not d >= 0:  # also rejects NaN
        raise ValueError("distance must be >= 0")
    if not epsilon >= 0:
        raise ValueError("epsilon must be >= 0")
    if math.isinf(epsilon):
        return 1.0
    if epsilon == 0.0:
        return 1.0 if d == 0.0 else 0.0
    return math.exp(-d / epsilon)


def _reach(draws: np.ndarray, epsilon: float) -> np.ndarray:
    """Per child, a distance r such that a child whose corner (x + r, y + r)
    is dominated by the frontier is neither re-evaluated, entered nor, for
    epsilon < inf, kept; at epsilon = inf it is kept.

    The dominated region is a down-set, so a dominated corner puts every
    exit of the staircase from (x, y) at least r away: distance() returns r
    less a few ulps of the coordinates, far inside INFO_TOL. With r >= 2 *
    INFO_TOL that is d > INFO_TOL, so the child is not evaluated again and,
    as d != 0, does not enter; at epsilon = 0 it is dropped, and at epsilon
    = inf it is kept, since every draw is below 1. For 0 < epsilon < inf
    the child is dropped when draw >= exp(-d / epsilon). Here d / epsilon
    >= -ln(draw) + 1e-12, so exp(-d / epsilon) lies at least a relative
    1e-12 below the draw, while computing it errs by a few ulps (draws are
    at least 2^-53, so -ln(draw) <= 37). A zero draw gives r = inf and is
    never filtered.
    """
    if epsilon == 0.0 or math.isinf(epsilon):
        return np.full(len(draws), 2 * INFO_TOL)
    with np.errstate(divide="ignore"):
        return 2 * INFO_TOL + epsilon * (1e-12 - np.log(draws))


def _merge_children(parents: np.ndarray, i_idx: np.ndarray, j_idx: np.ndarray) -> np.ndarray:
    """Canonical labels of every merge child, parent-major, then in pair order.

    Because a parent is canonical, uniting clusters i < j relabels as:
    j -> i, labels above j shift down by one, everything else unchanged.
    The arithmetic stays in uint8, so a level costs one byte per label.
    """
    a = parents[:, None, :]
    i = i_idx.astype(np.uint8)[:, None]
    j = j_idx.astype(np.uint8)[:, None]
    return np.where(a == j, i, a - (a > j)).reshape(-1, parents.shape[1])


def _onehot(labels: np.ndarray) -> np.ndarray:
    """(P, m, n) cluster-membership indicators of P label strings."""
    p, n = labels.shape
    out = np.zeros((p, int(labels.max()) + 1, n))
    out[np.arange(p)[:, None], labels, np.arange(n)] = 1.0
    return out


def _push(labels: np.ndarray, rows: np.ndarray, m: int) -> np.ndarray:
    """(K, m, ny) pushed-forward matrices of K label strings.

    rows is one (n, ny) joint shared by every string, or K joints as a
    (K, n, ny) array. Each cluster's rows are summed in input order, the
    arithmetic of push_forward's np.add.at, so the results agree bit for bit.
    """
    k, n = labels.shape
    out = np.zeros((k, m, rows.shape[-1]))
    strings = np.arange(k)
    for i in range(n):
        out[strings, labels[:, i]] += rows[..., i, :]
    return out


def _objectives(pushed: np.ndarray, hy):
    """Batched (-H(Z), I(Z;Y)) of (K, m, ny) pushed matrices; hy is H(Y),
    one value or one per matrix. All-zero clusters contribute nothing."""
    hz = np.maximum(-xlog2x(pushed.sum(axis=2)).sum(axis=1), 0.0)
    hzy = -xlog2x(pushed.reshape(len(pushed), -1)).sum(axis=1)
    return -hz, np.maximum(hz + hy - hzy, 0.0)


def _merged_row_sums(q: np.ndarray, parent, i_idx, j_idx) -> np.ndarray:
    """Sum of xlog2x over the cells of each merge child of a batch of parents.

    q holds the parents' (P, m, k) rows. Merging clusters i and j of
    q[parent] folds row j into row i, so each child's sum is its parent's
    with those two rows' contributions swapped for the fold's.
    """
    row = xlog2x(q).sum(axis=2)
    fold = xlog2x(q[parent, i_idx] + q[parent, j_idx]).sum(axis=1)
    return row.sum(axis=1)[parent] - row[parent, i_idx] - row[parent, j_idx] + fold


def _sorted_sum(terms: np.ndarray) -> float:
    """Sum in ascending order, so equal multisets of terms give equal floats."""
    return float(np.sort(terms, axis=None).sum())


class _JointEvaluator:
    """(x, y) = (-H(f(X)), I(f(X); Y)) for clusterings of a fixed joint."""

    def __init__(self, joint: JointPMF):
        self.rows = joint.p
        self.n = joint.nx
        self.hy = float(-xlog2x(joint.marginal_y()).sum())

    def evaluate(self, labels) -> tuple[float, float]:
        """Objectives of one clustering, from scratch and path-independent."""
        idx = np.frombuffer(bytes(labels), dtype=np.uint8)
        pushed = np.zeros((int(idx.max()) + 1, self.rows.shape[1]))
        np.add.at(pushed, idx, self.rows)
        hz = max(0.0, -_sorted_sum(xlog2x(pushed.sum(axis=1))))
        hzy = -_sorted_sum(xlog2x(pushed))
        return -hz, max(0.0, hz + self.hy - hzy)

    def merge_objectives(self, parents: np.ndarray, parent, i_idx, j_idx):
        """Objectives of the children merging clusters i < j of parents[parent].

        The parents' pushed-forward matrices are built as one (P, m, ny)
        array; H(Z, Y) folds its rows and H(Z) the rows of its (P, m, 1)
        cluster masses.
        """
        pushed = _onehot(parents) @ self.rows
        hzy = -_merged_row_sums(pushed, parent, i_idx, j_idx)
        pz = pushed.sum(axis=2)[..., None]
        hz = np.maximum(-_merged_row_sums(pz, parent, i_idx, j_idx), 0.0)
        return -hz, np.maximum(hz + self.hy - hzy, 0.0)


def _run_search(evaluator, cfg: SearchConfig) -> tuple[ParetoSet, SearchStats]:
    """The level-synchronous search loop shared by the plain and symmetric mappers."""
    n = evaluator.n
    if n > 255:
        raise ValueError("search supports at most 255 input symbols")
    rng = np.random.default_rng(cfg.seed)
    epsilon = cfg.epsilon
    greedy = epsilon == 0.0
    brute = math.isinf(epsilon)
    frontier = ParetoSet()

    level = np.arange(n, dtype=np.uint8)[None]  # the identity clustering
    x0, y0 = evaluator.evaluate(level[0])
    frontier.add(ParetoPoint(x0, y0, encoder=Encoder(tuple(range(n)))))
    searched = 1
    enqueued = 1

    evaluate = evaluator.evaluate
    dominated = frontier.dominated
    distance = frontier.distance
    is_optimal = frontier.is_optimal
    add = frontier.add

    m = n  # cluster count of every parent in the level
    while len(level) and m > 1:
        i_idx, j_idx = np.triu_indices(m, k=1)
        children = _merge_children(level, i_idx, j_idx)
        # first occurrence of each partition
        _, new = np.unique(children.view(f"V{n}").ravel(), return_index=True)
        new.sort()
        draws = rng.random(len(children))[new]  # one draw per child, in pair order
        parent, pair = np.divmod(new, len(i_idx))
        # the kernel sees parent-aligned slices of about CHUNK_CHILDREN children
        step = max(1, CHUNK_CHILDREN // len(i_idx))
        starts = range(0, len(level), step)
        cuts = np.searchsorted(parent, [*starts, len(level)])
        xs, ys = map(np.concatenate, zip(*(
            evaluator.merge_objectives(
                level[s : s + step], parent[a:b] - s, i_idx[pair[a:b]], j_idx[pair[a:b]]
            )
            for s, a, b in zip(starts, cuts[:-1], cuts[1:])
        )))
        reach = _reach(draws, epsilon)
        searched += len(new)
        # a child the snapshot test drops keeps this verdict (see _reach)
        keep = np.full(len(new), brute)
        for lo in range(0, len(new), OFFER_BLOCK):
            hi = lo + OFFER_BLOCK
            r = reach[lo:hi]
            # the frontier only grows, so this snapshot's verdicts hold for
            # the whole block
            live = lo + np.flatnonzero(~dominated(xs[lo:hi] + r, ys[lo:hi] + r))
            for k, c, x, y, draw in zip(
                live.tolist(), new[live].tolist(), xs[live].tolist(), ys[live].tolist(),
                draws[live].tolist(),
            ):
                d = distance(x, y)
                if d <= INFO_TOL:  # a tie may hinge on the path-dependent last bits
                    x, y = evaluate(children[c])
                    d = distance(x, y)
                entered = d == 0.0 and is_optimal(x, y)
                if entered:
                    add(ParetoPoint(x, y, encoder=Encoder(tuple(children[c].tolist()))))
                # at epsilon = 0, d is also 0 on the walls: keep entries only
                keep[k] = entered if greedy else draw < enqueue_probability(d, epsilon)
        level = children[new[keep]]
        enqueued += len(level)
        m -= 1

    return frontier, SearchStats(searched, enqueued)


def pareto_mapper(joint: JointPMF, cfg: SearchConfig) -> tuple[ParetoSet, SearchStats]:
    """Map the full frontier of -H(f(X)) vs I(f(X); Y) over hard clusterings.

    Returns the frontier (points carry their encoders) and search counters.
    Deterministic for a fixed config.
    """
    return _run_search(_JointEvaluator(joint), cfg)


def dmc_points(frontier: ParetoSet) -> list[ParetoPoint]:
    """Best stored point for each occurring cluster count, ascending in count.

    These are the frontier's representatives of the coarser trade-off
    between I(Z; Y) and the number of clusters.
    """
    best: dict[int, ParetoPoint] = {}
    for p in frontier:
        if p.encoder is None:
            raise ValueError("dmc_points requires points with stored encoders")
        cur = best.get(p.encoder.m)
        if cur is None or p.y > cur.y:
            best[p.encoder.m] = p
    return [best[m] for m in sorted(best)]


def upper_hull(frontier) -> list[ParetoPoint]:
    """The subset of points lying on the upper concave envelope.

    These are the points a Lagrangian optimizer could find. Accepts a
    ParetoSet or any sequence of points sorted ascending in x. Points
    exactly on a hull edge (collinear runs) are retained; endpoints always
    are.
    """
    pts = list(frontier)
    if len(pts) <= 2:
        return pts
    hull: list[ParetoPoint] = []
    for c in pts:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x)
            if cross > 0:  # b strictly below chord a--c
                hull.pop()
            else:
                break
        hull.append(c)
    return hull
