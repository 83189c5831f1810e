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

A level is one uint8 array of its parents' canonical labels; its children
are never built as a whole. Each child (parent, merge pair) gets an exact
integer key computed from its parent row alone (see _child_keys), and
one sort of the keys keeps each partition's first occurrence. The
evaluator's merge_objectives computes the survivors' objectives from their
parents' sums, in parent-aligned slices of about CHUNK_CHILDREN children:
a child's change to H(Z, Y) and H(Z) depends only on the two clusters it
unites, so the plain kernel pushes each distinct cluster of a slice's
parents once and folds each distinct pair of them once. Frontier offers
stay strictly sequential in (parent, merge pair) order, the order of a
breadth-first queue, and so do the random draws.
The batched values depend on the merge path in their last bits, so a child
that can land within INFO_TOL of the frontier is offered on its objectives
from scratch, a path-independent value: one partition, or two with equal
multisets of cells, never becomes several frontier points. The children of
a level that its screen (below) leaves within reach of that distance, its
near children, are scored from scratch together, in one call of the
evaluator's objectives per level, before any of them is offered, and that
value replaces their merge-path one. Every other child keeps its merge-path
value and lies more than INFO_TOL inside the dominated region, so it cannot
enter and is not offered to the frontier's add. Each child is decided on
one (x, y): a near child is offered to add once, and at 0 < epsilon < inf
a child that does not enter asks its distance once, for its keep draw. A
child's labels are built, through the level's merge table, only where they
are read: for the near children, and as a row of the next level when it is
kept. A child that enters the frontier enters as a bare ParetoPoint, its
labels kept as bytes in a table keyed by its (x, y); only the points that
survive the search get an Encoder, when it ends.

Most children are far inside the dominated region, so the screen (_screen)
tests the whole level once against the frontier at level start, then each
block of OFFER_BLOCK children that remain in one batched query against a
staircase held as two arrays: the maximal points of the frontier at level
start and of the merge-path (x, y) of the near children of the earlier
blocks. A child is skipped when its corner (x + r, y + r) is dominated; its
reach r (see _reach) makes such a child provably one that is not near,
whose offer would not admit it, and fixes its keep decision: dropped below
an infinite epsilon, kept at it. The dominated region only grows during a
search, and every earlier near child has been offered before the block's
children are, so at their offer the frontier weakly dominates each
staircase point's from-scratch value, which lies within about 1e-14 of its
merge-path one. A corner (x + r, y + r) the staircase dominates is then
dominated at offer time with r less about 1e-14, which the reach's margins
absorb (see _reach), and skipping these children leaves the frontier, the
counters and the random draws exactly as offering them would. At 0 <
epsilon < inf the screen may call a child near or live where a snapshot of
the frontier would not, or the other way round, so it may ask distance on
the child's other value; a keep decision can then differ only if its draw
lies within about 1e-15 of exp(-d / epsilon).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._util import check_seed
from .distributions import INFO_TOL, JointPMF, xlog2x
from .encoders import Encoder
from .pareto import ParetoPoint, ParetoSet, staircase

CHUNK_CHILDREN = 1 << 16
"""Merge children per merge_objectives call, and rows times joint cells
per slice of an objectives call; bounds the kernels' working arrays."""

OFFER_BLOCK = 256
"""Children tested against one staircase by the screen; the next block's
staircase adds this block's near children."""

MAX_SEARCH_N = 255
"""Most input symbols a search takes: its labels are uint8."""


@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs for one search run.

    epsilon is the search depth scale in bits (math.inf for brute force);
    seed is a non-negative integer.
    """

    epsilon: float
    seed: int

    def __post_init__(self):
        eps = self.epsilon
        # a str or None would fail the comparison with a bare TypeError; the
        # comparison also rejects NaN
        if isinstance(eps, bool) or not isinstance(eps, numbers.Real) or not eps >= 0:
            raise ValueError(f"epsilon must be a number >= 0, got {eps!r}")
        check_seed(self.seed)


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
    always returns 1. The search calls this only for 0 < epsilon < inf, on
    a child that did not enter: at epsilon = 0 it keeps only the children
    that enter the frontier, not the wall ties that also have d = 0, and at
    an infinite epsilon it keeps every child.
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
    is dominated by the frontier is neither near, entered nor, for epsilon
    < inf, kept; at epsilon = inf it is kept.

    The dominated region is a down-set, so a dominated corner puts every
    exit of the staircase from (x, y) at least r away: distance() returns r
    less a few ulps of the coordinates, far inside INFO_TOL. With r >= 2 *
    INFO_TOL its corner at 2 * INFO_TOL is dominated too, so the child is
    not near and, as d > INFO_TOL, does not enter; at epsilon = 0 it is
    dropped, and at epsilon = inf it is kept. For 0 < epsilon < inf
    the child is dropped when draw >= exp(-d / epsilon). Here d / epsilon
    >= -ln(draw) + 1e-12, so exp(-d / epsilon) lies at least a relative
    1e-12 below the draw, while computing it errs by a few ulps (draws are
    at least 2^-53, so -ln(draw) <= 37). A zero draw gives r = inf and is
    never filtered.

    The screen tests the corner against a staircase whose points lie up to
    about 1e-14 above points the frontier dominates (merge-path values of
    offered near children), so the frontier dominates the corner at r less
    about 1e-14. The 2 * INFO_TOL term absorbs that: such a child is still
    at least INFO_TOL inside the dominated region, and still d / epsilon >=
    -ln(draw) + 1e-12.
    """
    if epsilon == 0.0 or math.isinf(epsilon):
        return np.full(len(draws), 2 * INFO_TOL)
    with np.errstate(divide="ignore"):
        return 2 * INFO_TOL + epsilon * (1e-12 - np.log(draws))


def _merge_table(i_idx: np.ndarray, j_idx: np.ndarray, m: int) -> np.ndarray:
    """(pairs, m) uint8 table: row k relabels a canonical parent with m
    clusters into its child uniting clusters i_idx[k] < j_idx[k].

    Because a parent is canonical, the union relabels as: j -> i, labels
    above j shift down by one, everything else unchanged; the child is
    canonical too. A child's labels are table[pair][parent_labels].
    """
    a = np.arange(m, dtype=np.uint8)
    i = i_idx.astype(np.uint8)[:, None]
    j = j_idx.astype(np.uint8)[:, None]
    return np.where(a == j, i, a - (a > j))


def _key_weights(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Word index and weight of each label position in the child keys of a
    level whose parents have m clusters.

    A child's label at position c is at most min(c, m - 2), so reading its
    labels as a mixed-radix number, radix min(c + 1, m - 1) at position c,
    is injective. Positions are packed in order into as few words as keep
    each word's radices' product within 2^64, so every word's value is an
    exact uint64.
    """
    word, weight = [], []
    k, w = 0, 1
    for c in range(n):
        radix = min(c + 1, m - 1)
        if w * radix > 1 << 64:
            k, w = k + 1, 1
        word.append(k)
        weight.append(w)
        w *= radix
    return np.array(word), np.array(weight, dtype=np.uint64)


def _child_keys(level: np.ndarray) -> np.ndarray:
    """(words, P * pairs) uint64 keys of every merge child of a level of P
    canonical parents, parent-major and then in np.triu_indices pair order.

    The keys (see _key_weights) are linear in the labels. With S[k] the
    weight sum of parent cluster k, and key(parent) the parent's labels
    read with the same weights, uniting i < j gives
    key(child) = key(parent) - (j - i) S[j] - sum_{k > j} S[k],
    so each child costs O(1) per word and its labels are never built.
    uint64 arrays wrap silently, and every true key fits its word, so the
    wrapped arithmetic is exact.
    """
    p, n = level.shape
    m = int(level.max()) + 1
    word, weight = _key_weights(n, m)
    s = np.zeros((word[-1] + 1, p, m), dtype=np.uint64)
    rows = np.arange(p)
    for c in range(n):
        s[word[c], rows, level[:, c]] += weight[c]
    labels = np.arange(m, dtype=np.uint64)
    # the key of uniting 0 and j; uniting i and j adds i S[j]
    at_zero = s.cumsum(axis=2) - s.sum(axis=2, keepdims=True) - labels * s
    at_zero += (labels * s).sum(axis=2, keepdims=True)
    keys = np.empty((len(s), p, m * (m - 1) // 2), dtype=np.uint64)
    lo = 0
    for i in range(m - 1):  # the pairs (i, j > i) are contiguous
        block = keys[:, :, lo : lo + m - 1 - i]
        np.multiply(s[:, :, i + 1 :], np.uint64(i), out=block)
        block += at_zero[:, :, i + 1 :]
        lo += m - 1 - i
    return keys.reshape(len(s), -1)


def _key_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts) of K >= 1 keys held as (words, K) uint64: order sorts
    the keys, and starts indexes the first of each run of equal keys in it.
    Sorts keys in place; no sorted copy outlives the call."""
    if len(keys) == 1:
        order = np.argsort(keys[0])
        keys.sort()  # in place: no gathered copy of the keys
    else:
        order = np.lexsort(keys[::-1])
        keys[:] = keys[:, order]
    return order, np.r_[0, np.flatnonzero((keys[:, 1:] != keys[:, :-1]).any(axis=0)) + 1]


def _first_children(level: np.ndarray) -> np.ndarray:
    """Ascending indices, numbered as _child_keys numbers the children, of
    the first occurrence of each partition among a level's merge children."""
    order, starts = _key_runs(_child_keys(level))
    new = np.minimum.reduceat(order, starts)  # argsort is not stable
    new.sort()
    return new


def _distinct_clusters(ids: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, slot) of k >= 1 clusters given by ids, an (R, n) array whose
    entry (r, x) names the cluster, 0 to k - 1, that holds symbol x of row
    r: rows is the (U, n) uint8 membership of each distinct cluster once,
    and cluster c's membership is rows[slot[c]].

    A cluster is keyed by its membership bitmask in whole uint64 words (bit
    x % 64 of word x // 64 holds symbol x; at most 4 words for n <= 255),
    and the keys are sorted once, as _first_children sorts its child keys.
    """
    n = ids.shape[1]
    keys = np.zeros((-(-n // 64), k), dtype=np.uint64)
    for x in range(n):  # a row's clusters are distinct, so no index repeats
        keys[x >> 6, ids[:, x]] |= np.uint64(1 << (x & 63))
    order, starts = _key_runs(keys)
    slot = np.empty(k, dtype=np.intp)
    slot[order] = np.repeat(np.arange(len(starts)), np.diff(starts, append=k))
    words = np.ascontiguousarray(keys[:, starts].T, dtype="<u8").view(np.uint8)
    return np.unpackbits(words, axis=1, count=n, bitorder="little"), slot


def _ascending_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of each row of terms along its last axis in ascending order.
    Sorts terms in place."""
    terms.sort(axis=-1)
    return terms.sum(axis=-1)


def _reduce_terms(cells: np.ndarray, masses: np.ndarray, hy):
    """Batched (-H(Z), I(Z;Y)) from the xlog2x terms of pushed matrices:
    cells (..., m * ny) of their cells and masses (..., m) of their cluster
    masses, both rows C-contiguous; hy is H(Y), one value or one per
    matrix, broadcast against the leading axes. Sorts both in place.

    This is the one reduction of pushed cells' terms. Each matrix's cell
    terms and its mass terms are summed in ascending order, one contiguous
    row per matrix, so a matrix gives the same floats in any batch of its
    shape, whatever order its terms are gathered in, and two matrices with
    equal multisets of cells give equal floats.
    """
    hz = np.maximum(-_ascending_sum(masses), 0.0)
    # the cells' sum is -H(Z, Y)
    return -hz, np.maximum(hz + hy + _ascending_sum(cells), 0.0)


def _objectives(pushed: np.ndarray, hy):
    """Batched (-H(Z), I(Z;Y)) of (..., m, ny) pushed matrices, through
    _reduce_terms. All-zero clusters contribute nothing.

    This is the one from-scratch reduction of pushed cells: each cluster's
    mass is the sum of its row, and the terms go to _reduce_terms.
    """
    *lead, m, ny = pushed.shape
    masses = xlog2x(pushed.sum(axis=-1))
    return _reduce_terms(xlog2x(pushed).reshape(*lead, m * ny), masses, hy)


def _in_slices(score, labels: np.ndarray, size: int):
    """score(rows) over consecutive slices of the (K, n) labels, K >= 1,
    each of at most CHUNK_CHILDREN // size rows (at least one), with the
    (xs, ys) of the slices concatenated. size is the joint's size, so a
    slice holds at most CHUNK_CHILDREN joint cells, one set per row."""
    step = max(1, CHUNK_CHILDREN // size)
    xs, ys = zip(*(score(labels[lo : lo + step]) for lo in range(0, len(labels), step)))
    return np.concatenate(xs), np.concatenate(ys)


class _JointEvaluator:
    """(x, y) = (-H(f(X)), I(f(X); Y)) for clusterings of a fixed joint."""

    def __init__(self, joint: JointPMF):
        self.rows = joint.p
        self.n = joint.nx
        self.hy = float(-xlog2x(joint.marginal_y()).sum())

    def objectives(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objectives of K >= 1 clusterings of one cluster count, from
        scratch and path-independent: (xs, ys) of the (K, n) integer labels.

        One bincount pushes a slice of rows. Its input is laid out as (row,
        position, y), so each cell adds its rows to 0.0 in ascending
        position, as push_forward's np.add.at does.
        """
        m, ny = int(labels.max()) + 1, self.rows.shape[1]
        cols = np.arange(ny)

        def score(rows):
            # the bin (row, cluster, y) of each (row, position, y) entry
            bins = np.add.outer((np.arange(0, len(rows) * m, m)[:, None] + rows) * ny, cols)
            weights = np.repeat(self.rows[None], len(rows), axis=0)
            pushed = np.bincount(bins.ravel(), weights.ravel(), len(rows) * m * ny)
            return _objectives(pushed.reshape(-1, m, ny), self.hy)

        return _in_slices(score, labels, self.rows.size)

    def merge_objectives(self, parents: np.ndarray, parent, i_idx, j_idx):
        """Objectives of the children merging clusters i < j of parents[parent].

        Merging clusters i and j folds cluster j's pushed row into cluster
        i's, so a child's sum of xlog2x over its cells is its parent's with
        those two rows' terms swapped for the folded row's, and likewise for
        its cluster masses. Both depend only on the clusters, and nested
        parents share most of them, so the kernel works from two tables:
        the parents' distinct clusters (see _distinct_clusters), each pushed
        once, with the xlog2x terms of its row and its mass taken once; and
        the distinct pairs of clusters that the children unite, each folded
        once. A parent's sums are its clusters' gathered terms, and each
        child gathers its pair's fold.
        """
        p, m = len(parents), int(parents.max()) + 1
        rows, slot = _distinct_clusters(np.arange(0, p * m, m)[:, None] + parents, p * m)
        cells = rows.astype(float) @ self.rows
        masses = cells.sum(axis=1)
        clusters = slot.reshape(p, m)
        a, b = clusters[parent, i_idx], clusters[parent, j_idx]
        # two disjoint clusters keep their order in every canonical parent, so
        # a pair's ordered key (i < j) is its only one
        pairs, fold = np.unique(a * len(rows) + b, return_inverse=True)
        fa, fb = np.divmod(pairs, len(rows))

        def merged(terms, folded):
            return terms[clusters].sum(axis=1)[parent] - terms[a] - terms[b] + folded[fold]

        hzy = -merged(xlog2x(cells).sum(axis=1), xlog2x(cells[fa] + cells[fb]).sum(axis=1))
        hz = np.maximum(-merged(xlog2x(masses), xlog2x(masses[fa] + masses[fb])), 0.0)
        return -hz, np.maximum(hz + self.hy - hzy, 0.0)


def _screen(frontier: ParetoSet, xs: np.ndarray, ys: np.ndarray, reach: np.ndarray):
    """The live children of a level, ascending, and which of them are near:
    a child is live when its corner at its reach is left undominated, and
    near when its corner at 2 * INFO_TOL is (see _reach).

    Each OFFER_BLOCK of children is tested against one staircase, held as
    two arrays: the maximal points of the frontier at level start and of
    the merge-path (x, y) of the near children of the earlier blocks. Every
    such staircase dominates at least what the level-start one does, so
    one query against that one first drops, for the whole level, the
    children no block's staircase would leave live.
    """
    sx, sy = frontier.objectives().T
    # a -inf sentinel keeps an index past the last point in range: a probe
    # right of every point is undominated, as weakly_dominated's is
    sy = np.append(sy, -math.inf)

    def free(px, py):  # the probes no staircase point is >= in both coordinates
        return ~(sy[np.searchsorted(sx, px)] >= py)

    rx, ry = xs + reach, ys + reach
    kept = np.flatnonzero(free(rx, ry))
    cuts = np.searchsorted(kept, range(0, len(xs) + OFFER_BLOCK, OFFER_BLOCK))
    live, is_near = [kept[:0]], [np.zeros(0, dtype=bool)]
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a == b:
            continue
        k = kept[a:b]
        k = k[free(rx[k], ry[k])]
        near = free(xs[k] + 2 * INFO_TOL, ys[k] + 2 * INFO_TOL)
        live.append(k)
        is_near.append(near)
        if near.any():
            cx, cy = np.concatenate((sx, xs[k[near]])), np.concatenate((sy[:-1], ys[k[near]]))
            top = staircase(cx, cy)
            sx, sy = cx[top], np.append(cy[top], -math.inf)
    return np.concatenate(live), np.concatenate(is_near)


def _run_search(evaluator, cfg: SearchConfig) -> tuple[ParetoSet, SearchStats]:
    """The level-synchronous search loop shared by the plain and symmetric mappers."""
    n = evaluator.n
    if n > MAX_SEARCH_N:
        raise ValueError(f"search supports at most {MAX_SEARCH_N} input symbols")
    rng = np.random.default_rng(cfg.seed)
    epsilon = cfg.epsilon
    frontier = ParetoSet()
    objectives = evaluator.objectives

    level = np.arange(n, dtype=np.uint8)[None]  # the identity clustering
    xs, ys = objectives(level)
    x0, y0 = float(xs[0]), float(ys[0])  # Python floats, as every offered (x, y)
    frontier.add(ParetoPoint(x0, y0))
    # Each frontier point's labels, keyed by its (x, y). A key is never
    # offered twice: an evicted point's (x, y) stays dominated.
    labels = {(x0, y0): level[0].tobytes()}
    searched = 1
    enqueued = 1

    distance = frontier.distance
    add = frontier.add

    m = n  # cluster count of every parent in the level
    while len(level) and m > 1:
        i_idx, j_idx = np.triu_indices(m, k=1)
        try:
            merge = _merge_table(i_idx, j_idx, m)
            new = _first_children(level)
            draws = rng.random(len(level) * len(i_idx))[new]  # one draw per child, in pair order
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
            live, is_near = _screen(frontier, xs, ys, _reach(draws, epsilon))
            near = live[is_near]
            if len(near):  # a tie may hinge on the path-dependent last bits
                rows = merge[pair[near, None], level[parent[near]]]
                xs[near], ys[near] = objectives(rows)
        except MemoryError as exc:
            raise MemoryError(
                f"search level m = {m} ({len(level)} parents x {len(i_idx)} pairs = "
                f"{len(level) * len(i_idx)} children) ran out of memory: {exc}"
            ) from exc
        searched += len(new)
        # the verdict at epsilon 0 or inf on a child that does not enter,
        # and on any child the screen drops (see _reach)
        keep = np.full(len(new), math.isinf(epsilon))
        for k, x, y, draw, can_enter, row in zip(
            live.tolist(), xs[live].tolist(), ys[live].tolist(), draws[live].tolist(),
            is_near.tolist(), (np.cumsum(is_near) - 1).tolist(),
        ):
            if can_enter and add(ParetoPoint(x, y)):  # only a near child can enter
                labels[x, y] = rows[row].tobytes()
                if len(labels) > 2 * len(frontier):  # drop the evicted points' labels
                    labels = {(pt.x, pt.y): labels[pt.x, pt.y] for pt in frontier}
                keep[k] = True
            elif 0.0 < epsilon < math.inf:
                keep[k] = draw < enqueue_probability(distance(x, y), epsilon)
        level = merge[pair[keep, None], level[parent[keep]]]
        enqueued += len(level)
        m -= 1

    for pt in frontier:
        pt.encoder = Encoder(tuple(labels[pt.x, pt.y]))
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
