"""The reference search the level-batched search loop is checked against.

search(evaluator, cfg) runs the epsilon-greedy search one child at a time.
Level by level, it builds every merge child of every parent in (parent,
pair) order, pairs (i, j), i < j, in np.triu_indices order, and skips a
child whose partition an earlier child of the level already gave. Each
child is scored alone, from scratch, by the evaluator's objectives and
offered to a ParetoSet. A child that enters is kept; one that does not is
kept at an infinite epsilon, dropped at epsilon 0, and kept in between when
its draw is below exp(-d / epsilon), d its distance to the frontier. The
draws come from the same stream as the search's: one rng.random per
(parent, pair), skipped children included. search_bytes(frontier, stats)
is what a search must reproduce exactly.
"""

import itertools
import math

import numpy as np

from dibmap.encoders import Encoder
from dibmap.mapper import SearchStats, enqueue_probability
from dibmap.pareto import ParetoPoint, ParetoSet


def canonical(labels) -> tuple:
    """Labels renumbered in order of first occurrence."""
    first = {}
    return tuple(first.setdefault(a, len(first)) for a in labels)


def search(evaluator, cfg):
    """(frontier, SearchStats) of the search over evaluator's clusterings."""
    rng = np.random.default_rng(cfg.seed)
    eps = cfg.epsilon
    frontier = ParetoSet()

    def offer(labels, draw) -> bool:
        """Whether the child enters or is kept."""
        xs, ys = evaluator.objectives(np.array([labels]))
        x, y = float(xs[0]), float(ys[0])
        if frontier.add(ParetoPoint(x, y, encoder=Encoder(labels))):
            return True
        if math.isinf(eps) or eps == 0.0:
            return math.isinf(eps)
        return draw < enqueue_probability(frontier.distance(x, y), eps)

    level = [tuple(range(evaluator.n))]
    offer(level[0], 0.0)
    searched = enqueued = 1
    m = evaluator.n
    while level and m > 1:
        pairs = list(itertools.combinations(range(m), 2))
        draws = rng.random(len(level) * len(pairs)).tolist()
        seen, kept = set(), []
        for draw, (parent, (i, j)) in zip(draws, itertools.product(level, pairs)):
            child = canonical([i if a == j else a for a in parent])
            if child not in seen:
                seen.add(child)
                searched += 1
                if offer(child, draw):
                    kept.append(child)
        level = kept
        enqueued += len(level)
        m -= 1
    return frontier, SearchStats(searched, enqueued)


def search_bytes(frontier, stats):
    """A search's counters and its frontier's exact values and encoders."""
    return stats, [(p.x.hex(), p.y.hex(), p.encoder.assignment) for p in frontier]
