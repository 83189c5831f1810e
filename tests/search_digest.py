"""Digest of 163 fixed searches: a byte check for changes to the search loop.

Run from the repository root:

    PYTHONPATH=src python3 tests/search_digest.py

It prints one `name digest` line per search, then `all <sha256>` over those
lines. A search's digest is the sha256 of `points_searched enqueued` and,
per frontier point in order, `x!r y!r assignment`, one line each. A change
that keeps every search's frontier and counters gives the same last line.
The set (search seed 3 where none is named):

- plain `sample_simplex(n, 5, s)`, s = 1, 2: n = 1..9 at eps 0, 0.05, 1 and
  inf; n = 10..14 at eps 0 and 0.02;
- `sample_simplex(n, 30, s)`, s = 1, 2, at eps 0 for n = 16, 22, 28, 34, 40;
- the 20x20 count joint `normalize_counts(multinomial_sample(
  sample_simplex(20, 20, 8), 2000, 9))` at eps 0;
- the group triples of Z4, Z6, D4 and Z8 at eps 0, 0.05, 1 and inf, search
  seeds 1, 2 and 3;
- three random triples, g = 4, 5, 6, `exponential(size=(g, g, 3))` from
  `default_rng(g)`, normalized, at eps 0, 0.05, 1 and inf.

It is not a pytest module: the whole set takes minutes (n = 40 alone takes
about 20 s per search) and a few hundred MB.
"""

import hashlib
import math
import sys
import time

import numpy as np

from dibmap import (
    SearchConfig, TripleJointPMF, multinomial_sample, normalize_counts, pareto_mapper,
    sample_simplex, symmetric_pareto_mapper,
)
from dibmap.datasets import GroupTable, group_joint

FOUR_EPS = (0.0, 0.05, 1.0, math.inf)


def _cyclic(g):
    a = np.arange(g)
    return (a[:, None] + a[None, :]) % g


def _dihedral4():
    """D4 as r^k s^e at index 4e + k, with s r = r^-1 s."""
    e, k = np.divmod(np.arange(8), 4)
    k2 = np.where(e[:, None] == 0, k[None, :], -k[None, :])
    return 4 * (e[:, None] ^ e[None, :]) + (k[:, None] + k2) % 4


def searches():
    """(name, search, problem, epsilon, seed) of every search in the set."""
    for n in range(1, 15):
        for s in (1, 2):
            for eps in FOUR_EPS if n <= 9 else (0.0, 0.02):
                yield f"plain-{n}x5-s{s}-eps{eps}", pareto_mapper, sample_simplex(n, 5, s), eps, 3
    for n in (16, 22, 28, 34, 40):
        for s in (1, 2):
            yield f"plain-{n}x30-s{s}-eps0.0", pareto_mapper, sample_simplex(n, 30, s), 0.0, 3
    counts = normalize_counts(multinomial_sample(sample_simplex(20, 20, 8), 2000, 9))
    yield "counts-20x20-eps0.0", pareto_mapper, counts, 0.0, 3
    groups = {"Z4": _cyclic(4), "Z6": _cyclic(6), "D4": _dihedral4(), "Z8": _cyclic(8)}
    for name, table in groups.items():
        triple = group_joint(GroupTable(tuple(map(str, range(len(table)))), table))
        for eps in FOUR_EPS:
            for seed in (1, 2, 3):
                yield f"{name}-eps{eps}-seed{seed}", symmetric_pareto_mapper, triple, eps, seed
    for g in (4, 5, 6):
        p = np.random.default_rng(g).exponential(size=(g, g, 3))
        triple = TripleJointPMF(p / p.sum())
        for eps in FOUR_EPS:
            yield f"triple-g{g}-eps{eps}", symmetric_pareto_mapper, triple, eps, 3


def digest(frontier, stats) -> str:
    h = hashlib.sha256(f"{stats.points_searched} {stats.enqueued}\n".encode())
    for p in frontier:
        h.update(f"{p.x!r} {p.y!r} {p.encoder.assignment}\n".encode())
    return h.hexdigest()


def main() -> int:
    start = time.perf_counter()
    lines = []
    for name, search, problem, eps, seed in searches():
        line = f"{name} {digest(*search(problem, SearchConfig(eps, seed)))}"
        print(line, flush=True)
        lines.append(line)
    print(f"all {hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}")
    print(f"{len(lines)} searches in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
