"""Acceptance suite: one test per numbered criterion, at stated tolerances.

Each criterion prints one `criterion N: PASS/FAIL` line (visible with
`pytest -s`). Criterion 10 re-runs the computations of criteria 1-7 and
byte-compares their canonically serialized outputs, so the underlying
pipelines here are executed twice through cached helpers; wall-clock
budgets are asserted on the first run only.

Criterion 4 maps the order-16 group frontiers with the greedy search
(epsilon = 0) in a subprocess bounded by the criterion's own five-minute
budget; the group-structure tests in test_symmetric.py verify the subgroup
lattice itself constructively.
"""

import glob
import hashlib
import json
import math
import pathlib
import subprocess
import sys
import time
from functools import lru_cache

import numpy as np
import pytest

import dibmap as dm
from dibmap import (
    CopulaKind,
    RobustConfig,
    SearchConfig,
    bell_number,
    brute_force_frontier,
    dib_frontier_scaling,
    dmc_points,
    harmonic_number,
    multinomial_sample,
    pareto_mapper,
    precision_recall,
    robust_pareto_mapper,
    sample_simplex,
    scaling_experiment,
    trials_for_ratio,
)
from dibmap._util import derive_seed
from dibmap.datasets import ALPHABET
from dibmap.scaling import fit_power_law

TOL = 1e-9


def check(cid, ok, detail):
    print(f"criterion {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {cid}: {detail}"


def payload_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def frontier_pairs(frontier):
    return [(p.x, p.y) for p in frontier]


def pair_sets_equal(a, b, tol=TOL):
    a, b = sorted(a), sorted(b)
    return len(a) == len(b) and all(
        abs(x - u) <= tol and abs(y - v) <= tol for (x, y), (u, v) in zip(a, b)
    )


# --- criterion computations, each executed twice for the determinism check


@lru_cache(maxsize=None)
def criterion_1():
    def run():
        out = []
        for k in range(20):
            nx = 4 + k % 5
            joint = sample_simplex(nx, 5, derive_seed(101, k))
            mapped, _ = pareto_mapper(joint, SearchConfig(math.inf, derive_seed(102, k)))
            exact = brute_force_frontier(joint)
            out.append(
                {"mapper": frontier_pairs(mapped), "oracle": frontier_pairs(exact)}
            )
        return out

    t0 = time.perf_counter()
    first = run()
    elapsed = time.perf_counter() - t0
    return payload_bytes(first), payload_bytes(run()), first, elapsed


@lru_cache(maxsize=None)
def criterion_2():
    def run():
        rows = []
        for k in range(20):
            joint = sample_simplex(10, 5, derive_seed(2025, k))
            truth = brute_force_frontier(joint)
            greedy, _ = pareto_mapper(joint, SearchConfig(0.0, derive_seed(1, k)))
            s0 = precision_recall(greedy, truth)
            wide, _ = pareto_mapper(joint, SearchConfig(0.05, derive_seed(2, k)))
            s5 = precision_recall(wide, truth)
            rows.append(
                {
                    "precision0": s0.precision,
                    "recall0": s0.recall,
                    "recall5": s5.recall,
                    "greedy": frontier_pairs(greedy),
                    "wide": frontier_pairs(wide),
                }
            )
        return rows

    t0 = time.perf_counter()
    first = run()
    elapsed = time.perf_counter() - t0
    return payload_bytes(first), payload_bytes(run()), first, elapsed


@lru_cache(maxsize=None)
def criterion_3():
    def run():
        rng = np.random.default_rng(derive_seed(303))
        r = rng.exponential(size=6)
        frontier = brute_force_frontier(dm.JointPMF(np.diag(r / r.sum())))
        return frontier_pairs(frontier)

    t0 = time.perf_counter()
    first = run()
    elapsed = time.perf_counter() - t0
    return payload_bytes(first), payload_bytes(run()), first, elapsed


_C4_SCRIPT = """
import json, sys
import dibmap as dm
out = {}
for name in ("zmod40x", "pauli"):
    triple = dm.group_joint(dm.make_group(name))
    frontier, _ = dm.symmetric_pareto_mapper(triple, dm.SearchConfig(0.0, 4242))
    out[name] = [(0.0 - p.x, p.y) for p in frontier]
json.dump(out, sys.stdout)
"""


@lru_cache(maxsize=None)
def criterion_4():
    def run():
        try:
            proc = subprocess.run(
                [sys.executable, "-c", _C4_SCRIPT],
                capture_output=True,
                timeout=300,
            )
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode())
        return proc.stdout

    t0 = time.perf_counter()
    first = run()
    elapsed = time.perf_counter() - t0
    if first is None:
        return None, None, None, elapsed
    return first, run(), json.loads(first.decode()), elapsed


@lru_cache(maxsize=None)
def criterion_5():
    def run():
        table = {}
        for tag in ("independent", "comonotone", "countermonotone"):
            rows = scaling_experiment(
                CopulaKind(tag), [64, 256, 1024, 4096], 1000, seed=derive_seed(505)
            )
            table[tag] = [(r.n, r.mean, r.std) for r in rows]
        return table

    t0 = time.perf_counter()
    first = run()
    elapsed = time.perf_counter() - t0
    return payload_bytes(first), payload_bytes(run()), first, elapsed


@lru_cache(maxsize=None)
def criterion_6():
    def run():
        rows = dib_frontier_scaling(
            range(4, 11), 10, seed=derive_seed(606), ny=30, engine="oracle"
        )
        # mean seconds is wall-clock noise; keep only reproducible fields
        return [(r.n, r.mean_frontier, r.mean_searched) for r in rows]

    t0 = time.perf_counter()
    first = run()
    elapsed = time.perf_counter() - t0
    return payload_bytes(first), payload_bytes(run()), first, elapsed


@lru_cache(maxsize=None)
def criterion_7():
    joint = sample_simplex(8, 5, seed=777)
    truth = brute_force_frontier(joint)
    truth_hi = [(0.0 - p.x, p.y) for p in truth]
    s = trials_for_ratio(joint, 25.0)

    def run():
        seeds = []
        for k in range(10):
            counts = multinomial_sample(joint, s, derive_seed(777, k))
            kept, full, _ = robust_pareto_mapper(
                counts, RobustConfig(math.inf, seed=derive_seed(778, k))
            )
            est = [(0.0 - p.x, p.y, p.dx, p.dy) for p in full]
            covered = sum(
                any(
                    abs(th - eh) <= 2 * dh + TOL and abs(ti - ei) <= 2 * di + TOL
                    for (eh, ei, dh, di) in est
                )
                for (th, ti) in truth_hi
            )
            kept_pts = [(p.x, p.y, p.dx, p.dy) for p in kept]
            seeds.append(
                {
                    "coverage": covered / len(truth_hi),
                    "estimated": est,
                    "kept": kept_pts,
                }
            )
        return seeds

    t0 = time.perf_counter()
    first = run()
    elapsed = time.perf_counter() - t0
    return payload_bytes(first), payload_bytes(run()), first, elapsed


@lru_cache(maxsize=None)
def english_corpus() -> bytes:
    """At least 1 MB of English prose assembled from installed documentation."""
    parts, seen, total = [], set(), 0
    for path in sorted(glob.glob("/usr/share/doc/*/copyright")):
        try:
            data = pathlib.Path(path).read_bytes()
        except OSError:
            continue
        digest = hashlib.sha256(data).hexdigest()
        if digest in seen:
            continue
        seen.add(digest)
        parts.append(data)
        total += len(data)
        if total >= 3_000_000:
            break
    return b"\n".join(parts)


def test_criterion_01_oracle_exactness():
    _, _, runs, elapsed = criterion_1()
    exact = all(pair_sets_equal(r["mapper"], r["oracle"]) for r in runs)
    check(
        1,
        exact and elapsed < 120,
        f"20 joints nx in 4..8: map --epsilon inf == oracle exactly: {exact}; "
        f"elapsed {elapsed:.1f}s (< 120s)",
    )


def test_criterion_02_greedy_quality():
    _, _, rows, elapsed = criterion_2()
    mean_p = float(np.mean([r["precision0"] for r in rows]))
    mean_r = float(np.mean([r["recall0"] for r in rows]))
    perfect = sum(r["recall5"] == 1.0 for r in rows)
    check(
        2,
        mean_p >= 0.90 and mean_r >= 0.85 and perfect >= 18 and elapsed < 600,
        f"eps=0 mean precision {mean_p:.4f} (>= 0.90), mean recall {mean_r:.4f} "
        f"(>= 0.85); recall == 1.0 at eps=0.05 on {perfect}/20 (>= 18); "
        f"elapsed {elapsed:.0f}s (< 600s)",
    )


def test_criterion_03_diagonal_worst_case():
    _, _, pairs, elapsed = criterion_3()
    non_dominated = all(
        not (qx >= x and qy >= y)
        for i, (x, y) in enumerate(pairs)
        for j, (qx, qy) in enumerate(pairs)
        if i != j
    )
    check(
        3,
        len(pairs) == bell_number(6) == 203 and non_dominated and elapsed < 1.0,
        f"diag(6) frontier size {len(pairs)} == B(6) == 203, mutually "
        f"non-dominated: {non_dominated}; elapsed {elapsed:.2f}s (< 1s)",
    )


def test_criterion_04_group_frontiers():
    payload, _, data, elapsed = criterion_4()
    if data is None:
        check(
            4,
            False,
            "symmetric-map on zmod40x+pauli at eps=0 exceeded the 5-minute "
            "budget. The greedy search should enqueue only children that "
            "enter the frontier; on the order-16 group triples most children "
            "tie a frontier wall exactly, and enqueueing those floods the "
            "merge lattice (on pauli, 148,704 of the 165,620 children met at "
            "level 13 lie on the frontier or its walls). The subgroup lattice "
            "itself is verified constructively in "
            "test_symmetric.py::TestGroupStructure.",
        )
    lattice = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]
    has_lattice = all(
        any(abs(h - lh) <= TOL and abs(i - li) <= TOL for (h, i) in data[name])
        for name in ("zmod40x", "pauli")
        for (lh, li) in lattice
    )
    identical = pair_sets_equal(data["zmod40x"], data["pauli"])
    check(
        4,
        has_lattice and identical and elapsed < 300,
        f"(k,k) lattice present: {has_lattice}; frontiers identical: "
        f"{identical}; elapsed {elapsed:.0f}s (< 300s)",
    )


def test_criterion_05_cloud_sparsity_scaling():
    _, _, table, elapsed = criterion_5()
    indep_ok = all(
        abs(mean - harmonic_number(n)) <= 0.05 * harmonic_number(n)
        for (n, mean, _) in table["independent"]
    )
    como_ok = all(mean == 1.0 and std == 0.0 for (_, mean, std) in table["comonotone"])
    counter_ok = all(
        mean == float(n) and std == 0.0 for (n, mean, std) in table["countermonotone"]
    )
    check(
        5,
        indep_ok and como_ok and counter_ok and elapsed < 120,
        f"independent means within 5% of H_N: {indep_ok}; comonotone == 1 and "
        f"countermonotone == N on every trial: {como_ok and counter_ok}; "
        f"elapsed {elapsed:.1f}s (< 120s)",
    )


def test_criterion_06_dib_frontier_polynomial_scaling():
    _, _, rows, elapsed = criterion_6()
    ns = [n for (n, _, _) in rows]
    sizes = [size for (_, size, _) in rows]
    slope, r2 = fit_power_law(ns, sizes)
    check(
        6,
        1.0 <= slope <= 3.5 and r2 >= 0.9,
        f"oracle frontier sizes for n in 4..10 (ny=30, 10 trials): log-log "
        f"slope {slope:.2f} in [1.0, 3.5], R^2 {r2:.3f} >= 0.9; "
        f"elapsed {elapsed:.0f}s",
    )


def test_criterion_07_robust_recovery():
    _, _, seeds, elapsed = criterion_7()
    mean_cov = float(np.mean([s["coverage"] for s in seeds]))
    dup_free = True
    for s in seeds:
        kept = s["kept"]
        for i, (x, y, dx, dy) in enumerate(kept):
            for (qx, qy, qdx, qdy) in kept[i + 1 :]:
                if not (
                    abs(x - qx) > (dx + qdx) or abs(y - qy) > (dy + qdy)
                ):
                    dup_free = False
    check(
        7,
        mean_cov >= 0.90 and dup_free and elapsed < 300,
        f"r=25 samples of the known 8x5 joint, 10 seeds: mean 2-sigma band "
        f"coverage of the true frontier {mean_cov:.3f} (>= 0.90); filtered "
        f"sets duplicate-free: {dup_free}; elapsed {elapsed:.0f}s (< 300s)",
    )


def test_criterion_08_alphabet_qualitative():
    corpus = english_corpus()
    assert len(corpus) >= 1_000_000, "no 1 MB English corpus available"
    counts = dm.ingest_bigrams(corpus)
    joint = dm.normalize_counts(counts)
    frontier, _ = pareto_mapper(joint, SearchConfig(0.0, seed=derive_seed(808)))

    vowels = set("aeiou")
    two = [p for p in dmc_points(frontier) if p.encoder.m == 2]
    split_ok = False
    if two:
        f = two[0].encoder
        space_cluster = {
            ALPHABET[i] for i in range(27) if f.assignment[i] == f.assignment[26]
        }
        other = set(ALPHABET) - space_cluster
        split_ok = (
            len(space_cluster & vowels) >= 3
            and len(other - vowels - {" "}) >= 15
        )
    q_idx = ALPHABET.index("q")
    q_small = min(
        sum(1 for a in p.encoder.assignment if a == p.encoder.assignment[q_idx])
        for p in frontier
    )
    check(
        8,
        split_ok and q_small <= 3,
        f"corpus {len(corpus) / 1e6:.1f} MB; best 2-cluster point groups "
        f"space with >= 3 vowels against >= 15 consonants: {split_ok}; "
        f"smallest q-cluster on the frontier has {q_small} symbols (<= 3)",
    )


def test_criterion_09_pareto_structure_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(derive_seed(909))
    pts = rng.uniform(-5, 5, size=(10_000, 2))

    ps = dm.ParetoSet()
    for x, y in pts:
        ps.add(dm.ParetoPoint(float(x), float(y)))
    stream_kept = {(p.x, p.y) for p in ps}

    # brute-force filter, vectorized in row chunks
    mask = np.ones(len(pts), dtype=bool)
    for start in range(0, len(pts), 512):
        block = pts[start : start + 512]
        dom = (
            (pts[None, :, 0] >= block[:, None, 0])
            & (pts[None, :, 1] >= block[:, None, 1])
            & ~(
                (pts[None, :, 0] == block[:, None, 0])
                & (pts[None, :, 1] == block[:, None, 1])
            )
        )
        mask[start : start + 512] = ~dom.any(axis=1)
    brute_kept = {(x, y) for x, y in pts[mask]}
    filter_ok = stream_kept == brute_kept

    rank_ok = bool(np.array_equal(dm.pareto_mask(pts), dm.pareto_mask_by_ranks(pts)))
    sorted_ok = bool(np.array_equal(dm.pareto_mask(pts), mask))

    mono = np.column_stack([np.exp(pts[:, 0] / 5), pts[:, 1] ** 3])
    mono_ok = bool(np.array_equal(dm.pareto_mask(mono), mask))
    elapsed = time.perf_counter() - t0
    check(
        9,
        filter_ok and rank_ok and sorted_ok and mono_ok and elapsed < 30,
        f"10^4-point stream: pareto_add == brute filter: {filter_ok}; "
        f"rank characterization agrees: {rank_ok and sorted_ok}; monotone "
        f"invariance: {mono_ok}; elapsed {elapsed:.1f}s (< 30s)",
    )


def test_criterion_10_determinism():
    outcomes = {}
    for cid, fn in [
        (1, criterion_1),
        (2, criterion_2),
        (3, criterion_3),
        (4, criterion_4),
        (5, criterion_5),
        (6, criterion_6),
        (7, criterion_7),
    ]:
        first, second, _, _ = fn()
        # a criterion 4 run that exceeded its budget left no output to compare
        outcomes[cid] = first is not None and first == second
    check(
        10,
        all(outcomes.values()),
        f"criteria 1-7 byte-identical across two consecutive runs: {outcomes}",
    )
