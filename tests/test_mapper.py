import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dibmap as dm
from dibmap import (
    Encoder,
    JointPMF,
    ParetoPoint,
    ParetoSet,
    SearchConfig,
    SearchStats,
    dmc_points,
    enqueue_probability,
    entropy,
    mutual_information,
    pareto_mapper,
    push_forward,
    sample_simplex,
    upper_hull,
)
from dibmap.encoders import canonicalize
from dibmap.mapper import _JointEvaluator, _merge_children, _objectives, _push
from dibmap.symmetric import _TripleEvaluator

DIAG2 = JointPMF(np.diag([0.5, 0.5]))


def frontier_pairs(frontier):
    return sorted((p.x, p.y) for p in frontier)


def pairs_match(a, b, tol=1e-9):
    a, b = frontier_pairs(a), frontier_pairs(b)
    return len(a) == len(b) and all(
        abs(x - u) <= tol and abs(y - v) <= tol for (x, y), (u, v) in zip(a, b)
    )


class TestEnqueueProbability:
    def test_optimal_always_enqueued(self):
        for eps in (0.0, 0.3, math.inf):
            assert enqueue_probability(0.0, eps) == 1.0

    def test_greedy_drops_suboptimal(self):
        assert enqueue_probability(0.1, 0.0) == 0.0

    def test_exponential_scale(self):
        assert enqueue_probability(0.05, 0.05) == pytest.approx(math.exp(-1))

    def test_infinite_epsilon(self):
        assert enqueue_probability(123.0, math.inf) == 1.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            enqueue_probability(-0.1, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            enqueue_probability(math.nan, 1.0)
        with pytest.raises(ValueError):
            enqueue_probability(0.1, math.nan)


class TestParetoMapper:
    def test_two_by_two_diag(self):
        frontier, _ = pareto_mapper(DIAG2, SearchConfig(epsilon=0.0, seed=1))
        assert pairs_match(frontier, [ParetoPoint(-1.0, 1.0), ParetoPoint(0.0, 0.0)])

    def test_single_row_joint(self):
        joint = JointPMF(np.array([[0.25, 0.25, 0.5]]))
        frontier, stats = pareto_mapper(joint, SearchConfig(epsilon=1.0, seed=0))
        assert frontier_pairs(frontier) == [(0.0, 0.0)]
        assert stats.points_searched == 1

    def test_identity_point_present_on_generic_joint(self):
        joint = sample_simplex(6, 4, seed=3)
        frontier, _ = pareto_mapper(joint, SearchConfig(epsilon=0.0, seed=0))
        hx = entropy(joint.marginal_x())
        mi = mutual_information(joint)
        assert any(
            abs(p.x + hx) < 1e-9 and abs(p.y - mi) < 1e-9 for p in frontier
        )

    def test_greedy_recall_on_8x5(self):
        joint = sample_simplex(8, 5, seed=101)
        frontier, _ = pareto_mapper(joint, SearchConfig(epsilon=0.05, seed=11))
        score = dm.precision_recall(frontier, dm.brute_force_frontier(joint))
        assert score.recall >= 0.95

    def test_mean_greedy_recall_over_twenty_seeds(self):
        recalls = []
        for s in range(20):
            joint = sample_simplex(8, 5, seed=900 + s)
            frontier, _ = pareto_mapper(joint, SearchConfig(epsilon=0.0, seed=s))
            truth = dm.brute_force_frontier(joint)
            recalls.append(dm.precision_recall(frontier, truth).recall)
        assert np.mean(recalls) >= 0.85

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_brute_force_epsilon_matches_oracle(self, n):
        joint = sample_simplex(n, 4, seed=50 + n)
        frontier, stats = pareto_mapper(joint, SearchConfig(math.inf, seed=2))
        assert stats.points_searched == dm.bell_number(n)
        assert pairs_match(frontier, dm.brute_force_frontier(joint))

    def test_stored_points_reevaluate_exactly(self):
        joint = sample_simplex(7, 5, seed=8)
        frontier, _ = pareto_mapper(joint, SearchConfig(epsilon=0.1, seed=4))
        for p in frontier:
            pushed = push_forward(joint, p.encoder)
            assert -entropy(pushed.marginal_x()) == pytest.approx(p.x, abs=1e-9)
            assert mutual_information(pushed) == pytest.approx(p.y, abs=1e-9)

    def test_deterministic_per_config(self):
        joint = sample_simplex(7, 4, seed=9)
        cfg = SearchConfig(epsilon=0.03, seed=77)
        f1, s1 = pareto_mapper(joint, cfg)
        f2, s2 = pareto_mapper(joint, cfg)
        assert frontier_pairs(f1) == frontier_pairs(f2)
        assert s1 == s2  # counters only: no wall-clock field to differ

    def test_stats_are_the_two_counters(self):
        assert [f.name for f in dataclasses.fields(SearchStats)] == [
            "points_searched", "enqueued"
        ]

    def test_mean_work_nondecreasing_in_epsilon(self):
        joint = sample_simplex(7, 4, seed=13)
        means = []
        for eps in (0.0, 0.02, 0.1, math.inf):
            searched = [
                pareto_mapper(joint, SearchConfig(eps, seed=s))[1].points_searched
                for s in range(20)
            ]
            means.append(np.mean(searched))
        assert all(a <= b + 1e-9 for a, b in zip(means, means[1:]))
        assert means[-1] == dm.bell_number(7)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig(epsilon=-0.5, seed=0)

    def test_nan_epsilon_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig(epsilon=math.nan, seed=0)


def frontier_digest(frontier):
    """sha256 of a frontier's exact values and representative encoders."""
    text = "".join(f"{p.x!r} {p.y!r} {p.encoder.assignment}\n" for p in frontier)
    return hashlib.sha256(text.encode()).hexdigest()


FRONTIER_9X5 = "cfd3d3f6126c3e39deccee8a5fb8138b89a8778930c6637484c40c57dc90033c"


def count_joint(n, seed):
    """An empirical n x n joint from 2000 samples of a random one."""
    counts = dm.multinomial_sample(sample_simplex(n, n, seed), 2000, seed + 1)
    return dm.normalize_counts(counts)


class TestGoldenCounts:
    """Exact work counters, frontier sizes and frontier bytes of fixed runs.

    They move whenever the offer order, the dedup rule or the RNG stream
    changes, so any rewrite of the search loop must leave them as they are.
    The 9x5 runs cover the greedy, the finite-epsilon and the brute-force
    keep rules; all of them find the same 40-point frontier.
    """

    @pytest.mark.parametrize(
        "make_joint, cfg, want, digest",
        [
            (lambda: sample_simplex(9, 5, 1), SearchConfig(0.0, 3), (2023, 244, 40),
             FRONTIER_9X5),
            (lambda: sample_simplex(9, 5, 1), SearchConfig(0.02, 3), (5310, 704, 40),
             FRONTIER_9X5),
            (lambda: sample_simplex(9, 5, 1), SearchConfig(0.05, 3), (12264, 2295, 40),
             FRONTIER_9X5),
            (lambda: sample_simplex(9, 5, 1), SearchConfig(0.3, 3), (21099, 13406, 40),
             FRONTIER_9X5),
            (lambda: sample_simplex(9, 5, 1), SearchConfig(math.inf, 3), (21147, 21147, 40),
             FRONTIER_9X5),
            (lambda: count_joint(20, 8), SearchConfig(0.0, 2), (213571, 3024, 216),
             "bb56b2c76f2a4786f065012b69cc41036113d542f1c8f6a441c17473ce5aff2a"),
            # levels 7..4 hold more than 2^16 children: pins dedup and draw
            # order on levels wider than one kernel slice
            (lambda: sample_simplex(10, 5, 1), SearchConfig(0.3, 3), (115763, 69583, 50),
             "33be811415a84eed2aa10805666fcef23d3f3d986099cf149f199cc91843fb92"),
        ],
        ids=["9x5-eps0", "9x5-eps0.02", "9x5-eps0.05", "9x5-eps0.3", "9x5-inf",
             "20x20-counts-eps0", "10x5-eps0.3"],
    )
    def test_counts(self, make_joint, cfg, want, digest):
        frontier, stats = pareto_mapper(make_joint(), cfg)
        assert (stats.points_searched, stats.enqueued, len(frontier)) == want
        assert frontier_digest(frontier) == digest


class TestRowPermutation:
    """Relabelling the input symbols moves no objective value: permuting
    the rows of a joint leaves the exhaustive and the brute-force search
    frontiers' value sets equal up to summation order."""

    @pytest.mark.parametrize("nx, ny, seed", [(6, 4, 21), (7, 3, 22), (8, 5, 23), (9, 2, 24)])
    def test_values_invariant(self, nx, ny, seed):
        joint = sample_simplex(nx, ny, seed)
        perm = np.random.default_rng(seed).permutation(nx)
        permuted = JointPMF(joint.p[perm])
        for search in (
            dm.brute_force_frontier,
            lambda j: pareto_mapper(j, SearchConfig(math.inf, seed=0))[0],
        ):
            a = np.array(frontier_pairs(search(joint)))
            b = np.array(frontier_pairs(search(permuted)))
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-12


class TestPush:
    """_push, the oracle's and the bootstrap's push-forward, against
    push_forward, exactly."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_block_of_labelings(self, seed, n, ny):
        rng = np.random.default_rng(seed)
        p = rng.exponential(size=(n, ny))
        p[rng.integers(n, size=n // 3)] = 0.0
        if p.sum() == 0.0:
            p[0] = 1.0
        joint = JointPMF(p / p.sum())
        encs = [canonicalize(rng.integers(0, n, size=n)) for _ in range(6)]
        block = np.array([f.assignment for f in encs], dtype=np.uint8)
        pushed = _push(block, joint.p, n)
        for f, z in zip(encs, pushed):
            assert np.array_equal(z[: f.m], push_forward(joint, f).p)
            assert not z[f.m :].any()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_one_labeling_many_joints(self, seed, n, ny):
        rng = np.random.default_rng(seed)
        draws = rng.multinomial(300, np.full(n * ny, 1 / (n * ny)), size=7)
        joints = draws.reshape(7, n, ny) / 300
        f = canonicalize(rng.integers(0, n, size=n))
        labels = np.broadcast_to(np.array(f.assignment, dtype=np.uint8), (7, n))
        pushed = _push(labels, joints, f.m)
        for p, z in zip(joints, pushed):
            assert np.array_equal(z, push_forward(JointPMF(p), f).p)


class TestMergeObjectives:
    """The batched kernels, the search's merge_objectives and the oracle's
    _objectives(_push(...)), against the from-scratch evaluation and the
    closed form push_forward + mutual_information."""

    @given(
        st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(1, 4),
        st.booleans(), st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, seed, n, ny, zero_rows, dup_rows):
        rng = np.random.default_rng(seed)
        p = rng.exponential(size=(n, ny))
        if zero_rows:
            p[rng.integers(n, size=n // 2)] = 0.0
        if dup_rows:
            p[rng.integers(n, size=n // 2)] = p[rng.integers(n)]
        if p.sum() == 0.0:
            p[0] = 1.0
        joint = JointPMF(p / p.sum())
        ev = _JointEvaluator(joint)
        labels = rng.integers(0, n, size=(rng.integers(1, 5), n))
        labels[:, :2] = [0, 1]  # at least two clusters
        parents = np.array([canonicalize(r).assignment for r in labels], dtype=np.uint8)
        parent = rng.integers(len(parents), size=8)
        pairs = [rng.choice(int(parents[k].max()) + 1, size=2, replace=False) for k in parent]
        i_idx, j_idx = np.sort(pairs, axis=1).T
        xs, ys = ev.merge_objectives(parents, parent, i_idx, j_idx)
        keys = []
        for k in range(len(parent)):
            lab = parents[parent[k]]
            f = canonicalize(np.where(lab == j_idx[k], i_idx[k], lab))
            key = bytes(f.assignment)
            child = _merge_children(lab[None], i_idx[k : k + 1], j_idx[k : k + 1])
            assert child.tobytes() == key
            keys.append(key)
        # the oracle's kernel, on the same children padded to n clusters
        block = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(-1, n)
        bx, by = _objectives(_push(block, joint.p, n), ev.hy)
        for k, key in enumerate(keys):
            pushed = push_forward(joint, Encoder(tuple(key)))
            closed = (-entropy(pushed.marginal_x()), mutual_information(pushed))
            for x, y in (ev.evaluate(key), closed):
                for u, v in ((xs[k], ys[k]), (bx[k], by[k])):
                    assert u == pytest.approx(x, abs=1e-12)
                    assert v == pytest.approx(y, abs=1e-12)

    @pytest.mark.parametrize(
        "make_evaluator",
        [lambda: _JointEvaluator(sample_simplex(4, 3, 5)),
         lambda: _TripleEvaluator(dm.TripleJointPMF(np.full((4, 4, 3), 1 / 48)))],
        ids=["plain", "symmetric"],
    )
    def test_empty_selection(self, make_evaluator):
        # a kernel slice whose children all occurred earlier in the level
        parents = np.array([[0, 1, 2, 3], [0, 1, 1, 2]], dtype=np.uint8)
        empty = np.zeros(0, dtype=np.intp)
        xs, ys = make_evaluator().merge_objectives(parents, empty, empty, empty)
        assert xs.shape == ys.shape == (0,)

    def test_single_symbol_evaluates_only_the_identity(self):
        joint = JointPMF(np.array([[0.5, 0.5]]))
        for eps in (0.0, math.inf):
            frontier, stats = pareto_mapper(joint, SearchConfig(eps, seed=0))
            assert (stats.points_searched, stats.enqueued, len(frontier)) == (1, 1, 1)


class TestDmcPoints:
    def test_diag_run(self):
        frontier, _ = pareto_mapper(DIAG2, SearchConfig(0.0, seed=1))
        pts = dmc_points(frontier)
        assert [p.encoder.m for p in pts] == [1, 2]

    def test_monotone_and_bounded(self):
        joint = sample_simplex(8, 5, seed=71)
        frontier, _ = pareto_mapper(joint, SearchConfig(math.inf, seed=1))
        pts = dmc_points(frontier)
        ms = [p.encoder.m for p in pts]
        ys = [p.y for p in pts]
        assert ms == sorted(set(ms))
        assert len(pts) <= joint.nx
        assert all(a <= b + 1e-9 for a, b in zip(ys, ys[1:]))

    def test_requires_encoders(self):
        ps = ParetoSet()
        ps.add(ParetoPoint(0.0, 0.0))
        with pytest.raises(ValueError):
            dmc_points(ps)


class TestUpperHull:
    def test_collinear_points_all_retained(self):
        ps = ParetoSet()
        for x, y in [(-2.0, 2.0), (-1.0, 1.0), (0.0, 0.0)]:
            ps.add(ParetoPoint(x, y))
        assert len(upper_hull(ps)) == 3

    def test_point_below_chord_dropped(self):
        # at x = 0.5 the chord from (0, 1) to (1, 2) has y = 1.5 > 1.2
        pts = [ParetoPoint(0.0, 1.0), ParetoPoint(0.5, 1.2), ParetoPoint(1.0, 2.0)]
        hull = upper_hull(pts)
        assert [(p.x, p.y) for p in hull] == [(0.0, 1.0), (1.0, 2.0)]

    def test_singleton(self):
        ps = ParetoSet()
        ps.add(ParetoPoint(0.3, 0.4))
        assert [(p.x, p.y) for p in upper_hull(ps)] == [(0.3, 0.4)]

    def test_hull_lies_weakly_above_frontier(self):
        joint = sample_simplex(8, 5, seed=5)
        frontier, _ = pareto_mapper(joint, SearchConfig(math.inf, seed=1))
        hull = upper_hull(frontier)
        hx = [p.x for p in hull]
        hy = [p.y for p in hull]
        assert hull[0] is frontier[0] and hull[-1] is frontier[len(frontier) - 1]
        for p in frontier:
            chord_y = np.interp(p.x, hx, hy)
            assert p.y <= chord_y + 1e-9
