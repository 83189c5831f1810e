import hashlib
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dibmap as dm
from dibmap import (
    CapacityError,
    JointPMF,
    ParetoPoint,
    ParetoSet,
    bell_number,
    brute_force_frontier,
    enumerate_partitions,
    precision_recall,
    sample_simplex,
)
from dibmap.distributions import xlog2x
from dibmap.encoders import canonicalize
from dibmap.mapper import _objectives, _push
from dibmap.oracle import BLOCK_ROWS, SCORE_BLOCK, _rgs_blocks


class TestEnumeration:
    def test_single_element(self):
        assert [f.assignment for f in enumerate_partitions(1)] == [(0,)]

    def test_three_elements(self):
        got = [f.assignment for f in enumerate_partitions(3)]
        assert got == [
            (0, 0, 0),
            (0, 0, 1),
            (0, 1, 0),
            (0, 1, 1),
            (0, 1, 2),
        ]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts_match_bell(self, n):
        assert sum(1 for _ in enumerate_partitions(n)) == bell_number(n)

    def test_bell_ten(self):
        assert bell_number(10) == 115_975
        assert sum(1 for _ in enumerate_partitions(10)) == 115_975

    def test_unique_and_lexicographic(self):
        seen = [f.assignment for f in enumerate_partitions(6)]
        assert len(set(seen)) == len(seen) == bell_number(6)
        assert seen == sorted(seen)

    def test_cap(self):
        with pytest.raises(CapacityError):
            next(enumerate_partitions(14))
        with pytest.raises(ValueError):
            next(enumerate_partitions(0))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_blocks_are_every_canonical_labeling_in_order(self, n):
        every = sorted({canonicalize(a).assignment
                        for a in itertools.product(range(n), repeat=n)})
        got = [tuple(r) for r in np.concatenate(list(_rgs_blocks(n))).tolist()]
        assert got == every

    def test_blocks_are_bounded(self):
        sizes = [len(b) for b in _rgs_blocks(10)]
        assert sum(sizes) == bell_number(10)
        assert len(sizes) > 1 and max(sizes) <= BLOCK_ROWS

    def test_bell_recurrence(self):
        # B(n+1) = sum_k C(n, k) B(k)
        for n in range(12):
            rhs = sum(math.comb(n, k) * bell_number(k) for k in range(n + 1))
            assert bell_number(n + 1) == rhs


def diagonal_joint():
    """Nine symbols with Y = X: every partition is on the frontier."""
    w = np.random.default_rng(9).random(9)
    return JointPMF(np.diag(w / w.sum()))


def repeated_row_joint():
    """Ten rows drawn from four: many partitions tie exactly."""
    base = sample_simplex(4, 3, 7).p
    p = base[[0, 1, 2, 3, 0, 1, 2, 0, 1, 0]]
    return JointPMF(p / p.sum())


class TestBruteForceFrontier:
    def test_two_by_two_diag(self):
        frontier = brute_force_frontier(JointPMF(np.diag([0.5, 0.5])))
        assert sorted((p.x, p.y) for p in frontier) == [(-1.0, 1.0), (0.0, 0.0)]

    def test_diagonal_joint_keeps_every_partition(self):
        rng = np.random.default_rng(6)
        r = rng.exponential(size=6)
        frontier = brute_force_frontier(JointPMF(np.diag(r / r.sum())))
        assert len(frontier) == bell_number(6) == 203

    def test_independent_joint_collapses_to_origin(self):
        # dyadic marginals keep every log2 exact, so I is exactly 0 for
        # every encoder and only the origin survives
        u = np.array([0.5, 0.5])
        v = np.array([0.5, 0.25, 0.25])
        frontier = brute_force_frontier(JointPMF(np.outer(u, v)))
        assert [(p.x, p.y) for p in frontier] == [(0.0, 0.0)]

    def test_independent_joint_generic_marginals(self):
        # general product joints evaluate I to float noise, not exact zero
        u = np.array([0.1, 0.2, 0.3, 0.4])
        v = np.array([0.5, 0.25, 0.25])
        frontier = brute_force_frontier(JointPMF(np.outer(u, v)))
        assert all(abs(p.y) <= 1e-12 for p in frontier)
        assert max(p.x for p in frontier) == 0.0

    def test_output_mutually_non_dominated(self):
        frontier = brute_force_frontier(sample_simplex(7, 4, seed=3))
        pts = [(p.x, p.y) for p in frontier]
        for i, (x, y) in enumerate(pts):
            for j, (qx, qy) in enumerate(pts):
                if i != j:
                    assert not (qx >= x and qy >= y)

    def test_encoders_attached_and_valid(self):
        joint = sample_simplex(6, 3, seed=9)
        for p in brute_force_frontier(joint):
            pushed = dm.push_forward(joint, p.encoder)
            assert -dm.entropy(pushed.marginal_x()) == pytest.approx(p.x, abs=1e-9)
            assert dm.mutual_information(pushed) == pytest.approx(p.y, abs=1e-9)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            brute_force_frontier(sample_simplex(14, 2, seed=0))

    @pytest.mark.parametrize(
        "make_joint", [repeated_row_joint, diagonal_joint], ids=["repeated-rows", "diag9"]
    )
    def test_block_maxima_prefilter_changes_nothing(self, make_joint):
        # every partition offered, unfiltered, in lex order; diag9 keeps all
        # B(9) = 21,147, so later blocks merge into a frontier larger than them
        joint = make_joint()
        hy = float(-xlog2x(joint.marginal_y()).sum())
        full = ParetoSet()
        for block in _rgs_blocks(joint.nx):
            xs, ys = _objectives(_push(block, joint.p, joint.nx), hy)
            for labels, x, y in zip(block.tolist(), xs.tolist(), ys.tolist()):
                full.add(ParetoPoint(x, y, encoder=dm.Encoder(tuple(labels))))
        got = [(p.x, p.y, p.encoder) for p in brute_force_frontier(joint)]
        assert got == [(p.x, p.y, p.encoder) for p in full]


class TestGoldenFrontier:
    """Digests of exact frontier bytes, values and representative encoders.

    Any rewrite of the enumeration or the objective arithmetic must leave
    them unchanged: the repeated-row joint pins which encoder arrives first
    at an exact tie, and ny = 1 pins float noise around I = 0.
    """

    @pytest.mark.parametrize(
        "make_joint, want",
        [
            (lambda: sample_simplex(9, 5, 3),
             "0e54b6c0a0c22a8ed55e879b7984a5c8db88e2439d14cbaa5e97c600bdcb5451"),
            (lambda: sample_simplex(11, 1, 5),
             "4b1645a6721d316c765d62bb1fa38b9397c0d5f7b7fb7949d80cefe8766e7d11"),
            (repeated_row_joint,
             "606229077169f200376393a147024af63017b2ccc3b8006cb25e36315e71af8b"),
        ],
        ids=["9x5", "11x1", "repeated-rows-10x3"],
    )
    def test_digest(self, make_joint, want):
        frontier = brute_force_frontier(make_joint())
        text = "".join(f"{p.x!r} {p.y!r} {p.encoder.assignment}\n" for p in frontier)
        assert hashlib.sha256(text.encode()).hexdigest() == want


class TestPrecisionRecall:
    def test_perfect_match(self):
        truth = brute_force_frontier(sample_simplex(6, 4, seed=2))
        score = precision_recall(truth, truth)
        assert score.precision == 1.0 and score.recall == 1.0
        assert score.fp == 0 and score.fn == 0
        assert score.tp == score.points == len(truth)

    def test_empty_candidate(self):
        truth = brute_force_frontier(sample_simplex(5, 3, seed=4))
        score = precision_recall(ParetoSet(), truth)
        assert score.recall == 0.0
        assert score.precision == 1.0
        assert score.fn == len(truth)

    def test_partial_overlap(self):
        truth = ParetoSet()
        for x, y in [(-2.0, 2.0), (-1.0, 1.5), (0.0, 0.0)]:
            truth.add(ParetoPoint(x, y))
        cand = ParetoSet()
        for x, y in [(-2.0, 2.0), (-0.5, 0.5)]:
            cand.add(ParetoPoint(x, y))
        score = precision_recall(cand, truth)
        assert (score.points, score.tp, score.fp, score.fn) == (2, 1, 1, 2)
        assert score.precision == pytest.approx(0.5)
        assert score.recall == pytest.approx(1 / 3)

    def test_tolerance_window(self):
        truth = ParetoSet()
        truth.add(ParetoPoint(-1.0, 1.0))
        cand = ParetoSet()
        cand.add(ParetoPoint(-1.0 + 5e-10, 1.0 - 5e-10))
        assert precision_recall(cand, truth).tp == 1
        assert precision_recall(cand, truth, tol=1e-12).tp == 0

    @staticmethod
    def staircase(rng, n: int, scale: float) -> ParetoSet:
        """n points ascending in x and descending in y, on a grid of step scale."""
        xs = scale * np.cumsum(rng.integers(1, 4, n))
        ys = scale * np.cumsum(rng.integers(1, 4, n))[::-1]
        return ParetoSet(ParetoPoint(x, y) for x, y in zip(xs.tolist(), ys.tolist()))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_true=st.integers(0, 1200),
        n_cand=st.integers(0, 1200),
        tol=st.sampled_from([0.0, 1e-300, 1e-12, 1e-9, 1e-6]),
        scale=st.sampled_from([1e-12, 1e-9, 1e-6, 1.0, 1e3]),
    )
    def test_matches_dense_formula(self, seed, n_true, n_cand, tol, scale):
        rng = np.random.default_rng(seed)
        truth = self.staircase(rng, n_true, scale)
        true = truth.objectives()
        # truth points moved by whole and half tolerances, then by an ulp
        near = true[rng.random(len(true)) < 0.5]
        near = near + tol * rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], near.shape)
        ulps = rng.integers(-1, 2, near.shape)
        near = np.where(ulps == 0, near, np.nextafter(near, np.copysign(math.inf, ulps)))
        rows = np.concatenate((self.staircase(rng, n_cand, scale).objectives(), near))
        cand = ParetoSet(ParetoPoint(x, y) for x, y in rows.tolist())
        got = cand.objectives()

        close = (np.abs(got[:, None, 0] - true[None, :, 0]) <= tol) & (
            np.abs(got[:, None, 1] - true[None, :, 1]) <= tol
        )
        tp = int(close.any(axis=1).sum())
        fn = int((~close.any(axis=0)).sum())
        score = precision_recall(cand, truth, tol)
        assert (score.points, score.tp, score.fp, score.fn) == (len(got), tp, len(got) - tp, fn)

    def test_truth_point_in_two_blocks_keeps_its_match(self):
        # the last candidate of the first block matches the truth point; the
        # next block's only candidate lies within 2 * tol of it in x only
        n = SCORE_BLOCK
        rows = [(float(i - n + 1), float(n - i)) for i in range(n)] + [(1e-9, 0.0)]
        cand = ParetoSet(ParetoPoint(x, y) for x, y in rows)
        truth = ParetoSet([ParetoPoint(0.0, 1.0)])
        score = precision_recall(cand, truth, tol=1e-9)
        assert (score.points, score.tp, score.fn) == (n + 1, 1, 0)

    def test_large_frontier_scored_quickly(self):
        n = 200_000
        xs, ys = np.linspace(-10.0, 0.0, n).tolist(), np.linspace(5.0, 0.0, n).tolist()
        frontier = ParetoSet(ParetoPoint(x, y) for x, y in zip(xs, ys))
        t0 = time.perf_counter()
        score = precision_recall(frontier, frontier)
        elapsed = time.perf_counter() - t0
        assert (score.points, score.tp, score.fp, score.fn) == (n, n, 0, 0)
        assert elapsed < 2.0

    @pytest.mark.parametrize("tol", [-1e-9, math.nan, math.inf])
    def test_bad_tolerance_rejected(self, tol):
        truth = ParetoSet([ParetoPoint(-1.0, 1.0)])
        with pytest.raises(ValueError):
            precision_recall(truth, truth, tol=tol)
