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
from dibmap.mapper import _JointEvaluator, _objectives, _reduce_terms
from dibmap.oracle import (
    BLOCK_ROWS,
    SCORE_BLOCK,
    _encoders,
    _labels,
    _rgs_groups,
    _screen,
    _screen_slack,
    _subset_tables,
    _tail,
)
from push_reference import push


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

    @staticmethod
    def blocks(monkeypatch, n):
        """The cluster-mask blocks enumerate_partitions(n) turns into label
        rows, and the partitions it yields."""
        seen = []

        def labels(masks):
            seen.append(masks)
            return _labels(masks)

        monkeypatch.setattr(dm.oracle, "_labels", labels)
        return seen, [f.assignment for f in enumerate_partitions(n)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_blocks_are_every_canonical_labeling_in_order(self, monkeypatch, n):
        every = sorted({canonicalize(a).assignment
                        for a in itertools.product(range(n), repeat=n)})
        blocks, got = self.blocks(monkeypatch, n)
        masks = np.concatenate(blocks)
        # each row's clusters are disjoint and cover the n symbols
        assert masks.dtype == np.uint16 and masks.shape == (len(every), n)
        assert (np.bitwise_or.reduce(masks, axis=1) == 2**n - 1).all()
        assert (masks.sum(axis=1, dtype=np.int64) == 2**n - 1).all()
        assert [tuple(r) for r in _labels(masks).tolist()] == got == every

    def test_blocks_are_bounded(self, monkeypatch):
        blocks, got = self.blocks(monkeypatch, 10)
        sizes = [len(b) for b in blocks]
        assert sum(sizes) == len(got) == bell_number(10)
        assert len(sizes) > 1 and max(sizes) <= BLOCK_ROWS

    def test_bell_recurrence(self):
        # B(n+1) = sum_k C(n, k) B(k)
        for n in range(12):
            rhs = sum(math.comb(n, k) * bell_number(k) for k in range(n + 1))
            assert bell_number(n + 1) == rhs


def diagonal_joint(n: int = 9, seed: int = 9) -> JointPMF:
    """n symbols with Y = X: every partition is on the frontier."""
    w = np.random.default_rng(seed).random(n)
    return JointPMF(np.diag(w / w.sum()))


def repeated_row_joint():
    """Ten rows drawn from four: many partitions tie exactly."""
    base = sample_simplex(4, 3, 7).p
    p = base[[0, 1, 2, 3, 0, 1, 2, 0, 1, 0]]
    return JointPMF(p / p.sum())


def offer_every_partition(joint):
    """(x, y, encoder) of every partition, scored with the bits of the
    search's evaluate (one batch per cluster count), offered to a ParetoSet
    one at a time in lex order."""
    encoders = list(enumerate_partitions(joint.nx))
    block = np.array([e.assignment for e in encoders], dtype=np.uint8)
    xs, ys = exact_objectives(block, joint.p, _JointEvaluator(joint).hy)
    offered = ParetoSet()
    for x, y, e in zip(xs.tolist(), ys.tolist(), encoders):
        offered.add(ParetoPoint(x, y, encoder=e))
    return [(p.x, p.y, p.encoder) for p in offered]


def exact_objectives(block, p, hy):
    """The exact objectives of every label row of a block, as the search
    scores them: one _objectives(push(...)) batch per cluster count. The
    oracle gathers its terms from subset tables instead; these are the
    values its screen and its exact stage are checked against."""
    xs, ys = np.empty(len(block)), np.empty(len(block))
    ms = block.max(axis=1)
    for m in set(ms.tolist()):
        at = ms == m
        xs[at], ys[at] = _objectives(push(block[at], p, m + 1), hy)
    return xs, ys


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

    def test_only_the_frontier_becomes_label_rows(self, monkeypatch):
        rows = []

        def labels(masks):
            rows.append(len(masks))
            return _labels(masks)

        monkeypatch.setattr(dm.oracle, "_labels", labels)
        frontier = brute_force_frontier(sample_simplex(9, 5, 3))
        assert rows == [len(frontier)] and len(frontier) < bell_number(9)

    @pytest.mark.parametrize(
        "make_joint", [repeated_row_joint, diagonal_joint], ids=["repeated-rows", "diag9"]
    )
    def test_block_maxima_prefilter_changes_nothing(self, make_joint):
        # every partition offered, unfiltered, in lex order; diag9 keeps all
        # B(9) = 21,147, so later blocks merge into a frontier larger than them
        joint = make_joint()
        got = [(p.x, p.y, p.encoder) for p in brute_force_frontier(joint)]
        assert got == offer_every_partition(joint)


def tied_joint(seed: int) -> JointPMF:
    """n = 5..8 rows drawn from three exponential rows: many partitions
    with different cells tie exactly in (x, y)."""
    rng = np.random.default_rng(seed)
    n, ny = rng.integers(5, 9), rng.integers(2, 6)
    base = rng.exponential(size=(3, ny))
    p = base[rng.integers(0, 3, size=n)]
    return JointPMF(p / p.sum())


class TestSearchAgreesOnTies:
    def test_infinite_epsilon_search_gives_the_oracle_points(self):
        # the search at eps = inf offers every partition; both score them
        # with one reduction, so exact ties are decided alike
        for name, joint in [*((s, tied_joint(s)) for s in range(40)),
                            ("repeated-rows", repeated_row_joint())]:
            search, _ = dm.pareto_mapper(joint, dm.SearchConfig(math.inf, 1))
            want = [(p.x, p.y) for p in brute_force_frontier(joint)]
            assert [(p.x, p.y) for p in search] == want, name


class TestMergePrefilter:
    """Each merge drops the block rows the frontier so far weakly dominates,
    exact ties to the frontier's earlier representative; with small blocks
    that happens at many block boundaries."""

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_exact_ties_keep_the_lex_first_representative(self, monkeypatch, n):
        # rows drawn from two, so many partitions tie exactly in (x, y)
        p = sample_simplex(2, 3, n).p[[k % 2 for k in range(n)]]
        joint = JointPMF(p / p.sum())
        monkeypatch.setattr(dm.oracle, "BLOCK_ROWS", 16)
        # one block per prefix of n - 2 labels
        groups = list(_rgs_groups(n))
        assert len(groups) == bell_number(n - 2)
        scored = []  # (block, cluster count, rows) of each exact-stage batch

        def numbered_groups(n):
            for k, group in enumerate(groups):
                scored.append((k, None, 0))
                yield group

        def reduce_terms(cells, masses, hy):
            scored.append((scored[-1][0], masses.shape[1], len(masses)))
            return _reduce_terms(cells, masses, hy)

        monkeypatch.setattr(dm.oracle, "_rgs_groups", numbered_groups)
        monkeypatch.setattr(dm.oracle, "_reduce_terms", reduce_terms)
        got = [(p.x, p.y, p.encoder) for p in brute_force_frontier(joint)]
        assert got == offer_every_partition(joint)
        assert len(got) < bell_number(n)
        batches = [(k, m, rows) for k, m, rows in scored if m is not None]
        # each batch holds rows of one cluster count, one batch per count
        assert all(rows > 0 for _, _, rows in batches)
        assert len({(k, m) for k, m, _ in batches}) == len(batches)
        # the screen drops some block whole: its exact stage gets no rows
        assert {k for k, _, _ in batches} < set(range(len(groups)))

    @pytest.mark.parametrize("seed", [2204, 2205])
    def test_first_block_is_screened_against_its_own_maxima(self, monkeypatch, seed):
        # the first block meets an empty frontier; its rows that another
        # row beats by 3 delta in both screening values are dropped, so
        # few reach the exact stage, and the frontier does not change
        joint = sample_simplex(8, 5, seed)
        events = []  # ("block", rows) per screened block, ("exact", rows) per batch

        def screen(*args):
            out = _screen(*args)
            events.append(("block", len(out[0])))
            return out

        def reduce_terms(cells, masses, hy):
            events.append(("exact", len(masses)))
            return _reduce_terms(cells, masses, hy)

        monkeypatch.setattr(dm.oracle, "_screen", screen)
        monkeypatch.setattr(dm.oracle, "_reduce_terms", reduce_terms)
        got = [(p.x, p.y, p.encoder) for p in brute_force_frontier(joint)]
        assert got == offer_every_partition(joint)
        second = [kind for kind, _ in events].index("block", 1)
        assert events[0][0] == "block"
        exact = sum(rows for _, rows in events[1:second])
        assert 0 < exact < events[0][1] // 10

    @pytest.mark.parametrize(
        "make_joint",
        [lambda: sample_simplex(8, 1, 4), lambda: diagonal_joint(7, 2)],
        ids=["8x1", "diag7"],
    )
    def test_matches_offering_every_partition(self, monkeypatch, make_joint):
        # ny = 1 leaves I in float noise around 0 and the diagonal joint
        # puts every partition on the frontier: the screen keeps every row
        joint = make_joint()
        monkeypatch.setattr(dm.oracle, "BLOCK_ROWS", 16)
        got = [(p.x, p.y, p.encoder) for p in brute_force_frontier(joint)]
        assert got == offer_every_partition(joint)


def kernel_joint(n, ny, kind, seed) -> np.ndarray:
    """An n x ny joint of one of the kernel tests' kinds."""
    rng = np.random.default_rng(seed)
    p = np.diag(rng.random(n)) if kind == "diagonal" else rng.random((n, ny))
    if kind == "zero-rows":
        p[1:][rng.random(n - 1) < 0.5] = 0.0
    if kind == "repeated-rows":
        p = p[rng.integers(0, max(1, n // 3), n)]
    return p / p.sum()


KINDS = ["simplex", "zero-rows", "repeated-rows", "diagonal"]


class TestPrefixKernel:
    @staticmethod
    def check_groups(n, p):
        hy = float(-xlog2x(p.sum(axis=0)).sum())
        delta = _screen_slack(n, p.shape[1])
        terms, rows, masses = _subset_tables(p)
        assert terms.shape == (2**n, p.shape[1]) and rows.shape == masses.shape == (2**n,)
        head = _tail(n).start
        assert head == max(1, n - 2) and _tail(n).stop == n
        for pre, counts in _rgs_groups(n):
            # a group's prefixes hold the symbols before the tail
            assert pre.dtype == np.uint16 and pre.shape[1] == n
            assert not (pre >> head).any()
            np.testing.assert_array_equal(counts, _labels(pre).max(axis=1) + 1)
            sx, sy, masks, ms = _screen(pre, counts, rows, masses, hy)
            block = _labels(masks)
            # the block extends each prefix in turn, in lex order, and
            # carries each row's cluster count
            own = masks & np.uint16((1 << head) - 1)
            first = np.append(True, (own[1:] != own[:-1]).any(axis=1))
            np.testing.assert_array_equal(own[first], pre)
            assert [tuple(r) for r in block.tolist()] == sorted(map(tuple, block.tolist()))
            np.testing.assert_array_equal(ms, block.max(axis=1) + 1)
            x, y = exact_objectives(block, p, hy)
            assert sx.shape == sy.shape == (len(block),)
            assert np.all(np.abs(sx - x) <= delta) and np.all(np.abs(sy - y) <= delta)
            # the subset terms of a row's masks are those of its push, bit
            # for bit; empty clusters gather the empty subset's zero terms,
            # as the push pads
            assert masks.dtype == np.uint16
            pushed = push(block, p, n)
            assert terms[masks].tobytes() == xlog2x(pushed).tobytes()
            assert masses[masks].tobytes() == xlog2x(pushed.sum(axis=-1)).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 9),
        ny=st.sampled_from([1, 2, 5, 30]),
        kind=st.sampled_from(KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_screen_within_slack_of_full_push(self, n, ny, kind, seed):
        self.check_groups(n, kernel_joint(n, ny, kind, seed))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_to_three_symbols(self, n, kind):
        # the prefix holds one label: n = 1 and 2 have no or one position
        # after it, n = 3 the usual two
        for seed in range(3):
            self.check_groups(n, kernel_joint(n, 5, kind, seed))


class TestScreen:
    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(1, 9),
        ny=st.sampled_from([1, 2, 5, 30]),
        kind=st.sampled_from(KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_screen_is_within_slack_and_drops_only_dominated_rows(self, n, ny, kind, seed):
        p = kernel_joint(n, ny, kind, seed)
        hy = float(-xlog2x(p.sum(axis=0)).sum())
        delta = _screen_slack(n, p.shape[1])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dm.oracle, "BLOCK_ROWS", 16)
            groups = list(_rgs_groups(n))
        so_far = ParetoSet()
        terms = _subset_tables(p)[1:]
        for group in groups:
            sx, sy, masks, _ = _screen(*group, *terms, hy)
            x, y = exact_objectives(_labels(masks), p, hy)
            assert np.all(np.abs(sx - x) <= delta) and np.all(np.abs(sy - y) <= delta)
            rows = zip((sx + delta).tolist(), (sy + delta).tolist(), x.tolist(), y.tolist())
            for cx, cy, xi, yi in rows:
                # a row the frontier so far drops by its corner, it drops exactly
                assert so_far.is_optimal(cx, cy) or not so_far.is_optimal(xi, yi)
            for xi, yi in zip(x.tolist(), y.tolist()):
                so_far.add(ParetoPoint(xi, yi))


class TestEncoders:
    def test_rows_become_their_encoders(self):
        rows = np.array([[0, 0, 0], [0, 1, 0], [0, 1, 2]], dtype=np.uint8)
        assert _encoders(rows) == [dm.Encoder(tuple(r)) for r in rows.tolist()]

    @pytest.mark.parametrize("row", [[1, 0, 0], [0, 2, 1], [0, 1, 3]])
    def test_non_canonical_rows_rejected(self, row):
        rows = np.array([[0, 1, 1], row], dtype=np.uint8)
        with pytest.raises(ValueError):
            _encoders(rows)


class TestGoldenFrontier:
    """Digests of exact frontier bytes, values and representative encoders.

    Any rewrite of the enumeration or the objective arithmetic must leave
    them unchanged: the repeated-row joint pins which encoder arrives first
    at an exact tie, ny = 1 pins float noise around I = 0, the diagonal
    joint keeps every partition, and the zero-rows joint has clusters of
    zero mass.
    """

    @pytest.mark.parametrize(
        "make_joint, want",
        [
            (lambda: sample_simplex(9, 5, 3),
             "896aea75598091ac63734af91387ee7063bab10d590cc3d7c841f4e8fd8e590b"),
            (lambda: sample_simplex(11, 1, 5),
             "4b1645a6721d316c765d62bb1fa38b9397c0d5f7b7fb7949d80cefe8766e7d11"),
            (lambda: sample_simplex(11, 30, 5),
             "a57b6ba6823720edf48cb0e6ceee1f3a22f47502f329741b2f24f58bf0494e18"),
            (repeated_row_joint,
             "3437bdc60c5019661d429b656884d992ff44fdb54045b1048199c89dfe341b27"),
            (lambda: diagonal_joint(10),
             "24ffb735db0538de2b52fe7a562c6d648bbb035977d8fa46982a3ac8f462007d"),
            (lambda: JointPMF(kernel_joint(10, 5, "zero-rows", 1)),
             "1a55984cbef068d45385957cf0ea787e96de7677126c2959fea6f901d2df5264"),
        ],
        ids=["9x5", "11x1", "11x30", "repeated-rows-10x3", "diag10", "zero-rows-10x5"],
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
