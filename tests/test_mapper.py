import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from dibmap.distributions import xlog2x
from dibmap.encoders import canonicalize
from dibmap.mapper import (
    OFFER_BLOCK,
    _distinct_clusters,
    _first_children,
    _JointEvaluator,
    _key_weights,
    _merge_table,
    _objectives,
    _reach,
    _screen,
)
from dibmap.symmetric import _TripleEvaluator
from push_reference import push
from search_reference import screen as reference_screen, search as reference_search, search_bytes

DIAG2 = JointPMF(np.diag([0.5, 0.5]))


def frontier_pairs(frontier):
    return sorted((p.x, p.y) for p in frontier)


def one_row(ev, labels):
    """An evaluator's objectives of one clustering, as a one-row batch."""
    xs, ys = ev.objectives(np.asarray(labels)[None])
    return float(xs[0]), float(ys[0])


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

    @pytest.mark.parametrize("epsilon", [True, False])
    def test_bool_epsilon_rejected(self, epsilon):
        # a bool would reach the JSON meta as "epsilon": true
        with pytest.raises(ValueError, match="epsilon"):
            SearchConfig(epsilon, 0)

    @pytest.mark.parametrize("epsilon", ["0.1", "inf", None, [0.1]])
    def test_non_numeric_epsilon_rejected(self, epsilon):
        # a library caller, unlike the CLI, passes epsilon unparsed
        with pytest.raises(ValueError, match="epsilon"):
            SearchConfig(epsilon, 0)

    @pytest.mark.parametrize("epsilon", [0, 0.05, np.float64(0.05), np.int64(1), math.inf])
    def test_real_epsilon_accepted(self, epsilon):
        _, stats = pareto_mapper(DIAG2, SearchConfig(epsilon, 0))
        assert stats.points_searched == 2

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, False, "3", None, np.int64(-2)])
    def test_bad_seed_rejected(self, seed):
        # numpy would refuse these only once the search draws
        with pytest.raises(ValueError, match="seed"):
            SearchConfig(0.0, seed)

    @pytest.mark.parametrize("seed", [0, np.int64(7), np.uint64(2**64 - 1), 2**70])
    def test_integer_seeds_accepted(self, seed):
        _, stats = pareto_mapper(DIAG2, SearchConfig(0.05, seed))
        assert stats.points_searched == 2


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
            # a child's labels read as one mixed-radix number exceed 2^64 on
            # levels 24..10 of 24 symbols: pins dedup across several key words
            (lambda: sample_simplex(24, 5, 1), SearchConfig(0.0, 3), (761879, 9741, 324),
             "ce205604635ed6041b11c12573f3165e45b6c29b4dc75c5bc6e4be9e7db1aeca"),
        ],
        ids=["9x5-eps0", "9x5-eps0.02", "9x5-eps0.05", "9x5-eps0.3", "9x5-inf",
             "20x20-counts-eps0", "10x5-eps0.3", "24x5-eps0"],
    )
    def test_counts(self, make_joint, cfg, want, digest):
        frontier, stats = pareto_mapper(make_joint(), cfg)
        assert (stats.points_searched, stats.enqueued, len(frontier)) == want
        assert frontier_digest(frontier) == digest


def search_problem(kind):
    """A small plain or symmetric (search, problem) pair."""
    if kind == "plain":
        return pareto_mapper, sample_simplex(8, 4, 3)
    p = np.random.default_rng(3).exponential(size=(6, 6, 3))
    return dm.symmetric_pareto_mapper, dm.TripleJointPMF(p / p.sum())


class TestOfferQueries:
    """Each live child is decided on one value: only a near child is offered
    to add, and only a keep draw at 0 < epsilon < inf asks distance, once,
    for a child that did not enter."""

    @pytest.mark.parametrize("kind", ["plain", "symmetric"])
    @pytest.mark.parametrize("epsilon", [0.0, 0.05, math.inf])
    def test_distance_only_for_a_keep_draw(self, monkeypatch, kind, epsilon):
        offered, entered, asked = [], set(), []

        class SpySet(ParetoSet):
            def add(self, p):
                offered.append((p.x, p.y))
                if super().add(p):
                    entered.add((p.x, p.y))
                    return True
                return False

            def distance(self, x, y):
                asked.append((x, y))
                return super().distance(x, y)

        monkeypatch.setattr(dm.mapper, "ParetoSet", SpySet)
        search, problem = search_problem(kind)
        _, stats = search(problem, SearchConfig(epsilon, 1))
        assert 1 < len(entered) <= len(offered) <= stats.points_searched
        if epsilon in (0.0, math.inf):
            assert not asked
        else:
            # no two children of these problems share a value, so a value
            # asked twice would be one child asked twice
            assert asked and len(set(asked)) == len(asked)
            assert not entered.intersection(asked)
            assert len(asked) + len(entered) <= stats.points_searched


@st.composite
def small_joints(draw):
    """Joints of at most 8 symbols: rows of small integer weights from a
    pool of at most three, so rows repeat, zero rows among them, or a
    random simplex joint."""
    if draw(st.booleans()):
        return sample_simplex(draw(st.integers(1, 8)), draw(st.integers(1, 4)),
                              draw(st.integers(0, 2**32 - 1)))
    ny = draw(st.integers(1, 3))
    row = st.lists(st.integers(0, 3), min_size=ny, max_size=ny)
    pool = draw(st.lists(row, min_size=1, max_size=3)) + [[0] * ny]
    p = np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8)), dtype=float)
    p[0, 0] += p.sum() == 0
    return JointPMF(p / p.sum())


class TestReferenceSearch:
    """The level-batched search against the one-child-at-a-time reference
    (tests/search_reference.py): same frontier bytes, same counters."""

    @pytest.mark.parametrize("epsilon", [0.0, math.inf])
    @given(joint=small_joints(), seed=st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference(self, epsilon, joint, seed):
        cfg = SearchConfig(epsilon, seed)
        want = reference_search(_JointEvaluator(joint), cfg)
        assert search_bytes(*pareto_mapper(joint, cfg)) == search_bytes(*want)

    @pytest.mark.parametrize(
        "joint",
        [sample_simplex(8, 4, 3), sample_simplex(7, 5, 11),
         JointPMF(np.array([[1, 2], [1, 2], [0, 0], [3, 0], [1, 2], [0, 1], [3, 0]]) / 16)],
        ids=["8x4", "7x5", "repeated-and-zero-rows"],
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_reference_at_finite_epsilon(self, joint, seed):
        cfg = SearchConfig(0.05, seed)
        want = reference_search(_JointEvaluator(joint), cfg)
        assert search_bytes(*pareto_mapper(joint, cfg)) == search_bytes(*want)


class TestDistinctClusters:
    """The cluster table shared by the plain merge kernel and the bootstrap:
    every cluster maps to its own membership row, and each distinct row is
    in the table once, for keys of one to four uint64 words."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 255), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_rows_and_slots(self, seed, n, count):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, min(n, 4) + 1))
        parents = labels_with_m_clusters(rng, n, m, count)[rng.integers(count, size=count)]
        rows, slot = _distinct_clusters(np.arange(0, count * m, m)[:, None] + parents, count * m)
        member = parents[:, None, :] == np.arange(m)[:, None]
        assert np.array_equal(rows[slot], member.reshape(count * m, n))
        assert len(np.unique(rows, axis=0)) == len(rows)


class TestScreen:
    """The level screen, which first drops the children the level-start
    staircase dominates, against the block-only reference
    (tests/search_reference.py): same live children, same near flags."""

    @pytest.mark.parametrize("epsilon", [0.0, 0.05, math.inf])
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 4 * OFFER_BLOCK))
    @settings(max_examples=40, deadline=None)
    def test_matches_block_reference(self, epsilon, seed, size):
        rng = np.random.default_rng(seed)
        frontier = ParetoSet()
        fx = np.sort(rng.uniform(-4.0, 0.0, rng.integers(1, 30)))
        for x, y in zip(fx.tolist(), np.sort(rng.uniform(0.0, 2.0, len(fx)))[::-1].tolist()):
            frontier.add(ParetoPoint(x, y))
        # children at frontier points moved by offsets about INFO_TOL, so
        # some are near, some enter the staircase and some are screened
        at = frontier.objectives()[rng.integers(len(frontier), size=size)]
        offsets = np.array([0.0, 1e-10, 1e-9, 2e-9, 3e-9, 1e-6, 1e-2, 0.3])
        step = offsets[rng.integers(len(offsets), size=(size, 2))]
        step *= rng.choice([-1.0, 1.0], size=(size, 2))
        xs, ys = (at + step).T.copy()
        draws = rng.random(size)
        draws[rng.random(size) < 0.01] = 0.0  # reach inf: never screened
        reach = _reach(draws, epsilon)
        live, is_near = _screen(frontier, xs, ys, reach)
        want_live, want_near = reference_screen(frontier, xs, ys, reach)
        assert live.dtype == want_live.dtype and is_near.dtype == want_near.dtype
        assert np.array_equal(live, want_live) and np.array_equal(is_near, want_near)


def unique_children(level):
    """Reference dedup: every child's labels, parent-major then in pair
    order, and the first occurrence of each distinct row."""
    i_idx, j_idx = np.triu_indices(int(level.max()) + 1, k=1)
    a = level[:, None, :]
    i = i_idx.astype(np.uint8)[:, None]
    j = j_idx.astype(np.uint8)[:, None]
    children = np.where(a == j, i, a - (a > j)).reshape(-1, level.shape[1])
    new = np.unique(children.view(f"V{level.shape[1]}").ravel(), return_index=True)[1]
    new.sort()
    return new


def random_level(rng, n, m, distinct, size):
    """size canonical label rows with m clusters each, drawn with repeats
    from `distinct` random ones; labels skew low, so children collide."""
    rows = []
    for _ in range(distinct):
        labels = rng.integers(0, rng.integers(1, m + 1), size=n)
        labels[rng.permutation(n)[:m]] = np.arange(m)
        rows.append(canonicalize(labels).assignment)
    return np.array(rows, dtype=np.uint8)[rng.integers(distinct, size=size)]


class TestFirstChildren:
    """The search's dedup on integer keys built from the parents keeps the
    same children as building every child's labels and deduplicating rows."""

    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_row_dedup(self, seed, n, data):
        rng = np.random.default_rng(seed)
        m = data.draw(st.integers(2, n))
        distinct = data.draw(st.integers(1, 6))
        level = random_level(rng, n, m, distinct, data.draw(st.integers(1, 10)))
        assert np.array_equal(_first_children(level), unique_children(level))

    @pytest.mark.parametrize("n", [2, 5, 21, 40])
    def test_two_clusters_give_one_child(self, n):
        # every child of a 2-cluster level is the all-zero row
        level = random_level(np.random.default_rng(n), n, 2, 3, 5)
        assert _first_children(level).tolist() == [0]

    @pytest.mark.parametrize("n", [3, 9, 20, 24, 40])
    def test_identity_children_are_distinct(self, n):
        level = np.arange(n, dtype=np.uint8)[None]
        assert _first_children(level).tolist() == list(range(n * (n - 1) // 2))

    @pytest.mark.parametrize("n, m, words", [
        (20, 20, 1), (21, 21, 2), (24, 24, 2), (24, 10, 2), (24, 9, 1), (40, 40, 3),
        (255, 255, 28),
    ])
    def test_key_words(self, n, m, words):
        word, weight = _key_weights(n, m)
        assert word[-1] + 1 == words
        radix = np.minimum(np.arange(1, n + 1), m - 1)
        for k in range(words):
            # the largest key, sum (radix - 1) * weight, fits the word exactly
            top = sum(int(r - 1) * int(w) for r, w in zip(radix[word == k], weight[word == k]))
            assert top < 2**64


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
    """push, the reference push-forward of K label strings against one
    matrix that the batched kernels are checked against, against
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
        pushed = push(block, joint.p, n)
        for f, z in zip(encs, pushed):
            assert np.array_equal(z[: f.m], push_forward(joint, f).p)
            assert not z[f.m :].any()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_one_labeling_many_joints(self, seed, n, ny):
        # one string against 7 joints laid side by side in one (n, 7 * ny) matrix
        rng = np.random.default_rng(seed)
        draws = rng.multinomial(300, np.full(n * ny, 1 / (n * ny)), size=7)
        joints = draws.reshape(7, n, ny) / 300
        f = canonicalize(rng.integers(0, n, size=n))
        wide = joints.transpose(1, 0, 2).reshape(n, 7 * ny)
        labels = np.array([f.assignment], dtype=np.uint8)
        pushed = push(labels, wide, f.m).reshape(f.m, 7, ny).transpose(1, 0, 2)
        for p, z in zip(joints, pushed):
            assert np.array_equal(z, push_forward(JointPMF(p), f).p)

    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 5),
        st.integers(1, 6), st.booleans(), st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    @example(seed=0, n=6, ny=2, reps=3, zero_rows=True, dup_rows=True)
    def test_labelings_against_shared_joints(self, seed, n, ny, reps, zero_rows, dup_rows):
        # the bootstrap's form: K strings against R replicates laid side by
        # side in one (n, R * ny) matrix, the push unfolded to (K, R, m, ny)
        rng = np.random.default_rng(seed)
        joints = []
        for _ in range(reps):
            p = rng.exponential(size=(n, ny))
            if zero_rows:
                p[rng.integers(n, size=n // 2)] = 0.0
            if dup_rows:
                p[rng.integers(n, size=n // 2)] = p[rng.integers(n)]
            if p.sum() == 0.0:
                p[0] = 1.0
            joints.append(JointPMF(p / p.sum()))
        wide = np.stack([j.p for j in joints], axis=1).reshape(n, reps * ny)
        encs = [canonicalize(rng.integers(0, n, size=n)) for _ in range(4)]
        block = np.array([f.assignment for f in encs], dtype=np.uint8)
        pushed = push(block, wide, n).reshape(len(encs), n, reps, ny).transpose(0, 2, 1, 3)
        for f, zs in zip(encs, pushed):
            for joint, z in zip(joints, zs):
                assert np.array_equal(z[: f.m], push_forward(joint, f).p)
                assert not z[f.m :].any()


class TestMergeObjectives:
    """The batched kernels, the search's merge_objectives and
    _objectives(push(...)), whose terms reduction the oracle's exact stage
    and the bootstrap run, against the from-scratch evaluation and the closed form
    push_forward + mutual_information."""

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
            child = _merge_table(i_idx[k : k + 1], j_idx[k : k + 1], int(lab.max()) + 1)[0][lab]
            assert child.tobytes() == key
            keys.append(key)
        # the oracle's kernel, on the same children in one batch per cluster count
        block = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(-1, n)
        exact = {}
        ms = block.max(axis=1)
        for m in set(ms.tolist()):
            rows = block[ms == m]
            bx, by = _objectives(push(rows, joint.p, m + 1), ev.hy)
            exact.update(zip(map(bytes, rows), zip(bx.tolist(), by.tolist())))
        for k, key in enumerate(keys):
            x, y = one_row(ev, np.frombuffer(key, dtype=np.uint8))
            assert exact[key] == (x, y)
            pushed = push_forward(joint, Encoder(tuple(key)))
            closed = (-entropy(pushed.marginal_x()), mutual_information(pushed))
            for u, v in ((xs[k], ys[k]), closed):
                assert u == pytest.approx(x, abs=1e-12)
                assert v == pytest.approx(y, abs=1e-12)

    @pytest.mark.parametrize(
        "make_evaluator",
        [lambda: _JointEvaluator(sample_simplex(40, 30, 7)),
         lambda: _JointEvaluator(sample_simplex(70, 4, 7)),
         lambda: _JointEvaluator(sample_simplex(255, 2, 7)),
         lambda: _TripleEvaluator(dm.TripleJointPMF(
             (p := np.random.default_rng(7).exponential(size=(12, 12, 5))) / p.sum()))],
        ids=["plain-40x30", "plain-70x4", "plain-255x2", "symmetric-12"],
    )
    @pytest.mark.parametrize("level", ["identity", "half", "three"])
    def test_level_within_search_tolerance(self, make_evaluator, level):
        # the search decides a near child on its from-scratch value and every
        # other child on its merge-path value, which is decided the same only
        # while the two differ far less than INFO_TOL; here for every child
        # of the identity or of 8 random parents of n // 2 or 3 clusters. The
        # plain kernel keys a cluster by one uint64 word up to n = 64, by two
        # at n = 70 and by four at n = 255.
        ev = make_evaluator()
        if level == "identity":
            parents = np.arange(ev.n, dtype=np.uint8)[None]
        else:
            m = ev.n // 2 if level == "half" else 3
            parents = labels_with_m_clusters(np.random.default_rng(m), ev.n, m, 8)
        m = int(parents.max()) + 1
        i_idx, j_idx = np.triu_indices(m, k=1)
        parent = np.repeat(np.arange(len(parents)), len(i_idx))
        pair = np.tile(np.arange(len(i_idx)), len(parents))
        xs, ys = ev.merge_objectives(parents, parent, i_idx[pair], j_idx[pair])
        ex, ey = ev.objectives(_merge_table(i_idx, j_idx, m)[pair[:, None], parents[parent]])
        assert np.abs(xs - ex).max() <= 1e-12
        assert np.abs(ys - ey).max() <= 1e-12

    def test_fold_takes_each_distinct_pair_once(self, monkeypatch):
        # repeated and overlapping parents share clusters, so many children
        # unite the same two clusters: each distinct cluster is pushed and
        # each distinct pair folded once, cells (ny each) and mass
        ny, m = 4, 5
        ev = _JointEvaluator(sample_simplex(9, ny, 3))
        parents = random_level(np.random.default_rng(5), 9, m, 6, 12)
        i_idx, j_idx = np.triu_indices(m, k=1)
        parent = np.repeat(np.arange(len(parents)), len(i_idx))
        pair = np.tile(np.arange(len(i_idx)), len(parents))
        sizes = []

        def spy(a):
            sizes.append(np.size(a))
            return xlog2x(a)

        monkeypatch.setattr(dm.mapper, "xlog2x", spy)
        ev.merge_objectives(parents, parent, i_idx[pair], j_idx[pair])

        def cluster(k, c):
            return frozenset(np.flatnonzero(parents[k] == c).tolist())

        clusters = {cluster(k, c) for k in range(len(parents)) for c in range(m)}
        pairs = {frozenset((cluster(k, i_idx[t]), cluster(k, j_idx[t])))
                 for k, t in zip(parent, pair)}
        assert len(clusters) < len(parents) * m and len(pairs) < len(parent)
        want = [len(clusters) * ny, len(clusters), len(pairs) * ny, len(pairs)]
        assert sorted(sizes) == sorted(want)

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

    @pytest.mark.parametrize("m, ny", [(1, 1), (4, 3)])
    def test_empty_batch(self, m, ny):
        # an oracle block whose every row the screen drops
        xs, ys = _objectives(np.zeros((0, m, ny)), 1.0)
        assert xs.shape == ys.shape == (0,)
        assert xs.dtype == ys.dtype == np.float64

    def test_single_symbol_evaluates_only_the_identity(self):
        joint = JointPMF(np.array([[0.5, 0.5]]))
        for eps in (0.0, math.inf):
            frontier, stats = pareto_mapper(joint, SearchConfig(eps, seed=0))
            assert (stats.points_searched, stats.enqueued, len(frontier)) == (1, 1, 1)


def sorted_sum(terms):
    """Sum in ascending order: the reference reduction of the exact evaluators."""
    return float(np.sort(terms, axis=None).sum())


def reference_plain(ev, labels):
    """The plain evaluator's formula with one xlog2x and one sorted sum per
    entropy, cells and masses in separate arrays."""
    idx = np.frombuffer(bytes(labels), dtype=np.uint8)
    pushed = np.zeros((int(idx.max()) + 1, ev.rows.shape[1]))
    np.add.at(pushed, idx, ev.rows)
    hz = max(0.0, -sorted_sum(xlog2x(pushed.sum(axis=1))))
    hzy = -sorted_sum(xlog2x(pushed))
    return -hz, max(0.0, hz + ev.hy - hzy)


def reference_symmetric(ev, labels):
    """The symmetric evaluator's formula, as reference_plain."""
    q = ev._cells(np.frombuffer(bytes(labels), dtype=np.uint8)[None])[0]
    hz = max(0.0, -sorted_sum(xlog2x(q.sum(axis=2))))
    hzy = -sorted_sum(xlog2x(q))
    return -hz / 2.0, max(0.0, hz + ev.hy - hzy)


def random_rgs(rng, n):
    """A random canonical label string of length n, as uint8."""
    labels = [0]
    for _ in range(n - 1):
        labels.append(int(rng.integers(max(labels) + 2)))
    return np.array(labels, dtype=np.uint8)


class TestExactEvaluation:
    """The from-scratch evaluation of one clustering, a one-row objectives
    batch, against the reference formula bit for bit."""

    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 24), st.integers(1, 12),
        st.booleans(), st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    @example(seed=0, n=6, ny=1, zero_rows=True, dup_rows=True)
    def test_plain(self, seed, n, ny, zero_rows, dup_rows):
        rng = np.random.default_rng(seed)
        p = rng.exponential(size=(n, ny))
        if zero_rows:
            p[rng.integers(n, size=n // 2)] = 0.0
        if dup_rows:
            p[rng.integers(n, size=n // 2)] = p[rng.integers(n)]
        if p.sum() == 0.0:
            p[0] = 1.0
        ev = _JointEvaluator(JointPMF(p / p.sum()))
        for labels in [np.arange(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8)] + [
            random_rgs(rng, n) for _ in range(4)
        ]:
            assert one_row(ev, labels) == reference_plain(ev, labels)

    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 4),
        st.booleans(), st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    @example(seed=0, g=5, ny=1, zero_symbols=True, dup_symbols=True)
    def test_symmetric(self, seed, g, ny, zero_symbols, dup_symbols):
        rng = np.random.default_rng(seed)
        p = rng.exponential(size=(g, g, ny))
        if zero_symbols:
            a = rng.integers(g)
            p[a] = p[:, a] = 0.0
        if dup_symbols:
            a, b = rng.integers(g, size=2)
            p[b] = p[a]
            p[:, b] = p[:, a]
        if p.sum() == 0.0:
            p[:] = 1.0
        ev = _TripleEvaluator(dm.TripleJointPMF(p / p.sum()))
        for labels in [np.arange(g, dtype=np.uint8), np.zeros(g, dtype=np.uint8)] + [
            random_rgs(rng, g) for _ in range(4)
        ]:
            assert one_row(ev, labels) == reference_symmetric(ev, labels)


def labels_with_m_clusters(rng, n, m, count):
    """(count, n) random canonical label strings of exactly m clusters."""
    rows = rng.integers(0, m, size=(count, n))
    for row in rows:
        row[rng.permutation(n)[:m]] = np.arange(m)
    return np.array([canonicalize(r).assignment for r in rows], dtype=np.uint8)


def same_bits(a, b):
    """Whether two (xs, ys) pairs of arrays hold the same bits."""
    return all(u.tobytes() == v.tobytes() for u, v in zip(a, b))


class TestKernelInvariance:
    """_objectives gives every matrix the same floats in any batch of its
    shape, so the evaluators' from-scratch values are the rows of any
    one-cluster-count batch, bit for bit, and so are the rows of their
    batched objectives, which the search scores each offer block with.
    Labels only index cells, so uint8 and int64 labels give the same bits."""

    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 6),
        st.booleans(), st.booleans(), st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    @example(seed=0, n=9, ny=1, zero_rows=True, dup_rows=True, count=4)
    # 1,001 rows of 12 x 6 plain and 6 x 6 x 6 symmetric joints span two
    # and four slices of CHUNK_CHILDREN joint cells in objectives
    @example(seed=1, n=12, ny=6, zero_rows=True, dup_rows=True, count=1000)
    def test_batch_rows_equal_one_row_batches(self, seed, n, ny, zero_rows, dup_rows, count):
        rng = np.random.default_rng(seed)
        p = rng.exponential(size=(n, ny))
        if zero_rows:
            p[rng.integers(n, size=n // 2)] = 0.0
        if dup_rows:
            p[rng.integers(n, size=n // 2)] = p[rng.integers(n)]
        if p.sum() == 0.0:
            p[0] = 1.0
        ev = _JointEvaluator(JointPMF(p / p.sum()))
        m = int(rng.integers(1, n + 1))
        block = labels_with_m_clusters(rng, n, m, count)
        block = np.concatenate((block, block[:1]))  # one row twice
        xs, ys = _objectives(push(block, ev.rows, m), ev.hy)
        bx, by = ev.objectives(block)
        assert same_bits((bx, by), ev.objectives(block.astype(np.int64)))
        for row, *xy in zip(block, xs.tolist(), ys.tolist(), bx.tolist(), by.tolist()):
            assert one_row(ev, row) == tuple(xy[:2]) == tuple(xy[2:])

        # the symmetric evaluator: the plain objectives of its (m * m, ny)
        # cells with x halved, here in a batch of encoders
        g = min(n, 6)
        t = rng.exponential(size=(g, g, ny))
        if zero_rows:
            t[rng.integers(g)] = 0.0
        if dup_rows:
            t[:, rng.integers(g)] = t[:, rng.integers(g)]
        if t.sum() == 0.0:
            t[:] = 1.0
        tev = _TripleEvaluator(dm.TripleJointPMF(t / t.sum()))
        m = min(m, g)
        block = labels_with_m_clusters(rng, g, m, count)
        block = np.concatenate((block, block[:1]))
        xs, ys = _objectives(tev._cells(block).reshape(count + 1, m * m, ny), tev.hy)
        bx, by = tev.objectives(block)
        assert same_bits((bx, by), tev.objectives(block.astype(np.int64)))
        for row, *xy in zip(block, (xs / 2.0).tolist(), ys.tolist(), bx.tolist(), by.tolist()):
            assert one_row(tev, row) == tuple(xy[:2]) == tuple(xy[2:])

    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 5),
        st.integers(1, 6), st.integers(1, 12), st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    @example(seed=0, k=2, reps=3, m=4, ny=9, zeros=True)
    def test_leading_axes_equal_flattened_batch(self, seed, k, reps, m, ny, zeros):
        # the bootstrap's (k, R, m, ny) batch, as a C-ordered array and as
        # the transposed view of a (k, m, R, ny) push, reduces as its
        # (k * R, m, ny) flattening, against one H(Y) per replicate
        rng = np.random.default_rng(seed)
        pushed = rng.exponential(size=(k, m, reps, ny))
        if zeros:
            pushed[rng.random(pushed.shape) < 0.3] = 0.0
        view = pushed.transpose(0, 2, 1, 3)
        hy = rng.uniform(0, 3, size=reps)
        flat = np.ascontiguousarray(view).reshape(k * reps, m, ny)
        want = [a.reshape(k, reps) for a in _objectives(flat, np.tile(hy, k))]
        for batch in (view, np.ascontiguousarray(view)):
            got = _objectives(batch, hy)
            assert all(g.shape == (k, reps) for g in got)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


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
