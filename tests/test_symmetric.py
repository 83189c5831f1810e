import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dibmap as dm
from dibmap import (
    Encoder,
    GroupTable,
    SearchConfig,
    TripleJointPMF,
    canonicalize,
    enumerate_partitions,
    group_joint,
    make_group,
    symmetric_objectives,
    symmetric_pareto_mapper,
)
from dibmap.distributions import INFO_TOL
from dibmap.symmetric import _TripleEvaluator
from dibmap.errors import DimensionMismatchError, InvalidDistributionError
from search_reference import search as reference_search, search_bytes


def random_triple(g, ny, seed):
    rng = np.random.default_rng(seed)
    p = rng.exponential(size=(g, g, ny))
    return TripleJointPMF(p / p.sum())


def objectives_by_definition(triple, f):
    """Dense reference: aggregate the triple cell by cell, then the formulas."""
    g, ny = triple.g, triple.ny
    q = np.zeros((f.m, f.m, ny))
    for a in range(g):
        for b in range(g):
            q[f.assignment[a], f.assignment[b]] += triple.p[a, b]
    hz = dm.entropy(q.sum(axis=2))
    hzy = dm.entropy(q)
    hy = dm.entropy(triple.p.sum(axis=(0, 1)))
    return -hz / 2.0, hz + hy - hzy


def coset_encoder(group, subgroup_elements):
    """Cluster group elements by their left coset of the given subgroup."""
    sub = sorted(subgroup_elements)
    seen = {}
    labels = []
    for a in range(group.g):
        coset = frozenset(int(group.table[a, h]) for h in sub)
        labels.append(seen.setdefault(coset, len(seen)))
    return canonicalize(labels)


def subgroup_chain(group):
    """Subgroups of order 1, 2, 4, 8 found by closing small generating sets."""
    import itertools

    def closure(gens):
        elems = {group.identity}
        frontier = set(gens)
        while frontier:
            elems |= frontier
            frontier = {
                int(group.table[a, b]) for a in elems for b in elems
            } - elems
        return frozenset(elems)

    by_order = {1: frozenset({group.identity})}
    for size in (2, 4, 8):
        for gens in itertools.combinations(range(group.g), 2):
            c = closure(gens)
            if len(c) == size:
                by_order[size] = c
                break
        assert size in by_order, f"no subgroup of order {size} found"
    return by_order


class TestTripleJointPMF:
    def test_validation(self):
        with pytest.raises(InvalidDistributionError):
            TripleJointPMF(np.ones((2, 3, 2)) / 12)  # axes 0 and 1 differ
        with pytest.raises(InvalidDistributionError):
            TripleJointPMF(np.ones((2, 2, 2)))  # not normalized

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        p = np.ones((2, 2, 2)) / 8
        p[0, 1, 1] = bad
        with pytest.raises(InvalidDistributionError):
            TripleJointPMF(p)

    def test_shape_properties(self):
        t = random_triple(4, 3, 0)
        assert t.g == 4 and t.ny == 3


class TestSymmetricObjectives:
    def test_constant_encoder_is_origin(self):
        t = random_triple(5, 4, 1)
        x, y = symmetric_objectives(t, Encoder((0,) * 5))
        assert x == 0.0 and y == 0.0

    def test_identity_on_group_triple(self):
        t = group_joint(make_group("zmod40x"))
        x, y = symmetric_objectives(t, Encoder.identity(16))
        assert x == pytest.approx(-4.0, abs=1e-12)
        assert y == pytest.approx(4.0, abs=1e-12)

    def test_index_two_coset_encoder(self):
        group = make_group("zmod40x")
        sub8 = subgroup_chain(group)[8]
        f = coset_encoder(group, sub8)
        assert f.m == 2
        x, y = symmetric_objectives(group_joint(group), f)
        assert x == pytest.approx(-1.0, abs=1e-9)
        assert y == pytest.approx(1.0, abs=1e-9)

    def test_domain_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            symmetric_objectives(random_triple(4, 3, 2), Encoder.identity(5))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        g = int(rng.integers(2, 7))
        t = random_triple(g, int(rng.integers(2, 5)), seed + 100)
        f = canonicalize(rng.integers(0, g, size=g))
        x, y = symmetric_objectives(t, f)
        xr, yr = objectives_by_definition(t, f)
        assert x == pytest.approx(xr, abs=1e-11)
        assert y == pytest.approx(yr, abs=1e-11)

    @pytest.mark.parametrize("encoder", ["identity", "two-to-one"])
    def test_domain_past_the_search_cap(self, encoder):
        # one shared encoder scores any domain size; only the search is
        # capped at 255 symbols
        t = random_triple(257, 3, 257)
        if encoder == "identity":
            f = Encoder.identity(257)
        else:
            f = Encoder(tuple(a // 2 for a in range(257)))
        x, y = symmetric_objectives(t, f)
        xr, yr = objectives_by_definition(t, f)
        assert type(x) is type(y) is float
        assert x == pytest.approx(xr, abs=1e-12)
        assert y == pytest.approx(yr, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_feasibility_and_data_processing(self, seed):
        rng = np.random.default_rng(seed)
        t = random_triple(6, 4, seed + 50)
        f = Encoder.identity(6)
        prev = symmetric_objectives(t, f)
        assert prev[1] <= -2 * prev[0] + 1e-9
        while f.m > 1:
            i = int(rng.integers(f.m - 1))
            labels = np.array(f.assignment)
            f = canonicalize(np.where(labels == rng.integers(i + 1, f.m), i, labels))
            x, y = symmetric_objectives(t, f)
            assert y <= -2 * x + 1e-9
            assert y <= prev[1] + 1e-9  # merging never gains information
            assert -x <= -prev[0] + 1e-9  # nor pair entropy
            prev = (x, y)

    def test_uniform_independent_inputs_report_single_entropy(self):
        t = group_joint(make_group("pauli"))
        rng = np.random.default_rng(3)
        for _ in range(5):
            f = canonicalize(rng.integers(0, 4, size=16))
            x, _ = symmetric_objectives(t, f)
            marg = np.zeros(f.m)
            np.add.at(marg, np.asarray(f.assignment), np.full(16, 1 / 16))
            assert x == pytest.approx(-dm.entropy(marg), abs=1e-9)


class TestSymmetricMapper:
    def test_trivial_domain(self):
        t = TripleJointPMF(np.ones((1, 1, 3)) / 3)
        frontier, _ = symmetric_pareto_mapper(t, SearchConfig(0.0, seed=0))
        assert [(p.x, p.y) for p in frontier] == [(0.0, 0.0)]

    def test_brute_force_epsilon_matches_enumeration(self):
        t = random_triple(5, 3, 77)
        frontier, stats = symmetric_pareto_mapper(t, SearchConfig(math.inf, seed=1))
        assert stats.points_searched == dm.bell_number(5)
        exact = dm.ParetoSet()
        for f in enumerate_partitions(5):
            x, y = symmetric_objectives(t, f)
            exact.add(dm.ParetoPoint(x, y, encoder=f))
        got = sorted((p.x, p.y) for p in frontier)
        want = sorted((p.x, p.y) for p in exact)
        assert len(got) == len(want)
        assert all(
            abs(a - c) < 1e-9 and abs(b - d) < 1e-9
            for (a, b), (c, d) in zip(got, want)
        )

    def test_deterministic(self):
        t = random_triple(6, 3, 5)
        cfg = SearchConfig(0.05, seed=9)
        f1, s1 = symmetric_pareto_mapper(t, cfg)
        f2, s2 = symmetric_pareto_mapper(t, cfg)
        assert [(p.x, p.y) for p in f1] == [(p.x, p.y) for p in f2]
        assert s1.points_searched == s2.points_searched


class TestReferenceSearch:
    """The level-batched search against the one-child-at-a-time reference
    (tests/search_reference.py): same frontier bytes, same counters."""

    @pytest.mark.parametrize("epsilon", [0.0, math.inf])
    @given(g=st.integers(1, 6), ny=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           search_seed=st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_matches_reference(self, epsilon, g, ny, seed, search_seed):
        triple = random_triple(g, ny, seed)
        cfg = SearchConfig(epsilon, search_seed)
        want = reference_search(_TripleEvaluator(triple), cfg)
        assert search_bytes(*symmetric_pareto_mapper(triple, cfg)) == search_bytes(*want)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_reference_at_finite_epsilon(self, seed):
        triple = random_triple(6, 3, 5)
        cfg = SearchConfig(0.05, seed)
        want = reference_search(_TripleEvaluator(triple), cfg)
        assert search_bytes(*symmetric_pareto_mapper(triple, cfg)) == search_bytes(*want)

    @pytest.mark.parametrize("epsilon", [0.0, 0.05, math.inf])
    @pytest.mark.parametrize("group", ["Z2xZ4", "D4"])
    def test_matches_reference_on_group_ties(self, group, epsilon):
        # a group triple's x depends only on block sizes: exact ties everywhere
        triple = group_joint(ORDER_8_GROUPS[group]())
        cfg = SearchConfig(epsilon, 1)
        want = reference_search(_TripleEvaluator(triple), cfg)
        assert search_bytes(*symmetric_pareto_mapper(triple, cfg)) == search_bytes(*want)


class TestMergeObjectives:
    """The search's batched merge kernel against the from-scratch evaluation
    and the dense reference, on random parents and merges."""

    @given(
        st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 3),
        st.booleans(), st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, seed, g, ny, zero_symbols, dup_symbols):
        rng = np.random.default_rng(seed)
        p = rng.exponential(size=(g, g, ny))
        if zero_symbols:  # a symbol that never occurs on either input
            a = rng.integers(g)
            p[a] = p[:, a] = 0.0
        if dup_symbols:  # two symbols with identical slices
            a, b = rng.choice(g, size=2, replace=False)
            p[b] = p[a]
            p[:, b] = p[:, a]
        if p.sum() == 0.0:
            p[:] = 1.0
        triple = TripleJointPMF(p / p.sum())
        ev = _TripleEvaluator(triple)
        labels = rng.integers(0, g, size=(rng.integers(1, 5), g))
        labels[:, :2] = [0, 1]  # at least two clusters
        parents = np.array([canonicalize(r).assignment for r in labels], dtype=np.uint8)
        parent = rng.integers(len(parents), size=8)
        pairs = [rng.choice(int(parents[k].max()) + 1, size=2, replace=False) for k in parent]
        i_idx, j_idx = np.sort(pairs, axis=1).T
        xs, ys = ev.merge_objectives(parents, parent, i_idx, j_idx)
        for k in range(len(parent)):
            lab = parents[parent[k]]
            f = canonicalize(np.where(lab == j_idx[k], i_idx[k], lab))
            for x, y in (symmetric_objectives(triple, f), objectives_by_definition(triple, f)):
                assert xs[k] == pytest.approx(x, abs=1e-12)
                assert ys[k] == pytest.approx(y, abs=1e-12)

    def test_single_symbol_evaluates_only_the_identity(self):
        t = TripleJointPMF(np.ones((1, 1, 2)) / 2)
        for eps in (0.0, math.inf):
            frontier, stats = symmetric_pareto_mapper(t, SearchConfig(eps, seed=0))
            assert (stats.points_searched, stats.enqueued, len(frontier)) == (1, 1, 1)


class TestGroupStructure:
    """The subgroup lattice shows up as exact integer points, identically
    for both built-in order-16 groups."""

    @pytest.mark.parametrize("name", ["zmod40x", "pauli"])
    def test_subgroup_points_are_integer_lattice(self, name):
        group = make_group(name)
        triple = group_joint(group)
        chain = subgroup_chain(group)
        got = {}
        for order, sub in chain.items():
            f = coset_encoder(group, sub)
            assert f.m == 16 // order
            x, y = symmetric_objectives(triple, f)
            got[order] = (x, y)
        for order, k in [(8, 1), (4, 2), (2, 3), (1, 4)]:
            x, y = got[order]
            assert x == pytest.approx(-k, abs=1e-9)
            assert y == pytest.approx(k, abs=1e-9)

    def test_subgroup_points_identical_across_groups(self):
        vals = {}
        for name in ("zmod40x", "pauli"):
            group = make_group(name)
            triple = group_joint(group)
            vals[name] = sorted(
                symmetric_objectives(triple, coset_encoder(group, sub))
                for sub in subgroup_chain(group).values()
            )
        a, b = vals["zmod40x"], vals["pauli"]
        assert all(
            abs(x1 - x2) < 1e-9 and abs(y1 - y2) < 1e-9
            for (x1, y1), (x2, y2) in zip(a, b)
        )


def z2_z4():
    """Z2 x Z4 as (a, b) at index 4a + b, added componentwise."""
    a, b = np.divmod(np.arange(8), 4)
    table = 4 * (a[:, None] ^ a[None, :]) + (b[:, None] + b[None, :]) % 4
    return GroupTable(tuple(f"{u}{v}" for u, v in zip(a, b)), table)


def dihedral4():
    """D4 as r^k s^e at index 4e + k, with s r = r^-1 s."""
    e, k = np.divmod(np.arange(8), 4)
    k2 = np.where(e[:, None] == 0, k[None, :], -k[None, :])
    table = 4 * (e[:, None] ^ e[None, :]) + (k[:, None] + k2) % 4
    return GroupTable(tuple(f"r{v}s{u}" for u, v in zip(e, k)), table)


ORDER_8_GROUPS = {"Z2xZ4": z2_z4, "D4": dihedral4}


class TestGroupTies:
    """On a group triple x depends only on the block sizes, so many
    partitions tie exactly with one another and with the frontier's walls.
    Order 8 is small enough for exhaustive search: B(8) = 4140."""

    @pytest.mark.parametrize("name", sorted(ORDER_8_GROUPS))
    def test_exhaustive_search_keeps_one_point_per_value(self, name):
        triple = group_joint(ORDER_8_GROUPS[name]())
        frontier, stats = symmetric_pareto_mapper(triple, SearchConfig(math.inf, seed=1))
        assert stats.points_searched == dm.bell_number(8)
        got = [(p.x, p.y) for p in frontier]
        # rounding along different merge paths must not split one value
        assert not any(
            qx >= x - INFO_TOL and qy >= y - INFO_TOL
            for i, (x, y) in enumerate(got)
            for j, (qx, qy) in enumerate(got)
            if i != j
        )
        exact = dm.ParetoSet()
        for f in enumerate_partitions(8):
            exact.add(dm.ParetoPoint(*symmetric_objectives(triple, f), encoder=f))
        want = [(p.x, p.y) for p in exact]
        assert len(got) == len(want)
        assert all(
            abs(a - c) < 1e-9 and abs(b - d) < 1e-9
            for (a, b), (c, d) in zip(got, want)
        )

    @pytest.mark.parametrize("name", sorted(ORDER_8_GROUPS))
    def test_greedy_search_skips_wall_ties(self, name):
        triple = group_joint(ORDER_8_GROUPS[name]())
        frontier, stats = symmetric_pareto_mapper(triple, SearchConfig(0.0, seed=1))
        # enqueueing every child that ties a wall visits most of the lattice
        assert stats.points_searched < dm.bell_number(8) // 10
        # only children entering the frontier are enqueued, the identity first
        assert len(frontier) <= stats.enqueued < stats.points_searched // 5


class TestGoldenCounts:
    """Exact work counters of fixed D4 runs; see test_mapper.TestGoldenCounts."""

    @pytest.mark.parametrize(
        "epsilon, want",
        [(0.0, (199, 30, 14)), (math.inf, (4140, 4140, 14)), (0.05, (4050, 2349, 14))],
    )
    def test_d4_counts(self, epsilon, want):
        triple = group_joint(dihedral4())
        frontier, stats = symmetric_pareto_mapper(triple, SearchConfig(epsilon, seed=1))
        assert (stats.points_searched, stats.enqueued, len(frontier)) == want

    @pytest.mark.parametrize("epsilon", [0.0, 0.05, math.inf])
    def test_d4_frontier_bytes(self, epsilon):
        triple = group_joint(dihedral4())
        frontier, _ = symmetric_pareto_mapper(triple, SearchConfig(epsilon, seed=1))
        text = "".join(f"{p.x!r} {p.y!r} {p.encoder.assignment}\n" for p in frontier)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "d0a5e6bae6f0a6a1e642ad87e330905f05fa551483f5769f766fecf1e4421e67"
        )


class TestTripleCsv:
    def test_round_trip(self, tmp_path):
        t = random_triple(4, 3, 11)
        path = tmp_path / "t.csv"
        dm.save_triple_csv(path, t)
        np.testing.assert_allclose(dm.load_triple_csv(path).p, t.p, atol=0)

    def test_non_square_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["0.2,0.2", "0.2,0.2", "0.1,0.1"]) + "\n")
        with pytest.raises(InvalidDistributionError):
            dm.load_triple_csv(path)
