import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dibmap import ParetoPoint, ParetoSet
from dibmap.distributions import INFO_TOL
from dibmap.pareto import staircase, weakly_dominated


def make_set(pairs):
    ps = ParetoSet()
    for x, y in pairs:
        ps.add(ParetoPoint(x, y))
    return ps


def brute_pareto(pairs):
    """Quadratic filter: keep pairs not weakly dominated by a distinct pair."""
    kept = set()
    for x, y in pairs:
        if not any(
            qx >= x and qy >= y and (qx, qy) != (x, y) for qx, qy in pairs
        ):
            kept.add((x, y))
    return kept


coordinate = st.floats(-10, 10)
streams = st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=60)


class TestIsOptimal:
    def test_empty_accepts_anything(self):
        assert ParetoSet().is_optimal(-5.0, -5.0)

    def test_dominated(self):
        assert not make_set([(1, 1)]).is_optimal(0.5, 0.5)

    def test_between_staircase_points(self):
        assert make_set([(0, 1), (1, 0)]).is_optimal(0.5, 0.5)

    def test_duplicate_rejected(self):
        assert not make_set([(1, 1)]).is_optimal(1.0, 1.0)


class TestAdd:
    def test_add_to_empty(self):
        ps = make_set([(0.3, 0.7)])
        assert [(p.x, p.y) for p in ps] == [(0.3, 0.7)]

    def test_dominated_point_leaves_set_unchanged(self):
        ps = make_set([(1, 1)])
        assert not ps.add(ParetoPoint(0.1, 0.1))
        assert [(p.x, p.y) for p in ps] == [(1, 1)]

    def test_eviction(self):
        ps = make_set([(0, 1), (1, 0), (0.5, 1.5)])
        assert [(p.x, p.y) for p in ps] == [(0.5, 1.5), (1, 0)]

    @given(streams)
    def test_matches_brute_force_filter(self, pairs):
        ps = make_set(pairs)
        assert {(p.x, p.y) for p in ps} == brute_pareto(pairs)

    @given(streams)
    def test_invariants_hold(self, pairs):
        ps = make_set(pairs)
        xs = [p.x for p in ps]
        ys = [p.y for p in ps]
        assert xs == sorted(xs)
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert all(a > b for a, b in zip(ys, ys[1:]))

    @given(streams)
    def test_no_pairwise_weak_dominance(self, pairs):
        pts = [(p.x, p.y) for p in make_set(pairs)]
        for i, (x, y) in enumerate(pts):
            for j, (qx, qy) in enumerate(pts):
                if i != j:
                    assert not (qx >= x and qy >= y)


class TestDistance:
    def test_zero_for_optimal(self):
        ps = make_set([(0, 1), (1, 0)])
        assert ps.distance(0.5, 0.5) == 0.0
        assert ps.distance(2, 2) == 0.0
        assert ParetoSet().distance(0, 0) == 0.0

    def test_single_dominator(self):
        assert make_set([(1, 1)]).distance(0.5, 0.5) == pytest.approx(0.5)

    def test_exit_up_beats_exit_right(self):
        ps = make_set([(0, 1), (1, 0)])
        assert ps.distance(-0.2, 0.9) == pytest.approx(0.1)

    def test_corner_exit(self):
        ps = make_set([(0, 1), (1, 0)])
        assert ps.distance(-0.1, -0.1) == pytest.approx(math.hypot(0.1, 0.1))

    def test_duplicate_of_frontier_point_has_zero_distance(self):
        ps = make_set([(0, 1), (1, 0)])
        assert ps.distance(0.0, 1.0) == 0.0

    @given(
        st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=12),
        st.tuples(coordinate, coordinate),
    )
    @settings(max_examples=200, deadline=None)
    def test_against_displacement_grid(self, pairs, probe):
        # Independent oracle: search a dense grid of displacements for the
        # smallest one that makes the probe optimal.
        ps = make_set(pairs)
        px, py = probe
        d = ps.distance(px, py)
        if d == 0.0:
            # zero distance means on or outside the dominated region: any
            # strictly positive up-right displacement makes the point optimal
            assert ps.is_optimal(px + 1e-9, py + 1e-9)
            return
        assert not ps.is_optimal(px, py)
        # exits happen through walls, ceilings, or corners, so aim the ray
        # grid at every frontier point and corner as well as a dense sweep
        angles = list(np.linspace(0, math.pi / 2, 721))
        pts = ps.points
        for a in pts:
            angles.append(math.atan2(a.y - py, a.x - px))
        for a, b in zip(pts, pts[1:]):
            angles.append(math.atan2(b.y - py, a.x - px))
        best = np.inf
        for ang in angles:
            if not 0 <= ang <= math.pi / 2:
                continue
            lo, hi = 0.0, 40.0
            for _ in range(50):
                mid = (lo + hi) / 2
                if ps.is_optimal(
                    px + mid * math.cos(ang), py + mid * math.sin(ang)
                ):
                    hi = mid
                else:
                    lo = mid
            best = min(best, hi)
        assert d == pytest.approx(best, abs=2e-3)

    def test_distance_zero_iff_optimal_modulo_boundary(self):
        ps = make_set([(0, 1), (1, 0), (-1, 2)])
        rng = np.random.default_rng(5)
        for _ in range(500):
            x, y = rng.uniform(-3, 3, size=2)
            d = ps.distance(x, y)
            if ps.is_optimal(x, y):
                assert d == 0.0
            else:
                assert d >= 0.0
                # strictly interior dominated points have positive distance
                if not ps.is_optimal(x + 1e-12, y + 1e-12):
                    assert d > 0.0


def dominated(ps, xs, ys):
    """The batched query on a set's objectives() columns, as the search's
    screen asks it of its level-start frontier."""
    return weakly_dominated(*ps.objectives().T, xs, ys)


class TestDominated:
    """The batched query against the scalar is_optimal and distance."""

    @staticmethod
    def check(ps, probes, r):
        px = np.array([x for x, _ in probes], dtype=float)
        py = np.array([y for _, y in probes], dtype=float)
        mask = dominated(ps, px + r, py + r)
        assert mask.dtype == bool and mask.shape == px.shape
        for (x, y), hit in zip(probes, mask.tolist()):
            assert hit == (not ps.is_optimal(x + r, y + r))
            if hit:
                # at least r, less the rounding of the shifted coordinates
                ulp = np.spacing(max(abs(x), abs(y)) + r)
                assert ps.distance(x, y) >= r - 4 * ulp

    @given(
        st.lists(st.tuples(coordinate, coordinate), max_size=12),
        st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=20),
        st.sampled_from([0.0, 2 * INFO_TOL, 1e-3, 0.5]),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_queries(self, pairs, probes, r, on_points):
        ps = make_set(pairs)
        if on_points and pairs:
            # stored points and probes on their walls and ceilings, shifted
            # back by r so the query lands on them (exactly when r = 0)
            pts = [(p.x, p.y) for p in ps]
            probes = probes + pts + [(x, y - 1.0) for x, y in pts]
            probes += [(x - 1.0, y) for x, y in pts]
            probes = [(x - r, y - r) for x, y in probes]
        self.check(ps, probes, r)

    def test_empty_set_dominates_nothing(self):
        mask = dominated(ParetoSet(), np.array([-5.0, 0.0]), np.array([-5.0, 0.0]))
        assert not mask.any()

    def test_duplicates_and_wall_ties(self):
        ps = make_set([(0, 1), (1, 0)])
        mask = dominated(ps, np.array([0.0, 1.0, 0.0, 0.5, 1.5]),
                         np.array([1.0, 0.0, 0.5, 0.5, -1.0]))
        assert mask.tolist() == [True, True, True, False, False]

    def test_tracks_insertions(self):
        ps = make_set([(0, 0)])
        probe = (np.array([0.5]), np.array([0.5]))
        assert not dominated(ps, *probe).any()
        ps.add(ParetoPoint(1.0, 1.0))
        assert dominated(ps, *probe).all()

    def test_reach_bounds_distance(self):
        ps = make_set([(0, 1), (0.5, 0.5), (1, 0)])
        r = 2 * INFO_TOL
        rng = np.random.default_rng(7)
        probes = [tuple(v) for v in rng.uniform(-1.5, 1.5, size=(400, 2))]
        self.check(ps, probes, r)


class TestWeaklyDominated:
    """The module-level query that the search's screen and the oracle's
    merge share, on plain arrays."""

    fx, fy = np.array([0.0, 1.0]), np.array([1.0, 0.0])

    def test_empty_frontier_dominates_nothing(self):
        mask = weakly_dominated(np.empty(0), np.empty(0), self.fx, self.fy)
        assert mask.tolist() == [False, False]

    def test_exact_duplicate_is_dominated(self):
        mask = weakly_dominated(self.fx, self.fy, self.fx, self.fy)
        assert mask.tolist() == [True, True]

    def test_equal_x_with_lower_y_is_dominated(self):
        probes = np.array([1.0, 1.0, 1.0]), np.array([-0.5, 0.0, 0.5])
        mask = weakly_dominated(self.fx, self.fy, *probes)
        assert mask.tolist() == [True, True, False]


class TestStaircase:
    """The maximal points of a batch, as ParetoSet keeps them."""

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_is_the_set_offered_in_input_order(self, pairs):
        # small integer coordinates: exact duplicates and equal x are common
        xs = np.array([x for x, _ in pairs], dtype=float)
        ys = np.array([y for _, y in pairs], dtype=float)
        points = [ParetoPoint(x, y) for x, y in pairs]
        index = {id(p): k for k, p in enumerate(points)}
        # the same points, each represented by its first arrival, ascending in x
        assert staircase(xs, ys).tolist() == [index[id(p)] for p in ParetoSet(points)]

    def test_empty(self):
        assert staircase(np.empty(0), np.empty(0)).tolist() == []

    def test_first_of_exact_duplicates(self):
        xs, ys = np.array([1.0, 0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.5])
        assert staircase(xs, ys).tolist() == [1, 0]


class TestMonotoneInvariance:
    @given(streams)
    @settings(max_examples=50, deadline=None)
    def test_strictly_increasing_maps_preserve_membership(self, pairs):
        pairs = list({(round(x, 6), round(y, 6)) for x, y in pairs})
        base = {(x, y) for x, y in pairs if (x, y) in brute_pareto(pairs)}
        fx = lambda x: math.exp(x)
        fy = lambda y: y**3 + 2 * y
        mapped = [(fx(x), fy(y)) for x, y in pairs]
        kept = brute_pareto(mapped)
        assert {(x, y) for x, y in pairs if (fx(x), fy(y)) in kept} == base
