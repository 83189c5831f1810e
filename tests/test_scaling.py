import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dibmap.scaling
from dibmap import (
    CapacityError,
    CopulaKind,
    dib_frontier_scaling,
    harmonic_number,
    pareto_mask,
    pareto_mask_by_ranks,
    pareto_size,
    sample_cloud,
    scaling_experiment,
)
from dibmap._util import least_squares_line
from dibmap.scaling import (
    CLOUD_BLOCK_POINTS,
    _batch_sizes,
    _draw_clouds,
    _maxima_counts,
    fit_power_law,
)

INDEP = CopulaKind("independent")
KINDS = [INDEP, CopulaKind("comonotone"), CopulaKind("countermonotone"),
         CopulaKind("gaussian", -0.4)]


class TestCopulaKind:
    def test_gaussian_needs_correlation_in_open_interval(self):
        CopulaKind("gaussian", 0.8)
        for r in (None, -1.0, 1.0, 2.0):
            with pytest.raises(ValueError):
                CopulaKind("gaussian", r)

    def test_other_kinds_reject_correlation(self):
        with pytest.raises(ValueError):
            CopulaKind("independent", 0.5)
        with pytest.raises(ValueError):
            CopulaKind("sideways")


class TestSampleCloud:
    def test_shapes_and_determinism(self):
        for kind in (INDEP, CopulaKind("comonotone"), CopulaKind("gaussian", 0.3)):
            a = sample_cloud(kind, 50, 7)
            b = sample_cloud(kind, 50, 7)
            assert a.shape == (50, 2)
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [True, -1, 1.5, "3", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            sample_cloud(INDEP, 50, seed)

    def test_comonotone_always_single_maximum(self):
        for seed in range(10):
            cloud = sample_cloud(CopulaKind("comonotone"), 200, seed)
            assert pareto_size(cloud) == 1

    def test_countermonotone_keeps_everything(self):
        for seed in range(10):
            cloud = sample_cloud(CopulaKind("countermonotone"), 137, seed)
            assert pareto_size(cloud) == 137

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.tag)
    def test_single_cloud_of_the_batch_sampler(self, kind):
        for seed in range(5):
            cloud = sample_cloud(kind, 300, seed)
            assert pareto_size(cloud) == _batch_sizes(kind, 300, 1, seed)[0]

    def test_gaussian_correlation_realized(self):
        cloud = sample_cloud(CopulaKind("gaussian", 0.7), 200_000, 3)
        assert np.corrcoef(cloud[:, 0], cloud[:, 1])[0, 1] == pytest.approx(
            0.7, abs=0.01
        )


class TestCrossBlockDraws:
    """sha256 of _batch_sizes where the draws span many sub-blocks. The
    comonotone and countermonotone sizes are fixed by the law (1 and n), so
    those two cases check the scan's bookkeeping; the independent and
    gaussian ones pin the draws themselves."""

    @pytest.mark.parametrize(
        "kind, n, trials, seed, want",
        [
            # 15 sub-blocks of 52 clouds of 5000 points, then 21 clouds
            (INDEP, 5000, 801, 12,
             "bb06f2b9b08b16bc3e04f4a2497f5b2c9adbdf375893fd76702e63c752a37068"),
            (CopulaKind("comonotone"), 5000, 801, 12,
             "649390eeb97eb999b2ca5ac43be41056afaf247b1de1da5b542947ef4836c127"),
            (CopulaKind("countermonotone"), 5000, 801, 12,
             "4329f2563b107046cf3cdec1a593958bc2dd5fd4dba3152c3f54145d3537875b"),
            (CopulaKind("gaussian", -0.4), 5000, 801, 12,
             "f2c7464c28b6ad650b39331f231ccbf23ce8ee4412f0a1922b52ff465da2c21e"),
            # 14 clouds, each larger than a sub-block of 2**18 points
            (INDEP, 300_000, 14, 13,
             "777e00d74bc7bc7e17fe46c7f72f5c879cb08bef8388adb239586ffb2f846d01"),
        ],
        ids=["independent", "comonotone", "countermonotone", "gaussian",
             "independent-large"],
    )
    def test_sizes_digest(self, kind, n, trials, seed, want):
        sizes = _batch_sizes(kind, n, trials, seed)
        assert sizes.dtype == np.int64 and sizes.shape == (trials,)
        assert hashlib.sha256(sizes.tobytes()).hexdigest() == want


class TestSubBlocks:
    @pytest.mark.parametrize("n", [1, 2, 3, 40, 5000])
    def test_independent_clouds_are_drawn_in_turn(self, n):
        """Each cloud is rng.random((2, n)): its u, then its v. For n <= 3
        a sub-block keeps over half its points and is scanned whole, on
        the strided views of one (s, 2, n) draw."""
        trials, seed = 120, 9
        rng = np.random.default_rng(seed)
        want = [pareto_size(rng.random((2, n)).T) for _ in range(trials)]
        sizes = _batch_sizes(INDEP, n, trials, seed)
        assert sizes.tolist() == want

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.tag)
    def test_sizes_do_not_depend_on_the_sub_block(self, kind, monkeypatch):
        want = _batch_sizes(kind, 300, 50, 6)
        for points in (1, 299, 300, 301, 7 * 300 + 1, 1 << 20):
            monkeypatch.setattr(dibmap.scaling, "CLOUD_BLOCK_POINTS", points)
            assert _batch_sizes(kind, 300, 50, 6).tolist() == want.tolist()

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.tag)
    def test_sub_blocks_are_bounded_and_cover_every_cloud(self, kind):
        rng = np.random.default_rng(0)
        shapes = [u.shape + v.shape for u, v in _draw_clouds(kind, rng, 200, 3000)]
        # 87 clouds of 3000 points fit in CLOUD_BLOCK_POINTS
        assert shapes == [(87, 3000) * 2, (87, 3000) * 2, (26, 3000) * 2]

    def test_clouds_larger_than_a_sub_block_come_one_at_a_time(self):
        n = CLOUD_BLOCK_POINTS + 1
        rng = np.random.default_rng(0)
        assert [u.shape for u, _ in _draw_clouds(INDEP, rng, 3, n)] == [(1, n)] * 3

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.tag)
    def test_traced_peak_is_flat_in_the_cloud_count(self, kind):
        """4,096,000 points would take 31 MiB per float array if a whole
        draw block were held at once."""
        tracemalloc.start()
        try:
            scaling_experiment(kind, [4096], 1000, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


def sub_blocks(draw_law):
    """(u, v), each (s, n): s clouds of n points, each coordinate on a
    coarse grid (so ties in u and duplicate points are common) or anywhere
    in [-3, 3]; draw_law may then tie v to u."""
    return st.tuples(st.integers(1, 4), st.integers(1, 10)).flatmap(
        lambda shape: hnp.arrays(
            float, (2, *shape),
            elements=st.sampled_from([-1.5, -0.25, 0.0, 0.5, 2.0])
            | st.floats(-3, 3),
        )
    ).map(draw_law)


def odd_rows(a):
    return np.arange(len(a))[:, None] % 2 == 1


# v as drawn, v = u (one maximum: packed scan), v = -u (every point
# maximal: whole scan), or those two alternating across the clouds
LAWS = {
    "free": lambda uv: (uv[0], uv[1]),
    "comonotone": lambda uv: (uv[0], uv[0]),
    "countermonotone": lambda uv: (uv[0], -uv[0]),
    "mixed": lambda uv: (uv[0], np.where(odd_rows(uv[0]), -uv[0], uv[0])),
}


class TestMaximaCounts:
    """The batch scan against pareto_size, cloud by cloud."""

    @pytest.mark.parametrize("law", LAWS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_pareto_size(self, law, data):
        u, v = data.draw(sub_blocks(LAWS[law]))
        want = [pareto_size(np.column_stack(cloud)) for cloud in zip(u, v)]
        assert _maxima_counts(u, v).tolist() == want

    @pytest.mark.parametrize(
        "u, v, want",
        [
            ([0.5, 0.5, 0.2], [0.1, 0.9, 0.3], 1),  # a tie in u, lower v first
            ([0.5, 0.5, 0.5], [0.2, 0.2, 0.2], 1),  # one point three times
            ([0.3], [-2.0], 1),
            ([-1.0, -2.0, -1.0], [-1.0, 3.0, -1.0], 2),
        ],
    )
    def test_ties_and_duplicates(self, u, v, want):
        assert _maxima_counts(np.array([u]), np.array([v])).tolist() == [want]

    def test_packing_rule(self, monkeypatch):
        """Scanned widths: the survivors of the pivot when no cloud keeps
        more than half its points, else the whole sub-block."""
        widths = []
        records = dibmap.scaling._records

        def spy(u, v):
            widths.append(u.shape[1])
            return records(u, v)

        monkeypatch.setattr(dibmap.scaling, "_records", spy)
        u = np.random.default_rng(0).random((4, 40))
        assert _maxima_counts(u, u).tolist() == [1] * 4
        assert _maxima_counts(u, 1 - u).tolist() == [40] * 4
        # the first cloud keeps one point, the second all 40
        mixed = np.stack([u[0], 1 - u[1]])
        assert _maxima_counts(u[:2], mixed).tolist() == [1, 40]
        assert widths == [1, 40, 40]


class TestEmptyPointSets:
    @pytest.mark.parametrize("points", [np.empty((0, 2)), []])
    def test_masks_are_empty_and_size_is_zero(self, points):
        for mask in (pareto_mask(points), pareto_mask_by_ranks(points)):
            assert mask.dtype == bool and mask.shape == (0,)
        assert pareto_size(points) == 0

    def test_single_point_is_maximal(self):
        for route in (pareto_mask, pareto_mask_by_ranks):
            np.testing.assert_array_equal(route([[0.3, 0.7]]), [True])


class TestMembershipRoutes:
    @pytest.mark.parametrize("seed", range(8))
    def test_sorted_filter_equals_rank_route(self, seed):
        kind = [INDEP, CopulaKind("gaussian", -0.4)][seed % 2]
        cloud = sample_cloud(kind, 400, seed)
        np.testing.assert_array_equal(
            pareto_mask(cloud), pareto_mask_by_ranks(cloud)
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_mask_matches_quadratic_definition(self, seed):
        cloud = sample_cloud(INDEP, 60, seed + 40)
        mask = pareto_mask(cloud)
        for i, (u, v) in enumerate(cloud):
            dominated = any(
                (cloud[j, 0] >= u and cloud[j, 1] >= v and j != i)
                for j in range(len(cloud))
            )
            assert mask[i] == (not dominated)

    @pytest.mark.parametrize("seed", range(5))
    def test_invariant_under_strictly_monotone_maps(self, seed):
        cloud = sample_cloud(CopulaKind("gaussian", 0.2), 300, seed)
        base = pareto_mask(cloud)
        exp_x = np.column_stack([np.exp(cloud[:, 0]), cloud[:, 1]])
        cube_y = np.column_stack([cloud[:, 0], cloud[:, 1] ** 3])
        np.testing.assert_array_equal(pareto_mask(exp_x), base)
        np.testing.assert_array_equal(pareto_mask(cube_y), base)
        np.testing.assert_array_equal(pareto_mask_by_ranks(exp_x), base)


class TestScalingExperiment:
    def test_deterministic_tables(self):
        rows1 = scaling_experiment(INDEP, [32, 64], 50, seed=5)
        rows2 = scaling_experiment(INDEP, [32, 64], 50, seed=5)
        assert rows1 == rows2

    def test_requires_ten_trials(self):
        with pytest.raises(ValueError):
            scaling_experiment(INDEP, [16], 9, seed=0)

    @pytest.mark.parametrize("n_values", [[0], [16, -1]])
    def test_rejects_empty_clouds(self, n_values):
        with pytest.raises(ValueError, match="at least 1"):
            scaling_experiment(INDEP, n_values, 10, seed=0)

    @pytest.mark.parametrize("n_values", [[2.5], [16, 32.0], [True]])
    def test_rejects_non_integer_cloud_sizes(self, n_values):
        with pytest.raises(ValueError, match="cloud size must be an integer"):
            scaling_experiment(INDEP, n_values, 10, seed=0)

    @pytest.mark.parametrize("trials", [12.5, 20.0, "20"])
    def test_rejects_non_integer_trials(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            scaling_experiment(INDEP, [16], trials, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_rejects_bad_seeds(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            scaling_experiment(INDEP, [16], 10, seed=seed)

    def test_accepts_numpy_integers(self):
        rows = scaling_experiment(INDEP, [np.int64(16)], np.int32(10), seed=0)
        assert rows == scaling_experiment(INDEP, [16], 10, seed=0)

    def test_independent_mean_tracks_harmonic_number(self):
        rows = scaling_experiment(INDEP, [256], 800, seed=11)
        assert rows[0].mean == pytest.approx(harmonic_number(256), rel=0.05)

    def test_harmonic_number(self):
        assert harmonic_number(0) == 0.0
        assert harmonic_number(4) == pytest.approx(25 / 12)
        with pytest.raises(ValueError, match="n >= 0"):
            harmonic_number(-3)
        with pytest.raises(ValueError, match="n must be an integer"):
            harmonic_number(2.5)

    def test_independent_slope_in_log_n(self):
        ns = [2**k for k in range(4, 11)]
        rows = scaling_experiment(INDEP, ns, 400, seed=3)
        slope, _, r2 = least_squares_line(
            np.log(ns), [r.mean for r in rows]
        )
        assert slope == pytest.approx(1.0, rel=0.10)
        assert r2 > 0.95

    def test_positive_dependence_reduces_maxima(self):
        ns = [64, 256]
        indep = scaling_experiment(INDEP, ns, 300, seed=21)
        gauss = scaling_experiment(CopulaKind("gaussian", 0.8), ns, 300, seed=21)
        for a, b in zip(gauss, indep):
            assert a.mean < b.mean

    def test_extremes(self):
        rows = scaling_experiment(CopulaKind("comonotone"), [128], 50, seed=1)
        assert rows[0].mean == 1.0 and rows[0].std == 0.0
        rows = scaling_experiment(CopulaKind("countermonotone"), [128], 50, seed=1)
        assert rows[0].mean == 128.0 and rows[0].std == 0.0


class TestDibFrontierScaling:
    def test_engine_validation(self):
        with pytest.raises(ValueError):
            dib_frontier_scaling([4], 3, 0, engine="annealing")

    def test_requires_a_trial(self):
        with pytest.raises(ValueError):
            dib_frontier_scaling([4], 0, 0)

    @pytest.mark.parametrize(
        "n_values, trials, match",
        [([4], 1.5, "trials must be an integer"),
         ([2.5], 1, "input size must be an integer"),
         ([4, -2], 1, "input size must be at least 1")],
    )
    def test_rejects_bad_counts(self, n_values, trials, match):
        with pytest.raises(ValueError, match=match):
            dib_frontier_scaling(n_values, trials, 0, ny=3)

    @pytest.mark.parametrize("ny", [2.0, 2.5, True, "3"])
    def test_rejects_non_integer_ny(self, ny):
        with pytest.raises(ValueError, match="ny must be an integer"):
            dib_frontier_scaling([4], 1, 0, ny=ny)

    def test_rejects_zero_ny_with_no_input_sizes(self):
        with pytest.raises(ValueError, match="ny must be at least 1"):
            dib_frontier_scaling([], 1, 1, ny=0)

    def test_rejects_an_oracle_past_the_cap_before_any_trial(self, monkeypatch):
        calls, real = [], dibmap.scaling.brute_force_frontier

        def spy(joint):
            calls.append(joint.nx)
            return real(joint)

        monkeypatch.setattr(dibmap.scaling, "brute_force_frontier", spy)
        with pytest.raises(CapacityError, match="n = 14 exceeds the exhaustive cap 13"):
            dib_frontier_scaling([4, 14], 1, 1)
        assert calls == []

    def test_rejects_a_search_past_the_cap_before_any_trial(self, monkeypatch):
        calls, real = [], dibmap.scaling.pareto_mapper

        def spy(joint, cfg):
            calls.append(joint.nx)
            return real(joint, cfg)

        monkeypatch.setattr(dibmap.scaling, "pareto_mapper", spy)
        with pytest.raises(ValueError, match="search supports at most 255 input symbols"):
            dib_frontier_scaling([4, 256], 1, 1, ny=2, engine="greedy")
        assert calls == []

    @pytest.mark.parametrize("engine", ["oracle", "greedy"])
    def test_rejects_a_negative_seed(self, engine):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            dib_frontier_scaling([3, 4], 1, -1, ny=2, engine=engine)

    def test_generic_two_symbol_frontier_has_two_points(self):
        rows = dib_frontier_scaling([2], 10, seed=4, ny=6, engine="oracle")
        assert rows[0].mean_frontier == 2.0

    def test_oracle_rows_and_determinism(self):
        rows1 = dib_frontier_scaling([3, 4, 5], 4, seed=9, ny=8, engine="oracle")
        rows2 = dib_frontier_scaling([3, 4, 5], 4, seed=9, ny=8, engine="oracle")
        assert [(r.n, r.mean_frontier, r.mean_searched) for r in rows1] == [
            (r.n, r.mean_frontier, r.mean_searched) for r in rows2
        ]
        assert [r.mean_searched for r in rows1] == [5.0, 15.0, 52.0]

    def test_greedy_engine_reports_search_work(self):
        rows = dib_frontier_scaling([5], 3, seed=2, ny=6, engine="greedy")
        assert rows[0].mean_searched <= 52.0
        assert rows[0].mean_frontier >= 1.0
        assert 0.0 < rows[0].mean_seconds < math.inf

    @pytest.mark.parametrize(
        "ns, values",
        [([8], [3.0]), ([], []), ([8, 8], [3.0, 4.0]), ([4, 8, 16], [1.0, 2.0])],
    )
    def test_power_law_fit_needs_two_distinct_n(self, ns, values):
        with pytest.raises(ValueError, match="two or more distinct n"):
            fit_power_law(ns, values)

    @pytest.mark.parametrize(
        "ns, values",
        [([4, 8], [1.0, 0.0]), ([4, 8], [-1.0, 2.0]), ([0, 8], [1.0, 2.0]),
         ([4, 8], [1.0, math.nan])],
    )
    def test_power_law_fit_needs_positive_values(self, ns, values):
        with pytest.raises(ValueError, match="positive n and values"):
            fit_power_law(ns, values)

    def test_power_law_fit_helper(self):
        ns = np.array([4, 8, 16, 32])
        values = 3.0 * ns**2.5
        slope, r2 = fit_power_law(ns, values)
        assert slope == pytest.approx(2.5, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)
