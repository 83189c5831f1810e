import numpy as np
import pytest

from dibmap import (
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
from dibmap.scaling import _batch_sizes, fit_power_law

INDEP = CopulaKind("independent")


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

    def test_comonotone_always_single_maximum(self):
        for seed in range(10):
            cloud = sample_cloud(CopulaKind("comonotone"), 200, seed)
            assert pareto_size(cloud) == 1

    def test_countermonotone_keeps_everything(self):
        for seed in range(10):
            cloud = sample_cloud(CopulaKind("countermonotone"), 137, seed)
            assert pareto_size(cloud) == 137

    @pytest.mark.parametrize(
        "kind",
        [INDEP, CopulaKind("comonotone"), CopulaKind("countermonotone"),
         CopulaKind("gaussian", -0.4)],
        ids=lambda k: k.tag,
    )
    def test_single_cloud_of_the_batch_sampler(self, kind):
        for seed in range(5):
            cloud = sample_cloud(kind, 300, seed)
            assert pareto_size(cloud) == _batch_sizes(kind, 300, 1, seed)[0]

    def test_gaussian_correlation_realized(self):
        cloud = sample_cloud(CopulaKind("gaussian", 0.7), 200_000, 3)
        assert np.corrcoef(cloud[:, 0], cloud[:, 1])[0, 1] == pytest.approx(
            0.7, abs=0.01
        )


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

    def test_independent_mean_tracks_harmonic_number(self):
        rows = scaling_experiment(INDEP, [256], 800, seed=11)
        assert rows[0].mean == pytest.approx(harmonic_number(256), rel=0.05)

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

    def test_power_law_fit_helper(self):
        ns = np.array([4, 8, 16, 32])
        values = 3.0 * ns**2.5
        slope, r2 = fit_power_law(ns, values)
        assert slope == pytest.approx(2.5, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)
