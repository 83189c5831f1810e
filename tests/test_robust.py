import math
import os
import sys
import threading

import numpy as np
import pytest

import dibmap as dm
import dibmap.robust
from dibmap import (
    DimensionMismatchError,
    EmpiricalCounts,
    Encoder,
    ParetoPoint,
    ParetoSet,
    RobustConfig,
    bootstrap_uncertainty,
    mutual_information,
    multinomial_sample,
    normalize_counts,
    robust_pareto_mapper,
    sample_simplex,
    significance_filter,
)
from dibmap._util import derive_seed


def point(x, y, dx, dy):
    return ParetoPoint(x, y, dx=dx, dy=dy)


class TestBootstrapUncertainty:
    def test_single_cell_counts_have_zero_spread(self):
        counts = EmpiricalCounts(np.array([[12]]))
        assert bootstrap_uncertainty(counts, Encoder((0,)), 50, 0) == (0.0, 0.0)

    def test_constant_encoder_has_zero_spread(self):
        counts = multinomial_sample(sample_simplex(4, 3, 1), 500, 2)
        dx, dy = bootstrap_uncertainty(counts, Encoder((0, 0, 0, 0)), 50, 3)
        assert dx == 0.0 and dy == 0.0

    def test_spread_shrinks_with_sample_size(self):
        joint = sample_simplex(4, 3, 7)
        f = Encoder.identity(4)
        small = multinomial_sample(joint, 100, 5)
        large = multinomial_sample(joint, 10_000, 6)
        dx_s, dy_s = bootstrap_uncertainty(small, f, 100, 11)
        dx_l, dy_l = bootstrap_uncertainty(large, f, 100, 12)
        assert dy_l < dy_s
        assert dx_l < dx_s

    def test_deterministic(self):
        counts = multinomial_sample(sample_simplex(3, 3, 0), 200, 1)
        f = Encoder((0, 1, 0))
        assert bootstrap_uncertainty(counts, f, 60, 9) == bootstrap_uncertainty(
            counts, f, 60, 9
        )

    def test_rejects_too_few_reps(self):
        counts = EmpiricalCounts(np.array([[3, 1]]))
        with pytest.raises(ValueError):
            bootstrap_uncertainty(counts, Encoder((0,)), 1, 0)

    def test_more_than_256_clusters(self):
        counts = EmpiricalCounts(np.ones((300, 2), int))
        spreads = bootstrap_uncertainty(counts, Encoder.identity(300), 5, 0)
        assert len(spreads) == 2 and all(map(math.isfinite, spreads))

    @pytest.mark.parametrize(
        "assignment", [(0, 1), (0, 1, 0, 1, 2)], ids=["short", "long"]
    )
    def test_rejects_encoder_of_other_domain(self, assignment):
        counts = EmpiricalCounts(np.array([[3, 1], [2, 2], [1, 4], [5, 0]]))
        with pytest.raises(DimensionMismatchError):
            bootstrap_uncertainty(counts, Encoder(assignment), 10, 0)


class TestSignificanceFilter:
    def test_single_point_kept(self):
        ps = ParetoSet([point(-1.0, 1.0, 0.1, 0.1)])
        assert len(significance_filter(ps, 1.0)) == 1

    def test_identical_points_keep_lower_uncertainty(self):
        # build by hand: identical coordinates cannot coexist in one
        # ParetoSet, so filter a set holding one and offer the noisier twin
        a = point(-1.0, 1.0, 0.05, 0.05)
        b = point(-1.0 - 1e-12, 1.0, 0.2, 0.2)
        ps = ParetoSet([a, b])
        kept = significance_filter(ps, 1.0)
        assert len(kept) == 1
        assert kept[0].dx == 0.05

    def test_distinguishable_in_one_axis_suffices(self):
        a = point(-1.0, 1.0, 0.3, 0.01)
        b = point(-1.0 - 1e-9, 2.0, 0.3, 0.01)  # 100 sigma apart in y
        kept = significance_filter(ParetoSet([a, b]), 1.0)
        assert len(kept) == 2

    def test_overlapping_both_axes_filtered(self):
        a = point(-1.0, 1.0, 0.2, 0.2)
        b = point(-1.1, 0.9, 0.2, 0.2)
        kept = significance_filter(ParetoSet([a, b]), 1.0)
        assert len(kept) == 1

    def test_missing_uncertainties_rejected(self):
        ps = ParetoSet([ParetoPoint(-1.0, 1.0)])
        with pytest.raises(ValueError):
            significance_filter(ps, 1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        ps = ParetoSet()
        for _ in range(40):
            x = float(-rng.uniform(0, 3))
            ps.add(
                point(x, float(rng.uniform(0, 2)), rng.uniform(0.01, 0.3), rng.uniform(0.01, 0.3))
            )
        once = significance_filter(ps, 1.0)
        twice = significance_filter(once, 1.0)
        assert [(p.x, p.y) for p in once] == [(p.x, p.y) for p in twice]

    def test_no_two_kept_points_overlap_in_both_axes(self):
        rng = np.random.default_rng(8)
        ps = ParetoSet()
        for _ in range(60):
            ps.add(
                point(
                    float(-rng.uniform(0, 3)),
                    float(rng.uniform(0, 2)),
                    rng.uniform(0.01, 0.4),
                    rng.uniform(0.01, 0.4),
                )
            )
        z = 1.0
        kept = significance_filter(ps, z).points
        for i, p in enumerate(kept):
            for q in kept[i + 1 :]:
                x_apart = abs(p.x - q.x) > z * (p.dx + q.dx)
                y_apart = abs(p.y - q.y) > z * (p.dy + q.dy)
                assert x_apart or y_apart


class TestRobustParetoMapper:
    def test_filtered_subset_with_uncertainties(self):
        counts = multinomial_sample(sample_simplex(6, 4, 2), 400, 3)
        kept, full, stats = robust_pareto_mapper(
            counts, RobustConfig(epsilon=0.05, seed=7)
        )
        assert stats.points_searched >= len(full)
        full_pairs = {(p.x, p.y) for p in full}
        assert {(p.x, p.y) for p in kept} <= full_pairs
        assert all(p.dx is not None and p.dy is not None for p in full)

    def test_degenerate_counts_yield_trivial_frontier(self):
        counts = EmpiricalCounts(np.array([[5, 3], [0, 0]]))
        kept, full, _ = robust_pareto_mapper(counts, RobustConfig(0.0, seed=1))
        assert [(p.x, p.y) for p in full] == [(0.0, 0.0)]
        assert [(p.x, p.y) for p in kept] == [(0.0, 0.0)]
        assert (full[0].dx, full[0].dy) == (0.0, 0.0)

    def test_deterministic(self):
        counts = multinomial_sample(sample_simplex(5, 4, 9), 300, 4)
        cfg = RobustConfig(epsilon=0.02, seed=13)
        k1, f1, s1 = robust_pareto_mapper(counts, cfg)
        k2, f2, s2 = robust_pareto_mapper(counts, cfg)
        assert [(p.x, p.y, p.dx, p.dy) for p in f1] == [
            (p.x, p.y, p.dx, p.dy) for p in f2
        ]
        assert [(p.x, p.y) for p in k1] == [(p.x, p.y) for p in k2]

    def test_large_sample_converges_to_true_frontier(self):
        joint = sample_simplex(6, 4, seed=31)
        counts = multinomial_sample(joint, 10**6, 17)
        kept, _, _ = robust_pareto_mapper(counts, RobustConfig(math.inf, seed=5))
        truth = dm.brute_force_frontier(joint)
        a = kept.objectives()
        b = truth.objectives()
        d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
        hausdorff = max(d.min(axis=1).max(), d.min(axis=0).max())
        assert hausdorff < 0.02

    def test_plugin_information_biased_high_at_small_samples(self):
        joint = sample_simplex(5, 4, seed=23)
        true_mi = mutual_information(joint)
        s = dm.trials_for_ratio(joint, 1.0)
        est = [
            mutual_information(normalize_counts(multinomial_sample(joint, s, t)))
            for t in range(50)
        ]
        assert np.mean(est) >= true_mi

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RobustConfig(0.1, 0, bootstrap_reps=1)
        with pytest.raises(ValueError):
            RobustConfig(0.1, 0, z=0.0)
        for reps in (2.5, 3.0, "3", True, None):
            with pytest.raises(ValueError):
                RobustConfig(0.0, 1, bootstrap_reps=reps)
        assert RobustConfig(0.0, 1, bootstrap_reps=np.int64(2)).bootstrap_reps == 2

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_non_finite_z_rejected(self, z):
        with pytest.raises(ValueError):
            RobustConfig(0.1, 0, z=z)


def within(seconds, fn):
    """Run fn in a thread; fail if it has not finished after `seconds`."""
    outcome = []

    def body():
        try:
            outcome.append((True, fn()))
        except BaseException as exc:  # handed back to the test thread below
            outcome.append((False, exc))

    t = threading.Thread(target=body, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), f"did not finish within {seconds} s"
    ok, value = outcome[0]
    if not ok:
        raise value
    return value


class TestBootstrapPool:
    """The per-point bootstrap runs on a thread pool; its results must not
    depend on it."""

    COUNTS = multinomial_sample(sample_simplex(8, 4, 2), 400, 3)
    CFG = RobustConfig(0.0, seed=7, bootstrap_reps=20)

    def check_matches_serial_loop(self):
        _, full, _ = within(60, lambda: robust_pareto_mapper(self.COUNTS, self.CFG))
        assert len(full) > max(8, dibmap.robust._cpus_available())
        serial = [
            bootstrap_uncertainty(
                self.COUNTS, p.encoder, self.CFG.bootstrap_reps,
                derive_seed(self.CFG.seed, i),
            )
            for i, p in enumerate(full)
        ]
        assert [(p.dx, p.dy) for p in full] == serial

    def test_matches_serial_loop_in_frontier_order(self):
        self.check_matches_serial_loop()

    def test_more_workers_than_cores(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(8)), raising=False
        )
        assert dibmap.robust._cpus_available() == 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.check_matches_serial_loop()
        finally:
            sys.setswitchinterval(interval)

    def test_task_exception_propagates(self, monkeypatch):
        real = dibmap.robust.bootstrap_uncertainty
        failing_seed = derive_seed(self.CFG.seed, 3)

        def failing(counts, f, reps, seed):
            if seed == failing_seed:
                raise RuntimeError("bootstrap failed for point 3")
            return real(counts, f, reps, seed)

        monkeypatch.setattr(dibmap.robust, "bootstrap_uncertainty", failing)
        with pytest.raises(RuntimeError, match="point 3"):
            within(60, lambda: robust_pareto_mapper(self.COUNTS, self.CFG))
