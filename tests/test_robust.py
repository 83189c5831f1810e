import math
import pathlib
import subprocess
import sys
from dataclasses import FrozenInstanceError, asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from dibmap.distributions import xlog2x
from dibmap.encoders import canonicalize
from dibmap.mapper import _objectives, _reduce_terms


def point(x, y, dx, dy):
    return ParetoPoint(x, y, dx=dx, dy=dy)


def spread_one(arr, f):
    """Reference bootstrap reduction: one encoder against the replicates
    arr, alone, each replicate pushed with np.add.at, as push_forward
    does, and reduced through _objectives and np.std, with each
    replicate's H(Y) summed in ascending order."""
    pushed = np.zeros((len(arr), f.m, arr.shape[2]))
    for z, p in zip(pushed, arr):
        np.add.at(z, np.asarray(f.assignment), p)
    hy = [-np.sort(xlog2x(py)).sum() for py in arr.sum(axis=1)]
    xs, ys = _objectives(pushed, np.array(hy))
    return float(np.std(xs, ddof=1)), float(np.std(ys, ddof=1))


def nested_encoders(rng, n):
    """Encoders of n symbols that share clusters, as a frontier's do: two
    merge chains, each from a random clustering down to the constant
    encoder, with one encoder repeated."""
    encoders = []
    for _ in range(2):
        f = canonicalize(rng.integers(0, n, size=n))
        while True:
            encoders.append(f)
            if f.m == 1:
                break
            i, j = sorted(rng.choice(f.m, size=2, replace=False).tolist())
            f = canonicalize([i if a == j else a for a in f.assignment])
    encoders.append(encoders[int(rng.integers(len(encoders)))])
    return encoders


def spread(counts, f, reps, seed):
    """bootstrap_uncertainty of the one encoder f."""
    [dxdy] = bootstrap_uncertainty(counts, [f], reps, seed)
    return dxdy


class TestBootstrapUncertainty:
    def test_single_cell_counts_have_zero_spread(self):
        counts = EmpiricalCounts(np.array([[12]]))
        assert spread(counts, Encoder((0,)), 50, 0) == (0.0, 0.0)

    def test_constant_encoder_has_zero_spread(self):
        """Exactly 0 for this sample, not for every sample.

        The one cluster's cells are the replicate's Y marginal bit for bit,
        so H(Z, Y) and H(Y) cancel exactly in every replicate. H(Z) is 0
        only if the cluster's mass, the sum of the replicate's rounded
        cells, is exactly 1.0; in each of this sample's 50 replicates it
        is, as the first assertion checks, so every replicate gives
        (x, y) = (0, 0). test_constant_encoder_spread_is_rounding_noise
        covers the samples where it is not.
        """
        counts = multinomial_sample(sample_simplex(4, 3, 1), 500, 2)
        arr = dibmap.robust._replicates(counts, 50, 3)
        assert (arr.sum(axis=1).sum(axis=1) == 1.0).all()
        dx, dy = spread(counts, Encoder((0, 0, 0, 0)), 50, 3)
        assert dx == 0.0 and dy == 0.0

    def test_constant_encoder_spread_is_rounding_noise(self):
        """A constant encoder's spreads stay below a bound derived from the
        rounding of the replicate masses; they need not be 0.

        With u = 2^-53 and gamma_n = n u / (1 - n u) (Higham, Accuracy and
        Stability of Numerical Algorithms, section 3.1), per replicate:
        - its cells are the counts over the total, each rounded once, so
          their exact sum is within u of 1;
        - the cluster's mass s sums them over x, then over y, so
          |s - 1| <= u + gamma_(nx+ny-2) (1 + u) <= gamma_(nx+ny) = delta;
        - H(Z) = max(-s log2 s, 0) lies in [0, 1.5 delta]: -s log2 s is
          negative for s > 1, at most (1 - s) / ln 2 for s < 1, and
          1 / ln 2 < 1.45 leaves room for the few ulps of computing it;
          so x = -H(Z) lies in an interval of width 1.5 delta;
        - the cells' terms are exactly -H(Y)'s, so y is H(Z) + H(Y) - H(Y)
          with two roundings, within 3 u (H(Y) + H(Z)) of H(Z); each term
          -c log2 c is at most 1 / (e ln 2) < 0.54, so H(Y) <= 0.54 ny and
          y lies in an interval of width 1.5 delta + 6 u (0.54 ny + 1.5 delta).
        The sample standard deviation of R values in an interval of width W
        is at most W / 2 sqrt(R / (R - 1)); the factor 2 on top covers
        np.std's own rounding, relative O(R u), with room to spare.
        """
        rng = np.random.default_rng(20)
        u, reps = 2.0**-53, 20
        nonzero = 0
        for t in range(200):
            nx, ny = int(rng.integers(1, 30)), int(rng.integers(1, 6))
            counts = multinomial_sample(sample_simplex(nx, ny, t), int(rng.integers(10, 5001)), t)
            delta = (nx + ny) * u / (1 - (nx + ny) * u)
            wx = 1.5 * delta
            wy = wx + 6 * u * (0.54 * ny + wx)
            # W / 2 sqrt(R / (R - 1)), doubled for np.std's rounding
            scale = math.sqrt(reps / (reps - 1))
            dx, dy = spread(counts, Encoder((0,) * nx), reps, t)
            assert 0.0 <= dx <= scale * wx
            assert 0.0 <= dy <= scale * wy
            nonzero += (dx, dy) != (0.0, 0.0)
        # the exact zero of test_constant_encoder_has_zero_spread is the
        # sample's, not a guarantee
        assert nonzero > 0

    def test_spread_shrinks_with_sample_size(self):
        joint = sample_simplex(4, 3, 7)
        f = Encoder.identity(4)
        small = multinomial_sample(joint, 100, 5)
        large = multinomial_sample(joint, 10_000, 6)
        dx_s, dy_s = spread(small, f, 100, 11)
        dx_l, dy_l = spread(large, f, 100, 12)
        assert dy_l < dy_s
        assert dx_l < dx_s

    def test_deterministic(self):
        counts = multinomial_sample(sample_simplex(3, 3, 0), 200, 1)
        f = Encoder((0, 1, 0))
        assert bootstrap_uncertainty(counts, [f], 60, 9) == bootstrap_uncertainty(
            counts, [f], 60, 9
        )

    def test_rejects_too_few_reps(self):
        counts = EmpiricalCounts(np.array([[3, 1]]))
        with pytest.raises(ValueError):
            bootstrap_uncertainty(counts, [Encoder((0,))], 1, 0)

    @pytest.mark.parametrize(
        "reps, seed",
        [(3, True), (3, -1), (3, 1.5), (3, "3"), (3, None),
         (3.0, 0), (True, 0), ("3", 0), (None, 0)],
        ids=["seed-bool", "seed-negative", "seed-float", "seed-str", "seed-none",
             "reps-float", "reps-bool", "reps-str", "reps-none"],
    )
    def test_bad_reps_or_seed_rejected_before_drawing(self, monkeypatch, reps, seed):
        def no_draw(*args):
            raise AssertionError("drew replicates for a bad input")

        monkeypatch.setattr(dibmap.robust, "_replicates", no_draw)
        counts = EmpiricalCounts(np.array([[3, 1], [2, 2]]))
        with pytest.raises(ValueError, match="reps|seed"):
            bootstrap_uncertainty(counts, [Encoder((0, 1))], reps, seed)

    def test_more_than_256_clusters(self):
        counts = EmpiricalCounts(np.ones((300, 2), int))
        spreads = spread(counts, Encoder.identity(300), 5, 0)
        assert len(spreads) == 2 and all(map(math.isfinite, spreads))

    @pytest.mark.parametrize(
        "assignment", [(0, 1), (0, 1, 0, 1, 2)], ids=["short", "long"]
    )
    def test_rejects_encoder_of_other_domain(self, assignment):
        counts = EmpiricalCounts(np.array([[3, 1], [2, 2], [1, 4], [5, 0]]))
        with pytest.raises(DimensionMismatchError):
            bootstrap_uncertainty(counts, [Encoder(assignment)], 10, 0)


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

    @pytest.mark.parametrize("z", [-1.0, 0.0, math.nan, math.inf, True, "3", None])
    def test_bad_z_rejected(self, z):
        ps = ParetoSet([point(-1.0, 1.0, 0.1, 0.1)])
        with pytest.raises(ValueError, match="z must"):
            significance_filter(ps, z)

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

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "3", None, np.int64(-2)])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            RobustConfig(0.0, seed)

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_non_finite_z_rejected(self, z):
        with pytest.raises(ValueError):
            RobustConfig(0.1, 0, z=z)

    def test_bool_z_rejected(self):
        with pytest.raises(ValueError, match="z must"):
            RobustConfig(0.0, 0, z=True)

    @pytest.mark.parametrize("z", ["3", None])
    def test_non_numeric_z_rejected(self, z):
        with pytest.raises(ValueError, match="z must"):
            RobustConfig(0.0, 0, z=z)

    @pytest.mark.parametrize("epsilon", [-1.0, math.nan, -math.inf])
    def test_bad_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            RobustConfig(epsilon, 0)

    def test_is_a_search_config(self):
        cfg = RobustConfig(0.05, 3, bootstrap_reps=7, z=2.0)
        assert isinstance(cfg, dm.SearchConfig)
        assert list(asdict(cfg).items()) == [
            ("epsilon", 0.05), ("seed", 3), ("bootstrap_reps", 7), ("z", 2.0)]
        with pytest.raises(FrozenInstanceError):
            cfg.epsilon = 1.0


class TestBootstrapPool:
    """One pool of bootstrap replicates serves every frontier point."""

    def test_every_point_reduced_against_point_zero_replicates(self):
        counts = multinomial_sample(sample_simplex(8, 4, 2), 400, 3)
        cfg = RobustConfig(0.0, seed=7, bootstrap_reps=20)
        _, full, _ = robust_pareto_mapper(counts, cfg)
        assert len(full) > 8
        shared = derive_seed(cfg.seed, 0)
        assert [(p.dx, p.dy) for p in full] == [
            spread(counts, p.encoder, cfg.bootstrap_reps, shared) for p in full
        ]

    @pytest.mark.parametrize("cells", [48, dibmap.robust._SPREAD_CELLS], ids=["sliced", "default"])
    def test_batched_spreads_match_per_point_reduction(self, monkeypatch, cells):
        batches = []  # (replicates, encoders, cluster count) per reduction

        def reduce_terms(cell_terms, mass_terms, hy):
            batches.append(mass_terms.shape)
            return _reduce_terms(cell_terms, mass_terms, hy)

        monkeypatch.setattr(dibmap.robust, "_SPREAD_CELLS", cells)
        monkeypatch.setattr(dibmap.robust, "_reduce_terms", reduce_terms)
        counts = multinomial_sample(sample_simplex(9, 4, 5), 300, 2)
        cfg = RobustConfig(0.0, seed=3, bootstrap_reps=2)
        _, full, _ = robust_pareto_mapper(counts, cfg)
        ms = [p.encoder.m for p in full]
        assert len(set(ms)) > 3
        # a group cut into several slices of more than one encoder
        assert cells != 48 or any(1 < k < ms.count(m) for _, k, m in batches)
        arr = dibmap.robust._replicates(counts, cfg.bootstrap_reps, derive_seed(cfg.seed, 0))
        assert [(p.dx, p.dy) for p in full] == [spread_one(arr, p.encoder) for p in full]

    @pytest.mark.parametrize("assignment", [(0, 1, 2, 3, 4, 5), (0, 1, 0, 2, 1, 0), (0,) * 6])
    def test_bootstrap_uncertainty_matches_per_point_reduction(self, assignment):
        counts = multinomial_sample(sample_simplex(6, 4, 2), 300, 5)
        f = Encoder(assignment)
        arr = dibmap.robust._replicates(counts, 30, 11)
        assert spread(counts, f, 30, 11) == spread_one(arr, f)

    @given(
        seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), ny=st.integers(1, 5),
        reps=st.integers(2, 6), zero_row=st.booleans(), zero_col=st.booleans(),
        cells=st.sampled_from([1, 64, dibmap.robust._SPREAD_CELLS]),
    )
    @settings(max_examples=60, deadline=None)
    # more than 64 symbols: a membership key spans several words
    @example(seed=3, n=70, ny=3, reps=4, zero_row=True, zero_col=True, cells=1)
    def test_cluster_table_matches_per_encoder_reduction(
        self, seed, n, ny, reps, zero_row, zero_col, cells
    ):
        rng = np.random.default_rng(seed)
        n_counts = rng.integers(0, 6, size=(n, ny))
        if zero_row:
            n_counts[rng.integers(n)] = 0
        if zero_col:
            n_counts[:, rng.integers(ny)] = 0
        n_counts[rng.integers(n), rng.integers(ny)] += 1  # at least one sample
        counts = EmpiricalCounts(n_counts)
        encoders = nested_encoders(rng, n)
        batches = []  # (replicates, encoders, cluster count) per reduction

        def reduce_terms(cell_terms, mass_terms, hy):
            batches.append(mass_terms.shape)
            return _reduce_terms(cell_terms, mass_terms, hy)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dibmap.robust, "_SPREAD_CELLS", cells)
            mp.setattr(dibmap.robust, "_reduce_terms", reduce_terms)
            got = bootstrap_uncertainty(counts, encoders, reps, seed)
            assert bootstrap_uncertainty(counts, [], reps, seed) == []
        arr = dibmap.robust._replicates(counts, reps, seed)
        assert got == [spread_one(arr, f) for f in encoders]
        # every (replicate, encoder) pair is reduced exactly once
        assert sum(r * k for r, k, _ in batches) == reps * len(encoders)
        if cells == 1:  # one replicate and one encoder per batch
            assert set(batches) == {(1, 1, f.m) for f in encoders}

    def test_xlog2x_runs_once_per_distinct_cluster(self, monkeypatch):
        """A work guard, with no timing: per replicate, the bootstrap takes
        xlog2x of the ny cells and the mass of each distinct cluster,
        however many encoders hold it, and of the replicate's ny Y-marginal
        cells. A push per encoder would take it of every cluster instance."""
        counts = multinomial_sample(sample_simplex(10, 5, 2), 1000, 3)
        cfg = RobustConfig(0.0, seed=7, bootstrap_reps=20)
        _, full, _ = robust_pareto_mapper(counts, cfg)
        encoders = [p.encoder for p in full]
        elements = []

        def counted(a):
            elements.append(np.size(a))
            return xlog2x(a)

        monkeypatch.setattr(dibmap.robust, "xlog2x", counted)
        bootstrap_uncertainty(counts, encoders, cfg.bootstrap_reps, 0)
        reps, ny = cfg.bootstrap_reps, counts.ny
        distinct = len({
            frozenset(np.flatnonzero(np.asarray(f.assignment) == c).tolist())
            for f in encoders
            for c in range(f.m)
        })
        instances = sum(f.m for f in encoders)
        assert sum(elements) == reps * (distinct * (ny + 1) + ny)
        assert 2 * distinct < instances
        assert sum(elements) < reps * (instances * (ny + 1) + ny)

    def test_import_loads_no_executor(self):
        # concurrent.futures pulls in logging, and both would add to every
        # command's start-up time
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules)\n"
            "import dibmap\n"
            "print(sorted(m for m in ('concurrent.futures', 'logging')"
            " if m in sys.modules and m not in before))"
        )
        src = pathlib.Path(dibmap.__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, "-c", code, str(src)], capture_output=True, text=True, timeout=60
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"
