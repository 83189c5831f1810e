import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dibmap as dm
from dibmap import (
    EmpiricalCounts,
    Encoder,
    InvalidDistributionError,
    JointPMF,
    canonicalize,
    entropy,
    multinomial_sample,
    mutual_information,
    normalize_counts,
    push_forward,
    sample_simplex,
    sampling_ratio,
    trials_for_ratio,
)
from dibmap.errors import DimensionMismatchError


def random_joint(nx, ny, seed):
    return sample_simplex(nx, ny, seed)


@st.composite
def simplex_vectors(draw, max_len=12):
    n = draw(st.integers(1, max_len))
    raw = draw(
        st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n)
    )
    v = np.array(raw)
    return v / v.sum()


class TestEntropy:
    def test_uniform_two(self):
        assert entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate(self):
        assert entropy([1.0, 0.0]) == 0.0

    def test_quarter_three_quarters(self):
        # direct evaluation: -0.25*log2(0.25) - 0.75*log2(0.75)
        expected = -(0.25 * np.log2(0.25) + 0.75 * np.log2(0.75))
        assert entropy([0.25, 0.75]) == pytest.approx(expected, abs=1e-15)
        assert entropy([0.25, 0.75]) == pytest.approx(0.811278, abs=1e-6)

    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidDistributionError):
            entropy([1.2, -0.2])

    def test_bad_sum_rejected(self):
        with pytest.raises(InvalidDistributionError):
            entropy([0.5, 0.6])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidDistributionError):
            entropy([bad, 1.0])

    @given(simplex_vectors())
    def test_permutation_invariant(self, v):
        rng = np.random.default_rng(0)
        assert entropy(rng.permutation(v)) == pytest.approx(entropy(v), abs=1e-9)

    @given(simplex_vectors())
    def test_bounds(self, v):
        h = entropy(v)
        assert 0.0 <= h <= np.log2(len(v)) + 1e-12


class TestJointPMF:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # nan compares False with everything, so a sum check alone lets it pass
        with pytest.raises(InvalidDistributionError):
            JointPMF([[bad, 0.5], [0.25, 0.25]])

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 1)])
    def test_non_matrix_rejected(self, shape):
        with pytest.raises(InvalidDistributionError):
            JointPMF(np.full(shape, 0.25))


class TestMutualInformation:
    def test_product_is_zero(self):
        u = np.array([0.2, 0.3, 0.5])
        v = np.array([0.6, 0.4])
        assert mutual_information(JointPMF(np.outer(u, v))) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_perfect_correlation(self):
        j = JointPMF(np.diag([0.5, 0.5]))
        assert mutual_information(j) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        # H(X) = H(Y) = 1; H(X,Y) = -(0.8 log2 0.4 + 0.2 log2 0.1)
        j = JointPMF(np.array([[0.4, 0.1], [0.1, 0.4]]))
        expected = 2.0 + (0.8 * np.log2(0.4) + 0.2 * np.log2(0.1))
        assert mutual_information(j) == pytest.approx(expected, abs=1e-12)
        assert mutual_information(j) == pytest.approx(0.278072, abs=1e-6)

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_bounded_by_marginal_entropies(self, seed):
        j = random_joint(5, 4, seed)
        mi = mutual_information(j)
        assert mi <= entropy(j.marginal_x()) + 1e-9
        assert mi <= entropy(j.marginal_y()) + 1e-9


class TestPushForward:
    def test_identity_unchanged(self):
        j = random_joint(4, 3, 7)
        out = push_forward(j, Encoder.identity(4))
        np.testing.assert_allclose(out.p, j.p, atol=0)

    def test_full_merge_gives_y_marginal(self):
        j = JointPMF(np.diag([0.5, 0.5]))
        out = push_forward(j, Encoder((0, 0)))
        np.testing.assert_allclose(out.p, [[0.5, 0.5]], atol=1e-15)

    def test_row_summation(self):
        j = random_joint(3, 2, 11)
        out = push_forward(j, Encoder((0, 0, 1)))
        expected = np.stack([j.p[0] + j.p[1], j.p[2]])
        np.testing.assert_allclose(out.p, expected, atol=0)

    def test_domain_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            push_forward(random_joint(4, 3, 0), Encoder((0, 1, 2)))

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_preserves_y_marginal(self, seed):
        j = random_joint(6, 4, seed)
        f = Encoder((0, 1, 0, 2, 1, 0))
        out = push_forward(j, f)
        np.testing.assert_allclose(out.marginal_y(), j.marginal_y(), atol=1e-12)

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_merging_never_gains_information(self, seed):
        rng = np.random.default_rng(seed)
        j = random_joint(6, 4, seed)
        f = Encoder.identity(6)
        while f.m > 1:
            i = int(rng.integers(f.m - 1))
            labels = np.array(f.assignment)
            child = canonicalize(np.where(labels == rng.integers(i + 1, f.m), i, labels))
            assert mutual_information(push_forward(j, child)) <= (
                mutual_information(push_forward(j, f)) + 1e-9
            )
            assert entropy(push_forward(j, child).marginal_x()) <= (
                entropy(push_forward(j, f).marginal_x()) + 1e-9
            )
            f = child


class TestSampling:
    def test_trials_for_ratio(self):
        joint = JointPMF(np.full((2, 2), 0.25))  # 2^H = 4
        assert trials_for_ratio(joint, 2.5) == 10
        assert trials_for_ratio(joint, 0.01) == 1

    @pytest.mark.parametrize("r", [math.inf, -1.0, 0.0, math.nan, True])
    def test_bad_ratio_rejected(self, r):
        with pytest.raises(ValueError, match="ratio r"):
            trials_for_ratio(JointPMF(np.full((2, 2), 0.25)), r)

    def test_simplex_trivial(self):
        np.testing.assert_array_equal(sample_simplex(1, 1, 3).p, [[1.0]])

    def test_simplex_deterministic(self):
        np.testing.assert_array_equal(
            sample_simplex(4, 3, 99).p, sample_simplex(4, 3, 99).p
        )

    def test_simplex_uniform_moments(self):
        # Dirichlet(1,...,1) over 6 cells: each entry has mean 1/6 and
        # variance (1/6)(5/6)/7; check the empirical mean to 3 SEs.
        draws = 100_000
        rng = np.random.default_rng(2024)
        e = rng.exponential(size=(draws, 6))
        means = (e / e.sum(axis=1, keepdims=True)).mean(axis=0)
        se = np.sqrt((1 / 6) * (5 / 6) / 7 / draws)
        lib = np.array(
            [sample_simplex(3, 2, s).p.ravel() for s in range(2000)]
        ).mean(axis=0)
        np.testing.assert_allclose(means, 1 / 6, atol=3 * se)
        np.testing.assert_allclose(lib, 1 / 6, atol=3 * np.sqrt((1 / 6) * (5 / 6) / 7 / 2000))

    def test_multinomial_single_cell(self):
        counts = multinomial_sample(JointPMF(np.array([[1.0]])), 7, 0)
        np.testing.assert_array_equal(counts.n, [[7]])
        assert counts.total == 7

    def test_multinomial_law_of_large_numbers(self):
        j = random_joint(4, 3, 5)
        counts = multinomial_sample(j, 10**6, 12)
        assert np.abs(counts.n / counts.total - j.p).max() < 5e-3

    def test_multinomial_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            multinomial_sample(random_joint(2, 2, 1), 0, 0)

    @pytest.mark.parametrize("s", [2.5, 2.0, True, "3"])
    def test_multinomial_rejects_non_integer_sample_counts(self, s):
        with pytest.raises(ValueError, match="sample count s must be an integer"):
            multinomial_sample(random_joint(2, 2, 1), s, 0)

    @pytest.mark.parametrize("seed", [True, -1])
    def test_multinomial_rejects_bad_seeds(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            multinomial_sample(random_joint(2, 2, 1), 5, seed)

    @pytest.mark.parametrize(
        "nx, ny, seed, match",
        [(2.0, 3, 0, "nx must be an integer"),
         (True, 3, 0, "nx must be an integer"),
         (3, 2.5, 0, "ny must be an integer"),
         (3, "3", 0, "ny must be an integer"),
         (0, 3, 0, "at least 1"),
         (3, 3, True, "seed must be a non-negative integer"),
         (3, 3, -1, "seed must be a non-negative integer")],
    )
    def test_simplex_rejects_bad_input(self, nx, ny, seed, match):
        with pytest.raises(ValueError, match=match):
            sample_simplex(nx, ny, seed)

    def test_accepts_numpy_integers(self):
        j = sample_simplex(np.int64(3), np.int32(2), np.uint64(5))
        np.testing.assert_array_equal(j.p, sample_simplex(3, 2, 5).p)
        counts = multinomial_sample(j, np.int64(40), np.int32(1))
        np.testing.assert_array_equal(counts.n, multinomial_sample(j, 40, 1).n)

    def test_sampling_ratio(self):
        j = random_joint(3, 3, 8)
        s = 1000
        assert sampling_ratio(j, s) == pytest.approx(
            s / 2 ** entropy(j.p.ravel()), rel=1e-12
        )

    @pytest.mark.parametrize("s", [-5, 0, 2.5, 3.0, True, "3", None])
    def test_sampling_ratio_rejects_bad_sample_counts(self, s):
        with pytest.raises(ValueError, match="sample count s"):
            sampling_ratio(random_joint(3, 3, 8), s)


class TestCounts:
    def test_normalize(self):
        np.testing.assert_allclose(
            normalize_counts(EmpiricalCounts(np.array([[2, 2]]))).p, [[0.5, 0.5]]
        )
        np.testing.assert_allclose(
            normalize_counts(EmpiricalCounts(np.array([[1, 0], [0, 3]]))).p,
            [[0.25, 0.0], [0.0, 0.75]],
        )

    def test_normalize_round_trip(self):
        j = random_joint(3, 4, 17)
        p = normalize_counts(multinomial_sample(j, 500, 3)).p
        assert abs(p.sum() - 1.0) < 1e-12

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            EmpiricalCounts(np.array([[0, 0]]))
        with pytest.raises(ValueError):
            EmpiricalCounts(np.array([[1, -1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_by_name(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast warning before the check
            with pytest.raises(ValueError, match="finite"):
                EmpiricalCounts(np.array([[bad, 1.0], [2.0, 3.0]]))

    def test_count_beyond_int64_rejected_by_name(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast warning before the check
            with pytest.raises(ValueError, match="below 2\\^63"):
                EmpiricalCounts(np.array([[1e19, 1.0]]))
            with pytest.raises(ValueError, match="non-negative"):
                EmpiricalCounts(np.array([[-1e19, 1.0]]))

    def test_total_beyond_int64_rejected_by_name(self):
        with pytest.raises(ValueError, match="total below 2\\^63"):
            EmpiricalCounts(np.array([[2**62, 2**62], [2**62, 1]]))

    def test_bool_counts_rejected(self):
        with pytest.raises(ValueError, match="counts must be integers"):
            EmpiricalCounts(np.array([[True, False], [False, True]]))

    @pytest.mark.parametrize(
        "counts, match",
        [
            ([[2**70, 1]], "within int64, got object"),
            ([[2**64, 1]], "within int64, got object"),
            ([[-2**70, 1]], "within int64, got object"),
            ([["1", "2"]], "integers within int64, got <U1"),
            ([[1 + 0j, 2]], "integers within int64, got complex128"),
            ([[None, 2]], "integers within int64, got object"),
        ],
        ids=["2^70", "2^64", "-2^70", "str", "complex", "None"],
    )
    def test_non_numeric_and_out_of_range_rejected_by_name(self, counts, match):
        with pytest.raises(ValueError, match=match):
            EmpiricalCounts(counts)

    def test_largest_int64_count_accepted(self):
        assert EmpiricalCounts(np.array([[2**63 - 1, 0]])).total == 2**63 - 1


class TestCsv:
    def test_joint_round_trip(self, tmp_path):
        j = random_joint(4, 3, 21)
        path = tmp_path / "j.csv"
        dm.save_matrix_csv(path, j.p)
        np.testing.assert_array_equal(dm.load_joint_csv(path).p, j.p)

    def test_counts_round_trip(self, tmp_path):
        c = multinomial_sample(random_joint(3, 3, 2), 100, 4)
        path = tmp_path / "c.csv"
        dm.save_matrix_csv(path, c.n, fmt="%d")
        np.testing.assert_array_equal(dm.load_counts_csv(path).n, c.n)

    def test_invalid_joint_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.2\n0.2,0.2\n")
        with pytest.raises(InvalidDistributionError):
            dm.load_joint_csv(path)
