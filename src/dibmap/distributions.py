"""Exact discrete probability objects and the information functionals on them.

All entropies and mutual informations are in bits (base-2 logs), with the
continuity convention 0*log(0) = 0. Two global tolerances are used
throughout the package: MASS_TOL for probability-mass bookkeeping and
INFO_TOL for information quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import as_integer, check_seed
from .encoders import Encoder
from .errors import DimensionMismatchError, InvalidDistributionError

MASS_TOL = 1e-12
INFO_TOL = 1e-9


def xlog2x(a: np.ndarray) -> np.ndarray:
    """Elementwise a * log2(a) with 0*log2(0) = 0."""
    a = np.asarray(a, dtype=float)
    out = np.zeros(a.shape)
    np.log2(a, out=out, where=a > 0)
    out *= a
    return out


def _check_pmf(p: np.ndarray) -> None:
    """Reject non-finite or negative entries and a total mass other than 1."""
    if not np.all(np.isfinite(p)):
        raise InvalidDistributionError("non-finite probability entry")
    if np.any(p < 0):
        raise InvalidDistributionError("negative probability entry")
    total = float(p.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise InvalidDistributionError(f"probabilities sum to {total!r}, not 1")


@dataclass(frozen=True)
class JointPMF:
    """An exact joint distribution p(x, y) over nx * ny outcomes."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise InvalidDistributionError("joint PMF must be a non-empty 2-D matrix")
        _check_pmf(p)
        object.__setattr__(self, "p", p)

    @property
    def nx(self) -> int:
        return self.p.shape[0]

    @property
    def ny(self) -> int:
        return self.p.shape[1]

    def marginal_x(self) -> np.ndarray:
        return self.p.sum(axis=1)

    def marginal_y(self) -> np.ndarray:
        return self.p.sum(axis=0)


@dataclass(frozen=True)
class EmpiricalCounts:
    """A matrix of non-negative integer sample counts over nx * ny cells."""

    n: np.ndarray
    total: int = field(init=False)

    def __post_init__(self):
        n = np.asarray(self.n)
        if n.ndim != 2 or n.shape[0] < 1 or n.shape[1] < 1:
            raise ValueError("counts must be a non-empty 2-D matrix")
        # ints beyond int64 and uint64 come as objects, strings as text
        if n.dtype.kind not in "iuf":
            raise ValueError(
                f"counts must be integers within int64, got {n.dtype} entries"
            )
        if n.dtype.kind == "f":
            if not np.all(np.isfinite(n)):
                raise ValueError("counts must be finite (no NaN or inf)")
            if not np.all(n == np.floor(n)):
                raise ValueError("counts must be integers")
        if np.any(n < 0):
            raise ValueError("counts must be non-negative")
        if np.any(n >= 2**63):
            raise ValueError("counts must be below 2^63 (int64)")
        n = n.astype(np.int64)
        total = int(n.sum(dtype=object))  # exact, where an int64 sum could wrap
        if total >= 2**63:
            raise ValueError("counts must total below 2^63 (int64)")
        if total < 1:
            raise ValueError("counts must contain at least one sample")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "total", total)

    @property
    def nx(self) -> int:
        return self.n.shape[0]

    @property
    def ny(self) -> int:
        return self.n.shape[1]


def entropy(dist) -> float:
    """Shannon entropy in bits of a probability vector (any shape; flattened)."""
    p = np.asarray(dist, dtype=float).ravel()
    _check_pmf(p)
    return max(0.0, float(-xlog2x(p).sum()))


def mutual_information(joint: JointPMF) -> float:
    """I(X; Y) in bits, computed as H(X) + H(Y) - H(X, Y).

    Tiny negative values (floating-point noise within INFO_TOL) clamp to 0.
    """
    hx = -xlog2x(joint.marginal_x()).sum()
    hy = -xlog2x(joint.marginal_y()).sum()
    hxy = -xlog2x(joint.p).sum()
    mi = float(hx + hy - hxy)
    if mi < -INFO_TOL:
        raise InvalidDistributionError(f"mutual information {mi!r} below -{INFO_TOL}")
    return max(0.0, mi)


def push_forward(joint: JointPMF, f: Encoder) -> JointPMF:
    """The joint distribution of (f(X), Y): rows of each cluster summed."""
    if f.n != joint.nx:
        raise DimensionMismatchError(
            f"encoder domain {f.n} != joint row count {joint.nx}"
        )
    out = np.zeros((f.m, joint.ny))
    np.add.at(out, np.asarray(f.assignment), joint.p)
    return JointPMF(out)


def sample_simplex(nx: int, ny: int, seed: int) -> JointPMF:
    """Draw a joint PMF uniformly from the (nx*ny - 1)-simplex.

    Standard Dirichlet(1, ..., 1) construction: i.i.d. unit-rate exponential
    draws, normalized. Deterministic for a fixed seed.
    """
    nx, ny = as_integer("nx", nx, 1), as_integer("ny", ny, 1)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    e = rng.exponential(size=(nx, ny))
    return JointPMF(e / e.sum())


def multinomial_sample(joint: JointPMF, s: int, seed: int) -> EmpiricalCounts:
    """Draw s samples from the joint; returns the cell-count matrix."""
    s = as_integer("sample count s", s, 1)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(s, joint.p.ravel()).reshape(joint.p.shape)
    return EmpiricalCounts(counts)


def normalize_counts(counts: EmpiricalCounts) -> JointPMF:
    """The empirical (plug-in) joint PMF n_ij / total."""
    return JointPMF(counts.n / counts.total)


def sampling_ratio(joint: JointPMF, s: int) -> float:
    """Sample count in units of the joint's effective support, s / 2^H(X,Y).

    s is an integer >= 1, as multinomial_sample requires.
    """
    return as_integer("sample count s", s, 1) / 2.0 ** entropy(joint.p)


def trials_for_ratio(joint: JointPMF, r: float) -> int:
    """Smallest sample count s (>= 1) whose sampling ratio is about r.

    r is the ratio s / 2^H(X, Y), positive and finite.
    """
    if isinstance(r, bool) or not 0 < r < np.inf:  # also rejects NaN
        raise ValueError(f"ratio r must be positive and finite, got {r!r}")
    return max(1, round(r * 2.0 ** entropy(joint.p)))


def save_matrix_csv(path, matrix, fmt: str = "%.17g") -> None:
    """Write a matrix as headerless comma-separated rows."""
    np.savetxt(path, np.asarray(matrix), delimiter=",", fmt=fmt)


def load_joint_csv(path) -> JointPMF:
    """Read a JointPMF from headerless CSV (one row per X outcome)."""
    return JointPMF(np.loadtxt(path, delimiter=",", ndmin=2))


def load_counts_csv(path) -> EmpiricalCounts:
    """Read an EmpiricalCounts matrix from headerless CSV."""
    return EmpiricalCounts(np.loadtxt(path, delimiter=",", ndmin=2))
