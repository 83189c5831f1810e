"""Internal helpers: seed derivation, integer checks and least-squares fits."""

from __future__ import annotations

import operator

import numpy as np


def derive_seed(base: int, *key: int) -> int:
    """Derive an independent integer seed from a base seed and an index key.

    Uses numpy's SeedSequence spawn-key mechanism, so derived streams are
    statistically independent and stable across runs and platforms.
    """
    ss = np.random.SeedSequence(base, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def check_seed(seed) -> None:
    """Reject at once a seed numpy's generators would refuse only when drawing.

    A seed is a non-negative integer; bool is not one.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def as_integer(name: str, value, least: int | None = None) -> int:
    """value as an int; ValueError naming `name` unless it is an integer
    and, if `least` is given, at least `least`.

    A bool is not one, nor is a float, even an integral one: int() would
    truncate it silently.
    """
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if least is not None and value < least:
                raise ValueError(f"{name} must be at least {least}")
            return value
    raise ValueError(f"{name} must be an integer, got {value!r}")


def least_squares_line(u, v) -> tuple[float, float, float]:
    """Fit v = slope * u + intercept; returns (slope, intercept, r_squared)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    slope, intercept = np.polyfit(u, v, 1)
    resid = v - (slope * u + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((v - v.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2
