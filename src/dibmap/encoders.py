"""Deterministic hard clusterings in canonical form.

An encoder maps the n input symbols onto m <= n cluster labels. The
canonical form is the restricted-growth labeling: cluster labels appear in
order of first occurrence, so two label arrays inducing the same partition
of the inputs canonicalize to the same tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ._util import as_integer


def _canonical(labels: Sequence[int]) -> tuple[int, ...]:
    relabel: dict[int, int] = {}
    out = []
    for a in labels:
        new = relabel.get(a)
        if new is None:
            new = len(relabel)
            relabel[a] = new
        out.append(new)
    return tuple(out)


@dataclass(frozen=True)
class Encoder:
    """A hard clustering of [n] in canonical (restricted-growth) form."""

    assignment: tuple[int, ...]
    m: int = field(init=False)

    def __post_init__(self):
        assignment = tuple(as_integer("encoder label", a) for a in self.assignment)
        if not assignment:
            raise ValueError("encoder assignment must be non-empty")
        mx = -1
        for a in assignment:
            if a < 0 or a > mx + 1:
                raise ValueError(
                    f"assignment {assignment} is not in first-occurrence canonical form"
                )
            if a > mx:
                mx = a
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "m", mx + 1)

    @classmethod
    def identity(cls, n: int) -> "Encoder":
        """The n-cluster encoder mapping every input to its own cluster."""
        if n < 1:
            raise ValueError("domain size must be at least 1")
        return cls(tuple(range(n)))

    @classmethod
    def _prechecked(cls, assignment: tuple[int, ...], m: int) -> "Encoder":
        """An encoder of int labels its caller has already checked canonical,
        with m clusters; skips __post_init__'s per-label loop."""
        enc = object.__new__(cls)
        object.__setattr__(enc, "assignment", assignment)
        object.__setattr__(enc, "m", m)
        return enc

    @property
    def n(self) -> int:
        """Domain size."""
        return len(self.assignment)


def canonicalize(labels: Iterable[int]) -> Encoder:
    """Relabel an arbitrary non-negative label array by first occurrence."""
    labels = list(labels)
    if not labels:
        raise ValueError("label array must be non-empty")
    if any(a < 0 for a in labels):
        raise ValueError("labels must be non-negative")
    return Encoder(_canonical(labels))
