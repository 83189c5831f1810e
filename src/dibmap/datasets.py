"""Builders for experiment inputs: text bigram counts and group triples."""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass

import numpy as np

from .distributions import EmpiricalCounts
from .symmetric import TripleJointPMF

ALPHABET = "abcdefghijklmnopqrstuvwxyz "  # index 26 is the space symbol
SPACE = 26


def ingest_bigrams(text) -> EmpiricalCounts:
    """Count consecutive character pairs over a 27-symbol alphabet (a-z, space).

    Preprocessing: decompose accented letters and drop the diacritics,
    lowercase, replace every run of non-letter characters by a single
    space, and trim. Bytes input is decoded as UTF-8 (undecodable bytes
    become spaces like any other non-letter).
    """
    if isinstance(text, (bytes, bytearray)):
        text = bytes(text).decode("utf-8", errors="replace")
    decomposed = unicodedata.normalize("NFKD", text)
    base = "".join(c for c in decomposed if not unicodedata.combining(c))
    collapsed = re.sub(r"[^a-z]+", " ", base.lower()).strip()
    if len(collapsed) < 2:
        raise ValueError("fewer than 2 symbols remain after preprocessing")
    codes = np.frombuffer(collapsed.encode("ascii"), dtype=np.uint8)
    idx = np.where(codes == 0x20, SPACE, codes - ord("a")).astype(np.int64)
    flat = idx[:-1] * 27 + idx[1:]
    return EmpiricalCounts(np.bincount(flat, minlength=27 * 27).reshape(27, 27))


@dataclass(frozen=True)
class GroupTable:
    """Cayley table of a finite group: table[a][b] is the index of a*b."""

    labels: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        # casting would truncate a float entry or accept bools
        if np.asarray(self.table).dtype.kind not in "iu":
            raise ValueError(f"table must hold integers, got {self.table!r}")
        table = np.asarray(self.table, dtype=np.int64)
        g = len(self.labels)
        if table.shape != (g, g):
            raise ValueError("table shape must match the label count")
        full = np.arange(g)
        for a in range(g):
            if not np.array_equal(np.sort(table[a]), full) or not np.array_equal(
                np.sort(table[:, a]), full
            ):
                raise ValueError("table is not a Latin square")
        idents = [
            e
            for e in range(g)
            if np.array_equal(table[e], full) and np.array_equal(table[:, e], full)
        ]
        if len(idents) != 1:
            raise ValueError("table must have exactly one identity element")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "table", table)

    @property
    def g(self) -> int:
        return len(self.labels)

    @property
    def identity(self) -> int:
        full = np.arange(self.g)
        return next(e for e in range(self.g) if np.array_equal(self.table[e], full))


def _zmod40x() -> GroupTable:
    elements = [e for e in range(1, 40) if np.gcd(e, 40) == 1]
    index = {e: i for i, e in enumerate(elements)}
    g = len(elements)
    table = np.array(
        [[index[(a * b) % 40] for b in elements] for a in elements], dtype=np.int64
    )
    return GroupTable(tuple(str(e) for e in elements), table)


# Pauli letter products: _LETTER_MUL[a][b] = (phase exponent k of i^k, letter).
_LETTERS = "IXYZ"
_LETTER_MUL = {
    ("I", "I"): (0, "I"), ("I", "X"): (0, "X"), ("I", "Y"): (0, "Y"), ("I", "Z"): (0, "Z"),
    ("X", "I"): (0, "X"), ("X", "X"): (0, "I"), ("X", "Y"): (1, "Z"), ("X", "Z"): (3, "Y"),
    ("Y", "I"): (0, "Y"), ("Y", "X"): (3, "Z"), ("Y", "Y"): (0, "I"), ("Y", "Z"): (1, "X"),
    ("Z", "I"): (0, "Z"), ("Z", "X"): (1, "Y"), ("Z", "Y"): (3, "X"), ("Z", "Z"): (0, "I"),
}
_PHASE_LABEL = {0: "+", 2: "-", 1: "+i", 3: "-i"}


def _pauli() -> GroupTable:
    # Elements are (phase exponent, letter) pairs: i^k * sigma. Ordered by
    # letter then phase (+, -, +i, -i) for readable labels.
    phases = [0, 2, 1, 3]
    elements = [(k, a) for a in _LETTERS for k in phases]
    index = {e: i for i, e in enumerate(elements)}
    g = len(elements)
    table = np.empty((g, g), dtype=np.int64)
    for i, (k, a) in enumerate(elements):
        for j, (l, b) in enumerate(elements):
            dk, c = _LETTER_MUL[(a, b)]
            table[i, j] = index[((k + l + dk) % 4, c)]
    labels = tuple(_PHASE_LABEL[k] + a for k, a in elements)
    return GroupTable(labels, table)


def make_group(name: str) -> GroupTable:
    """A built-in group by name: 'zmod40x' or 'pauli' (both of order 16)."""
    builders = {"zmod40x": _zmod40x, "pauli": _pauli}
    if name not in builders:
        raise ValueError(f"unknown group {name!r}; choose from {sorted(builders)}")
    return builders[name]()


def group_joint(group: GroupTable) -> TripleJointPMF:
    """The triple (X1, X2, Y) with (X1, X2) uniform on G^2 and Y = X1*X2."""
    g = group.g
    p = np.zeros((g, g, g))
    a = np.arange(g)
    p[np.repeat(a, g), np.tile(a, g), group.table.ravel()] = 1.0 / (g * g)
    return TripleJointPMF(p)
