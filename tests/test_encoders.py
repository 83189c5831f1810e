import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dibmap import Encoder, canonicalize
from dibmap.mapper import _merge_table

label_arrays = st.lists(st.integers(0, 8), min_size=1, max_size=12)


def merge(labels, i, j):
    """Canonical labels after uniting clusters i < j, by the search's operator."""
    table = _merge_table(np.array([i]), np.array([j]), max(labels) + 1)
    return tuple(table[0][np.array(labels, dtype=np.uint8)].tolist())


def blocks(labels):
    """The partition of the positions that a label array induces."""
    members = {}
    for idx, a in enumerate(labels):
        members.setdefault(a, set()).add(idx)
    return {frozenset(b) for b in members.values()}


class TestIdentity:
    def test_small(self):
        assert Encoder.identity(3).assignment == (0, 1, 2)
        assert Encoder.identity(1).assignment == (0,)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Encoder.identity(0)


class TestMerge:
    """The search's merge operator keeps canonical form and unites blocks."""

    def test_examples(self):
        assert merge((0, 1, 2), 1, 2) == (0, 1, 1)
        assert merge((0, 1), 0, 1) == (0, 0)
        assert merge((0, 1, 0, 2), 0, 2) == (0, 1, 0, 0)

    @given(label_arrays, st.randoms(use_true_random=False))
    def test_merge_unites_blocks(self, labels, rnd):
        f = canonicalize(labels)
        if f.m < 2:
            return
        i = rnd.randrange(f.m - 1)
        j = rnd.randrange(i + 1, f.m)
        child = merge(f.assignment, i, j)
        assert Encoder(child).m == f.m - 1  # the constructor checks canonical form
        parent = [frozenset(k for k, a in enumerate(f.assignment) if a == c)
                  for c in range(f.m)]
        expected = {b for k, b in enumerate(parent) if k not in (i, j)}
        expected.add(parent[i] | parent[j])
        assert blocks(child) == expected

    @given(st.integers(2, 10), st.randoms(use_true_random=False))
    def test_chain_to_single_cluster(self, n, rnd):
        f = Encoder.identity(n)
        merges = 0
        while f.m > 1:
            i = rnd.randrange(f.m - 1)
            f = Encoder(merge(f.assignment, i, rnd.randrange(i + 1, f.m)))
            merges += 1
        assert merges == n - 1
        assert f.assignment == (0,) * n


class TestCanonicalize:
    def test_examples(self):
        assert canonicalize([2, 0, 1]).assignment == (0, 1, 2)
        assert canonicalize([5, 5, 7]).assignment == (0, 0, 1)
        assert canonicalize([1, 0, 1, 0]).assignment == (0, 1, 0, 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            canonicalize([])

    @given(label_arrays)
    def test_idempotent(self, labels):
        once = canonicalize(labels)
        assert canonicalize(once.assignment).assignment == once.assignment

    @given(label_arrays)
    def test_partition_preserved(self, labels):
        assert blocks(canonicalize(labels).assignment) == blocks(labels)


class TestValidation:
    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            Encoder((1, 0))
        with pytest.raises(ValueError):
            Encoder((0, 2))
        with pytest.raises(ValueError):
            Encoder((0, -1))

    @pytest.mark.parametrize(
        "assignment",
        [(0, 1.7), (0, 1.0), (0, True), (False,), ("0", "1"), (np.float64(0),), (np.bool_(False),)],
        ids=["float", "integral-float", "bool", "bool-first", "str", "np-float", "np-bool"],
    )
    def test_rejects_non_integer_labels(self, assignment):
        # int() would truncate these to a valid-looking (0, 1) or (0,)
        with pytest.raises(ValueError, match="must be an integer"):
            Encoder(assignment)

    def test_accepts_numpy_integer_labels(self):
        f = Encoder((np.int64(0), np.uint8(1), np.int32(0)))
        assert f.assignment == (0, 1, 0)
        assert all(type(a) is int for a in f.assignment)
