import numpy as np
import pytest

from dibmap import GroupTable, group_joint, ingest_bigrams, make_group
from dibmap.datasets import ALPHABET, SPACE


def sym(c):
    return ALPHABET.index(c)


class TestIngestBigrams:
    def test_single_pair(self):
        counts = ingest_bigrams("ab")
        assert counts.total == 1
        assert counts.n[sym("a"), sym("b")] == 1

    def test_shape_is_27_by_27(self):
        assert ingest_bigrams("hello world").n.shape == (27, 27)

    def test_preprocessing_pipeline(self):
        # "Héllo, World" -> "hello world": 11 symbols, 10 consecutive pairs
        counts = ingest_bigrams("Héllo, World")
        assert counts.total == 10
        assert counts.n[sym("o"), SPACE] == 1
        assert counts.n[SPACE, sym("w")] == 1
        assert counts.n[sym("l"), sym("l")] == 1
        # the comma never produces a second space
        assert counts.n[SPACE, SPACE] == 0

    def test_punctuation_runs_collapse(self):
        counts = ingest_bigrams("a, -- b")
        assert counts.total == 2
        assert counts.n[sym("a"), SPACE] == 1
        assert counts.n[SPACE, sym("b")] == 1

    def test_bytes_input(self):
        counts = ingest_bigrams("Héllo, World".encode("utf-8"))
        assert counts.total == 10

    def test_too_short_after_preprocessing(self):
        for text in ("", "a", "?!\n\t "):
            with pytest.raises(ValueError):
                ingest_bigrams(text)

    def test_case_and_diacritics(self):
        a = ingest_bigrams("Über naïve Façade")
        b = ingest_bigrams("uber naive facade")
        np.testing.assert_array_equal(a.n, b.n)


class TestMakeGroup:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_group("dihedral")

    def test_zmod40x_elements_and_product(self):
        g = make_group("zmod40x")
        assert g.g == 16
        assert g.labels[0] == "1"
        i3, i7, i21 = g.labels.index("3"), g.labels.index("7"), g.labels.index("21")
        assert g.table[i3, i7] == i21

    def test_zmod40x_is_abelian(self):
        g = make_group("zmod40x")
        assert np.array_equal(g.table, g.table.T)

    def test_pauli_products(self):
        g = make_group("pauli")
        assert g.g == 16
        lab = {name: k for k, name in enumerate(g.labels)}
        assert g.table[lab["+X"], lab["+Y"]] == lab["+iZ"]
        assert g.table[lab["+Y"], lab["+X"]] == lab["-iZ"]
        assert g.table[lab["+X"], lab["+X"]] == lab["+I"]
        assert g.table[lab["+iI"], lab["+iI"]] == lab["-I"]

    def test_pauli_is_not_abelian(self):
        g = make_group("pauli")
        assert not np.array_equal(g.table, g.table.T)

    def test_pauli_matches_matrix_representation(self):
        # the phase-letter encoding must agree with literal 2x2 products
        mats = {
            "I": np.eye(2, dtype=complex),
            "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "Z": np.array([[1, 0], [0, -1]], dtype=complex),
        }
        phases = {"+": 1, "-": -1, "+i": 1j, "-i": -1j}

        def to_matrix(label):
            phase, letter = label[:-1], label[-1]
            return phases[phase] * mats[letter]

        g = make_group("pauli")
        for a in range(16):
            for b in range(16):
                want = to_matrix(g.labels[a]) @ to_matrix(g.labels[b])
                got = to_matrix(g.labels[g.table[a, b]])
                assert np.allclose(want, got), (g.labels[a], g.labels[b])

    @pytest.mark.parametrize(
        "table", [[[0, 1.5], [1, 0]], [[0.0, 1.0], [1.0, 0.0]], [[False, True], [True, False]]]
    )
    def test_non_integer_table_rejected(self, table):
        # casting would truncate 1.5 to 1 and accept the table
        with pytest.raises(ValueError, match="table"):
            GroupTable(("a", "b"), table)

    def test_latin_square_validation(self):
        with pytest.raises(ValueError):
            GroupTable(("e", "a"), np.array([[0, 1], [0, 1]]))
        # Latin square without a two-sided identity (a quasigroup)
        with pytest.raises(ValueError):
            GroupTable(
                ("a", "b", "c"),
                np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0]]),
            )


class TestGroupJoint:
    @pytest.mark.parametrize("name", ["zmod40x", "pauli"])
    def test_structure(self, name):
        group = make_group(name)
        triple = group_joint(group)
        nz = triple.p[triple.p > 0]
        assert np.all(nz == 1.0 / 256)
        assert len(nz) == 256
        assert triple.p.sum() == 1.0  # exact: 256 * 2^-8
        marginal_y = triple.p.sum(axis=(0, 1))
        np.testing.assert_allclose(marginal_y, 1.0 / 16, atol=1e-15)

    def test_y_follows_table(self):
        group = make_group("zmod40x")
        triple = group_joint(group)
        for a in (0, 3, 7):
            for b in (1, 5, 15):
                y = group.table[a, b]
                assert triple.p[a, b, y] > 0
