import hashlib
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import dibmap as dm
from dibmap.cli import main


@pytest.fixture
def diag2(tmp_path):
    path = tmp_path / "diag2.csv"
    dm.save_matrix_csv(path, np.diag([0.5, 0.5]))
    return path


@pytest.fixture
def random8(tmp_path):
    path = tmp_path / "rand8.csv"
    dm.save_matrix_csv(path, dm.sample_simplex(8, 5, seed=42).p)
    return path


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    rc = main([*argv, "--out", str(out)])
    assert rc == 0
    return out.read_bytes()


class TestMap:
    def test_diag_points(self, tmp_path, diag2):
        doc = json.loads(
            run(tmp_path, "map", "--pmf", str(diag2), "--epsilon", "0", "--seed", "1")
        )
        hs = [p["H"] for p in doc["points"]]
        assert hs == [0.0, 1.0]
        assert [p["I"] for p in doc["points"]] == [0.0, 1.0]
        assert doc["meta"]["command"] == "map"
        assert doc["meta"]["stats"]["points_searched"] == 2

    def test_points_ascend_in_h_and_i(self, tmp_path, random8):
        doc = json.loads(
            run(tmp_path, "map", "--pmf", str(random8), "--epsilon", "0", "--seed", "3")
        )
        hs = [p["H"] for p in doc["points"]]
        eyes = [p["I"] for p in doc["points"]]
        assert hs == sorted(hs)
        assert eyes == sorted(eyes)

    def test_byte_identical_across_runs(self, tmp_path, random8):
        argv = ["map", "--pmf", str(random8), "--epsilon", "0.02", "--seed", "9"]
        a = run(tmp_path, *argv)
        b = run(tmp_path, *argv)
        assert a == b

    def test_infinite_epsilon_flag(self, tmp_path, diag2):
        doc = json.loads(
            run(tmp_path, "map", "--pmf", str(diag2), "--epsilon", "inf", "--seed", "1")
        )
        assert doc["meta"]["epsilon"] == "inf"

    def test_emitted_encoders_reproduce_objectives(self, tmp_path, random8):
        doc = json.loads(
            run(tmp_path, "map", "--pmf", str(random8), "--epsilon", "0.05", "--seed", "2")
        )
        joint = dm.load_joint_csv(random8)
        for entry in doc["points"]:
            pushed = dm.push_forward(joint, dm.Encoder(tuple(entry["encoder"])))
            assert dm.entropy(pushed.marginal_x()) == pytest.approx(
                entry["H"], abs=1e-9
            )
            assert dm.mutual_information(pushed) == pytest.approx(
                entry["I"], abs=1e-9
            )

    def test_csv_format(self, tmp_path, diag2):
        out = tmp_path / "out.csv"
        rc = main(
            ["map", "--pmf", str(diag2), "--epsilon", "0", "--seed", "1",
             "--format", "csv", "--out", str(out)]
        )
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert [[float(c) for c in r] for r in rows] == [[0.0, 0.0], [1.0, 1.0]]

    def test_dmc_and_hull_flags_present(self, tmp_path, random8):
        doc = json.loads(
            run(tmp_path, "map", "--pmf", str(random8), "--epsilon", "0", "--seed", "1")
        )
        assert all({"dmc", "hull"} <= set(p) for p in doc["points"])
        assert doc["points"][0]["dmc"] and doc["points"][-1]["dmc"]


class TestOracle:
    def test_score_against_own_map(self, tmp_path, random8):
        map_out = tmp_path / "run.json"
        assert main(
            ["map", "--pmf", str(random8), "--epsilon", "inf", "--seed", "1",
             "--out", str(map_out)]
        ) == 0
        doc = json.loads(
            run(tmp_path, "oracle", "--pmf", str(random8), "--candidate", str(map_out))
        )
        assert doc["score"]["precision"] == 1.0
        assert doc["score"]["recall"] == 1.0
        assert doc["score"]["fp"] == 0 and doc["score"]["fn"] == 0

    def test_large_candidate_scored_quickly(self, tmp_path, diag2):
        # documents list points ascending in H, so descending in x = -H
        n = 150_000
        h = np.linspace(0.0, 1.0, n).tolist()
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps({"points": [{"H": v, "I": v} for v in h]}))
        t0 = time.perf_counter()
        doc = json.loads(run(tmp_path, "oracle", "--pmf", str(diag2), "--candidate", str(cand)))
        elapsed = time.perf_counter() - t0
        assert (doc["score"]["points"], doc["score"]["tp"], doc["score"]["fn"]) == (n, 2, 0)
        assert elapsed < 5.0

    def test_frontier_only(self, tmp_path, diag2):
        doc = json.loads(run(tmp_path, "oracle", "--pmf", str(diag2)))
        assert "score" not in doc
        assert [p["H"] for p in doc["points"]] == [0.0, 1.0]


class TestRobustMap:
    def test_document_fields(self, tmp_path):
        counts_path = tmp_path / "counts.csv"
        counts = dm.multinomial_sample(dm.sample_simplex(5, 4, seed=3), 300, 8)
        dm.save_matrix_csv(counts_path, counts.n, fmt="%d")
        doc = json.loads(
            run(tmp_path, "robust-map", "--counts", str(counts_path),
                "--epsilon", "0.05", "--seed", "4", "--bootstrap-reps", "50",
                "--z", "1.5")
        )
        assert doc["meta"]["bootstrap_reps"] == 50
        assert doc["meta"]["z"] == 1.5
        pts = doc["points"]
        assert all({"dH", "dI", "kept"} <= set(p) for p in pts)
        assert any(p["kept"] for p in pts)


class TestSymmetricMap:
    def test_triple_file_input(self, tmp_path):
        rng = np.random.default_rng(0)
        p = rng.exponential(size=(4, 4, 3))
        triple = dm.TripleJointPMF(p / p.sum())
        tri_path = tmp_path / "triple.csv"
        dm.save_triple_csv(tri_path, triple)
        doc = json.loads(
            run(tmp_path, "symmetric-map", "--triple", str(tri_path),
                "--epsilon", "inf", "--seed", "2")
        )
        assert doc["meta"]["stats"]["points_searched"] == dm.bell_number(4)
        frontier, _ = dm.symmetric_pareto_mapper(
            triple, dm.SearchConfig(math.inf, seed=2)
        )
        assert len(doc["points"]) == len(frontier)


class TestScalingCommand:
    def test_cloud_table(self, tmp_path):
        out = tmp_path / "table.csv"
        argv = ["scaling", "--kind", "independent", "--n-values", "16,32",
                "--trials", "50", "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        lines = first.decode().splitlines()
        assert lines[0] == "n,mean,std"
        assert len(lines) == 3
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_dib_table_excludes_timing_by_default(self, tmp_path):
        out = tmp_path / "dib.csv"
        assert main(
            ["scaling", "--kind", "dib", "--n-values", "3,4", "--trials", "3",
             "--seed", "1", "--ny", "5", "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,mean_frontier,mean_searched"
        assert main(
            ["scaling", "--kind", "dib", "--n-values", "3", "--trials", "3",
             "--seed", "1", "--ny", "5", "--timing", "--out", str(out)]
        ) == 0
        assert out.read_text().splitlines()[0].endswith(",mean_seconds")


class TestDatasetCommands:
    def test_ingest_bigrams(self, tmp_path):
        text = tmp_path / "t.txt"
        text.write_text("Héllo, World")
        out = tmp_path / "counts.csv"
        assert main(["ingest-bigrams", str(text), "--out", str(out)]) == 0
        counts = dm.load_counts_csv(out)
        assert counts.n.shape == (27, 27)
        assert counts.total == 10

    def test_group_emission(self, tmp_path):
        out = tmp_path / "triple.csv"
        labels = tmp_path / "labels.txt"
        assert main(
            ["group", "zmod40x", "--out", str(out), "--labels-out", str(labels)]
        ) == 0
        triple = dm.load_triple_csv(out)
        assert triple.g == 16 and triple.ny == 16
        assert labels.read_text().splitlines()[0] == "1"
        ref = dm.group_joint(dm.make_group("zmod40x"))
        np.testing.assert_allclose(triple.p, ref.p, atol=1e-15)


class TestGoldenOutputs:
    """sha256 digests of CLI output on small fixed inputs.

    Inputs live under relative names in a fresh directory, so the paths a
    document echoes in its meta are the same on every run. Any rewrite of
    the commands' flags, documents or writers must leave these unchanged.
    """

    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        dm.save_matrix_csv("joint.csv", dm.sample_simplex(7, 4, seed=2).p)
        counts = dm.multinomial_sample(dm.sample_simplex(6, 4, seed=3), 300, 8)
        dm.save_matrix_csv("counts.csv", counts.n, fmt="%d")
        p = np.random.default_rng(0).exponential(size=(4, 4, 3))
        dm.save_triple_csv("triple.csv", dm.TripleJointPMF(p / p.sum()))
        (tmp_path / "text.txt").write_text("Héllo, World! The quick brown fox.")
        assert main(["map", "--pmf", "joint.csv", "--epsilon", "0", "--seed", "1",
                     "--out", "candidate.json"]) == 0

    @staticmethod
    def stdout_of(capsys, argv) -> bytes:
        capsys.readouterr()
        assert main(argv) == 0
        return capsys.readouterr().out.encode()

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["robust-map", "--counts", "counts.csv", "--epsilon", "0.05",
              "--seed", "4", "--bootstrap-reps", "10"],
             "50462fbfda881f4b36e14d863b42eda46cf30442dec2997f318aa04a55646855"),
            (["oracle", "--pmf", "joint.csv", "--candidate", "candidate.json"],
             "d7d90d31a5dd1a1493b80d3416e774661b062f4ae440445f9fdf9264cd583780"),
            (["map", "--pmf", "joint.csv", "--epsilon", "0.05", "--seed", "2",
              "--format", "csv"],
             "bfdeab85ae54344c2128a9abbd48ef246132aa7e90661696e442080db545aa56"),
            (["scaling", "--kind", "independent", "--n-values", "16,32",
              "--trials", "50", "--seed", "3"],
             "115329b5f61a7081cb82a31e1048f18422c36efccd412541cdbd98248a4fa5f1"),
            (["scaling", "--kind", "dib", "--engine", "greedy", "--n-values", "3,4",
              "--trials", "3", "--seed", "1", "--ny", "5"],
             "fd5cbc885417cb04dd83ede5c970effb416ca1f1e661333e6b519f15c1ba45cb"),
            (["ingest-bigrams", "text.txt"],
             "a5b1948596e873f9f11063a2f0d7a6f30bad4f739f345e439acedc5dc6ee8ae4"),
            (["group", "pauli"],
             "e8c7981930f8429784f715ca21857d3f6859f2e2acf1676f34aa3eff6b5368f6"),
        ],
        ids=["robust-map", "oracle-candidate", "map-csv", "scaling-cloud",
             "scaling-dib-greedy", "ingest-bigrams", "group-pauli"],
    )
    def test_bytes(self, inputs, capsys, argv, want):
        out = self.stdout_of(capsys, argv)
        assert hashlib.sha256(out).hexdigest() == want

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["map", "--pmf", "joint.csv", "--epsilon", "0.05", "--seed", "2"],
             "7bd7182786a6d145652913d51aa9a6b053f990a527b01dc2853454157946eb4c"),
            (["symmetric-map", "--triple", "triple.csv", "--epsilon", "0.05",
              "--seed", "2"],
             "a25f8a4104aa3f42def2b1e21c198f40e72b556b9ed6eff8f2ac9121fd47c62e"),
        ],
        ids=["map", "symmetric-map"],
    )
    def test_points(self, inputs, capsys, argv, want):
        doc = json.loads(self.stdout_of(capsys, argv))
        points = json.dumps(doc["points"], indent=2).encode()
        assert hashlib.sha256(points).hexdigest() == want

    @pytest.mark.parametrize(
        "argv, source, epsilon",
        [(["map", "--pmf", "joint.csv"], "pmf", "0.05"),
         (["symmetric-map", "--triple", "triple.csv"], "input", "0.05"),
         (["map", "--pmf", "joint.csv"], "pmf", "inf")],
        ids=["map", "symmetric-map", "map-inf"],
    )
    def test_search_meta_keys(self, inputs, capsys, argv, source, epsilon):
        doc = json.loads(
            self.stdout_of(capsys, [*argv, "--epsilon", epsilon, "--seed", "2"])
        )
        assert list(doc["meta"]) == ["command", source, "epsilon", "seed", "stats"]
        # an infinite epsilon is echoed as the string "inf", keeping its place
        assert doc["meta"]["epsilon"] == (epsilon if epsilon == "inf" else float(epsilon))


class TestExitCodes:
    def test_missing_file_is_exit_one(self, tmp_path, capsys):
        rc = main(["map", "--pmf", str(tmp_path / "nope.csv"),
                   "--epsilon", "0", "--seed", "1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_pmf_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.9,0.9\n")
        rc = main(["map", "--pmf", str(bad), "--epsilon", "0", "--seed", "1"])
        assert rc == 1

    def test_nan_pmf_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text("nan,0.5\n0.25,0.25\n")
        out = tmp_path / "out.json"
        rc = main(["map", "--pmf", str(bad), "--epsilon", "0", "--seed", "1",
                   "--out", str(out)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_counts_are_exit_one(self, tmp_path, capsys, bad):
        path = tmp_path / "counts.csv"
        path.write_text(f"{bad},3\n2,5\n")
        out = tmp_path / "out.json"
        rc = main(["robust-map", "--counts", str(path), "--epsilon", "0",
                   "--seed", "1", "--out", str(out)])
        assert rc == 1
        assert "counts must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [("1e19,3\n2,5\n", "counts must be below 2^63"),
         (f"{2**62},{2**62}\n{2**62},1\n", "counts must total below 2^63")],
        ids=["count", "total"],
    )
    def test_counts_beyond_int64_are_exit_one(self, tmp_path, capsys, text, message):
        path = tmp_path / "counts.csv"
        path.write_text(text)
        out = tmp_path / "out.json"
        rc = main(["robust-map", "--counts", str(path), "--epsilon", "0",
                   "--seed", "1", "--out", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_too_many_symbols_is_exit_one(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        dm.save_matrix_csv(path, np.full((256, 1), 1 / 256))
        rc = main(["map", "--pmf", str(path), "--epsilon", "0", "--seed", "1"])
        assert rc == 1
        assert "at most 255 input symbols" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["map", "--pmf", "joint.csv"],
         ["robust-map", "--counts", "counts.csv"],
         ["symmetric-map", "--triple", "triple.csv"]],
        ids=["map", "robust-map", "symmetric-map"],
    )
    def test_nan_epsilon_is_exit_two(self, tmp_path, argv):
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--epsilon", "nan", "--seed", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_no_dedup_flag_is_gone(self, diag2):
        with pytest.raises(SystemExit) as exc:
            main(["map", "--pmf", str(diag2), "--epsilon", "0", "--seed", "1",
                  "--no-dedup"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("z", ["nan", "inf"])
    def test_non_finite_z_is_exit_one(self, tmp_path, capsys, z):
        path = tmp_path / "counts.csv"
        path.write_text("4,3\n2,5\n")
        out = tmp_path / "out.json"
        rc = main(["robust-map", "--counts", str(path), "--epsilon", "0",
                   "--seed", "1", "--z", z, "--out", str(out)])
        assert rc == 1
        assert "z must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
    @pytest.mark.parametrize("candidate", [False, True])
    def test_bad_tol_is_exit_two(self, tmp_path, diag2, tol, candidate):
        out = tmp_path / "out.json"
        argv = ["oracle", "--pmf", str(diag2), "--tol", tol, "--out", str(out)]
        if candidate:
            argv += ["--candidate", str(diag2)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [*(f'{{"points": [{{"H": {v}, "I": 0.5}}]}}' for v in ("NaN", "Infinity", "-Infinity")),
         *(f'{{"points": [{{"H": 0.5, "I": {v}}}]}}' for v in ("NaN", "Infinity", "-Infinity")),
         '{"points": [{"H": null, "I": 0.5}]}',
         '{"points": [{"H": true, "I": 0.5}]}',
         '{"points": [{"H": 0.5, "I": false}]}',
         '{"points": [{"H": 1' + "0" * 400 + ', "I": 0.5}]}',
         '{"points": [{"H": 0.5, "I": -1' + "0" * 400 + '}]}',
         '{"points": [[0.5, 0.5]]}',
         '[{"H": 0.5, "I": 0.5}]'],
        ids=["H-nan", "H-inf", "H-neg-inf", "I-nan", "I-inf", "I-neg-inf", "H-null",
             "H-true", "I-false", "H-huge-int", "I-huge-negative-int", "list-entry",
             "top-level-list"],
    )
    def test_bad_candidate_is_exit_one(self, tmp_path, capsys, diag2, text):
        candidate = tmp_path / "candidate.json"
        candidate.write_text(text)
        out = tmp_path / "out.json"
        rc = main(["oracle", "--pmf", str(diag2), "--candidate", str(candidate),
                   "--out", str(out)])
        assert rc == 1
        assert "error: candidate" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_dib_trials_is_exit_one(self, tmp_path, capsys):
        out = tmp_path / "dib.csv"
        rc = main(["scaling", "--kind", "dib", "--n-values", "3", "--trials", "0",
                   "--seed", "1", "--out", str(out)])
        assert rc == 1
        assert "at least 1 trial" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_cloud_size_is_exit_one(self, tmp_path, capsys):
        out = tmp_path / "cloud.csv"
        rc = main(["scaling", "--kind", "independent", "--n-values", "0",
                   "--trials", "10", "--seed", "1", "--out", str(out)])
        assert rc == 1
        assert "cloud size must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_flags_are_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["map", "--pmf", "x.csv", "--epsilon", "-3", "--seed", "1"])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path, diag2):
        out = tmp_path / "o.json"
        proc = subprocess.run(
            [sys.executable, "-m", "dibmap.cli", "map", "--pmf", str(diag2),
             "--epsilon", "0", "--seed", "1", "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["points"]
