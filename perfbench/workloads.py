"""The benchmark's workloads: seeded inputs, timed calls, reference checks.

Each workload has the same shape:

- `setup(seed, workdir)` builds every input from the seed alone;
- `run_pass(inputs, tr, call)` makes the workload's timed calls back to
  back, as one closed-loop caller, each through `call(fn, *args)`, and
  returns their outputs. `call` times the call alone and then runs the
  benchmark's reference kernel (see `reference.py`);
- `canonical(out)` renders the frontier output as text for the digest;
- `check(inputs, out)` compares the output with an independent reference and
  returns (check results, recall).

`recall` is the share of a reference frontier that the output covers
within `TOL`. Only on narrow-lattice does it measure a heuristic search (the
eps=0.05 frontiers against the oracle); elsewhere the reference is exact and
any value below 1 is a defect.

Sizes are constructor arguments so that the self-test can run every
workload, with every check, at toy size.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import dibmap
import dibmap.cli
import dibmap.scaling
from spans import count_search

TOL = 1e-9


def sub_seed(seed: int, *key: int) -> int:
    """An independent 32-bit seed for input number `key` of run seed `seed`."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _frontier_text(frontier) -> str:
    return "".join(
        f"{p.x!r} {p.y!r} {'-' if p.encoder is None else p.encoder.assignment}\n"
        for p in frontier
    )


def _covered(found: np.ndarray, ref: np.ndarray) -> int:
    """How many reference points some found point dominates within TOL.

    Both are (k, 2) objective arrays. Dominance within TOL, rather than
    closeness, because the group triples tie exactly: a partition that ties a
    frontier point in one objective and is worse in the other can survive in
    one computation and be evicted in another by 1e-16 of rounding.
    """
    if len(found) == 0 or len(ref) == 0:
        return 0
    dom = (found[:, None, 0] >= ref[None, :, 0] - TOL) & (
        found[:, None, 1] >= ref[None, :, 1] - TOL
    )
    return int(dom.any(axis=0).sum())


def _same_frontier(name: str, found: np.ndarray, ref: np.ndarray) -> Check:
    """Each frontier covers the other: equal up to TOL and exact ties."""
    hit_ref, hit_found = _covered(found, ref), _covered(ref, found)
    ok = hit_found == len(found) and hit_ref == len(ref)
    return Check(name, ok, f"{hit_ref}/{len(ref)} ref and {hit_found}/{len(found)} "
                           "found points covered")


def _closed_form_frontier(joint, n: int) -> np.ndarray:
    """Every partition of [n] scored with push_forward + mutual_information."""
    pts = []
    for enc in dibmap.enumerate_partitions(n):
        pushed = dibmap.push_forward(joint, enc)
        pts.append((-dibmap.entropy(pushed.marginal_x()),
                    dibmap.mutual_information(pushed)))
    return dibmap.ParetoSet(dibmap.ParetoPoint(x, y) for x, y in pts).objectives()


class Workload:
    """Base of the workloads; see the module docstring for the shape."""

    name = ""

    def digest(self, out) -> str:
        return hashlib.sha256(self.canonical(out).encode()).hexdigest()


class NarrowLattice(Workload):
    """pareto_mapper at eps=0.05 and eps=inf, then the oracle, per joint.

    Two 9x5 joints, each a fixed `sample_simplex` source whose rows the seed
    permutes. A permuted joint is the same problem with its symbols
    renumbered: the seed changes the merge order and the search's random
    draws but hardly its work. Fresh joints per seed would vary the eps=0.05
    search's evaluations by 0.14 (interquartile range over median, 10 seeds,
    four joints); permuted sources vary them by 0.01. Each call takes at
    most about 3 s, so the reference kernel runs between calls often enough
    to follow the host's speed.
    """

    name = "narrow-lattice"
    SOURCE_SEED = 2204

    def __init__(self, nx=9, ny=5, joints=2):
        self.nx, self.ny, self.joints = nx, ny, joints

    def setup(self, seed, workdir):
        inputs = []
        for k in range(self.joints):
            source = dibmap.sample_simplex(self.nx, self.ny, self.SOURCE_SEED + k)
            perm = np.random.default_rng(sub_seed(seed, k)).permutation(self.nx)
            inputs.append((dibmap.JointPMF(source.p[perm]), sub_seed(seed, k, 1)))
        return inputs


    def _search(self, tr, joint, eps, seed):
        with tr.span("mapper"):
            frontier, stats = dibmap.pareto_mapper(joint, dibmap.SearchConfig(eps, seed))
        count_search(tr, "mapper", stats)
        return frontier, stats

    def _score(self, tr, joint, greedy):
        with tr.span("oracle"):
            truth = dibmap.brute_force_frontier(joint)
        tr.count("oracle.partitions", dibmap.bell_number(joint.nx))
        return truth, dibmap.precision_recall(greedy, truth)

    def run_pass(self, inputs, tr, call):
        out = []
        for joint, seed in inputs:
            greedy, _ = call(self._search, tr, joint, 0.05, seed)
            full, _ = call(self._search, tr, joint, math.inf, seed)
            truth, score = call(self._score, tr, joint, greedy)
            out.append((greedy, full, truth, score))
        return out

    def canonical(self, out):
        return "".join(
            _frontier_text(g) + "|\n" + _frontier_text(f) + "|\n"
            + _frontier_text(t) + f"{s.recall!r}\n"
            for g, f, t, s in out
        )

    def check(self, inputs, out):
        checks = []
        hit = total = 0
        for k, (greedy, full, truth, _) in enumerate(out):
            ref = truth.objectives()
            checks.append(_same_frontier(f"joint {k}: eps=inf == oracle",
                                         full.objectives(), ref))
            hit += _covered(greedy.objectives(), ref)
            total += len(ref)
        return checks, hit / total


class WideRobust(Workload):
    """`dibmap robust-map` on two 20x20 count matrices, at eps=0, writing JSON.

    The matrices are fixed multinomial samples of fixed source joints; the
    seed drives the bootstrap's draws. At eps=0 the search enqueues a child
    only if it is on the frontier when it is met, so its work depends on the
    order it meets partitions: renumbering a matrix's symbols changed its
    evaluations from 150k to 300k, and fresh samples per seed made peak
    memory spread by 0.12 (interquartile range over median, five seeds).
    Fixed matrices keep the work and memory the same on every seed. Each
    call takes about 3 s.
    """

    name = "wide-robust"
    SOURCE_SEED = 2204

    def __init__(self, n=20, samples=200_000, reps=100, matrices=2):
        self.n, self.samples, self.reps = n, samples, reps
        self.matrices = matrices

    def setup(self, seed, workdir):
        inputs = []
        for k in range(self.matrices):
            source = dibmap.sample_simplex(self.n, self.n, self.SOURCE_SEED + k)
            counts = dibmap.multinomial_sample(source, self.samples, self.SOURCE_SEED + k)
            name = f"counts-{k}.csv"
            dibmap.save_matrix_csv(os.path.join(workdir, name), counts.n, fmt="%d")
            inputs.append((counts, name, sub_seed(seed, k)))
        return inputs, workdir

    def _robust_map(self, tr, workdir, counts_csv, seed):
        argv = ["robust-map", "--counts", counts_csv, "--epsilon", "0",
                "--seed", str(seed), "--bootstrap-reps", str(self.reps),
                "--out", "robust.json"]
        # Relative paths keep the working directory out of the JSON's meta,
        # so the output bytes, and their digest, depend on the seed alone.
        with _cwd(workdir):
            with tr.span("cli"):
                rc = dibmap.cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"robust-map exited {rc}")
            with open("robust.json", "rb") as fh:
                data = fh.read()
        tr.count("cli.output_bytes", len(data))
        return data

    def run_pass(self, inputs, tr, call):
        matrices, workdir = inputs
        return [call(self._robust_map, tr, workdir, name, seed)
                for _, name, seed in matrices]

    def canonical(self, out):
        return "".join(data.decode() for data in out)

    def check(self, inputs, out):
        checks = []
        hit = total = 0
        for k, ((counts, _, _), data) in enumerate(zip(inputs[0], out)):
            c, h, t = self._check_one(k, counts, data)
            checks += c
            hit += h
            total += t
        return checks, hit / total

    def _check_one(self, k, counts, data):
        joint = dibmap.normalize_counts(counts)
        points = json.loads(data)["points"]
        closed = []
        bad = 0
        for e in points:
            pushed = dibmap.push_forward(joint, dibmap.Encoder(tuple(e["encoder"])))
            h = dibmap.entropy(pushed.marginal_x())
            i = dibmap.mutual_information(pushed)
            closed.append((-h, i))
            bad += abs(h - e["H"]) > TOL or abs(i - e["I"]) > TOL
        hs = [e["H"] for e in points]
        ins = [e["I"] for e in points]
        staircase = all(a < b for a, b in zip(hs, hs[1:])) and all(
            a < b for a, b in zip(ins, ins[1:]))
        kept = [e for e in points if e["kept"]]
        kept_ok = bool(kept) and all(
            math.isfinite(e["dH"]) and math.isfinite(e["dI"])
            and e["dH"] >= 0 and e["dI"] >= 0 for e in kept)
        ref = dibmap.ParetoSet(dibmap.ParetoPoint(x, y) for x, y in closed).objectives()
        found = np.array([(-e["H"], e["I"]) for e in points]).reshape(-1, 2)
        checks = [
            Check(f"sample {k}: (H, I) == closed form", bad == 0,
                  f"{bad}/{len(points)} differ"),
            Check(f"sample {k}: points mutually non-dominated", staircase),
            Check(f"sample {k}: kept points have finite dH, dI >= 0", kept_ok,
                  f"{len(kept)} kept"),
        ]
        return checks, _covered(found, ref), len(ref)


@contextlib.contextmanager
def _cwd(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


# -- the shared-encoder search inside oracle-sweep -----------------------------


def _cyclic(n: int) -> np.ndarray:
    a = np.arange(n)
    return (a[:, None] + a[None, :]) % n


def _dihedral4() -> np.ndarray:
    """D4 as r^k s^e at index 4e + k, with s r = r^-1 s."""
    e, k = np.divmod(np.arange(8), 4)
    k2 = np.where(e[:, None] == 0, k[None, :], -k[None, :])
    return 4 * (e[:, None] ^ e[None, :]) + (k[:, None] + k2) % 4


GROUPS = {"Z4": lambda: _cyclic(4), "D4": _dihedral4}


def relabelled_group(table: np.ndarray, seed: int) -> "dibmap.GroupTable":
    """The group with its elements renumbered by a seeded permutation.

    An isomorphic copy: the same frontier, reached through a different merge
    order, so the seed varies the search but not its work.
    """
    g = len(table)
    perm = np.random.default_rng(seed).permutation(g)
    new = np.empty_like(table)
    new[perm[:, None], perm[None, :]] = perm[table]
    labels = [""] * g
    for old in range(g):
        labels[perm[old]] = str(old)
    return dibmap.GroupTable(tuple(labels), new)


class GroupSearch:
    """symmetric_pareto_mapper at eps=inf on one group triple.

    Part of oracle-sweep, not a workload of its own: alone, five order-8
    groups' searches made their wall time spread 0.27-0.43 (interquartile
    range over median, 10 seeds) on a shared 2-vCPU host, before the
    benchmark measured against its reference kernel.
    """

    def __init__(self, group):
        self.group = group

    def setup(self, seed):
        table = relabelled_group(GROUPS[self.group](), sub_seed(seed, 0))
        return dibmap.group_joint(table), sub_seed(seed, 1)

    def run(self, inputs, tr):
        triple, seed = inputs
        with tr.span("symmetric"):
            frontier, stats = dibmap.symmetric_pareto_mapper(
                triple, dibmap.SearchConfig(math.inf, seed))
        count_search(tr, "symmetric", stats)
        tr.count("symmetric.frontier_points", len(frontier))
        return frontier, stats

    def check(self, inputs, out) -> tuple[list[Check], int, int]:
        """Checks, then reference points covered and reference points."""
        (triple, _), (frontier, stats) = inputs, out
        g = triple.g
        ref = dibmap.ParetoSet(
            dibmap.ParetoPoint(*dibmap.symmetric_objectives(triple, enc))
            for enc in dibmap.enumerate_partitions(g)
        ).objectives()
        checks = [
            _same_frontier(f"{self.group}: eps=inf == exhaustive",
                           frontier.objectives(), ref),
            Check(f"{self.group}: B({g}) evaluations",
                  stats.points_searched == dibmap.bell_number(g),
                  str(stats.points_searched)),
        ]
        return checks, _covered(frontier.objectives(), ref), len(ref)


class OracleSweep(Workload):
    """The exhaustive computations: the sparsity lab (oracle frontier
    scaling plus the cloud experiments) and an eps=inf group search."""

    name = "oracle-sweep"
    CLOUDS = ("independent", "comonotone", "countermonotone")
    REFERENCE_MAX_N = 8  # closed-form enumeration above B(8) = 4140 is slow

    def __init__(self, n_groups=(range(4, 10), (10,), (11,)), ny=30,
                 cloud_sizes=(64, 256, 1024, 4096), cloud_trials=1000, group="D4"):
        self.group_search = GroupSearch(group)
        # one timed call per group of n: n <= 9 together, then n = 10 (the
        # largest cached batch) and n = 11 (streamed) alone
        self.n_groups = [list(g) for g in n_groups]
        self.ny = ny
        self.cloud_sizes = list(cloud_sizes)
        self.cloud_trials = cloud_trials

    def setup(self, seed, workdir):
        return sub_seed(seed, 0), sub_seed(seed, 1), self.group_search.setup(sub_seed(seed, 2))


    def _dib(self, tr, n_values, seed, captured):
        with _capture_oracle(captured):
            with tr.span("scaling.dib"):
                return dibmap.dib_frontier_scaling(
                    n_values, 1, seed, ny=self.ny, engine="oracle")

    def _cloud(self, tr, tag, seed):
        with tr.span("scaling.cloud"):
            rows = dibmap.scaling_experiment(
                dibmap.CopulaKind(tag), self.cloud_sizes, self.cloud_trials, seed)
        tr.count("scaling.cloud_points", sum(self.cloud_sizes) * self.cloud_trials)
        return rows

    def run_pass(self, inputs, tr, call):
        dib_seed, cloud_seed, group_inputs = inputs
        captured = []
        # The rows for each n depend on (seed, n) alone, so the groups
        # together give the rows of one call over every n.
        dib = [row for group in self.n_groups
               for row in call(self._dib, tr, group, dib_seed, captured)]
        clouds = {tag: call(self._cloud, tr, tag, cloud_seed) for tag in self.CLOUDS}
        return dib, clouds, captured, call(self.group_search.run, group_inputs, tr)

    def canonical(self, out):
        dib, clouds, _, (frontier, _) = out
        lines = [f"{r.n},{r.mean_frontier!r},{r.mean_searched!r}" for r in dib]
        for tag, rows in clouds.items():
            lines += [f"{tag},{r.n},{r.mean!r},{r.std!r}" for r in rows]
        return "\n".join(lines) + "\n" + _frontier_text(frontier)

    def check(self, inputs, out):
        dib, clouds, captured, group_out = out
        checks = [
            Check(f"n={r.n}: mean_searched == B(n)",
                  r.mean_searched == dibmap.bell_number(r.n))
            for r in dib
        ]
        for r in clouds["comonotone"]:
            checks.append(Check(f"comonotone n={r.n}: mean == 1", r.mean == 1.0))
        for r in clouds["countermonotone"]:
            checks.append(Check(f"countermonotone n={r.n}: mean == n", r.mean == r.n))
        for r in clouds["independent"]:
            h = dibmap.harmonic_number(r.n)
            se = r.std / math.sqrt(self.cloud_trials)
            checks.append(Check(f"independent n={r.n}: within 4 SE of H_n",
                                abs(r.mean - h) <= 4 * se, f"{r.mean} vs {h}"))
        group_checks, hit, total = self.group_search.check(inputs[2], group_out)
        checks += group_checks
        for joint, frontier in captured:
            if joint.nx > self.REFERENCE_MAX_N:
                continue
            ref = _closed_form_frontier(joint, joint.nx)
            checks.append(_same_frontier(f"n={joint.nx}: oracle == closed form",
                                         frontier.objectives(), ref))
            hit += _covered(frontier.objectives(), ref)
            total += len(ref)
        return checks, hit / total


@contextlib.contextmanager
def _capture_oracle(captured: list):
    """Keep every (joint, frontier) that dib_frontier_scaling's oracle makes."""
    real = dibmap.scaling.brute_force_frontier

    def capture(joint):
        frontier = real(joint)
        captured.append((joint, frontier))
        return frontier

    dibmap.scaling.brute_force_frontier = capture
    try:
        yield
    finally:
        dibmap.scaling.brute_force_frontier = real


def full_size() -> dict[str, Workload]:
    return {w.name: w for w in (NarrowLattice(), WideRobust(), OracleSweep())}


def toy_size() -> dict[str, Workload]:
    return {w.name: w for w in (
        NarrowLattice(nx=5, ny=3),
        WideRobust(n=6, samples=2000, reps=10),
        OracleSweep(n_groups=(range(4, 6), (6,)), cloud_sizes=(16, 64),
                    cloud_trials=20, group="Z4"),
    )}
