"""Command-line entry point binding all modules.

Subcommands: map, robust-map, symmetric-map, oracle, scaling,
ingest-bigrams, group. Frontier-producing commands write a JSON document
(or a flat CSV of (H, I) pairs with --format csv) to --out or stdout; H is
reported as a positive entropy, points ascending in H. Output is
byte-identical across runs for a fixed command line and seed.

Exit codes: 0 success, 1 invalid input, 2 bad flags.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .datasets import group_joint, ingest_bigrams, make_group
from .distributions import (
    load_counts_csv,
    load_joint_csv,
    save_matrix_csv,
)
from .mapper import SearchConfig, dmc_points, pareto_mapper, upper_hull
from .oracle import brute_force_frontier, precision_recall
from .pareto import ParetoPoint, ParetoSet, pareto_mask
from .robust import RobustConfig, robust_pareto_mapper
from .scaling import (
    CopulaKind,
    dib_frontier_scaling,
    scaling_experiment,
)
from .symmetric import load_triple_csv, save_triple_csv, symmetric_pareto_mapper


def _epsilon(value: str) -> float:
    eps = float(value)
    if not eps >= 0:  # also rejects NaN
        raise argparse.ArgumentTypeError("epsilon must be >= 0 (or 'inf')")
    return eps


def _tolerance(value: str) -> float:
    tol = float(value)
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError("tol must be finite and >= 0")
    return tol


def _int_list(value: str) -> list[int]:
    return [int(v) for v in value.split(",")]


def _point_entries(frontier: ParetoSet, kept=None) -> list[dict]:
    """Document entries ascending in H, with dmc/hull (and kept) flags."""
    dmc_ids = {id(p) for p in dmc_points(frontier)}
    hull_ids = {id(p) for p in upper_hull(frontier)}
    kept_ids = None if kept is None else {id(p) for p in kept}
    entries = []
    for p in reversed(frontier.points):
        e: dict = {"H": 0.0 - p.x, "I": p.y}
        if p.dx is not None:
            e["dH"] = p.dx
            e["dI"] = p.dy
        if p.encoder is not None:
            e["encoder"] = list(p.encoder.assignment)
        e["dmc"] = id(p) in dmc_ids
        e["hull"] = id(p) in hull_ids
        if kept_ids is not None:
            e["kept"] = id(p) in kept_ids
        entries.append(e)
    return entries


def _csv_lines(entries: list[dict]) -> list[str]:
    lines = []
    for e in entries:
        cells = [repr(e["H"]), repr(e["I"])]
        if "dH" in e:
            cells += [repr(e["dH"]), repr(e["dI"])]
        if "kept" in e:
            cells.append(str(int(e["kept"])))
        lines.append(",".join(cells))
    return lines


def _write(out, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit_document(args, doc: dict, entries: list[dict]) -> int:
    if args.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = "\n".join(_csv_lines(entries)) + "\n"
    _write(args.out, text)
    return 0


def _emit_search(args, source_key, source, cfg, frontier, stats, kept=None) -> int:
    """Write a search command's document: meta (the config's fields, then the
    search counters), then the frontier's points."""
    meta = {"command": args.command, source_key: source, **asdict(cfg)}
    if math.isinf(cfg.epsilon):
        meta["epsilon"] = "inf"  # JSON has no infinity; the key keeps its place
    meta["stats"] = asdict(stats)
    entries = _point_entries(frontier, kept=kept)
    return _emit_document(args, {"meta": meta, "points": entries}, entries)


def _cmd_map(args) -> int:
    joint = load_joint_csv(args.pmf)
    cfg = SearchConfig(epsilon=args.epsilon, seed=args.seed)
    frontier, stats = pareto_mapper(joint, cfg)
    return _emit_search(args, "pmf", str(args.pmf), cfg, frontier, stats)


def _cmd_robust_map(args) -> int:
    counts = load_counts_csv(args.counts)
    cfg = RobustConfig(
        epsilon=args.epsilon,
        seed=args.seed,
        bootstrap_reps=args.bootstrap_reps,
        z=args.z,
    )
    kept, frontier, stats = robust_pareto_mapper(counts, cfg)
    return _emit_search(args, "counts", str(args.counts), cfg, frontier, stats, kept=kept)


def _cmd_symmetric_map(args) -> int:
    if args.group is not None:
        triple = group_joint(make_group(args.group))
        source = args.group
    else:
        triple = load_triple_csv(args.triple)
        source = str(args.triple)
    cfg = SearchConfig(epsilon=args.epsilon, seed=args.seed)
    frontier, stats = symmetric_pareto_mapper(triple, cfg)
    return _emit_search(args, "input", source, cfg, frontier, stats)


def _load_candidate(path) -> ParetoSet:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or not isinstance(doc.get("points"), list):
        raise ValueError("candidate file must be a JSON object with a points list")
    pairs = []
    for e in doc["points"]:
        if not isinstance(e, dict):
            raise ValueError("candidate points must be JSON objects")
        h, i = e.get("H"), e.get("I")
        # type() excludes bool; the bound rejects NaN, inf and ints beyond float
        if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in (h, i)):
            raise ValueError("candidate H and I must be finite numbers")
        pairs.append((0.0 - h, float(i)))
    # a ParetoSet would drop such a point silently and score the rest
    kept = pareto_mask(pairs).tolist()
    if not all(kept):
        k = kept.index(False)
        raise ValueError(f"candidate points[{k}] {json.dumps(doc['points'][k])} repeats "
                         "or is weakly dominated by another candidate point")
    # offered ascending in x, each point is appended at the end of the set
    return ParetoSet(ParetoPoint(x, y) for x, y in sorted(pairs))


def _cmd_oracle(args) -> int:
    joint = load_joint_csv(args.pmf)
    frontier = brute_force_frontier(joint)
    entries = _point_entries(frontier)
    doc = {
        "meta": {"command": "oracle", "pmf": str(args.pmf), "tol": args.tol},
        "points": entries,
    }
    if args.candidate is not None:
        score = precision_recall(_load_candidate(args.candidate), frontier, args.tol)
        doc["score"] = asdict(score)
    return _emit_document(args, doc, entries)


def _cmd_scaling(args) -> int:
    if args.kind == "dib":
        rows = dib_frontier_scaling(
            args.n_values, args.trials, args.seed, ny=args.ny, engine=args.engine
        )
        columns = ["mean_frontier", "mean_searched"]
        if args.timing:
            columns.append("mean_seconds")
    else:
        kind = CopulaKind(args.kind, args.r if args.kind == "gaussian" else None)
        rows = scaling_experiment(kind, args.n_values, args.trials, args.seed)
        columns = ["mean", "std"]
    lines = [",".join(["n", *columns])] + [
        ",".join([str(r.n), *(repr(getattr(r, c)) for c in columns)]) for r in rows
    ]
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_ingest_bigrams(args) -> int:
    counts = ingest_bigrams(Path(args.text).read_bytes())
    save_matrix_csv(args.out or sys.stdout, counts.n, fmt="%d")
    return 0


def _cmd_group(args) -> int:
    table = make_group(args.name)
    save_triple_csv(args.out or sys.stdout, group_joint(table))
    if args.labels_out is not None:
        Path(args.labels_out).write_text("\n".join(table.labels) + "\n")
    return 0


def _add_output_flags(sub, with_format: bool = True) -> None:
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    if with_format:
        sub.add_argument("--format", choices=("json", "csv"), default="json")


def _add_search_flags(sub) -> None:
    sub.add_argument("--epsilon", type=_epsilon, required=True,
                     help="search depth scale in bits; 'inf' for brute force")
    sub.add_argument("--seed", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dibmap",
        description="Map primal DIB Pareto frontiers of discrete joint distributions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("map", help="map the frontier of a joint PMF")
    p.add_argument("--pmf", required=True, help="joint PMF CSV (rows = X outcomes)")
    _add_search_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_map)

    p = subs.add_parser("robust-map", help="map the frontier of a counts matrix")
    p.add_argument("--counts", required=True, help="sample-count CSV")
    _add_search_flags(p)
    p.add_argument("--bootstrap-reps", type=int, default=100)
    p.add_argument("--z", type=float, default=1.0,
                   help="significance interval width, in standard deviations")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_robust_map)

    p = subs.add_parser("symmetric-map", help="shared-encoder frontier of a triple")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--group", choices=("zmod40x", "pauli"))
    grp.add_argument("--triple", help="triple PMF CSV (g^2 rows of ny columns)")
    _add_search_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_symmetric_map)

    p = subs.add_parser("oracle", help="exact frontier by exhaustive enumeration")
    p.add_argument("--pmf", required=True)
    p.add_argument("--candidate", default=None,
                   help="frontier JSON to score against the exact frontier")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_oracle)

    p = subs.add_parser("scaling", help="Pareto-size scaling experiments (CSV)")
    p.add_argument("--kind", required=True,
                   choices=("independent", "comonotone", "countermonotone",
                            "gaussian", "dib"))
    p.add_argument("--r", type=float, default=0.5, help="gaussian correlation")
    p.add_argument("--n-values", type=_int_list, required=True,
                   help="comma-separated sizes, e.g. 64,256,1024")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ny", type=int, default=30, help="|Y| for dib scaling")
    p.add_argument("--engine", choices=("oracle", "greedy"), default="oracle")
    p.add_argument("--timing", action="store_true",
                   help="include the (non-reproducible) mean_seconds column")
    _add_output_flags(p, with_format=False)
    p.set_defaults(func=_cmd_scaling)

    p = subs.add_parser("ingest-bigrams", help="27x27 bigram counts from raw text")
    p.add_argument("text", help="path to a text file")
    _add_output_flags(p, with_format=False)
    p.set_defaults(func=_cmd_ingest_bigrams)

    p = subs.add_parser("group", help="emit a built-in group's triple PMF")
    p.add_argument("name", choices=("zmod40x", "pauli"))
    p.add_argument("--labels-out", default=None, help="write element labels here")
    _add_output_flags(p, with_format=False)
    p.set_defaults(func=_cmd_group)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, MemoryError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
