"""In-memory span tracing of dibmap's layers, from outside the package.

Spans are recorded around the calls the benchmark makes and around the
public names the layers call through, which `install` rebinds for the
duration of one traced pass and then restores:

- `dibmap.mapper.ParetoSet` and `dibmap.oracle.ParetoSet`, via a timed
  subclass
- the module-level `xlog2x` of `mapper`, `oracle`, `symmetric` and `robust`
- `dibmap.robust.pareto_mapper`, `bootstrap_uncertainty` and
  `significance_filter`, and `dibmap.cli.robust_pareto_mapper`
- `dibmap.scaling.brute_force_frontier`
- `dibmap.mapper.Encoder`

A span is (name, start, end, parent). The hot leaf calls, `xlog2x` and the
three frontier queries, run millions of times per pass; one span each would
cost hundreds of MB, so each leaf call is instead added to a (calls,
seconds) aggregate on the span that encloses it. A span's self time is its
duration minus its child spans and its leaf aggregates.
"""

from __future__ import annotations

import contextlib
import json
import time

_clock = time.perf_counter


class NullTracer:
    """The untraced stand-in: every hook is a no-op."""

    @contextlib.contextmanager
    def span(self, name):
        yield

    def count(self, name, n=1):
        pass


class Tracer:
    """Spans kept in memory, written out once with `dump`."""

    def __init__(self):
        self.t0 = _clock()
        # [name, start, end, parent index, {leaf name: [calls, seconds, elems]}]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.frontiers: list = []
        self._root_leaves: dict[str, list] = {}

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _clock(), None, parent, {}])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = _clock()

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def leaf(self, name, seconds, elems=0):
        leaves = self.spans[self.stack[-1]][4] if self.stack else self._root_leaves
        agg = leaves.get(name)
        if agg is None:
            leaves[name] = [1, seconds, elems]
        else:
            agg[0] += 1
            agg[1] += seconds
            agg[2] += elems

    # -- aggregation ------------------------------------------------------

    def _all_leaves(self):
        yield self._root_leaves
        for s in self.spans:
            yield s[4]

    def leaf_total(self, name) -> tuple[int, float, int]:
        calls, secs, elems = 0, 0.0, 0
        for leaves in self._all_leaves():
            agg = leaves.get(name)
            if agg is not None:
                calls += agg[0]
                secs += agg[1]
                elems += agg[2]
        return calls, secs, elems

    def span_total(self, name, parent_name=None) -> tuple[float, float]:
        """(total, self) seconds of the spans called `name`.

        With `parent_name`, only spans whose parent span has that name count.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        total = self_s = 0.0
        for i, s in enumerate(self.spans):
            if s[0] != name:
                continue
            if parent_name is not None and (
                s[3] < 0 or self.spans[s[3]][0] != parent_name
            ):
                continue
            dur = s[2] - s[1]
            total += dur
            self_s += dur - child_time[i] - sum(a[1] for a in s[4].values())
        return total, self_s

    def dump(self, path) -> None:
        spans = [
            {
                "name": s[0],
                "start": s[1] - self.t0,
                "end": s[2] - self.t0,
                "parent": s[3],
                "leaves": {k: {"calls": v[0], "seconds": v[1], "elems": v[2]}
                           for k, v in s[4].items()},
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counters": self.counters}, fh)


def _timed_pareto_set(tracer, base):
    """A ParetoSet subclass that times its queries as leaf calls."""

    class TimedParetoSet(base):
        def __init__(self, points=None):
            self._last_query = None
            super().__init__(points)
            tracer.frontiers.append(self)

        def _offered(self, x, y):
            # A point is offered once: distance() then is_optimal() or add()
            # on the same (x, y) are one offer.
            if self._last_query != (x, y):
                self._last_query = (x, y)
                tracer.count("pareto.offers")

        def distance(self, x, y):
            self._offered(x, y)
            t = _clock()
            d = base.distance(self, x, y)
            tracer.leaf("pareto.distance", _clock() - t)
            return d

        def is_optimal(self, x, y):
            self._offered(x, y)
            t = _clock()
            r = base.is_optimal(self, x, y)
            tracer.leaf("pareto.is_optimal", _clock() - t)
            return r

        def add(self, p):
            self._offered(p.x, p.y)
            before = len(self)
            t = _clock()
            r = base.add(self, p)
            tracer.leaf("pareto.add", _clock() - t)
            if r:
                tracer.count("pareto.inserted")
                tracer.count("pareto.evicted", before + 1 - len(self))
            return r

    return TimedParetoSet


def _timed_leaf(tracer, name, fn):
    def wrapper(a):
        t = _clock()
        out = fn(a)
        tracer.leaf(name, _clock() - t, out.size)
        return out

    return wrapper


def _spanned(tracer, name, fn, after=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(args, out)
        return out

    return wrapper


def count_search(tracer, layer, stats) -> None:
    """Add one search's SearchStats to the `layer` counters."""
    tracer.count(f"{layer}.evaluated", stats.points_searched)
    tracer.count(f"{layer}.enqueued", stats.enqueued)


@contextlib.contextmanager
def install(tracer):
    """Rebind the layers' public call-through names to traced versions."""
    import dibmap.cli
    import dibmap.mapper
    import dibmap.oracle
    import dibmap.pareto
    import dibmap.robust
    import dibmap.scaling
    import dibmap.symmetric

    timed_set = _timed_pareto_set(tracer, dibmap.pareto.ParetoSet)
    xlog = _timed_leaf(tracer, "xlog2x", dibmap.mapper.xlog2x)
    real_encoder = dibmap.mapper.Encoder

    def counted_encoder(*args, **kwargs):
        tracer.count("encoders.constructed")
        return real_encoder(*args, **kwargs)

    def after_filter(args, kept):
        tracer.count("robust.filter_in", len(args[0]))
        tracer.count("robust.filter_kept", len(kept))

    def after_oracle(args, frontier):
        tracer.count("oracle.partitions", dibmap.oracle.bell_number(args[0].nx))

    rebind = [
        (dibmap.mapper, "ParetoSet", timed_set),
        (dibmap.oracle, "ParetoSet", timed_set),
        (dibmap.mapper, "xlog2x", xlog),
        (dibmap.oracle, "xlog2x", xlog),
        (dibmap.symmetric, "xlog2x", xlog),
        (dibmap.robust, "xlog2x", xlog),
        (dibmap.mapper, "Encoder", counted_encoder),
        (dibmap.cli, "robust_pareto_mapper",
         _spanned(tracer, "robust", dibmap.cli.robust_pareto_mapper)),
        (dibmap.robust, "pareto_mapper",
         _spanned(tracer, "mapper", dibmap.robust.pareto_mapper,
                  lambda args, out: count_search(tracer, "mapper", out[1]))),
        (dibmap.robust, "bootstrap_uncertainty",
         _spanned(tracer, "robust.bootstrap", dibmap.robust.bootstrap_uncertainty)),
        (dibmap.robust, "significance_filter",
         _spanned(tracer, "robust.filter", dibmap.robust.significance_filter,
                  after_filter)),
        (dibmap.scaling, "brute_force_frontier",
         _spanned(tracer, "oracle", dibmap.scaling.brute_force_frontier,
                  after_oracle)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in rebind]
    try:
        for mod, attr, new in rebind:
            setattr(mod, attr, new)
        yield tracer
    finally:
        for mod, attr, old in reversed(saved):
            setattr(mod, attr, old)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pass, as name -> (value, unit)."""
    c = tr.counters.get
    m: dict[str, tuple[float, str]] = {}

    mapper_s, mapper_self = tr.span_total("mapper")
    evaluated, enqueued = c("mapper.evaluated", 0), c("mapper.enqueued", 0)
    m["mapper.s"] = (mapper_s, "s")
    m["mapper.self_s"] = (mapper_self, "s")
    m["mapper.evaluated"] = (evaluated, "count")
    m["mapper.enqueued"] = (enqueued, "count")
    m["mapper.enqueue_ratio"] = (_ratio(enqueued, evaluated), "ratio")
    m["mapper.evals_per_parent"] = (_ratio(evaluated, enqueued), "count")
    m["mapper.evals_per_s"] = (_ratio(evaluated, mapper_s), "1/s")

    for q in ("distance", "is_optimal"):
        calls, secs, _ = tr.leaf_total(f"pareto.{q}")
        m[f"pareto.{q}_calls"] = (calls, "count")
        m[f"pareto.{q}_s"] = (secs, "s")
    add_calls, add_s, _ = tr.leaf_total("pareto.add")
    inserted = c("pareto.inserted", 0)
    m["pareto.add_calls"] = (add_calls, "count")
    m["pareto.inserted"] = (inserted, "count")
    m["pareto.insert_ratio"] = (_ratio(inserted, c("pareto.offers", 0)), "ratio")
    m["pareto.evicted"] = (c("pareto.evicted", 0), "count")
    m["pareto.add_s"] = (add_s, "s")
    m["pareto.frontier_points"] = (sum(len(f) for f in tr.frontiers), "count")

    calls, secs, elems = tr.leaf_total("xlog2x")
    m["distributions.xlog2x_calls"] = (calls, "count")
    m["distributions.xlog2x_s"] = (secs, "s")
    m["distributions.xlog2x_elems"] = (elems, "count")
    m["distributions.xlog2x_elems_per_call"] = (_ratio(elems, calls), "count")
    # computed from array sizes: one float64 read and one written per element
    m["distributions.xlog2x_bytes_computed"] = (16 * elems, "B")

    oracle_s, oracle_self = tr.span_total("oracle")
    partitions = c("oracle.partitions", 0)
    m["oracle.s"] = (oracle_s, "s")
    m["oracle.self_s"] = (oracle_self, "s")
    m["oracle.partitions"] = (partitions, "count")
    m["oracle.partitions_per_s"] = (_ratio(partitions, oracle_s), "1/s")

    boot_calls = sum(1 for s in tr.spans if s[0] == "robust.bootstrap")
    m["robust.s"] = (tr.span_total("robust")[0], "s")
    m["robust.search_s"] = (tr.span_total("mapper", parent_name="robust")[0], "s")
    m["robust.bootstrap_calls"] = (boot_calls, "count")
    m["robust.bootstrap_s"] = (tr.span_total("robust.bootstrap")[0], "s")
    m["robust.filter_s"] = (tr.span_total("robust.filter")[0], "s")
    m["robust.kept_ratio"] = (
        _ratio(c("robust.filter_kept", 0), c("robust.filter_in", 0)), "ratio")

    sym_s = tr.span_total("symmetric")[0]
    sym_eval = c("symmetric.evaluated", 0)
    m["symmetric.s"] = (sym_s, "s")
    m["symmetric.evaluated"] = (sym_eval, "count")
    m["symmetric.evals_per_s"] = (_ratio(sym_eval, sym_s), "1/s")
    m["symmetric.frontier_points"] = (c("symmetric.frontier_points", 0), "count")

    cloud_s = tr.span_total("scaling.cloud")[0]
    cloud_points = c("scaling.cloud_points", 0)
    dib_s, dib_self = tr.span_total("scaling.dib")
    m["scaling.cloud_s"] = (cloud_s, "s")
    m["scaling.cloud_points"] = (cloud_points, "count")
    m["scaling.cloud_points_per_s"] = (_ratio(cloud_points, cloud_s), "1/s")
    m["scaling.dib_s"] = (dib_s, "s")
    m["scaling.dib_self_s"] = (dib_self, "s")

    m["encoders.constructed"] = (c("encoders.constructed", 0), "count")
    cli_s, cli_self = tr.span_total("cli")
    m["cli.s"] = (cli_s, "s")
    m["cli.self_s"] = (cli_self, "s")
    m["cli.output_bytes"] = (c("cli.output_bytes", 0), "B")
    return m
