"""The benchmark's tracer still finds every module-level name it rebinds.

perfbench/spans.py times the layers by rebinding names such as
dibmap.oracle.xlog2x or dibmap.robust.bootstrap_uncertainty for one traced
pass. A rename in the package, or a layer that stops calling through the
rebound name, would otherwise surface only in a traced benchmark run.
"""

import pathlib

import numpy as np
import pytest

import dibmap
import dibmap.mapper
import dibmap.oracle
import dibmap.pareto
import dibmap.robust
import dibmap.scaling
import dibmap.symmetric

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    return spans


def test_install_traces_and_restores(spans):
    modules = (dibmap.mapper, dibmap.oracle, dibmap.robust, dibmap.scaling)
    before = [dict(vars(m)) for m in modules]
    tracer = spans.Tracer()
    with spans.install(tracer):
        assert dibmap.oracle.ParetoSet is not before[1]["ParetoSet"]
        rows = dibmap.scaling.dib_frontier_scaling([5], 1, 0, ny=3)
    assert rows[0].mean_searched == dibmap.oracle.bell_number(5)
    assert tracer.counters["oracle.partitions"] == 52
    assert tracer.leaf_total("xlog2x")[0] > 0  # the oracle's kernel was traced
    assert tracer.leaf_total("pareto.add")[0] > 0  # the oracle's frontier was traced
    for m, old in zip(modules, before):
        assert all(getattr(m, name) is value for name, value in old.items())


def test_timed_frontier_overrides_only_real_methods(spans):
    # a method the timed subclass overrides but ParetoSet lost would leave
    # a dead wrapper in the benchmark
    base = dibmap.pareto.ParetoSet
    timed = spans._timed_pareto_set(spans.Tracer(), base)
    public = [name for name in vars(timed) if not name.startswith("_")]
    assert public
    for name in public:
        assert callable(getattr(base, name, None)), name


def test_search_offers_go_through_the_traced_frontier(spans):
    # the search builds its frontier from the module-level name, so the
    # children that pass the snapshot test reach the timed add()
    tracer = spans.Tracer()
    joint = dibmap.sample_simplex(7, 4, 5)
    with spans.install(tracer):
        frontier, stats = dibmap.pareto_mapper(joint, dibmap.SearchConfig(0.0, 1))
    calls = tracer.leaf_total("pareto.add")[0]
    assert 0 < calls <= stats.points_searched
    assert tracer.frontiers == [frontier]


@pytest.mark.parametrize("kind", ["plain", "symmetric"])
def test_search_builds_one_encoder_per_frontier_point(spans, kind):
    # spans.install rebinds dibmap.mapper.Encoder to a counting function, so
    # the search must build its encoders through that name, once per point
    # that survives it
    if kind == "plain":
        problem = dibmap.sample_simplex(8, 4, 3)
        search, evaluator = dibmap.pareto_mapper, dibmap.mapper._JointEvaluator
    else:
        rng = np.random.default_rng(3)
        p = rng.exponential(size=(6, 6, 3))
        problem = dibmap.TripleJointPMF(p / p.sum())
        search, evaluator = dibmap.symmetric_pareto_mapper, dibmap.symmetric._TripleEvaluator
    tracer = spans.Tracer()
    with spans.install(tracer):
        frontier, _ = search(problem, dibmap.SearchConfig(0.0, 1))
    assert tracer.counters["encoders.constructed"] == len(frontier) > 1
    ev = evaluator(problem)
    for p in frontier:
        xs, ys = ev.objectives(np.array([p.encoder.assignment]))
        assert (xs[0], ys[0]) == (p.x, p.y)
    first, second = ([(p, p.encoder) for p in frontier] for _ in range(2))
    assert len(first) == len(second)
    assert all(p is q and e is f for (p, e), (q, f) in zip(first, second))


@pytest.mark.parametrize("kind", ["plain", "symmetric"])
def test_search_scores_each_level_in_one_call(spans, kind):
    # at eps = 0 every child that enters the frontier is decided on its
    # objectives from scratch; the search scores a level's near children in
    # one objectives call, one _objectives batch per slice of CHUNK_CHILDREN
    # joint cells, through the traced xlog2x, not one call per offer block
    if kind == "plain":
        problem = dibmap.sample_simplex(8, 4, 3)
        search, module, evaluator = dibmap.pareto_mapper, dibmap.mapper, dibmap.mapper._JointEvaluator
    else:
        rng = np.random.default_rng(3)
        p = rng.exponential(size=(6, 6, 3))
        problem = dibmap.TripleJointPMF(p / p.sum())
        search, module, evaluator = (
            dibmap.symmetric_pareto_mapper, dibmap.symmetric, dibmap.symmetric._TripleEvaluator
        )
    tracer = spans.Tracer()
    calls, scored, levels = [], [], []  # (rows, first batch) per objectives call
    objectives, batch = evaluator.objectives, module._objectives
    first_children = dibmap.mapper._first_children

    def counting_objectives(self, labels):
        calls.append((len(labels), len(scored)))
        return objectives(self, labels)

    def counting_batch(pushed, hy):
        scored.append(len(pushed))
        return batch(pushed, hy)

    def counting_first_children(level):
        levels.append(len(level))
        return first_children(level)

    with spans.install(tracer), pytest.MonkeyPatch.context() as mp:
        mp.setattr(dibmap.mapper, "CHUNK_CHILDREN", 4 * problem.p.size)  # 4 rows a slice
        mp.setattr(dibmap.mapper, "OFFER_BLOCK", 4)  # many blocks per level
        mp.setattr(evaluator, "objectives", counting_objectives)
        mp.setattr(module, "_objectives", counting_batch)
        mp.setattr(dibmap.mapper, "_first_children", counting_first_children)
        frontier, stats = search(problem, dibmap.SearchConfig(0.0, 1))
    assert tracer.leaf_total("xlog2x")[0] > 0
    rows = [k for k, _ in calls]
    batches = np.diff([at for _, at in calls] + [len(scored)]).tolist()
    # the identity, then at most one call per level, one batch per slice
    assert rows[0] == batches[0] == 1
    assert 1 < len(calls) <= 1 + len(levels)
    assert batches == [-(-k // 4) for k in rows]
    assert max(rows) > 4  # some level is sliced
    assert sum(scored) == sum(rows) <= stats.points_searched  # each child scored at most once
    assert len(frontier) > 1


def test_robust_mapper_bootstraps_through_the_traced_name(spans):
    # robust_pareto_mapper reaches its search, bootstrap and filter through
    # the module-level names spans.install rebinds, so one call records one
    # span of each
    counts = dibmap.multinomial_sample(dibmap.sample_simplex(6, 4, 2), 400, 3)
    tracer = spans.Tracer()
    with spans.install(tracer):
        _, full, _ = dibmap.robust_pareto_mapper(
            counts, dibmap.RobustConfig(0.0, seed=7, bootstrap_reps=10)
        )
    names = [span[0] for span in tracer.spans]
    assert [names.count(n) for n in ("mapper", "robust.bootstrap", "robust.filter")] == [1, 1, 1]
    assert tracer.counters["robust.filter_in"] == len(full)
