"""The benchmark's tracer still finds every module-level name it rebinds.

perfbench/spans.py times the layers by rebinding names such as
dibmap.oracle.xlog2x or dibmap.robust.bootstrap_uncertainty for one traced
pass. A rename in the package would otherwise surface only in a traced
benchmark run.
"""

import pathlib

import pytest

import dibmap
import dibmap.mapper
import dibmap.oracle
import dibmap.robust
import dibmap.scaling

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


def test_search_offers_go_through_the_traced_frontier(spans):
    # the search builds its frontier from the module-level name, so the
    # children that pass the snapshot test reach the timed distance()
    tracer = spans.Tracer()
    joint = dibmap.sample_simplex(7, 4, 5)
    with spans.install(tracer):
        frontier, stats = dibmap.pareto_mapper(joint, dibmap.SearchConfig(0.0, 1))
    calls = tracer.leaf_total("pareto.distance")[0]
    assert 0 < calls <= stats.points_searched
    assert tracer.frontiers == [frontier]
