"""The benchmark finds what it measures by name: `nlqbench` wraps the public
functions of the layer modules and derives each per-layer metric from the
spans of the functions it names.  A refactor that renames or drops one of
those functions does not fail the benchmark; the metric just reads 0 and is
listed as absent.  This guard derives the absent metrics the way a traced
run does, without running a workload, and pins them."""

import pytest

# Metrics whose source functions (`core.iou`, `core.TimeSpan`,
# `evaluation.query_hit`, and `inference.top_k`, which greedy `nms` at
# threshold 1 replaced) left the program while the benchmark still counts
# them.  The benchmark change that retires them empties this list.
KNOWN_ABSENT = [
    "core.iou.calls_per_query.predict",
    "core.iou.calls_per_query.eval",
    "core.TimeSpan.constructions_per_query.predict",
    "core.TimeSpan.constructions_per_query.eval",
    "evaluation.query_hit.calls",
    "inference.top_k.ms_per_query",
    "inference.top_k.call_ms_p50",
    "inference.top_k.call_ms_p90",
    "inference.top_k.calls",
]


@pytest.fixture
def bench(monkeypatch, request):
    """The benchmark's modules, imported from its directory as its own
    tests import them."""
    monkeypatch.syspath_prepend(str(request.config.rootpath / "nlqbench"))
    import layer_metrics
    import tracer
    import workloads
    return layer_metrics, tracer, workloads


def test_absent_metrics_are_exactly_the_known_ones(bench):
    layer_metrics, tracer, workloads = bench
    t = tracer.Tracer()
    t.install()
    try:
        _, absent = layer_metrics.derive(t, {"model": workloads.WORKLOADS["train-t128"].model_shape()})
    finally:
        t.uninstall()
    assert sorted(absent) == sorted(KNOWN_ABSENT)
