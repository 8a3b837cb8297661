"""The traced run leaves rows byte-identical and its books balance."""

import pytest

from layers import PER_LAYER, TARGETS, LayerTracer, installed
from workloads import WORKLOADS
from repro.core import EdgeBOL


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrapping_leaves_rows_byte_identical(tmp_path, name):
    workload = WORKLOADS[name](small=True)
    plain = workload.run_unit(tmp_path / "plain", seed=5, warm_passes=1)
    tracer = LayerTracer()
    with installed(tracer):
        traced = workload.run_unit(tmp_path / "traced", seed=5,
                                   warm_passes=1, tracer=tracer)
    assert plain.problems == [] and traced.problems == []
    assert traced.digest == plain.digest

    facts = {**traced.facts, "store.warm_rerun_s": plain.warm_s[0]}
    metrics = tracer.metrics(1, traced.wall_s, 0.0, facts)
    assert [n for n, _ in PER_LAYER] == list(metrics)
    self_times = [v for k, v in metrics.items()
                  if k.endswith("self_s") or k == "unattributed_s"]
    assert sum(self_times) == pytest.approx(metrics["traced_wall_s"],
                                            rel=1e-9)
    assert metrics["unattributed_s"] >= 0
    assert metrics["core.select.calls"] > 0
    fleet_only = ("oran.drain.calls", "obs.records", "fleetobs.ingest.calls")
    for key in fleet_only:
        assert (metrics[key] > 0) == (name == "fleet32"), key
    assert (metrics["bandit.oracle.busy_s"] > 0) == (name == "sweep_static")


def test_installed_restores_every_method():
    originals = {(cls, attr): getattr(__import__(mod, fromlist=[cls]), cls)
                 .__dict__[attr] for _, _, mod, cls, attr in TARGETS}
    with installed(LayerTracer()):
        assert EdgeBOL.__dict__["select"] is not originals[
            ("EdgeBOL", "select")]
    for (cls, attr), original in originals.items():
        module = next(m for _, _, m, c, a in TARGETS if (c, a) == (cls, attr))
        owner = getattr(__import__(module, fromlist=[cls]), cls)
        assert owner.__dict__[attr] is original


def test_nested_spans_count_once():
    tracer = LayerTracer()

    def inner():
        return sum(range(20000))

    wrapped_inner = tracer.wrap("inner", "testbed", inner)

    def outer():
        return wrapped_inner() + wrapped_inner()

    tracer.wrap("outer", "core", outer)()
    outer_stats, inner_stats = tracer.spans["outer"], tracer.spans["inner"]
    assert inner_stats.calls == 2 and outer_stats.calls == 1
    total = outer_stats.durations[0]
    assert outer_stats.self_s + inner_stats.self_s == pytest.approx(total)
    assert outer_stats.self_s < total
