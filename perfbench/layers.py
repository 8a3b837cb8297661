"""Per-layer timing from outside the program, for the traced run.

:func:`installed` wraps the public functions listed in :data:`TARGETS`
for the duration of a ``with`` block and restores them afterwards.
Each wrapped call is a span on one stack: its *self* time is its
duration minus the time of the wrapped calls nested inside it, so a
nested call (the decision tracer inside ``EdgeBOL.select``, the oracle's
``env.evaluate`` calls) is counted once, in its own layer.  A layer's
self time is the sum of its spans' self times; the traced wall time is
the sum of the layer self times plus ``unattributed_s`` (time inside no
layer span: the experiment runner loop, scenario construction, the
benchmark's own bookkeeping).

``busy_s`` metrics are self times; ``p50_us``/``p95_us`` are per-call
latencies including nested calls.
"""

from __future__ import annotations

import functools
import importlib
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

#: Layers, named after the ``repro`` subpackage whose code runs in them,
#: and the metric name of each one's self time (two keep the names the
#: benchmark's notes give them: the plane's residual and the sweep's).
SELF_METRIC = {
    "core": "core.self_s",
    "testbed": "testbed.self_s",
    "bandit": "bandit.self_s",
    "oran": "oran.plane_self_s",
    "obs": "obs.self_s",
    "fleetobs": "fleetobs.self_s",
    "experiments": "experiments.sweep_self_s",
    "store": "store.self_s",
}

#: (span name, layer, module, class, method) of every wrapped method.
#: ``FleetRuntime.run`` is the control plane's root: its self time is
#: the bus, event loop, E2/A1/O1 hops and runtime bookkeeping that no
#: narrower span covers.
TARGETS = (
    ("core.select", "core", "repro.core.edgebol", "EdgeBOL", "select"),
    ("core.posterior", "core", "repro.core.posterior", "SurrogateEngine",
     "posterior"),
    ("core.observe", "core", "repro.core.edgebol", "EdgeBOL", "observe"),
    ("core.gp_add", "core", "repro.core.gp", "GaussianProcess", "add"),
    ("testbed.step", "testbed", "repro.testbed.env", "EdgeAIEnvironment",
     "step"),
    ("testbed.evaluate", "testbed", "repro.testbed.env", "EdgeAIEnvironment",
     "evaluate"),
    ("bandit.oracle", "bandit", "repro.bandit.oracle", "ExhaustiveOracle",
     "best"),
    ("oran.run", "oran", "repro.oran.runtime", "FleetRuntime", "run"),
    ("oran.drain", "oran", "repro.oran.bus", "AsyncMessageBus", "drain"),
    ("oran.alerts", "oran", "repro.oran.alerts", "AlertRouter", "process"),
    ("obs.tracer", "obs", "repro.obs.decision", "DecisionTracer",
     "on_select"),
    ("obs.tracer", "obs", "repro.obs.decision", "DecisionTracer",
     "on_observe"),
    ("fleetobs.ingest", "fleetobs", "repro.fleetobs.store", "MetricStore",
     "ingest"),
    ("store.put", "store", "repro.store.store", "ExperimentStore", "put"),
    ("store.get", "store", "repro.store.store", "ExperimentStore", "get"),
)

#: Span of the sweep engine call the workloads make (root of a pass).
SWEEP_SPAN = "experiments.sweep"
#: Span of one spec cell; its self time is unattributed on purpose.
CELL_SPAN = "cell"

#: Every per-layer metric, with its unit, in report order.  Each busy
#: and self time (and ``unattributed_s``) also appears as ``*_share``,
#: its share of the traced wall time.
_BASE_METRICS = (
    ("core.select.calls", "count"),
    ("core.select.busy_s", "s"),
    ("core.select.p50_us", "us"),
    ("core.select.p95_us", "us"),
    ("core.posterior.busy_s", "s"),
    ("core.posterior.kernel_evals", "count"),
    ("core.posterior.extensions", "count"),
    ("core.posterior.rebuilds", "count"),
    ("core.posterior.lru_evictions", "count"),
    ("core.safe_fraction", "share"),
    ("core.observe.busy_s", "s"),
    ("core.observe.p50_us", "us"),
    ("core.observe.p95_us", "us"),
    ("core.gp_add.calls", "count"),
    ("core.gp_add.busy_s", "s"),
    ("core.gp_add.p50_us", "us"),
    ("core.retries", "count"),
    ("core.quarantined", "count"),
    ("core.degraded_periods", "count"),
    ("core.self_s", "s"),
    ("testbed.step.calls", "count"),
    ("testbed.step.busy_s", "s"),
    ("testbed.step.p50_us", "us"),
    ("testbed.evaluate.calls", "count"),
    ("testbed.evaluate.busy_s", "s"),
    ("testbed.self_s", "s"),
    ("bandit.oracle.busy_s", "s"),
    ("bandit.self_s", "s"),
    ("oran.drain.calls", "count"),
    ("oran.drain.busy_s", "s"),
    ("oran.alerts.busy_s", "s"),
    ("oran.loop_steps", "count"),
    ("oran.mailbox_dropped", "count"),
    ("oran.mailbox_coalesced", "count"),
    ("oran.plane_self_s", "s"),
    ("obs.tracer.busy_s", "s"),
    ("obs.records", "count"),
    ("obs.self_s", "s"),
    ("fleetobs.ingest.calls", "count"),
    ("fleetobs.ingest.busy_s", "s"),
    ("fleetobs.duplicates", "count"),
    ("fleetobs.self_s", "s"),
    ("experiments.sweep_self_s", "s"),
    ("store.put.calls", "count"),
    ("store.put.busy_s", "s"),
    ("store.get.calls", "count"),
    ("store.get.busy_s", "s"),
    ("store.bytes", "bytes"),
    ("store.hit_ratio", "share"),
    ("store.self_s", "s"),
    ("store.warm_rerun_s", "s"),
    ("unattributed_s", "s"),
    ("traced_wall_s", "s"),
    ("trace_overhead", "ratio"),
)


def _has_share(name: str) -> bool:
    return name.endswith(("busy_s", "self_s")) or name == "unattributed_s"


def _with_shares(metrics):
    out = []
    for name, unit in metrics:
        out.append((name, unit))
        if _has_share(name):
            out.append((share_name(name), "share"))
    return tuple(out)


def share_name(name: str) -> str:
    """``x.busy_s`` -> ``x.busy_share``; ``unattributed_s`` -> ``..._share``."""
    return name[: -len("_s")] + "_share"


PER_LAYER = _with_shares(_BASE_METRICS)

#: Counters the workloads report per traced unit (from results the
#: program returns, not from spans).
UNIT_FACTS = ("oran.loop_steps", "oran.mailbox_dropped",
              "oran.mailbox_coalesced", "obs.records",
              "fleetobs.duplicates", "store.bytes", "store.hit_ratio")


@dataclass
class SpanStats:
    """Accumulated calls, self time and per-call latencies of one span."""

    calls: int = 0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


class LayerTracer:
    """Span stack plus the counters harvested from traced agents."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self.layer_of: dict[str, str | None] = {}
        self._stack: list[list[float]] = []
        self._agents: dict[int, object] = {}
        self._safe_fractions: list[float] = []
        self.engine = {"kernel_evals": 0, "extensions": 0, "rebuilds": 0,
                       "lru_evictions": 0}
        self.robustness = {"retries": 0, "quarantined": 0,
                           "degraded_periods": 0}

    def wrap(self, name: str, layer: str | None, fn: Callable,
             after: Callable | None = None) -> Callable:
        """``fn`` timed as span ``name`` of ``layer`` (``None``: none).

        ``after(args)`` runs once the call has returned, outside the
        span's own timing.
        """
        self.layer_of[name] = layer
        stats = self.spans.setdefault(name, SpanStats())
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.self_s += elapsed - frame[0]
                stats.durations.append(elapsed)
                if after is not None:
                    after(args)

        return traced

    # -- agent counters ---------------------------------------------------

    def _after_select(self, args) -> None:
        agent = args[0]
        self._agents[id(agent)] = agent
        size = agent.last_safe_set_size
        if size is not None:
            self._safe_fractions.append(size / len(agent.control_grid))

    def harvest(self, _args=()) -> None:
        """Fold the engine and robustness counters of the agents seen
        since the last harvest (called when a spec cell returns)."""
        for agent in self._agents.values():
            snapshot = agent.engine.stats.snapshot()
            for key in self.engine:
                self.engine[key] += int(snapshot[key])
            robust = agent.robustness_stats()
            self.robustness["retries"] += int(
                robust["jitter_retries"] + robust["rank1_fallbacks"])
            self.robustness["quarantined"] += int(robust["quarantined"])
            self.robustness["degraded_periods"] += int(
                robust["degraded_periods"])
        self._agents.clear()

    # -- report -----------------------------------------------------------

    def metrics(self, units: int, traced_wall_s: float, overhead: float,
                facts: dict) -> dict[str, float]:
        """Per-layer metrics, per traced unit (see :data:`PER_LAYER`).

        ``traced_wall_s`` is the summed wall time of the ``units``
        traced units; ``facts`` holds the :data:`UNIT_FACTS` counters,
        already per unit, and ``store.warm_rerun_s``.
        """
        if units < 1:
            raise ValueError("at least one traced unit is required")

        def span(name: str) -> SpanStats:
            return self.spans.get(name, SpanStats())

        def busy(name: str) -> float:
            return span(name).self_s / units

        def calls(name: str) -> float:
            return span(name).calls / units

        def pct_us(name: str, q: float) -> float:
            durations = span(name).durations
            if not durations:
                return 0.0
            return float(np.percentile(durations, q)) * 1e6

        layer_self = {layer: 0.0 for layer in SELF_METRIC}
        for name, stats in self.spans.items():
            layer = self.layer_of.get(name)
            if layer is not None:
                layer_self[layer] += stats.self_s / units
        wall = traced_wall_s / units
        out = {
            "core.select.calls": calls("core.select"),
            "core.select.busy_s": busy("core.select"),
            "core.select.p50_us": pct_us("core.select", 50),
            "core.select.p95_us": pct_us("core.select", 95),
            "core.posterior.busy_s": busy("core.posterior"),
            "core.safe_fraction": (
                sum(self._safe_fractions) / len(self._safe_fractions)
                if self._safe_fractions else 0.0),
            "core.observe.busy_s": busy("core.observe"),
            "core.observe.p50_us": pct_us("core.observe", 50),
            "core.observe.p95_us": pct_us("core.observe", 95),
            "core.gp_add.calls": calls("core.gp_add"),
            "core.gp_add.busy_s": busy("core.gp_add"),
            "core.gp_add.p50_us": pct_us("core.gp_add", 50),
            "testbed.step.calls": calls("testbed.step"),
            "testbed.step.busy_s": busy("testbed.step"),
            "testbed.step.p50_us": pct_us("testbed.step", 50),
            "testbed.evaluate.calls": calls("testbed.evaluate"),
            "testbed.evaluate.busy_s": busy("testbed.evaluate"),
            "bandit.oracle.busy_s": busy("bandit.oracle"),
            "oran.drain.calls": calls("oran.drain"),
            "oran.drain.busy_s": busy("oran.drain"),
            "oran.alerts.busy_s": busy("oran.alerts"),
            "obs.tracer.busy_s": busy("obs.tracer"),
            "fleetobs.ingest.calls": calls("fleetobs.ingest"),
            "fleetobs.ingest.busy_s": busy("fleetobs.ingest"),
            "store.put.calls": calls("store.put"),
            "store.put.busy_s": busy("store.put"),
            "store.get.calls": calls("store.get"),
            "store.get.busy_s": busy("store.get"),
            "unattributed_s": wall - sum(layer_self.values()),
            "traced_wall_s": wall,
            "trace_overhead": overhead,
        }
        for key, value in self.engine.items():
            out[f"core.posterior.{key}"] = value / units
        for key, value in self.robustness.items():
            out[f"core.{key}"] = value / units
        for layer, seconds in layer_self.items():
            out[SELF_METRIC[layer]] = seconds
        out.update(facts)
        for name, _ in _BASE_METRICS:
            if _has_share(name):
                out[share_name(name)] = out[name] / wall if wall > 0 else 0.0
        return {name: float(out[name]) for name, _ in PER_LAYER}


@contextmanager
def installed(tracer: LayerTracer) -> Iterator[LayerTracer]:
    """Wrap every :data:`TARGETS` method for the block, then restore."""
    saved = []
    try:
        for name, layer, module, cls_name, attr in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            after = tracer._after_select if name == "core.select" else None
            setattr(cls, attr, tracer.wrap(name, layer, original, after))
        yield tracer
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)
