"""The benchmark's three workloads, their output checks and figures.

Every workload is a closed loop driven through the sweep engine
(``run_sweep``, ``jobs=1``) with a fresh content-addressed store: a
*unit* is one cold pass, which computes every cell and writes it to the
store, followed by fully store-served reruns (warm passes) into fresh
``out`` directories.  Cells run back to back in one process; each
period starts when the previous one has finished.  Nothing arrives on a
schedule, so the figures are throughput at a stated input size.

Run the same unit twice with the same seed and it produces the same
rows; the row digest of one invocation's units must therefore agree.

Why these three (the notes beside this file have the layer table):

* ``cell_dynamic`` — the Fig. 13 ``dynamic`` spec on the paper's 9-level
  grid (6561 controls) long enough for N to reach the hundreds.  The
  posterior sweep dominates, and the CQI-quantised contexts cycle, so
  the engine's per-context caches, extensions and rebuilds all work.
* ``fleet32`` — 32 EdgeBOL cells on the async control plane with a
  fleet metric store attached (the fleet spec's ``metrics``
  configuration without its file dump).  Small N and a small grid make
  per-call cost dominate: GP updates, bus and event loop, decision
  tracing and store ingest.
* ``sweep_static`` — the Figs. 10-11 ``static`` spec: 3 constraint
  settings x 4 delta2 values of short cells, each with its exhaustive
  oracle.  The oracle's ``env.evaluate`` dominates the cold pass; the
  warm pass is the store's read path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.bandit.oracle import ExhaustiveOracle
from repro.core import EdgeBOL
from repro.experiments import spec as spec_registry
from repro.experiments.dynamic import DynamicSetting
from repro.experiments.fleet import METRICS_TRACE_EVERY, run_fleet_cell_sim
from repro.experiments.parallel import run_sweep
from repro.experiments.static import CONSTRAINT_SETTINGS
from repro.fleetobs import MetricStore
from repro.store import ExperimentStore, code_fingerprint
from repro.telemetry import runtime as telemetry
from repro.testbed.config import CostWeights, ServiceConstraints, TestbedConfig
from repro.testbed.scenarios import dynamic_scenario, static_scenario

from layers import CELL_SPAN, SWEEP_SPAN, UNIT_FACTS, LayerTracer

#: Store-served reruns after each cold pass.  One checks the store's
#: read path; a traced run (``--trace 1``) times bursts of them for
#: ``store.warm_rerun_s``, a few milliseconds each.
WARM_PASSES = 1
TRACED_WARM_PASSES = 10


def digest(rows: list) -> str:
    """SHA-256 of the rows' canonical JSON (sorted keys, compact)."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


@dataclass
class Unit:
    """Timings and outputs of one cold pass plus its warm passes."""

    cold_s: float
    warm_s: list[float]
    wall_s: float
    digest: str
    #: Control periods of the cold pass (fleet: fleet-wide rounds).
    periods: int
    #: Agent decisions of the cold pass, summed over cells.
    decisions: int
    #: Cell runs completed by the cold pass.
    cell_runs: int
    attempted: int
    failed: int
    #: Failed output checks (empty when the unit is correct).
    problems: list[str]
    #: Quality figures printed beside the metrics.
    figures: dict
    #: Per-unit counters for the traced run (:data:`layers.UNIT_FACTS`).
    facts: dict = field(default_factory=dict)


class Workload:
    """One workload: a spec, its parameters and its checks."""

    name = ""

    def __init__(self, small: bool = False) -> None:
        self.small = small
        self.spec, self.params = self._sweep()

    def _sweep(self):
        raise NotImplementedError

    def construct(self, seed: int) -> None:
        """Build the objects one cell needs, up to its first period."""
        raise NotImplementedError

    def _shape(self, rows: list) -> tuple[int, int, int]:
        """(periods, decisions, cell runs) of a cold pass."""
        raise NotImplementedError

    def _inspect(self, rows: list) -> tuple[list[str], int, dict]:
        """(problems, failed operations, figures) of the cold rows."""
        raise NotImplementedError

    def _attempted(self) -> int:
        raise NotImplementedError

    def _facts(self) -> dict:
        return {}

    def examine(self, cold, warm: list) -> tuple[list[str], int, dict]:
        """Check a cold pass and its warm passes (``SweepResult``s).

        Returns the problems found (empty when the output is correct),
        the failed operations and the workload's quality figures.
        """
        rows = cold.rows
        cells = len(cold.cells)
        problems, failed, figures = self._inspect(rows)
        failed += len(cold.quarantined) + cold.retries
        if cold.quarantined or cold.retries:
            problems.append(f"cold pass: {len(cold.quarantined)} quarantined "
                            f"and {cold.retries} retried cells")
        row_digest = digest(rows)
        for i, result in enumerate(warm):
            if result.store_hits != cells:
                problems.append(f"warm pass {i}: {result.store_hits} store "
                                f"hits for {cells} cells")
            if result.quarantined or result.retries:
                problems.append(f"warm pass {i}: quarantined or retried cells")
            if digest(result.rows) != row_digest:
                problems.append(f"warm pass {i}: rows differ from the cold pass")
        return problems, failed, figures

    def run_unit(self, workdir: Path, seed: int,
                 warm_passes: int = WARM_PASSES,
                 tracer: LayerTracer | None = None) -> Unit:
        """One cold pass and ``warm_passes`` warm passes under ``workdir``."""
        spec, sweep = self.spec, run_sweep
        if tracer is not None:
            spec = dataclasses.replace(spec, run_cell=tracer.wrap(
                CELL_SPAN, None, spec.run_cell, after=tracer.harvest))
            sweep = tracer.wrap(SWEEP_SPAN, "experiments", run_sweep)
        store = ExperimentStore(workdir / "store")
        started = perf_counter()
        cold = sweep(spec, self.params, seed=seed, jobs=1,
                     out=workdir / "cold", store=store)
        cold_s = perf_counter() - started
        warm, warm_s = [], []
        for i in range(warm_passes):
            begun = perf_counter()
            warm.append(sweep(spec, self.params, seed=seed, jobs=1,
                              out=workdir / f"warm{i}", store=store))
            warm_s.append(perf_counter() - begun)
        wall_s = perf_counter() - started

        problems, failed, figures = self.examine(cold, warm)
        periods, decisions, cell_runs = self._shape(cold.rows)
        facts = {name: 0.0 for name in UNIT_FACTS}
        facts["store.bytes"] = float(_tree_bytes(workdir / "store"))
        if warm:
            facts["store.hit_ratio"] = sum(r.store_hits for r in warm) / (
                len(cold.cells) * len(warm))
        facts.update(self._facts())
        return Unit(
            cold_s=cold_s, warm_s=warm_s, wall_s=wall_s,
            digest=digest(cold.rows), periods=periods, decisions=decisions,
            cell_runs=cell_runs, attempted=self._attempted(), failed=failed,
            problems=problems, figures=figures, facts=facts,
        )


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else math.nan


def _violations(rows: list) -> dict:
    return {
        "delay_violation_rate": _mean(
            r["delay_s"] > r["d_max_s"] for r in rows),
        "map_violation_rate": _mean(r["map"] < r["rho_min"] for r in rows),
    }


def _nonfinite(rows: list, key: str) -> int:
    return sum(1 for r in rows if not math.isfinite(float(r[key])))


class CellDynamic(Workload):
    """Fig. 13: one EdgeBOL cell under a 5-38 dB SNR sweep."""

    name = "cell_dynamic"

    def _sweep(self):
        spec = spec_registry.get("dynamic")
        periods, levels = (6, 3) if self.small else (200, 9)
        return spec, spec.resolve({"periods": periods, "levels": levels})

    def construct(self, seed: int) -> None:
        setting = DynamicSetting(n_periods=int(self.params["periods"]))
        testbed = TestbedConfig(n_levels=int(self.params["levels"]))
        dynamic_scenario(low_db=setting.low_snr_db,
                         high_db=setting.high_snr_db,
                         period=setting.cycle_period,
                         length=setting.n_periods, config=testbed, rng=seed)
        EdgeBOL(testbed.control_grid(),
                ServiceConstraints(setting.d_max_s, setting.rho_min),
                CostWeights(setting.delta1, setting.delta2))

    def _attempted(self) -> int:
        return int(self.params["periods"])

    def _shape(self, rows):
        return len(rows), len(rows), 1

    def _inspect(self, rows):
        periods = int(self.params["periods"])
        problems = []
        if len(rows) != periods:
            problems.append(f"{len(rows)} rows for {periods} periods")
        bad = _nonfinite(rows, "cost")
        if bad:
            problems.append(f"{bad} non-finite costs")
        tail = rows[-max(1, periods // 4):]
        figures = {"tail_cost": _mean(r["cost"] for r in tail),
                   **_violations(rows)}
        return problems, abs(periods - len(rows)) + bad, figures


class Fleet32(Workload):
    """32 EdgeBOL cells on the async plane with a fleet metric store."""

    name = "fleet32"

    def __init__(self, small: bool = False) -> None:
        #: Accounting of the last fleet run (set by :meth:`_cell`).
        self._fleet: dict = {}
        super().__init__(small)

    def _sweep(self):
        spec = dataclasses.replace(spec_registry.get("fleet"),
                                   run_cell=self._cell)
        cells, periods, levels = (2, 4, 3) if self.small else (32, 40, 4)
        return spec, spec.resolve({"cells": (cells,), "periods": periods,
                                   "levels": levels, "load": "diurnal",
                                   "policy": "block"})

    def _run_fleet(self, params, seed, n_periods: int):
        """The fleet spec's metrics configuration, without its file dump."""
        store = MetricStore()
        telemetry.reset_metrics()
        result = run_fleet_cell_sim(
            n_cells=int(params["cells"]), n_periods=n_periods, seed=seed,
            levels=int(params["levels"]), n_users=int(params["users"]),
            load_profile=str(params["load"]),
            mailbox_policy=str(params["policy"]),
            batch_size=int(params["batch"]), metrics=store,
            trace_rounds_every=METRICS_TRACE_EVERY,
        )
        return result, store

    def _cell(self, params, seed) -> list[dict]:
        result, store = self._run_fleet(params, seed, int(params["periods"]))
        boxes = [s for subs in result.mailbox_stats.values() for s in subs]
        self._fleet = {
            "decisions": result.decisions,
            "missed": sum(int(p["missed"])
                          for p in result.partial_cells.values()),
            "oran.loop_steps": result.loop_steps,
            "oran.mailbox_dropped": sum(s["dropped"] for s in boxes),
            "oran.mailbox_coalesced": sum(s["coalesced"] for s in boxes),
            "obs.records": store.by_type.get("decision", 0),
            "fleetobs.duplicates": store.duplicates,
        }
        return [row for cell_id, log in result.logs.items()
                for row in log.as_rows(cell=cell_id)]

    def construct(self, seed: int) -> None:
        self._run_fleet({**self.params, "cells": self.params["cells"][0]},
                        seed, 0)

    def _attempted(self) -> int:
        return int(self.params["cells"][0]) * int(self.params["periods"])

    def _shape(self, rows):
        return (int(self.params["periods"]), int(self._fleet["decisions"]),
                int(self.params["cells"][0]))

    def _facts(self) -> dict:
        return {k: float(v) for k, v in self._fleet.items() if "." in k}

    def _inspect(self, rows):
        expected = self._attempted()
        fleet = self._fleet
        problems = []
        if fleet["decisions"] != expected or len(rows) != expected:
            problems.append(f"{fleet['decisions']} decisions and {len(rows)} "
                            f"rows for {expected} cell-periods")
        if fleet["missed"]:
            problems.append(f"{fleet['missed']} missed rows")
        if fleet["fleetobs.duplicates"]:
            problems.append(f"{fleet['fleetobs.duplicates']} duplicate "
                            "records in the metric store")
        bad = _nonfinite(rows, "cost")
        if bad:
            problems.append(f"{bad} non-finite costs")
        periods = int(self.params["periods"])
        first_tail = periods - max(1, periods // 4)
        figures = {
            "tail_cost": _mean(r["cost"] for r in rows if r["t"] >= first_tail),
            **_violations(rows),
        }
        failed = fleet["missed"] + fleet["oran.mailbox_dropped"] + bad
        return problems, failed, figures


class SweepStatic(Workload):
    """Figs. 10-11: the static sweep with its exhaustive oracle."""

    name = "sweep_static"

    def _sweep(self):
        spec = spec_registry.get("static")
        if self.small:
            values = {"delta2": (1.0,), "periods": 5, "levels": 3}
        else:
            values = {"delta2": (1.0, 4.0, 16.0, 64.0), "periods": 40,
                      "levels": 5}
        return spec, spec.resolve(values)

    def construct(self, seed: int) -> None:
        testbed = TestbedConfig(n_levels=int(self.params["levels"]))
        grid = testbed.control_grid()
        env = static_scenario(rng=seed, config=testbed)
        weights = CostWeights(1.0, float(self.params["delta2"][0]))
        EdgeBOL(grid, CONSTRAINT_SETTINGS[0], weights)
        ExhaustiveOracle(env, weights, control_grid=grid)

    def _cells(self) -> int:
        return len(self.spec.cells(self.params))

    def _attempted(self) -> int:
        return self._cells()

    def _shape(self, rows):
        periods = int(self.params["periods"]) * len(rows)
        return periods, periods, len(rows)

    def _inspect(self, rows):
        problems = []
        if len(rows) != self._cells():
            problems.append(f"{len(rows)} rows for {self._cells()} cells")
        bad = sum(_nonfinite(rows, key) for key in ("cost", "oracle_cost"))
        if bad:
            problems.append(f"{bad} non-finite costs")
        figures = {
            "tail_cost": _mean(r["cost"] for r in rows),
            "oracle_gap": _mean(r["normalized_cost"]
                                - r["oracle_normalized_cost"] for r in rows),
        }
        return problems, 0, figures


WORKLOADS = {w.name: w for w in (CellDynamic, Fleet32, SweepStatic)}


def prepare() -> None:
    """Process-wide lazy set-up every workload pays before its first cell."""
    code_fingerprint()
