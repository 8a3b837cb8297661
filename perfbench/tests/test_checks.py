"""Each output check trips on a doctored result."""

import copy
import math
from types import SimpleNamespace

import pytest

from run import problems_of
from workloads import WORKLOADS, Unit
from repro.experiments.parallel import run_sweep
from repro.store import ExperimentStore


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """A real cold pass and warm pass of every small workload."""
    out = {}
    for name, cls in WORKLOADS.items():
        workload = cls(small=True)
        root = tmp_path_factory.mktemp(name)
        store = ExperimentStore(root / "store")
        cold = run_sweep(workload.spec, workload.params, seed=3, jobs=1,
                         out=root / "cold", store=store)
        warm = run_sweep(workload.spec, workload.params, seed=3, jobs=1,
                         out=root / "warm", store=store)
        out[name] = (workload, cold, warm)
    return out


def _doctor(result, **changes):
    """A SweepResult stand-in with some fields replaced."""
    fields = {"rows": copy.deepcopy(result.rows), "cells": result.cells,
              "quarantined": result.quarantined, "retries": result.retries,
              "store_hits": result.store_hits}
    fields.update(changes)
    return SimpleNamespace(**fields)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_clean_passes_have_no_problems(passes, name):
    workload, cold, warm = passes[name]
    problems, failed, figures = workload.examine(cold, [warm])
    assert problems == [] and failed == 0
    assert math.isfinite(figures["tail_cost"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_missing_row_trips(passes, name):
    workload, cold, warm = passes[name]
    problems, _, _ = workload.examine(_doctor(cold, rows=cold.rows[:-1]), [])
    assert any("rows" in p for p in problems)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_non_finite_cost_trips(passes, name):
    workload, cold, _ = passes[name]
    doctored = _doctor(cold)
    doctored.rows[-1]["cost"] = float("nan")
    problems, failed, _ = workload.examine(doctored, [])
    assert any("non-finite" in p for p in problems)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_warm_pass_checks_trip(passes, name):
    workload, cold, warm = passes[name]
    short = _doctor(warm, store_hits=warm.store_hits - 1)
    assert any("store hits" in p for p in workload.examine(cold, [short])[0])
    changed = _doctor(warm)
    key = "cost"
    changed.rows[0][key] = changed.rows[0][key] + 1e-9
    assert any("differ" in p for p in workload.examine(cold, [changed])[0])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_quarantined_or_retried_cells_trip(passes, name):
    workload, cold, warm = passes[name]
    quarantined = _doctor(cold, quarantined=[object()])
    problems, failed, _ = workload.examine(quarantined, [warm])
    assert any("quarantined" in p for p in problems) and failed == 1
    retried = _doctor(cold, retries=2)
    problems, failed, _ = workload.examine(retried, [warm])
    assert any("retried" in p for p in problems) and failed == 2
    problems, _, _ = workload.examine(cold, [_doctor(warm, retries=1)])
    assert any("warm pass" in p for p in problems)


@pytest.mark.parametrize("field,text", [
    ("missed", "missed rows"),
    ("fleetobs.duplicates", "duplicate"),
    ("decisions", "decisions"),
])
def test_fleet_accounting_checks_trip(passes, field, text):
    workload, cold, warm = passes["fleet32"]
    saved = dict(workload._fleet)
    try:
        workload._fleet[field] += 1
        problems, _, _ = workload.examine(cold, [warm])
        assert any(text in p for p in problems)
    finally:
        workload._fleet = saved


def test_fleet_dropped_indications_count_as_failures(passes):
    workload, cold, warm = passes["fleet32"]
    saved = dict(workload._fleet)
    try:
        workload._fleet["oran.mailbox_dropped"] = 3
        assert workload.examine(cold, [warm])[1] == 3
    finally:
        workload._fleet = saved


def _unit(digest):
    return Unit(cold_s=1.0, warm_s=[0.1], wall_s=1.1, digest=digest,
                periods=1, decisions=1, cell_runs=1, attempted=1, failed=0,
                problems=[], figures={})


def test_units_with_different_digests_trip():
    assert problems_of([_unit("a"), _unit("a")]) == []
    assert any("digests" in p for p in problems_of([_unit("a"), _unit("b")]))
