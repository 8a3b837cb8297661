"""BENCHMARK.json agrees with the code, and a bare tree fails cleanly."""

import json
import shutil
import subprocess
import sys

from conftest import BENCH
from layers import PER_LAYER
from run import END_TO_END
from workloads import WORKLOADS

CONFIG = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_the_code():
    assert [(m["name"], m["unit"]) for m in CONFIG["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in CONFIG["per_layer"]] \
        == list(PER_LAYER)
    assert [w["name"] for w in CONFIG["workloads"]] == list(WORKLOADS)


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
