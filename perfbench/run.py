"""Benchmark of the EdgeBOL control loop: end to end, or per layer.

    python3 perfbench/run.py --workload cell_dynamic --seed 1 \\
        --seconds 20 --trace 0

Runs from the root of a source checkout (it imports ``repro`` from
``src/``).  ``--trace 0`` repeats untraced units of the workload (one
cold pass plus store-served warm passes, see ``workloads.py``) for
``--seconds`` and reports the end-to-end metrics as medians over units;
set-up time comes from fresh interpreters (``setup_probe.py``), half of
them started before the units and half after.
``--trace 1`` alternates untraced and traced units for ``--seconds``
and reports the per-layer split of the traced ones (``layers.py``).

Every unit's output is checked.  The second-to-last line of standard
output is a ``{"detail": ...}`` record (provenance, row digest, quality
figures, per-unit times); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only for a correct run, and 2, with no result, when ``src/`` is absent.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from provenance import collect, pin_threads  # noqa: E402

INHERITED_THREADS = pin_threads()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from layers import PER_LAYER, UNIT_FACTS, LayerTracer, installed  # noqa: E402
from stats import median  # noqa: E402

#: End-to-end metrics (name, unit); see the notes for definitions.
END_TO_END = (
    ("periods_per_s", "1/s"),
    ("decisions_per_s", "1/s"),
    ("cells_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tail_cost", "W"),
)

#: Fresh-interpreter set-ups timed per run; setup_s is their median.
SETUP_PROBES = 10


def setup_times(workload: str, seed: int, probes: int) -> list[float]:
    """Seconds from process start to the first cell's objects, per probe."""
    times = []
    for _ in range(probes):
        started = time.time()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        ready = json.loads(done.stdout.strip().splitlines()[-1])["ready"]
        times.append(ready - started)
    return times


def measure(workload, seed: int, seconds: float, workdir: Path,
            passes: int, tracer=None):
    """Run units for ``seconds``; with a tracer, alternate untraced and
    traced units (ending on a complete pair).  Every unit has ``passes``
    warm passes.  Returns both lists."""
    plain, traced = [], []
    started = time.perf_counter()
    index = 0
    while True:
        unit_dir = workdir / f"unit{index}"
        # Each unit starts from a collected heap, whatever came before.
        gc.collect()
        if tracer is not None and index % 2 == 1:
            with installed(tracer):
                traced.append(workload.run_unit(unit_dir, seed, passes,
                                                tracer=tracer))
        else:
            plain.append(workload.run_unit(unit_dir, seed, passes))
        shutil.rmtree(unit_dir)
        index += 1
        done = time.perf_counter() - started >= seconds
        if done and (tracer is None or index % 2 == 0):
            return plain, traced


def problems_of(units) -> list[str]:
    """Every unit's failed checks, plus disagreeing row digests."""
    problems = [p for unit in units for p in unit.problems]
    digests = sorted({unit.digest for unit in units})
    if len(digests) > 1:
        problems.append(f"units produced {len(digests)} different row "
                        f"digests: {digests}")
    return problems


def end_to_end(units, setup: list[float], peak_rss_mb: float) -> dict:
    """End-to-end metrics, medians over the untraced units."""
    return {
        "periods_per_s": median([u.periods / u.cold_s for u in units]),
        "decisions_per_s": median([u.decisions / u.cold_s for u in units]),
        "cells_per_s": median([u.cell_runs / u.cold_s for u in units]),
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb,
        "tail_cost": units[0].figures["tail_cost"],
    }


def per_layer(tracer, plain, traced) -> dict:
    """Per-layer metrics per traced unit (``layers.PER_LAYER``)."""
    overhead = (median([u.wall_s for u in traced])
                / median([u.wall_s for u in plain]) - 1.0)
    facts = {name: sum(u.facts[name] for u in traced) / len(traced)
             for name in UNIT_FACTS}
    facts["store.warm_rerun_s"] = median([w for u in plain for w in u.warm_s])
    return tracer.metrics(len(traced), sum(u.wall_s for u in traced),
                          overhead, facts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    provenance = collect(ROOT, INHERITED_THREADS)
    probes = 0 if args.trace else SETUP_PROBES
    setup = setup_times(args.workload, args.seed, probes // 2)
    workload = workloads.WORKLOADS[args.workload]()
    tracer = LayerTracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        # Lazy imports and the code fingerprint are paid before timing.
        workloads.prepare()
        workloads.WORKLOADS[args.workload](small=True).run_unit(
            tmp / "warmup", args.seed)
        passes = (workloads.TRACED_WARM_PASSES if args.trace
                  else workloads.WARM_PASSES)
        plain, traced = measure(workload, args.seed, args.seconds, tmp,
                                passes, tracer)
    setup += setup_times(args.workload, args.seed, probes - probes // 2)
    units = plain + traced
    problems = problems_of(units)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    figures = {**units[0].figures, "failed_share": failed / attempted}

    if args.trace:
        values = per_layer(tracer, plain, traced)
        units_of = dict(PER_LAYER)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = end_to_end(plain, setup, peak_rss_mb)
        units_of = dict(END_TO_END)
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        problems.append(f"non-finite metrics: {bad}")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": len(plain),
        "traced_units": len(traced),
        "unit_cold_s": [u.cold_s for u in plain],
        "unit_warm_median_s": [median(u.warm_s) for u in plain if u.warm_s],
        "setup_samples_s": setup,
        "digest": units[0].digest,
        "problems": problems,
        "figures": figures,
        "provenance": provenance,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in values.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
