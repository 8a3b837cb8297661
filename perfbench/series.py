"""Run the benchmark over several seeds and save one result file.

    python3 perfbench/series.py --out base.json --seeds 1-10
    python3 perfbench/series.py --out new.json --seeds 1-10 \\
        --workloads fleet32 --root ../other-checkout

Each run is ``run.py --trace 0`` with ``BENCHMARK.json``'s
``run_seconds``, in a fresh process from the checkout ``--root``
(default: the checkout holding this file), one after another.  With
``--pair ROOT --pair-out FILE`` every (workload, seed) also runs in a
second checkout, alternating which side goes first, so that
``compare.py`` can pair the runs of a parent and a change.

The result file holds every run's result line and detail record::

    {"runs": [{"root", "workload", "seed", "seconds", "returncode",
               "result", "detail"}, ...]}
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: A run may take this long before it is abandoned (the first run of a
#: checkout included).
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    """``"1-5,9"`` -> ``[1, 2, 3, 4, 5, 9]``."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark process; its last two stdout lines parsed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        check=False,
    )
    lines = done.stdout.strip().splitlines()
    result = detail = None
    if len(lines) >= 2:
        try:
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2]).get("detail")
        except json.JSONDecodeError:
            result = detail = None
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
    return {"root": str(root), "workload": workload, "seed": seed,
            "seconds": seconds, "returncode": done.returncode,
            "result": result, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: BENCHMARK.json's)")
    parser.add_argument("--root", type=Path, default=HERE.parent)
    parser.add_argument("--pair", type=Path, default=None)
    parser.add_argument("--pair-out", type=Path, default=None)
    args = parser.parse_args(argv)
    if (args.pair is None) != (args.pair_out is None):
        parser.error("--pair and --pair-out go together")

    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in config["workloads"]])
    seconds = int(config["run_seconds"])
    sides = [(args.root.resolve(), args.out, [])]
    if args.pair is not None:
        sides.append((args.pair.resolve(), args.pair_out, []))

    failures = 0
    for workload in workloads:
        for index, seed in enumerate(parse_seeds(args.seeds)):
            order = sides if index % 2 == 0 else sides[::-1]
            for root, _, runs in order:
                run = run_once(root, workload, seed, seconds)
                runs.append(run)
                failures += run["returncode"] != 0
                print(f"{workload} seed={seed} root={root} "
                      f"rc={run['returncode']}", file=sys.stderr)
    for _, out, runs in sides:
        out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
