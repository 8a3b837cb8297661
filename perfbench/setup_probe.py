"""One set-up of a workload in a fresh interpreter, timed by ``run.py``.

Pins BLAS threads, imports ``repro``, does the process-wide lazy
set-up and builds the objects of the workload's first cell, then prints
``{"ready": <time.time()>}``.  The parent measures ``setup_s`` from just
before it starts this process, so interpreter start-up counts too.

    python3 perfbench/setup_probe.py --workload cell_dynamic --seed 1
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from provenance import pin_threads  # noqa: E402

pin_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402

from workloads import WORKLOADS, prepare  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    prepare()
    WORKLOADS[args.workload]().construct(args.seed)
    print(json.dumps({"ready": time.time()}))


if __name__ == "__main__":
    main()
