"""Compare two benchmark result files, or check the spread of one.

    python3 perfbench/compare.py base.json new.json
    python3 perfbench/compare.py runs.json

Result files come from ``series.py``.  For every workload and
end-to-end metric of ``BENCHMARK.json`` this prints each side's median
and quartiles, the ratio new/base with the base median it divides by,
the pairs won by the new side, and a verdict:

* ``unresolved`` — either side's IQR, as a share of its median, is
  wider than the metric's bound, and not every new run beats every
  base run (if every one does, ``improved``);
* ``worse`` — the new median is worse than the base median by more
  than the bound;
* ``improved`` — the new side wins at least nine tenths of the pairs
  (runs with the same seed; ties count for neither side) and its median
  is better than the base median by more than the base's IQR;
* ``unchanged`` — otherwise.

With a single file it prints each metric's spread (IQR over median)
against its bound and a third of it, the margin a benchmark needs to
pass its own acceptance check, and exits 1 unless every spread is
within that margin.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from stats import iqr, median, quartiles, relative_spread

HERE = Path(__file__).resolve().parent

#: Share of pairs the new side must win to claim a gain.
PAIR_WIN_SHARE = 0.9


def load_runs(path: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> metrics of the correct runs.

    A (workload, seed) that appears twice is an error: pairs are made by
    seed, so a duplicate would silently replace a run.
    """
    runs: dict[str, dict[int, dict]] = {}
    seen: set[tuple[str, int]] = set()
    for run in json.loads(Path(path).read_text())["runs"]:
        key = (run["workload"], run["seed"])
        if key in seen:
            raise ValueError(f"{path}: {key[0]} seed {key[1]} appears twice")
        seen.add(key)
        result = run.get("result")
        if result is None:
            continue
        if not result.get("correct"):
            print(f"warning: {path}: {run['workload']} seed {run['seed']} "
                  "failed its output checks; run left out", file=sys.stderr)
            continue
        runs.setdefault(run["workload"], {})[run["seed"]] = {
            name: metric["value"]
            for name, metric in result["metrics"].items()
        }
    return runs


def _better(sign: int, new: float, base: float) -> bool:
    return sign * (new - base) > 0


def verdict(base: list[float], new: list[float], better: str, bound: float,
            pairs: list[tuple[float, float]]) -> str:
    """Verdict for one metric (see the module docstring).

    ``pairs`` holds (base, new) values of runs made with the same seed.
    """
    sign = 1 if better == "higher" else -1
    if relative_spread(base) > bound or relative_spread(new) > bound:
        if all(_better(sign, n, b) for n in new for b in base):
            return "improved"
        return "unresolved"
    base_mid, new_mid = median(base), median(new)
    if sign * (new_mid - base_mid) / abs(base_mid) < -bound:
        return "worse"
    wins = sum(1 for b, n in pairs if _better(sign, n, b))
    if (pairs and wins >= PAIR_WIN_SHARE * len(pairs)
            and sign * (new_mid - base_mid) > iqr(base)):
        return "improved"
    return "unchanged"


def _summary(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return (f"{q2:.6g} [{q1:.6g}..{q3:.6g}] "
            f"iqr {100 * relative_spread(values):.1f}% n={len(values)}")


def compare(base_runs, new_runs, metrics) -> list[tuple[str, str, str]]:
    """Print the comparison; returns (workload, metric, verdict) rows."""
    verdicts = []
    for workload in sorted(set(base_runs) | set(new_runs)):
        base_by_seed = base_runs.get(workload, {})
        new_by_seed = new_runs.get(workload, {})
        print(f"\n{workload}")
        if not base_by_seed or not new_by_seed:
            print("  missing on one side")
            continue
        common = sorted(set(base_by_seed) & set(new_by_seed))
        for spec in metrics:
            name = spec["name"]
            base = [r[name] for r in base_by_seed.values()]
            new = [r[name] for r in new_by_seed.values()]
            pairs = [(base_by_seed[s][name], new_by_seed[s][name])
                     for s in common]
            sign = 1 if spec["better"] == "higher" else -1
            wins = sum(1 for b, n in pairs if _better(sign, n, b))
            result = verdict(base, new, spec["better"], spec["bound"], pairs)
            base_mid = median(base)
            ratio = median(new) / base_mid if base_mid else float("inf")
            print(f"  {name} ({spec['unit']}, {spec['better']} is better, "
                  f"bound {spec['bound']:.0%})")
            print(f"    base {_summary(base)}")
            print(f"    new  {_summary(new)}")
            print(f"    ratio new/base {ratio:.4f} (base median "
                  f"{base_mid:.6g} {spec['unit']}), new wins {wins}/"
                  f"{len(pairs)} pairs -> {result}")
            verdicts.append((workload, name, result))
    return verdicts


def spread_check(runs, metrics) -> bool:
    """Print each metric's spread against its bound; True if all pass."""
    steady = True
    for workload in sorted(runs):
        print(f"\n{workload}")
        for spec in metrics:
            values = [r[spec["name"]] for r in runs[workload].values()]
            spread = relative_spread(values)
            ok = spread < spec["bound"] / 3
            steady &= ok
            status = ("ok" if ok else "within bound" if spread <= spec["bound"]
                      else "too wide")
            print(f"  {spec['name']:<16} {_summary(values)}  spread "
                  f"{spread:.3f} vs bound {spec['bound']} -> {status}")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("files", nargs="+", type=Path,
                        help="one result file (spread) or base and new")
    args = parser.parse_args(argv)
    if len(args.files) > 2:
        parser.error("give one or two result files")
    metrics = json.loads((HERE.parent / "BENCHMARK.json").read_text())[
        "end_to_end"]
    if len(args.files) == 1:
        return 0 if spread_check(load_runs(args.files[0]), metrics) else 1
    verdicts = compare(load_runs(args.files[0]), load_runs(args.files[1]),
                       metrics)
    return 1 if any(v == "worse" for _, _, v in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main())
