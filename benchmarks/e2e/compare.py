"""Compare two benchmark reports: parent (A) against change (B).

    python3 benchmarks/e2e/compare.py A.json B.json

Each report is the file ``run.py --json`` appends to; its untraced runs
of a workload, in order, pair up with the other report's.  For every
workload and end-to-end metric this prints each side's median and
quartiles of the per-run medians, the pair wins of the change, and a
verdict:

* ``improved``: the change wins at least 9 of every 10 pairs (ties count
  for neither side), over at least 10 pairs, and the medians differ by
  more than the parent's interquartile range;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: the run-to-run spread of either side is wider than the
  bound, unless every change run reads better than every parent run;
* ``unchanged``: otherwise.

Exit status is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int, int]:
    """``(verdict, change wins, pairs)`` for one workload and metric."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and sign * (p_med - c_med) > p_q3 - p_q1
    ):
        return "improved", wins, len(pairs)
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "regressed", wins, len(pairs)
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    if better == "lower":
        separated = max(change) < min(parent)
    else:
        separated = min(change) > max(parent)
    if spread > bound and not separated:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def load_runs(path: str) -> dict[str, list[dict]]:
    """Untraced, correct runs per workload, in the order they were made."""
    runs: dict[str, list[dict]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if not run["trace"]:
            runs.setdefault(run["workload"], []).append(run)
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="report of the parent commit (A)")
    parser.add_argument("change", help="report of the change (B)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)

    regressed = False
    header = f"{'workload':<13} {'metric':<13} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} wins  verdict"
    print(header)
    for workload in parent_runs:
        if workload not in change_runs:
            print(f"{workload:<13} (no runs in {args.change})")
            continue
        a_runs, b_runs = parent_runs[workload], change_runs[workload]
        failures = sum(1 for run in a_runs + b_runs if not run["correct"])
        if failures:
            print(f"{workload:<13} {failures} run(s) failed their checks")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [run["metrics"][name]["value"] for run in a_runs if name in run["metrics"]]
            change = [run["metrics"][name]["value"] for run in b_runs if name in run["metrics"]]
            if not parent or not change:
                continue
            result, wins, pairs = verdict(parent, change, metric["better"], metric["bound"])
            regressed |= result == "regressed"
            cells = []
            for values in (parent, change):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}]")
            print(
                f"{workload:<13} {name:<13} {cells[0]:<34} {cells[1]:<34} "
                f"{wins}/{pairs}  {result}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
