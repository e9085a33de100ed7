"""Paired comparison of a parent and a change, one row per workload.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the ``--record`` lines of ``run.py`` (untraced runs only are
used); runs of the two sides are paired by workload and seed.  For every
end-to-end metric of ``BENCHMARK.json`` a cell reads:

* ``gain``       the change wins at least 9 of 10 pairs (ties count for
                 neither side) and the median gap exceeds the parent's
                 inter-quartile range;
* ``REGRESSED``  the change's median is worse than the parent's by more
                 than the metric's bound;
* ``unresolved`` either side's spread (IQR / median) exceeds the bound, and
                 not every change run reads better than every parent run;
* ``ok``         none of the above: within the bound.

Each cell also gives the median change in percent.  Exit code 1 when any
cell regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load_runs(path: Path) -> dict[str, dict[int, dict[str, float]]]:
    """workload -> seed -> {metric: value} from ``--record`` lines."""
    runs: dict[str, dict[int, dict[str, float]]] = defaultdict(dict)
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("trace"):
            continue
        metrics = record["result"]["metrics"]
        runs[record["workload"]][int(record["seed"])] = {
            name: m["value"] for name, m in metrics.items()}
    return runs


def spread(values: list[float]) -> tuple[float, float]:
    """(median, inter-quartile range) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q3 - q1


def verdict(parent: list[float], change: list[float], bound: float,
            lower_is_better: bool) -> tuple[str, float]:
    """(cell verdict, median change in percent) for one paired metric."""
    sign = -1.0 if lower_is_better else 1.0
    p_med, p_iqr = spread(parent)
    c_med, c_iqr = spread(change)
    gap = (c_med - p_med) / p_med if p_med else 0.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if (wins >= WIN_SHARE * len(parent) and sign * (c_med - p_med) > 0
            and abs(c_med - p_med) > p_iqr):
        return "gain", 100.0 * gap
    if sign * gap < -bound:
        return "REGRESSED", 100.0 * gap
    noisy = any(med and iqr / abs(med) > bound
                for med, iqr in ((p_med, p_iqr), (c_med, c_iqr)))
    every_better = (min(sign * c for c in change)
                    > max(sign * p for p in parent))
    if noisy and not every_better:
        return "unresolved", 100.0 * gap
    return "ok", 100.0 * gap


def compare(parent_runs, change_runs, bench: dict) -> tuple[list[str], bool]:
    """Rendered rows (header first) and whether any metric regressed."""
    metrics = bench["end_to_end"]
    header = f"{'workload':14s} {'pairs':>5s} " + " ".join(
        f"{m['name']:>22s}" for m in metrics)
    rows, regressed = [header], False
    # The gated workloads first, then any other recorded one (ci_compare).
    names = [w["name"] for w in bench["workloads"]]
    names += sorted((set(parent_runs) | set(change_runs)) - set(names))
    for workload in names:
        seeds = sorted(set(parent_runs.get(workload, {}))
                       & set(change_runs.get(workload, {})))
        if not seeds:
            rows.append(f"{workload:14s} {0:5d}  no paired runs")
            continue
        cells = []
        for m in metrics:
            parent = [parent_runs[workload][s][m["name"]] for s in seeds]
            change = [change_runs[workload][s][m["name"]] for s in seeds]
            label, pct = verdict(parent, change, m["bound"],
                                 m["better"] == "lower")
            regressed |= label == "REGRESSED"
            cells.append(f"{label} {pct:+.1f}%")
        rows.append(f"{workload:14s} {len(seeds):5d} "
                    + " ".join(f"{c:>22s}" for c in cells))
    return rows, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads(BENCH.read_text())
    rows, regressed = compare(load_runs(args.parent), load_runs(args.change),
                              bench)
    print("\n".join(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
