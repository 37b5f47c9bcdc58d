"""Summarise and compare result sets of the optomem benchmark.

A result set is a JSON-lines file of the records ``run.py`` appends to
``.perfbench/results.jsonl``, one per run.

    python3 perfbench/stats.py summary RESULTS.jsonl
    python3 perfbench/stats.py compare PARENT.jsonl CHANGE.jsonl

``summary`` prints, per (workload, metric), the sample count, the median,
the quartiles and the highest percentile with at least ten samples beyond
it.  ``compare`` pairs the i-th run of a workload in one file with the i-th
in the other (run both sides with the same seeds, alternating which goes
first) and gives each pair of metric and workload a verdict:

* ``better``: the change wins at least 9/10 of the pairs (ties count for
  neither) and its median beats the parent's by more than the parent's
  interquartile spread;
* ``worse``: the median is worse than the parent's by more than the bound
  in BENCHMARK.json; for a metric without a bound, the mirror of
  ``better``.  Any rise in the share of failed operations is worse;
* ``unresolved``: neither, while the parent's spread is wider than the bound
  (or, without a bound, the medians differ by more than that spread), unless
  every change run beats every parent run;
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def metric_specs() -> dict:
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    metrics["error_rate"] = {"name": "error_rate", "unit": "ratio", "better": "lower", "bound": 0.0}
    return metrics


def load(path: Path) -> dict:
    """(workload, metric) -> values in file order."""
    values = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        result = record["result"]
        if record["trace"] == 0:
            values[record["workload"], "error_rate"].append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values[record["workload"], name].append(metric["value"])
    return values


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    for p in PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= 10:
            return f"p{p:g}={percentile(values, p):.6g}"
    return "-"


def verdict(parent: list[float], change: list[float], spec: dict) -> str:
    sign = 1.0 if spec["better"] == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    med_p = statistics.median(parent)
    gap = sign * (statistics.median(change) - med_p)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    if wins >= 0.9 * len(pairs) and gap > spread:
        return "better"
    bound = spec.get("bound")
    if bound is not None:
        if -gap > bound * abs(med_p):
            return "worse"
        wide = spread > bound * abs(med_p)
    else:
        if losses >= 0.9 * len(pairs) and -gap > spread:
            return "worse"
        wide = abs(gap) > spread
    if wide and not min(sign * c for c in change) > max(sign * p for p in parent):
        return "unresolved"
    return "unchanged"


def summary(args: argparse.Namespace) -> int:
    values = load(args.results)
    specs = metric_specs()
    print(f"{'workload':10s} {'metric':26s} {'unit':6s} {'n':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s}  tail")
    for (workload, name), vals in sorted(values.items()):
        q1, q3 = quartiles(vals)
        unit = specs.get(name, {}).get("unit", "")
        print(f"{workload:10s} {name:26s} {unit:6s} {len(vals):3d} {statistics.median(vals):12.6g} "
              f"{q1:12.6g} {q3:12.6g}  {tail(vals)}")
    return 0


def compare(args: argparse.Namespace) -> int:
    parent, change = load(args.parent), load(args.change)
    specs = metric_specs()
    counts = defaultdict(int)
    print(f"{'workload':10s} {'metric':26s} {'pairs':>5s} {'parent':>12s} {'change':>12s} "
          f"{'parent_iqr':>12s}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        n = min(len(parent[key]), len(change[key]))
        p_vals, c_vals = parent[key][:n], change[key][:n]
        result = verdict(p_vals, c_vals, specs[name])
        counts[result] += 1
        q1, q3 = quartiles(p_vals)
        print(f"{workload:10s} {name:26s} {n:5d} {statistics.median(p_vals):12.6g} "
              f"{statistics.median(c_vals):12.6g} {q3 - q1:12.6g}  {result}")
    print("# " + ", ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="optomem benchmark result sets")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("summary", help="median, quartiles and tail per metric and workload")
    p.add_argument("results", type=Path)
    p.set_defaults(func=summary)
    p = sub.add_parser("compare", help="verdict per metric and workload, parent vs change")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.set_defaults(func=compare)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
