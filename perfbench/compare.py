"""Compare two result sets of the telebell benchmark.

Usage, from the root of a checkout:

    python3 perfbench/compare.py BASE CHANGE   # verdict per workload and metric
    python3 perfbench/compare.py RESULTS       # one set: median, quartiles, spread

BASE, CHANGE and RESULTS are result files written by ``run.py``, files that
hold a list of them under ``"runs"``, or directories of such files.  Runs are
paired in seed order.  For every workload and metric the verdict is:

- improved: the change wins at least nine tenths of the pairs (ties count for
  neither side) and the medians differ by more than the base's quartile
  distance, and the change fails no more operations than the base;
- unresolved: the spread (quartile distance over median) of either side
  exceeds the metric's bound, and not every change run beats every base run;
- regressed: the change's median is worse than the base's by more than the
  bound;
- unchanged: anything else.

The exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Each result's "detail" holds latencies in ms beside the end-to-end metrics of
# BENCHMARK.json, such as the median latency of each verdicts request kind.
# All are compared with this one bound.
DETAIL_BOUND = 0.25


def load(path: Path) -> list[dict]:
    """Every run record under a path, each {"env": ..., "workloads": ...}."""
    if path.is_dir():
        return [run for child in sorted(path.glob("*.json")) for run in load(child)]
    data = json.loads(path.read_text(encoding="utf-8"))
    return data["runs"] if "runs" in data else [data]


def series(runs: list[dict], workload: str, metric: str) -> list[float]:
    """The metric's values for one workload, in seed order, untraced runs only."""
    picked = [
        (run["env"]["seed"], source[metric])
        for run in runs
        if not run["env"]["trace"] and workload in run["workloads"]
        for source in (run["workloads"][workload]["metrics"], run["workloads"][workload].get("detail", {}))
        if metric in source
    ]
    return [value for _, value in sorted(picked, key=lambda p: p[0])]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median)


def verdict(base: list[float], change: list[float], better: str, bound: float, more_failures: bool) -> str:
    sign = 1.0 if better == "higher" else -1.0
    q1, base_median, q3 = quartiles(base)
    change_median = quartiles(change)[1]
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    if wins >= 0.9 * len(pairs) and sign * (change_median - base_median) > q3 - q1 and not more_failures:
        return "improved"
    if max(spread(base), spread(change)) > bound:
        all_better = all(sign * (c - b) > 0 for b in base for c in change)
        return "unchanged" if all_better else "unresolved"
    if sign * (base_median - change_median) / abs(base_median) > bound:
        return "regressed"
    return "unchanged"


def metric_specs(sets: list[list[dict]]) -> tuple[list[str], list[dict]]:
    """Workloads and metrics to compare: those of BENCHMARK.json, then every detail key."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seen = {w for runs in sets for run in runs for w in run["workloads"]}
    details = {
        name
        for runs in sets
        for run in runs
        for result in run["workloads"].values()
        for name in result.get("detail", {})
    }
    detail_specs = [{"name": n, "unit": "ms", "better": "lower", "bound": DETAIL_BOUND} for n in sorted(details)]
    return workloads + sorted(seen - set(workloads)), spec["end_to_end"] + detail_specs


def fmt(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:12.6g} [{q1:.6g}, {q3:.6g}]"


def failures(runs: list[dict], workload: str) -> int:
    return sum(
        run["workloads"][workload]["failed"] for run in runs if workload in run["workloads"]
    )


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(Path(arg)) for arg in argv]
    workloads, metrics = metric_specs(sets)
    regressed = False
    for workload in workloads:
        for m in metrics:
            values = [series(runs, workload, m["name"]) for runs in sets]
            if not all(values):
                continue
            head = f"{workload:9} {m['name']:20} {m['unit']:4}"
            if len(sets) == 1:
                s = spread(values[0])
                print(f"{head} n={len(values[0]):<3} {fmt(values[0])}  spread {s:.4f} bound {m['bound']}")
                continue
            more_failures = failures(sets[1], workload) > failures(sets[0], workload)
            v = verdict(values[0], values[1], m["better"], m["bound"], more_failures)
            regressed |= v == "regressed"
            print(f"{head} base {fmt(values[0])}  change {fmt(values[1])}  {v}")
        counts = [f"{failures(runs, workload)}" for runs in sets]
        print(f"{workload:9} failed operations: {' / '.join(counts)}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
