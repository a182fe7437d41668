"""Run one workload in this fresh process and print its measurements as JSON.

Started by ``run.py``, never by hand.  The child imports telebell from the
``src`` directory of the checkout it sits in, runs the untimed first
operation, prints ``ready``, then measures.  With ``--setup-only`` it stops
at ``ready``: the parent times how long that takes.  Its last line of
output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import telebell  # noqa: E402

if not Path(telebell.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"telebell imported from {telebell.__file__}, not from {ROOT / 'src'}")

import inputs  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Blocks traced per workload: fixed, so that call counts repeat exactly.
TRACE_BLOCKS = {"oracle": 1, "scan": 4, "verdicts": 2}


class Tally:
    """Latencies, work items, failures and output bytes of a run's operations."""

    def __init__(self):
        self.latency: dict[str, array] = {}
        self.items = 0
        self.seconds = 0.0
        self.failures: Counter = Counter()
        self.output_bytes = 0

    def add(self, result: workloads.Result) -> None:
        self.latency.setdefault(result.kind, array("d")).append(result.seconds)
        self.items += result.items
        self.seconds += result.seconds
        self.output_bytes += result.output_bytes
        if result.failure:
            self.failures[f"{result.kind}: {result.failure}"] += 1

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.latency.values())


def run_blocks(workload, blocks, tally: Tally, deadline: float | None = None, count: int | None = None):
    """Run whole blocks until the deadline passes or ``count`` blocks are done."""
    done = 0
    for block in blocks:
        for op in block:
            tally.add(workload.run(op))
        done += 1
        if (count is not None and done >= count) or (deadline is not None and perf_counter() >= deadline):
            return


def timed(workload, seed: int, seconds: float) -> dict:
    tally = Tally()
    run_blocks(workload, workload.blocks(), tally, deadline=perf_counter() + seconds)
    all_ms = np.concatenate([np.frombuffer(v) for v in tally.latency.values()]) * 1e3
    p50, p90 = np.percentile(all_ms, [50, 90])
    detail = {"op_p50_ms": float(p50), "op_p90_ms": float(p90)}
    if workload.name == "verdicts":
        for kind, values in sorted(tally.latency.items()):
            if kind != "invalid":
                detail[f"{kind}_ms"] = float(np.median(values)) * 1e3
    return {
        "attempted": tally.attempted,
        "failed": sum(tally.failures.values()),
        "failures": dict(tally.failures),
        "metrics": {
            "items_per_s": tally.items / tally.seconds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "detail": detail,
        "properties": {
            **inputs.properties(workload.name, seed),
            **workload.properties(),
            "requests": {kind: len(v) for kind, v in sorted(tally.latency.items())},
            "output_bytes": tally.output_bytes,
            "measured_s": tally.seconds,
        },
    }


def traced(workload, seconds: float, spans_path: str | None) -> dict:
    """Alternate traced and untraced blocks, a fixed number of each, then fill the time.

    The fixed count makes call counts repeat exactly for a seed; alternating
    makes the overhead ratio compare blocks run at nearly the same time.
    """
    deadline = perf_counter() + seconds
    blocks = workload.blocks()
    traced_tally, untraced_tally, filler = Tally(), Tally(), Tally()
    tracer = Tracer()
    for _ in range(TRACE_BLOCKS[workload.name]):
        with tracer:
            for op in next(blocks):
                traced_tally.add(workload.run(op))
                tracer.request += 1
        run_blocks(workload, blocks, untraced_tally, count=1)
    run_blocks(workload, blocks, filler, deadline=deadline)
    if spans_path:
        tracer.write(spans_path)
    metrics = tracer.layer_metrics()
    metrics["cli.output_bytes"] = traced_tally.output_bytes
    per_op = traced_tally.seconds / traced_tally.attempted
    metrics["trace.overhead_ratio"] = per_op / (untraced_tally.seconds / untraced_tally.attempted)
    failures = traced_tally.failures + untraced_tally.failures + filler.failures
    return {
        "attempted": traced_tally.attempted + untraced_tally.attempted + filler.attempted,
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "metrics": metrics,
        "properties": {"traced_ops": traced_tally.attempted, "untraced_ops": untraced_tally.attempted},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    workload = workloads.make(args.workload, args.seed, args.work_dir)
    workload.warmup()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced(workload, args.seconds, args.spans)
    else:
        result = timed(workload, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
