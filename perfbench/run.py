"""telebell benchmark: run workloads in fresh child processes and report metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oracle --seed 3 --seconds 60 --trace 0
    python3 perfbench/run.py --seed 3            # every workload, one after another
    python3 perfbench/run.py --seed 3 --trace 1  # the traced run: per-layer metrics

Each workload runs in its own child process (``child.py``) with BLAS threads
pinned to 1.  Load is one closed-loop client: each operation starts when the
previous one has returned.  The untraced run reports the end-to-end metrics
named in BENCHMARK.json, the traced run its per-layer metrics.  Every metric
is printed by name with its unit, the full result is written to ``--out``,
and the last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5  # fresh interpreters timed to ready; the measured child is the last
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED="0", **PINNED_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def start_child(workload: str, seed: int, seconds: float, trace: int, *extra: str):
    """Start a child, wait for its ``ready`` line; return the process and seconds to ready."""
    argv = [
        sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--work-dir", str(WORK_DIR), *extra,
    ]
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        if line != "ready\n":
            raise RuntimeError(f"{workload} child did not get ready (exit {proc.wait(60)})")
    except BaseException:
        stop(proc)
        raise
    return proc, ready


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_workload(workload: str, seed: int, seconds: float, trace: int, spans: str | None) -> dict:
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready = start_child(workload, seed, 0, 0, "--setup-only")
            try:
                proc.communicate(timeout=60)
            finally:
                stop(proc)
            setup.append(ready)
    proc, ready = start_child(workload, seed, seconds, trace, *(["--spans", spans] if spans else []))
    try:
        out, _ = proc.communicate(timeout=seconds + 120)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not trace:
        setup.append(ready)
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["properties"]["setup_samples_s"] = setup
    return result


def environment(seed: int, seconds: float, trace: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": PINNED_THREADS,
        "git_commit": commit,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "telebell" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no BENCHMARK.json or no src/telebell to benchmark", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description="Run the telebell benchmark.")
    parser.add_argument(
        "--workload", choices=names + ["scan"], help="one workload; default: all in BENCHMARK.json"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file; default under .perfbench/results")
    args = parser.parse_args(argv)

    selected = [args.workload] if args.workload else names
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    label = args.workload or "all"
    out = Path(args.out) if args.out else WORK_DIR / "results" / f"{label}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    WORK_DIR.mkdir(exist_ok=True)

    results = {}
    for name in selected:
        spans = str(out.with_suffix(f".{name}.spans.jsonl")) if args.trace else None
        result = run_workload(name, args.seed, args.seconds, args.trace, spans)
        missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
        if missing:
            raise RuntimeError(f"{name} did not measure {missing}")
        result["fail_ratio"] = result["failed"] / result["attempted"]
        results[name] = result
        for m in wanted:
            print(f"{name:9} {m['name']:48} {result['metrics'][m['name']]:>14.6g} {m['unit']}")
        for key, value in result.get("detail", {}).items():
            print(f"{name:9} {key:48} {value:>14.6g} ms")
        print(f"{name:9} {'fail_ratio':48} {result['fail_ratio']:>14.6g}")
        for key, value in result["properties"].items():
            print(f"{name:9} {key:48} {json.dumps(value)}")
        for key, count in result["failures"].items():
            print(f"{name:9} FAILED {key}: {count}")

    record = {"env": environment(args.seed, args.seconds, args.trace), "workloads": results}
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"result written to {out}")

    def metric(result: dict, m: dict) -> dict:
        return {"value": result["metrics"][m["name"]], "unit": m["unit"]}

    failed = sum(r["failed"] for r in results.values())
    if args.workload:
        metrics = {m["name"]: metric(results[args.workload], m) for m in wanted}
    else:
        metrics = {f"{n}/{m['name']}": metric(r, m) for n, r in results.items() for m in wanted}
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
