"""Seeded input generators for the three workloads.

Generators depend on numpy only, never on telebell: the program under test
receives the generated inputs and nothing else.  The same seed always gives
the same inputs.  Every stream is cut into blocks of fixed composition, so a
run's mix of operation kinds does not depend on how many blocks fit into the
measured time, and runs on different seeds stay comparable.
"""

from __future__ import annotations

import math

import numpy as np

# oracle: acceptance criterion 1 (tests/test_acceptance.py), one block at a
# time.  A grid of GRID_SIDE betas times GRID_SIDE phis gives the settings
# used both as preparations and as analyzers; every preparation meets every
# analyzer, walked preparation by preparation, so each setting is used
# GRID_SIDE**2 times.  Then RANDOM_PAIRS pairs that share nothing.  Criterion 1
# uses evenly spaced angles; here each block draws its angles from the seed.
GRID_SIDE = 13
RANDOM_PAIRS = 1000

# scan: one grid per run, repeated every operation.  The row count is fixed
# (8 * 8 * 16 * 16 = 16384) so that runs on different seeds do the same work;
# the seed chooses which axis gets which size, and every range.
SCAN_AXES = ("beta", "phi", "beta-prime", "phi-prime")
SCAN_DIMS = (8, 8, 16, 16)

# verdicts: one block holds this many requests of each kind, in seeded order.
# No record of real traffic exists, so the mix gives each kind of verdict the
# same share of the measured time, one swap's worth: a kind's count is the
# median latency of `swap` over the kind's own median latency, rounded.  The
# latencies are medians over twenty 50 s runs of the code before any
# optimisation (2-core x86-64, Python 3.11): swap 222.9 ms, noise-threshold
# 9.36, bell-test 3.86, probs 2.15, teleport-fidelity 2.16, mixture 0.674 ms.
# A change that halves the time of any one kind then moves the workload's
# throughput by about the same amount.  Invalid requests are 2% of the block.
VERDICT_MIX = {
    "bell_test": 58,
    "noise_threshold": 24,
    "probs": 104,
    "teleport_fidelity": 103,
    "swap": 1,
    "mixture": 331,
    "invalid": 12,
}
THRESHOLD = 1.0 / math.sqrt(2.0)
STRATEGY_COUNT = 64

# Requests whose contracted answer is exit 2 and which get it.  The unbounded
# grid (phi=0:1e-300:1e-310) is deliberately absent: it exhausts memory.
INVALID_REQUESTS = (
    ["bell-test", "--visibility", "1.5"],
    ["bell-test", "--visibility", "-0.25"],
    ["bell-test", "--visibility", "nan"],
    ["bell-test", "--visibility", "high"],
    ["probs", "--beta", "abc"],
    ["teleport-fidelity", "--phi", "1e"],
    ["scan", "--grid", "phi=10:0:5"],
    ["scan", "--grid", "phi=0:90:0"],
    ["scan", "--grid", "gamma=0:90:5"],
    ["scan", "--grid", "phi=0:90"],
    ["scan"] + [arg for axis in SCAN_AXES for arg in ("--grid", f"{axis}=0:359:0.5")],
    ["swap", "--verbose"],
    ["entangle"],
)

# Requests that should exit 2 but exit 3 at the time the benchmark was
# written.  They are probed once per verdicts run, outside the timed traffic.
KNOWN_DEFECT_REQUESTS = (
    ["probs", "--beta", "nan"],
    ["probs", "--beta", "inf"],
)


def _angle_deg(rng: np.random.Generator, span: float) -> float:
    return float(rng.uniform(-span, span))


def _number(value: float) -> str:
    """The value's shortest round-trip digits, never in exponent form.

    argparse reads an argument such as ``-1.7e-05`` as an option, not as a
    negative number, and the request would exit 2.
    """
    return np.format_float_positional(value, trim="-")


def oracle_blocks(seed: int):
    """Yield blocks of (beta, phi, beta', phi') tuples, radians, forever."""
    rng = np.random.default_rng([seed, 1])
    while True:
        betas = np.sort(rng.uniform(0.0, np.pi / 2, GRID_SIDE)).tolist()
        phis = np.sort(rng.uniform(-np.pi, np.pi, GRID_SIDE)).tolist()
        settings = [(b, p) for b in betas for p in phis]
        block = [(*prep, *analyzer) for prep in settings for analyzer in settings]
        randoms = np.column_stack(
            [
                rng.uniform(-np.pi, np.pi, RANDOM_PAIRS),
                rng.uniform(-2 * np.pi, 2 * np.pi, RANDOM_PAIRS),
                rng.uniform(-np.pi, np.pi, RANDOM_PAIRS),
                rng.uniform(-2 * np.pi, 2 * np.pi, RANDOM_PAIRS),
            ]
        ).tolist()
        block.extend(tuple(r) for r in randoms)
        yield block


def scan_grid(seed: int) -> dict[str, list[float]]:
    """Axis name -> the grid values, in degrees, exact in binary and in 12 digits.

    Starts are whole degrees and steps multiples of 0.25 degree, so every
    grid value prints exactly and the benchmark can recompute each row.
    """
    rng = np.random.default_rng([seed, 2])
    dims = [int(d) for d in rng.permutation(SCAN_DIMS)]
    grid = {}
    for axis, n in zip(SCAN_AXES, dims):
        start = float(rng.integers(-180, 181))
        step = 0.25 * float(rng.integers(4, 61))
        grid[axis] = [start + i * step for i in range(n)]
    return grid


def scan_argv(grid: dict[str, list[float]], out_path: str) -> list[str]:
    argv = ["scan"]
    for axis, values in grid.items():
        step = values[1] - values[0]
        argv += ["--grid", f"{axis}={values[0]!r}:{values[-1]!r}:{step!r}"]
    return argv + ["--out", out_path]


def _verdict_request(rng: np.random.Generator, kind: str):
    if kind == "bell_test":
        # visibilities stay clear of the 1/sqrt(2) threshold on both sides
        if rng.random() < 0.5:
            v = float(rng.uniform(0.30, 0.68))
        else:
            v = float(rng.uniform(0.74, 1.0))
        return ["bell-test", "--visibility", _number(v)]
    if kind == "noise_threshold":
        return ["noise-threshold"]
    if kind == "probs":
        b, p, bp, pp = (_angle_deg(rng, 180.0) for _ in range(4))
        return [
            "probs", "--beta", _number(b), "--phi", _number(p),
            "--beta-prime", _number(bp), "--phi-prime", _number(pp),
        ]
    if kind == "teleport_fidelity":
        b, p = (_angle_deg(rng, 180.0) for _ in range(2))
        return ["teleport-fidelity", "--beta", _number(b), "--phi", _number(p)]
    if kind == "swap":
        return ["swap"]
    if kind == "mixture":
        size = int(rng.integers(1, STRATEGY_COUNT + 1))
        indices = [int(i) for i in rng.choice(STRATEGY_COUNT, size=size, replace=False)]
        weights = rng.dirichlet(np.ones(size)).tolist()
        return (indices, weights)
    if kind == "invalid":
        return list(INVALID_REQUESTS[int(rng.integers(len(INVALID_REQUESTS)))])
    raise ValueError(f"unknown request kind {kind!r}")


def verdict_warmup(seed: int) -> list[tuple[str, object]]:
    """One request of every kind, for the untimed first operation."""
    rng = np.random.default_rng([seed, 3])
    return [(kind, _verdict_request(rng, kind)) for kind in VERDICT_MIX]


def verdict_blocks(seed: int):
    """Yield blocks of (kind, request) with the VERDICT_MIX composition, forever.

    A CLI request is an argv list; a mixture request is (strategy indices,
    weights) into the 64 strategies in enumeration order.
    """
    rng = np.random.default_rng([seed, 4])
    kinds = [kind for kind, count in VERDICT_MIX.items() for _ in range(count)]
    while True:
        order = rng.permutation(len(kinds))
        yield [(kinds[i], _verdict_request(rng, kinds[i])) for i in order]


def repeat_share(pairs) -> float:
    """Share of (preparation, analyzer) pairs whose preparation or analyzer came earlier.

    An analyzer of None means the operation has none.
    """
    seen_preps, seen_analyzers, repeats = set(), set(), 0
    for prep, analyzer in pairs:
        repeats += prep in seen_preps or (analyzer is not None and analyzer in seen_analyzers)
        seen_preps.add(prep)
        seen_analyzers.add(analyzer)
    return repeats / len(pairs) if pairs else 0.0


def _settings(argv):
    values = tuple(float(x) for x in argv[2::2])
    return values[:2], values[2:] or None


def properties(name: str, seed: int, blocks: int = 2) -> dict:
    """Workload properties measured on the first blocks of the generated inputs."""
    if name == "oracle":
        stream = oracle_blocks(seed)
        pairs = [((b, p), (bp, pp)) for _ in range(blocks) for b, p, bp, pp in next(stream)]
        return {
            "grid": [GRID_SIDE**2, GRID_SIDE**2],
            "random_pairs_per_block": RANDOM_PAIRS,
            "settings_repeat_share": repeat_share(pairs),
        }
    if name == "scan":
        grid = scan_grid(seed)
        rows = [
            ((b, p), (bp, pp))
            for b in grid["beta"] for p in grid["phi"]
            for bp in grid["beta-prime"] for pp in grid["phi-prime"]
        ]
        return {
            "grid": {axis: len(values) for axis, values in grid.items()},
            "rows": len(rows),
            "settings_repeat_share": repeat_share(rows),
        }
    if name == "verdicts":
        stream = verdict_blocks(seed)
        pairs = [
            _settings(request)
            for _ in range(blocks)
            for kind, request in next(stream)
            if kind in ("probs", "teleport_fidelity")
        ]
        return {"mix_per_block": VERDICT_MIX, "settings_repeat_share": repeat_share(pairs)}
    raise ValueError(f"unknown workload {name!r}")
