"""Run generated operations against telebell, time them and check their results.

Each workload turns its seeded inputs into a stream of operations.  Running
an operation times only the calls into telebell; the correctness check that
follows is the benchmark's own code and is not timed.  A wrong result, an
unexpected exit code or an exception marks the operation failed, and the run
goes on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import inputs
from telebell import cli, corrvec, lhv, teleport

ORACLE_TOL = 1e-12  # acceptance criterion 1
PRINT_TOL = 1e-12  # 12 significant digits of a value of magnitude at most 1
SWAP_TOL = 1e-6
TSIRELSON = 2.0 * math.sqrt(2.0)
BELL_LABELS = ("00", "01", "10", "11")

# The quantum super-vector over the standard grid, written out by hand so that
# mixture checks do not rely on the library's own construction.
_R = math.sqrt(0.5)
QUANTUM_SUPER_VECTOR = ((_R, 0.0), (_R, 0.0), (0.0, -_R), (0.0, _R))
# (Alice setting index, Bob setting index) per row of the super-vector
SETTING_INDICES = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass
class Result:
    """One operation: its kind, timed seconds, work items, failure and output size."""

    kind: str
    seconds: float
    items: int
    failure: str | None = None
    output_bytes: int = 0


def call_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run ``cli.main`` in process; return exit code, captured stdout and seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        seconds = perf_counter() - start
    return code, out.getvalue(), seconds


def probs_closed_form(beta, phi, beta_prime, phi_prime) -> list[list[float]]:
    """The eight joint probabilities, from the paper's formula, angles in radians."""
    cc = math.cos(2 * beta) * math.cos(2 * beta_prime)
    ss = math.sin(2 * beta) * math.sin(2 * beta_prime)
    minus, plus = math.cos(phi - phi_prime), math.cos(phi + phi_prime)
    zero = [
        (1 - cc + ss * minus) / 8,
        (1 + cc + ss * plus) / 8,
        (1 + cc - ss * plus) / 8,
        (1 - cc - ss * minus) / 8,
    ]
    return [[p, 0.25 - p] for p in zero]


def correlation(beta, phi, beta_prime, phi_prime) -> tuple[float, float]:
    """sin2b sin2b' (cos phi cos phi', sin phi sin phi'), angles in radians."""
    ss = math.sin(2 * beta) * math.sin(2 * beta_prime)
    return ss * math.cos(phi) * math.cos(phi_prime), ss * math.sin(phi) * math.sin(phi_prime)


def checked(check, *args) -> str | None:
    """Run a result check; output too malformed to check is a failure, not a crash."""
    try:
        return check(*args)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output ({type(exc).__name__})"


class Oracle:
    """Closed form against the Born-rule oracle, one settings pair per operation."""

    name = "oracle"

    def __init__(self, seed: int):
        self._blocks = inputs.oracle_blocks(seed)
        self._first = next(self._blocks)

    def warmup(self) -> None:
        self.run(self._first[0])

    def blocks(self):
        yield self._first[1:]
        yield from self._blocks

    def run(self, op) -> Result:
        beta, phi, beta_prime, phi_prime = op
        try:
            start = perf_counter()
            prep = teleport.PreparationSettings(beta, phi)
            analyzer = teleport.AnalyzerSettings(beta_prime, phi_prime)
            closed = teleport.joint_distribution_closed_form(prep, analyzer)
            simulated = teleport.joint_distribution_simulated(prep, analyzer)
            seconds = perf_counter() - start
        except Exception as exc:  # counted, never fatal
            return Result("pair", 0.0, 1, type(exc).__name__)
        deviation = float(np.max(np.abs(closed.table - simulated.table)))
        if deviation > ORACLE_TOL:
            return Result("pair", seconds, 1, "oracle deviation")
        expected = np.array(probs_closed_form(beta, phi, beta_prime, phi_prime))
        if float(np.max(np.abs(closed.table - expected))) > ORACLE_TOL:
            return Result("pair", seconds, 1, "closed form")
        return Result("pair", seconds, 1)

    def properties(self) -> dict:
        return {}


class Scan:
    """One large ``scan`` over a seeded four-axis grid per operation."""

    name = "scan"
    SAMPLES = 32

    def __init__(self, seed: int, work_dir: str):
        self.grid = inputs.scan_grid(seed)
        self.rows = math.prod(len(v) for v in self.grid.values())
        self._out = os.path.join(work_dir, f"scan-{os.getpid()}.csv")
        self._argv = inputs.scan_argv(self.grid, self._out)
        self._rng = np.random.default_rng([seed, 5])
        self.sha256 = None

    def warmup(self) -> None:
        self.run(None)

    def blocks(self):
        while True:
            yield [None]

    def run(self, op) -> Result:
        try:
            code, _, seconds = call_cli(self._argv)
            if code != 0:
                return Result("scan", seconds, self.rows, f"exit {code}")
            with open(self._out, "rb") as handle:
                data = handle.read()
            os.remove(self._out)
        except Exception as exc:
            return Result("scan", 0.0, self.rows, type(exc).__name__)
        return Result("scan", seconds, self.rows, checked(self._check, data), len(data))

    def _check(self, data: bytes) -> str | None:
        digest = hashlib.sha256(data).hexdigest()
        if self.sha256 is None:
            self.sha256 = digest
        elif digest != self.sha256:
            return "csv differs between iterations"
        lines = data.decode("ascii").split("\n")
        if lines[0] != "beta,phi,beta_prime,phi_prime,E_x,E_y" or lines[-1] != "":
            return "csv header or line ending"
        if len(lines) - 2 != self.rows:
            return "row count"
        axes = list(self.grid.values())
        strides = [math.prod(len(v) for v in axes[k + 1:]) for k in range(4)]
        picks = self._rng.integers(0, self.rows, self.SAMPLES).tolist() + [0, self.rows - 1]
        for row in picks:
            fields = [float(x) for x in lines[row + 1].split(",")]
            expected = [axes[k][(row // strides[k]) % len(axes[k])] for k in range(4)]
            if fields[:4] != expected:
                return "row settings"
            e = correlation(*(math.radians(d) for d in expected))
            if abs(fields[4] - e[0]) > PRINT_TOL or abs(fields[5] - e[1]) > PRINT_TOL:
                return "row correlation"
        return None

    def properties(self) -> dict:
        return {"sha256": self.sha256}


class Verdicts:
    """A closed-loop mix of one-shot requests: CLI verdicts and library mixture checks."""

    name = "verdicts"

    def __init__(self, seed: int):
        self._seed = seed
        self._blocks = inputs.verdict_blocks(seed)
        self._strategies = None

    def warmup(self) -> None:
        self._strategies = lhv.enumerate_strategies()
        for op in inputs.verdict_warmup(self._seed):
            self.run(op)

    def blocks(self):
        return self._blocks

    def run(self, op) -> Result:
        kind, request = op
        try:
            if kind == "mixture":
                seconds, failure = self._mixture(*request)
                return Result(kind, seconds, 1, failure)
            code, text, seconds = call_cli(request)
        except Exception as exc:
            return Result(kind, 0.0, 1, type(exc).__name__)
        expected_code = 2 if kind == "invalid" else 0
        if code != expected_code:
            return Result(kind, seconds, 1, f"exit {code}", len(text))
        failure = None if kind == "invalid" else checked(self._check, kind, request, text)
        return Result(kind, seconds, 1, failure, len(text))

    def _mixture(self, indices, weights) -> tuple[float, str | None]:
        start = perf_counter()
        ensemble = lhv.StrategyEnsemble(
            tuple((self._strategies[i], w) for i, w in zip(indices, weights))
        )
        score = corrvec.super_dot(QUANTUM_SUPER_VECTOR, lhv.ensemble_super_vector(ensemble))
        seconds = perf_counter() - start
        expected = 0.0
        for i, w in zip(indices, weights):
            s = self._strategies[i]
            expected += w * sum(
                s.bob[b] * (q[0] * s.alice[a][0] + q[1] * s.alice[a][1])
                for q, (a, b) in zip(QUANTUM_SUPER_VECTOR, SETTING_INDICES)
            )
        if abs(score - expected) > ORACLE_TOL or abs(score) > math.sqrt(2.0) + ORACLE_TOL:
            return seconds, "mixture score"
        return seconds, None

    def _check(self, kind: str, argv: list[str], text: str) -> str | None:
        payload = json.loads(text)
        if kind == "bell_test":
            v = float(argv[2])
            if payload["violated"] != (v > inputs.THRESHOLD):
                return "verdict"
            if abs(payload["quantum_value"] - 2.0 * v) > 10 * PRINT_TOL:
                return "quantum value"
        elif kind == "noise_threshold":
            if abs(payload["threshold"] - inputs.THRESHOLD) > PRINT_TOL:
                return "threshold"
        elif kind == "probs":
            angles = [math.radians(float(x)) for x in argv[2::2]]
            expected = probs_closed_form(*angles)
            got = payload["probabilities"]
            for row, bell in enumerate(BELL_LABELS):
                for col, bob in enumerate(("0", "1")):
                    if abs(got[bell][bob] - expected[row][col]) > PRINT_TOL:
                        return "probabilities"
        elif kind in ("teleport_fidelity", "swap"):
            outcomes = payload["outcomes"]
            if [outcome["bell"] for outcome in outcomes] != list(BELL_LABELS):
                return "outcomes"
            for outcome in outcomes:
                if abs(outcome["probability"] - 0.25) > PRINT_TOL:
                    return "outcome probability"
                if kind == "teleport_fidelity" and abs(outcome["fidelity"] - 1.0) > PRINT_TOL:
                    return "fidelity"
                if kind == "swap" and abs(outcome["chsh_max"] - TSIRELSON) > SWAP_TOL:
                    return "chsh"
        return None

    def properties(self) -> dict:
        """Probe the known defects once, after the timed traffic."""
        known_defects = {}
        for argv in inputs.KNOWN_DEFECT_REQUESTS:
            code, _, _ = call_cli(argv)
            known_defects[" ".join(argv)] = {"expected_exit": 2, "exit": code}
        return {"known_defects": known_defects}


def make(name: str, seed: int, work_dir: str):
    if name == "oracle":
        return Oracle(seed)
    if name == "scan":
        return Scan(seed, work_dir)
    if name == "verdicts":
        return Verdicts(seed)
    raise ValueError(f"unknown workload {name!r}")
