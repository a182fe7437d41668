"""Byte-for-byte pins of the CLI output: stdout and exit code per invocation.

``tests/data/cli_golden.json`` holds a list of ``{"argv", "exit", "stdout"}``
records.  Regenerate it only for an intended change of the output contract:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os

import numpy as np
import pytest

from telebell import cli

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")

# The determinism and acceptance argv lists, a CSV and a small scan; the
# seeded requests below add angles of both signs and near the +-36000 limit.
FIXED_ARGV = [
    ["probs", "--beta", "33", "--phi", "71", "--beta-prime", "58", "--phi-prime", "-12"],
    ["probs", "--beta", "33", "--phi", "71", "--format", "csv"],
    ["probs", "--beta", "12", "--phi", "-30", "--format", "csv"],
    ["probs", "--format", "csv"],
    ["probs"],
    ["bell-test", "--visibility", "0.9"],
    ["bell-test"],
    ["scan", "--grid", "phi=0:90:30", "--grid", "phi-prime=-45:45:45"],
    ["scan", "--grid", "phi=0:90:90", "--grid", "phi-prime=-45:45:90"],
    ["scan", "--beta", "-20", "--grid", "beta-prime=-36000:-35990:2.5", "--grid", "phi=0:180:60"],
    ["swap"],
    ["noise-threshold"],
    ["teleport-fidelity", "--beta", "30", "--phi", "77"],
    ["teleport-fidelity"],
    ["probs", "--beta", "-0", "--phi", "-0.0", "--beta-prime", "90", "--phi-prime", "180"],
    ["probs", "--beta", "90", "--beta-prime", "90"],
    ["probs", "--beta", "1e-3", "--phi=-1e-3", "--format", "csv"],
    ["teleport-fidelity", "--beta", "0", "--phi", "-180"],
    ["bell-test", "--visibility", "0.5"],
]


def seeded_argv(seed: int = 20261018) -> list[list[str]]:
    rng = np.random.default_rng(seed)

    def angle(limit: float) -> str:
        return repr(round(float(rng.uniform(-limit, limit)), int(rng.integers(0, 7))))

    def near_limit() -> str:
        return repr(round(float(rng.choice([-1, 1]) * (36000 - rng.uniform(0, 2))), 3))

    argv = []
    for _ in range(12):
        values = [angle(360.0) for _ in range(4)]
        argv.append(["probs", "--beta", values[0], "--phi", values[1],
                     "--beta-prime", values[2], "--phi-prime", values[3]])
    for _ in range(4):
        argv.append(["probs", *(f"{option}={near_limit()}" for option in
                                ("--beta", "--phi", "--beta-prime", "--phi-prime"))])
    argv.append(["probs", "--beta=-36000", "--phi=36000", "--beta-prime=-36000", "--phi-prime=0"])
    for _ in range(10):
        argv.append(["teleport-fidelity", "--beta", angle(720.0), "--phi", angle(720.0)])
    argv.append(["teleport-fidelity", f"--beta={near_limit()}", f"--phi={near_limit()}"])
    for _ in range(10):
        argv.append(["bell-test", "--visibility", repr(round(float(rng.uniform(0, 1)), 9))])
    argv += [["bell-test", "--visibility", v] for v in ("0", "1", "0.7071067811865476")]
    return argv


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def load_golden() -> list[dict]:
    with open(GOLDEN_PATH, encoding="ascii") as handle:
        return json.load(handle)


GOLDEN = load_golden() if os.path.exists(GOLDEN_PATH) else []


@pytest.mark.parametrize("record", GOLDEN, ids=[" ".join(r["argv"]) for r in GOLDEN])
def test_output_matches_golden(record):
    code, out = run(record["argv"])
    assert code == record["exit"]
    assert out.encode() == record["stdout"].encode()


def test_golden_covers_the_fixed_and_seeded_argv():
    assert [r["argv"] for r in GOLDEN] == FIXED_ARGV + seeded_argv()


if __name__ == "__main__":
    records = []
    for argv in FIXED_ARGV + seeded_argv():
        code, out = run(argv)
        records.append({"argv": argv, "exit": code, "stdout": out})
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="ascii") as handle:
        json.dump(records, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(records)} records to {GOLDEN_PATH}")
