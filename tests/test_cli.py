"""Tests for the command-line front end: values, determinism, exit codes."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import resource
import subprocess
import sys
from types import SimpleNamespace
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telebell import cli
from telebell.lhv import BellTestReport, DeterministicStrategy
from telebell.schema import SCHEMA_VERSION, available_schemas, load_schema
from telebell.teleport import BELL_OUTCOMES, BOB_OUTCOMES

SQRT_HALF = math.sqrt(0.5)
ANGLE_OPTIONS = ("--beta", "--phi", "--beta-prime", "--phi-prime")
ADDRESS_SPACE_CAP = 1 << 30
# A grid axis of 999,998 points: inside both the per-axis row limit and
# the angle limit, so only the product of the axes can refuse it.
BIG_AXIS_STOP, BIG_AXIS_STEP = "35999.9", "0.036"


def round_floats(obj):
    """Reference rounding: every float fixed at 12 significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(cli._fmt(float(obj)))
    if isinstance(obj, dict):
        return {key: round_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(value) for value in obj]
    return obj


def probs_formula(beta, phi, beta_prime, phi_prime):
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


def reference_render(payload):
    return json.dumps(round_floats(payload), indent=2) + "\n"


# subnormals, integral values, the exponents where the 12-digit form and
# repr pick different notations, and the non-finite
BOUNDARY_FLOATS = (
    5e-324, 2.2250738585e-313, 1e11, 1e12, 123456789012.5, 9.99999999999e15, 1e16, 1e22,
    2.0, -0.0, 1e-5, 1.5e-7, math.nan, math.inf, -math.inf,
)

# Every value a layout's slot can take: floats, numpy float64, bools and ints.
SLOT_VALUES = (
    st.floats() | st.floats().map(np.float64) | st.booleans() | st.integers(-(2**70), 2**70)
)
ONE_SLOT_LAYOUT = cli._layout({"value": cli._SLOT})


def run_capped(argv):
    """Run the CLI in a child whose address space is capped at ``ADDRESS_SPACE_CAP``.

    The cap turns an attempt to build oversize grid points into a
    MemoryError in the child instead of exhausting the machine.
    """

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

    return subprocess.run(
        [sys.executable, "-m", "telebell", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=cap_address_space,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProbs:
    def test_matched_quarter_settings_json(self, capsys):
        code, out, _ = run_cli(
            ["probs", "--beta", "45", "--phi", "0", "--beta-prime", "45", "--phi-prime", "0"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["probabilities"]["00"]["0"] == pytest.approx(0.25, abs=1e-12)
        assert payload["probabilities"]["10"]["1"] == pytest.approx(0.25, abs=1e-12)
        assert payload["probabilities"]["11"]["0"] == pytest.approx(0.0, abs=1e-12)
        assert payload["checks"]["oracle_deviation"] <= 1e-12

    def test_degenerate_beta_ignores_phi(self, capsys):
        _, out_a, _ = run_cli(["probs", "--beta", "0", "--phi", "10"], capsys)
        _, out_b, _ = run_cli(["probs", "--beta", "0", "--phi", "170"], capsys)
        a = json.loads(out_a)["probabilities"]
        b = json.loads(out_b)["probabilities"]
        assert a == b

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(["probs", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["bell", "bob", "probability"]
        assert len(rows) == 9
        total = sum(float(row[2]) for row in rows[1:])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_malformed_angle_exits_2_without_stdout(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["probs", "--beta", "not-a-number"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err != ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("option", ANGLE_OPTIONS)
    def test_non_finite_angle_exits_2(self, option, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["probs", f"{option}={value}"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    @pytest.mark.parametrize("value", ["1e300", "-1e300", "36000.5", "-36001"])
    @pytest.mark.parametrize("option", ANGLE_OPTIONS)
    def test_huge_angle_exits_2(self, option, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["probs", f"{option}={value}"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "degrees" in captured.err

    @pytest.mark.parametrize(
        "angles", [(-36000, 35999.3, -35912.77, 36000), (35987.1, -36000, 1e-3, -35999.9)]
    )
    def test_angles_near_the_limit_keep_the_contract(self, angles, capsys):
        # reference: the formula at each angle reduced mod 360 degrees first,
        # which is exact for floats; the CLI reduces after converting to radians
        argv = ["probs"]
        for option, value in zip(ANGLE_OPTIONS, angles):
            argv.append(f"{option}={value!r}")
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        reference = probs_formula(*(math.radians(math.fmod(a, 360.0)) for a in angles))
        for row, bell in enumerate(("00", "01", "10", "11")):
            for col, bob in enumerate(("0", "1")):
                assert abs(payload["probabilities"][bell][bob] - reference[row][col]) <= 1e-12

    @pytest.mark.parametrize("value", ["-1e-05", "-.5", "-3E+2"])
    @pytest.mark.parametrize("option", ANGLE_OPTIONS)
    def test_exponent_form_negative_value(self, option, value, capsys):
        # a separate negative value reads as a number in every form, as the
        # attached one always did
        code_a, out_a, _ = run_cli(["probs", option, value], capsys)
        code_b, out_b, _ = run_cli(["probs", f"{option}={value}"], capsys)
        assert code_a == code_b == 0
        assert out_a.encode() == out_b.encode()

    def test_out_unwritable_path_exits_2(self, tmp_path, capsys):
        code, out, err = run_cli(["probs", "--out", str(tmp_path / "missing" / "x.json")], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "probs.json"
        code, out, _ = run_cli(["probs", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["command"] == "probs"


class TestBellTest:
    def test_default_run(self, capsys):
        code, out, _ = run_cli(["bell-test"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["violated"] is True
        assert payload["quantum_value"] == pytest.approx(2.0, abs=1e-9)
        assert payload["violation_ratio"] == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert payload["margin"] == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-9)
        assert payload["optimal_strategy"]["bob"]["-45"] in (-1, 1)

    def test_low_visibility_not_violated(self, capsys):
        code, out, _ = run_cli(["bell-test", "--visibility", "0.65"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["violated"] is False
        assert payload["quantum_value"] == pytest.approx(1.3, abs=1e-9)

    def test_visibility_out_of_range_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["bell-test", "--visibility", "1.5"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1.50", "visibility must lie in [0, 1], got '1.50'"),
            ("nan", "visibility must lie in [0, 1], got 'nan'"),
            ("-0.1", "visibility must lie in [0, 1], got '-0.1'"),
            ("abc", "invalid _visibility_arg value: 'abc'"),
        ],
    )
    def test_visibility_messages(self, text, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["bell-test", f"--visibility={text}"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestScan:
    def test_standard_grid_reproduces_super_vector(self, capsys):
        code, out, _ = run_cli(
            ["scan", "--grid", "phi=0:90:90", "--grid", "phi-prime=-45:45:90"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["beta", "phi", "beta_prime", "phi_prime", "E_x", "E_y"]
        values = [(float(r[4]), float(r[5])) for r in rows[1:]]
        expected = [(SQRT_HALF, 0.0), (SQRT_HALF, 0.0), (0.0, -SQRT_HALF), (0.0, SQRT_HALF)]
        assert len(values) == 4
        for got, want in zip(values, expected):
            assert got[0] == pytest.approx(want[0], abs=1e-9)
            assert got[1] == pytest.approx(want[1], abs=1e-9)

    def test_single_point_grid(self, capsys):
        code, out, _ = run_cli(["scan"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2

    def test_row_count_is_axis_product(self, capsys):
        code, out, _ = run_cli(
            ["scan", "--grid", "beta=0:90:30", "--grid", "phi=0:180:60"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) - 1 == 4 * 4

    def test_last_spec_per_axis_wins(self, capsys):
        code, out, _ = run_cli(
            ["scan", "--grid", "phi=0:90:30", "--grid", "beta=0:90:45", "--grid", "phi=10:20:10"],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [(r[0], r[1]) for r in rows] == [
            (beta, phi) for beta in ("0", "45", "90") for phi in ("10", "20")
        ]

    def test_lexicographic_row_order(self, capsys):
        _, out, _ = run_cli(["scan", "--grid", "beta=0:90:45", "--grid", "phi=0:90:90"], capsys)
        rows = list(csv.reader(io.StringIO(out)))[1:]
        keys = [(float(r[0]), float(r[1])) for r in rows]
        assert keys == sorted(keys)

    def test_oversize_grid_exits_2(self, capsys):
        code, _, err = run_cli(
            [
                "scan",
                "--grid", "beta=0:90:0.01",
                "--grid", "phi=0:90:0.01",
            ],
            capsys,
        )
        assert code == 2
        assert "row limit" in err

    @pytest.mark.parametrize("grid", ["phi=0:1e-300:1e-310", "phi=0:1e300:1e-300"])
    def test_unbounded_grid_exits_2_before_building(self, grid):
        result = run_capped(["scan", "--grid", grid])
        assert result.returncode == 2
        assert result.stdout == ""
        assert "row limit" in result.stderr
        assert "Traceback" not in result.stderr

    def test_repeated_axis_exits_2_before_building(self):
        # Every occurrence of an axis is within the per-axis limit, and 31
        # such axes of ~1e6 points hold more than the capped address space.
        big_phi = ["--grid", f"phi=0:{BIG_AXIS_STOP}:{BIG_AXIS_STEP}"]
        big_beta = ["--grid", f"beta=0:{BIG_AXIS_STOP}:{BIG_AXIS_STEP}"]
        result = run_capped(["scan", *big_phi * 30, *big_beta])
        assert result.returncode == 2
        assert result.stdout == ""
        assert "row limit" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "grid", ["phi=1e300:1e300:1", "beta=-36000.5:0:36000", "phi-prime=0:36001:36001"]
    )
    def test_huge_grid_range_exits_2(self, grid, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["scan", "--grid", grid])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "degrees" in captured.err

    def test_malformed_grid_exits_2(self, capsys):
        for bad in ("beta", "beta=1:2", "gamma=0:1:1", "beta=0:1:0", "beta=a:b:c"):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(["scan", "--grid", bad])
            assert excinfo.value.code == 2
            capsys.readouterr()


class TestSwapCommand:
    def test_payload(self, capsys):
        code, out, _ = run_cli(["swap"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["outcomes"]) == 4
        for entry in payload["outcomes"]:
            assert entry["probability"] == pytest.approx(0.25, abs=1e-9)
            assert entry["reduced_purity"] == pytest.approx(0.5, abs=1e-9)
            assert entry["chsh_max"] == pytest.approx(2.828427, abs=1e-5)


class TestNoiseThreshold:
    def test_payload(self, capsys):
        code, out, _ = run_cli(["noise-threshold"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["threshold"] == pytest.approx(1 / math.sqrt(2.0), abs=1e-9)
        assert payload["bracket"]["below"]["violated"] is False
        assert payload["bracket"]["above"]["violated"] is True


class TestTeleportFidelity:
    def test_payload(self, capsys):
        code, out, _ = run_cli(["teleport-fidelity", "--beta", "30", "--phi", "77"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["outcomes"]) == 4
        for entry in payload["outcomes"]:
            assert entry["probability"] == pytest.approx(0.25, abs=1e-9)
            assert entry["fidelity"] == pytest.approx(1.0, abs=1e-9)


class TestExitCodes:
    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2

    def test_invariant_breach_exits_3(self, capsys, monkeypatch):
        from telebell.teleport import joint_distribution_closed_form, JointDistribution

        def skewed(prep, analyzer):
            table = joint_distribution_closed_form(prep, analyzer).table.copy()
            # at the default settings both entries hold 0.25
            table[0, 0] += 1e-9
            table[1, 0] -= 1e-9
            return JointDistribution(table)

        monkeypatch.setattr(cli, "joint_distribution_simulated", skewed)
        code, out, err = run_cli(["probs"], capsys)
        assert code == 3
        assert out == ""
        assert "oracle_deviation" in err

    def test_nan_check_residual_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "super_norm_sq", lambda v: math.nan)
        code, out, err = run_cli(["noise-threshold"], capsys)
        assert code == 3
        assert out == ""
        assert "threshold_equation_residual = nan" in err

    # The stand-ins below put a NaN last among the values that a check
    # residual reduces over: Python's max keeps a NaN only in first place.

    def test_last_nan_oracle_residual_exits_3(self, capsys, monkeypatch):
        simulated = cli.joint_distribution_simulated

        def nan_last(prep, analyzer):
            table = simulated(prep, analyzer).table.copy()
            table[-1, -1] = math.nan
            return SimpleNamespace(table=table)

        monkeypatch.setattr(cli, "joint_distribution_simulated", nan_last)
        code, out, err = run_cli(["probs"], capsys)
        assert (code, out) == (3, "")
        assert "oracle_deviation = nan" in err

    def test_last_nan_purity_residual_exits_3(self, capsys, monkeypatch):
        purities = iter([0.5, 0.5, 0.5, math.nan])
        monkeypatch.setattr(cli, "reduced_purity", lambda state, label: next(purities))
        code, out, err = run_cli(["swap"], capsys)
        assert (code, out) == (3, "")
        assert "purity_deviation = nan" in err

    def test_last_nan_chsh_residual_exits_3(self, capsys, monkeypatch):
        run_swap = cli.run_swap

        def nan_last():
            report = run_swap()
            chsh = {**report.chsh_values, BELL_OUTCOMES[-1]: math.nan}
            return dataclasses.replace(report, chsh_values=chsh)

        monkeypatch.setattr(cli, "run_swap", nan_last)
        code, out, err = run_cli(["swap"], capsys)
        assert (code, out) == (3, "")
        assert "tsirelson_excess = nan" in err

    def test_last_nan_fidelity_residual_exits_3(self, capsys, monkeypatch):
        run_full_teleportation = cli.run_full_teleportation

        def nan_last(prep):
            *results, (outcome, p, _) = run_full_teleportation(prep)
            return [*results, (outcome, p, math.nan)]

        monkeypatch.setattr(cli, "run_full_teleportation", nan_last)
        code, out, err = run_cli(["teleport-fidelity"], capsys)
        assert (code, out) == (3, "")
        assert "fidelity_deviation = nan" in err


SUBCOMMANDS = {
    "probs": ["probs", "--beta", "33", "--phi", "71", "--beta-prime", "58", "--phi-prime", "-12"],
    "probs_csv": ["probs", "--beta", "33", "--phi", "71", "--format", "csv"],
    "bell_test": ["bell-test", "--visibility", "0.9"],
    "scan": ["scan", "--grid", "phi=0:90:30", "--grid", "phi-prime=-45:45:45"],
    "swap": ["swap"],
    "noise_threshold": ["noise-threshold"],
    "teleport_fidelity": ["teleport-fidelity", "--beta", "30", "--phi", "77"],
}


class TestRenderJson:
    """One slot's value renders as ``json.dumps`` renders it, floats at 12 digits."""

    def test_payload_edge_cases(self):
        for value in (*BOUNDARY_FLOATS, np.float64(-1e-300), True, False, 0, -7, 2**64):
            payload = {"value": value}
            assert cli._fill(ONE_SLOT_LAYOUT, (value,)) == reference_render(payload)

    @settings(derandomize=True, max_examples=500)
    @given(SLOT_VALUES)
    def test_matches_reference(self, value):
        payload = {"value": value}
        assert cli._fill(ONE_SLOT_LAYOUT, (value,)) == reference_render(payload)

    def test_rejects_unknown_type(self):
        for value in (object(), "text", np.int64(1), None, np.float32(0.5)):
            with pytest.raises(TypeError):
                cli._fill(ONE_SLOT_LAYOUT, (value,))


# The payload builders of the per-request renderer that the layouts
# replaced, kept as the reference: each builds the dict whose
# ``reference_render`` a layout filled from the same results must equal.


def probs_payload(args, entries, checks):
    return {
        "schema": SCHEMA_VERSION,
        "command": "probs",
        "settings": {
            "beta_deg": args.beta,
            "phi_deg": args.phi,
            "beta_prime_deg": args.beta_prime,
            "phi_prime_deg": args.phi_prime,
        },
        "probabilities": {
            bell: dict(zip(BOB_OUTCOMES, entries[2 * i : 2 * i + 2]))
            for i, bell in enumerate(BELL_OUTCOMES)
        },
        "checks": checks,
    }


def strategy_payload(strategy):
    return {
        "bob": {"-45": strategy.bob[0], "45": strategy.bob[1]},
        "alice": {"0": list(strategy.alice[0]), "90": list(strategy.alice[1])},
    }


def bell_test_payload(args, report, checks):
    return {
        "schema": SCHEMA_VERSION,
        "command": "bell_test",
        "visibility": args.visibility,
        "quantum_value": report.quantum_value,
        "lhv_upper_bound": report.lhv_upper_bound,
        "lhv_lower_bound": report.lhv_lower_bound,
        "violated": report.violated,
        "violation_ratio": report.violation_ratio,
        "margin": report.quantum_value - report.lhv_upper_bound,
        "optimal_strategy": strategy_payload(report.optimal_strategy),
        "checks": checks,
    }


def swap_payload(report, purities, checks):
    return {
        "schema": SCHEMA_VERSION,
        "command": "swap",
        "outcomes": [
            {
                "bell": c,
                "probability": report.outcome_probabilities[c],
                "reduced_purity": purities[i],
                "chsh_max": report.chsh_values[c],
                "chsh_angles_deg": [math.degrees(a) for a in report.chsh_angles[c]],
            }
            for i, c in enumerate(BELL_OUTCOMES)
        ],
        "checks": checks,
    }


def noise_threshold_payload(threshold, below, above, checks):
    return {
        "schema": SCHEMA_VERSION,
        "command": "noise_threshold",
        "threshold": threshold,
        "bracket": {
            "below": {
                "visibility": threshold - 0.01,
                "quantum_value": below.quantum_value,
                "violated": below.violated,
            },
            "above": {
                "visibility": threshold + 0.01,
                "quantum_value": above.quantum_value,
                "violated": above.violated,
            },
        },
        "checks": checks,
    }


def teleport_fidelity_payload(args, results, checks):
    return {
        "schema": SCHEMA_VERSION,
        "command": "teleport_fidelity",
        "settings": {"beta_deg": args.beta, "phi_deg": args.phi},
        "outcomes": [
            {"bell": outcome, "probability": p, "fidelity": f} for outcome, p, f in results
        ],
        "checks": checks,
    }


# Every value a payload can carry: the boundary floats, any float, and numpy
# float64, which a slot renders as the float it is.
NUMBERS = st.sampled_from(BOUNDARY_FLOATS) | st.floats() | st.floats().map(np.float64)
SIGNS = st.sampled_from((-1, 1))


def numbers(n):
    return st.lists(NUMBERS, min_size=n, max_size=n)


def checks_of(names):
    return numbers(len(names)).map(lambda values: dict(zip(names, values)))


# Each case draws the results of one subcommand and returns the values it
# fills its layout with, in the subcommand's order, and the reference payload.


@st.composite
def probs_case(draw):
    beta, phi, beta_prime, phi_prime = draw(numbers(4))
    args = SimpleNamespace(beta=beta, phi=phi, beta_prime=beta_prime, phi_prime=phi_prime)
    entries = draw(numbers(8))
    checks = draw(checks_of(("total_deviation", "marginal_deviation", "oracle_deviation")))
    values = (args.beta, args.phi, args.beta_prime, args.phi_prime, *entries, *checks.values())
    return values, probs_payload(args, entries, checks)


@st.composite
def bell_test_case(draw):
    visibility, quantum, upper, lower, ratio = draw(numbers(5))
    strategy = DeterministicStrategy(
        bob=tuple(draw(st.lists(SIGNS, min_size=2, max_size=2))),
        alice=tuple(tuple(draw(st.lists(SIGNS, min_size=2, max_size=2))) for _ in range(2)),
    )
    report = BellTestReport(quantum, upper, lower, draw(st.booleans()), ratio, strategy)
    checks = draw(checks_of(("strategy_count_deviation", "bound_symmetry", "ratio_residual")))
    values = (
        visibility, report.quantum_value, report.lhv_upper_bound, report.lhv_lower_bound,
        report.violated, report.violation_ratio, report.quantum_value - report.lhv_upper_bound,
        *strategy.bob, *strategy.alice[0], *strategy.alice[1], *checks.values(),
    )
    return values, bell_test_payload(SimpleNamespace(visibility=visibility), report, checks)


@st.composite
def swap_case(draw):
    report = SimpleNamespace(
        outcome_probabilities=dict(zip(BELL_OUTCOMES, draw(numbers(4)))),
        chsh_values=dict(zip(BELL_OUTCOMES, draw(numbers(4)))),
        chsh_angles={c: tuple(draw(numbers(4))) for c in BELL_OUTCOMES},
    )
    purities = draw(numbers(4))
    checks = draw(
        checks_of(
            ("total_probability_deviation", "uniformity_deviation", "purity_deviation",
             "tsirelson_excess")
        )
    )
    values = []
    for c, purity in zip(BELL_OUTCOMES, purities):
        values += (
            report.outcome_probabilities[c], purity, report.chsh_values[c],
            *(math.degrees(a) for a in report.chsh_angles[c]),
        )
    return (*values, *checks.values()), swap_payload(report, purities, checks)


@st.composite
def noise_threshold_case(draw):
    threshold, below_value, above_value = draw(numbers(3))
    below = SimpleNamespace(quantum_value=below_value, violated=draw(st.booleans()))
    above = SimpleNamespace(quantum_value=above_value, violated=draw(st.booleans()))
    checks = draw(checks_of(("threshold_equation_residual",)))
    values = (
        threshold, threshold - 0.01, below.quantum_value, below.violated,
        threshold + 0.01, above.quantum_value, above.violated, *checks.values(),
    )
    return values, noise_threshold_payload(threshold, below, above, checks)


@st.composite
def teleport_fidelity_case(draw):
    beta, phi = draw(numbers(2))
    args = SimpleNamespace(beta=beta, phi=phi)
    results = [(outcome, *draw(numbers(2))) for outcome in BELL_OUTCOMES]
    checks = draw(
        checks_of(("total_probability_deviation", "probability_deviation", "fidelity_deviation"))
    )
    values = (args.beta, args.phi, *(v for _, p, f in results for v in (p, f)), *checks.values())
    return values, teleport_fidelity_payload(args, results, checks)


LAYOUT_CASES = {
    "probs": (cli._PROBS_LAYOUT, probs_case()),
    "bell-test": (cli._BELL_TEST_LAYOUT, bell_test_case()),
    "swap": (cli._SWAP_LAYOUT, swap_case()),
    "noise-threshold": (cli._NOISE_THRESHOLD_LAYOUT, noise_threshold_case()),
    "teleport-fidelity": (cli._TELEPORT_FIDELITY_LAYOUT, teleport_fidelity_case()),
}


class TestLayouts:
    @pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
    @settings(derandomize=True, max_examples=150)
    @given(data=st.data())
    def test_fill_matches_payload_render(self, name, data):
        layout, case = LAYOUT_CASES[name]
        values, payload = data.draw(case)
        assert cli._fill(layout, values) == reference_render(payload)

    @pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
    def test_wrong_slot_count_raises(self, name):
        layout = LAYOUT_CASES[name][0]
        values = [0.5] * (len(layout) - 1)
        cli._fill(layout, values)
        for wrong in (values[:-1], values + [0.5]):
            with pytest.raises(ValueError):
                cli._fill(layout, wrong)

    def test_every_json_subcommand_has_a_layout(self):
        assert sorted(LAYOUT_CASES) == sorted(
            name for name in cli._shared_parsers()[1] if name != "scan"
        )


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_byte_identical_output(self, name, capsys):
        args = SUBCOMMANDS[name]
        code_a, out_a, _ = run_cli(args, capsys)
        code_b, out_b, _ = run_cli(args, capsys)
        assert code_a == code_b == 0
        assert out_a.encode() == out_b.encode()

    def test_console_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "telebell", "bell-test"],
            capture_output=True,
            text=True,
            check=True,
        )
        payload = json.loads(result.stdout)
        assert payload["violated"] is True


class TestSchemas:
    def test_all_schemas_load(self):
        for name in available_schemas():
            schema = load_schema(name)
            jsonschema.Draft202012Validator.check_schema(schema)

    def test_unknown_schema(self):
        with pytest.raises(ValueError):
            load_schema("nope")

    @pytest.mark.parametrize(
        "name,args",
        [
            ("probs", SUBCOMMANDS["probs"]),
            ("bell_test", SUBCOMMANDS["bell_test"]),
            ("swap", SUBCOMMANDS["swap"]),
            ("noise_threshold", SUBCOMMANDS["noise_threshold"]),
            ("teleport_fidelity", SUBCOMMANDS["teleport_fidelity"]),
        ],
    )
    def test_payloads_validate(self, name, args, capsys):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        jsonschema.validate(json.loads(out), load_schema(name))


# Token grammar for fuzzed argv.  Values mix accepted numbers (negatives
# among them in every form the CLI's negative-number pattern reads) with the
# refused ones: non-finite, huge, past the angle limit, garbage and empty
# strings.
FUZZ_SUBCOMMANDS = ("probs", "bell-test", "scan", "swap", "noise-threshold",
                    "teleport-fidelity", "", "bogus", "--beta", "-h")
FUZZ_OPTIONS = (*ANGLE_OPTIONS, "--visibility", "--format", "--grid", "--out", "--bogus", "-h")
FUZZ_NUMBERS = ("0", "45", "-45", "90", "0.5", "1", "1.5", "-0.1", "36000", "-36000",
                "36000.0001", "1e300", "-1e300", "-1e-05", "-.5", "-3E+2", "1e-310", "nan",
                "inf", "-inf", "1_000", " 7 ", "abc", "0x10", "", "=")
FUZZ_WORDS = ("json", "csv", "xml", "", "--", "-")
# Grid specs that every argv refuses, wherever they stand: bad syntax or
# values, an axis beyond the row limit, or ends beyond the angle limit.
REFUSED_GRIDS = ("beta", "beta=1:2", "gamma=0:1:1", "beta=0:1:0", "beta=0:1:-1", "beta=5:1:1",
                 "beta=a:b:c", "phi=nan:1:1", "phi=0:inf:1", "phi=0:1e-300:1e-310",
                 "phi=0:1e300:1e-300", "beta=0:36000:0.001", "beta=0:36000.0001:1",
                 "phi-prime=-1e300:0:1e300", "=0:1:1", "")
# --out only ever names stdout or a path that cannot be opened, so the
# fuzz writes no file.
UNWRITABLE_PATH = os.path.join(os.devnull, "out")


@st.composite
def small_grid(draw):
    """An accepted axis of at most 10 points, so any scan stays within 10^4 rows."""
    axis = draw(st.sampled_from(cli._GRID_AXES))
    start = draw(st.floats(-180.0, 180.0))
    step = draw(st.sampled_from((1.0, 2.5, 30.0)))
    stop = start + draw(st.integers(0, 9)) * step
    return f"{axis}={start!r}:{stop!r}:{step!r}"


FUZZ_NUMBER = st.one_of(st.floats(-360.0, 360.0).map(repr), st.sampled_from(FUZZ_NUMBERS))
OPTION_VALUES = {
    **dict.fromkeys(ANGLE_OPTIONS, FUZZ_NUMBER),
    "--visibility": st.one_of(st.floats(0.0, 1.0).map(repr), st.sampled_from(FUZZ_NUMBERS)),
    "--format": st.sampled_from(FUZZ_WORDS),
    "--grid": st.one_of(small_grid(), st.sampled_from(REFUSED_GRIDS)),
    "--out": st.sampled_from(("", UNWRITABLE_PATH)),
}
# Each subcommand's own options; the others are refused for it.
SUBCOMMAND_OPTIONS = {
    "probs": (*ANGLE_OPTIONS, "--format", "--out"),
    "bell-test": ("--visibility", "--out"),
    "scan": (*ANGLE_OPTIONS, "--grid", "--out"),
    "swap": ("--out",),
    "noise-threshold": ("--out",),
    "teleport-fidelity": ("--beta", "--phi", "--out"),
}
ANY_VALUE = st.one_of(
    FUZZ_NUMBER, st.sampled_from(FUZZ_WORDS), st.sampled_from(REFUSED_GRIDS), small_grid()
)
# A token out of place: a bare option, a stray value, a foreign option with
# any value but a path, or an ``--option=value`` angle.
STRAY_TOKENS = st.one_of(
    st.sampled_from(FUZZ_OPTIONS).map(lambda option: [option]),
    ANY_VALUE.map(lambda value: [value]),
    st.tuples(st.sampled_from(FUZZ_OPTIONS).filter(lambda o: o != "--out"), ANY_VALUE).map(list),
    st.tuples(st.sampled_from(ANGLE_OPTIONS), FUZZ_NUMBER).map(lambda pair: ["=".join(pair)]),
)
# Large axes, each accepted alone, closing a scan argv so that nothing after
# them can narrow the grid: their product is always refused.
BIG_GRID = f"0:{BIG_AXIS_STOP}:{BIG_AXIS_STEP}"
SCAN_SUFFIXES = st.sampled_from((
    [],
    ["--grid", f"phi={BIG_GRID}"] * 3 + ["--grid", f"beta={BIG_GRID}"],
    [arg for axis in cli._GRID_AXES for arg in ("--grid", f"{axis}=0:36000:36")],
))


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(FUZZ_SUBCOMMANDS))
    own = SUBCOMMAND_OPTIONS.get(command, ("--out",))
    argv = [command]
    for option in draw(st.lists(st.sampled_from(own), max_size=4)):
        argv += [option, draw(OPTION_VALUES[option])]
    if draw(st.integers(0, 2)) == 0:
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = draw(STRAY_TOKENS)
    return argv + draw(SCAN_SUFFIXES) if command == "scan" else argv


class TestFuzzedArgv:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(fuzzed_argv())
    def test_every_argv_exits_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert out.getvalue() == "", argv


def reference_main(argv) -> int:
    """``cli.main`` on the full parser alone, then the handler."""
    args = cli.build_parser().parse_args(argv)
    try:
        text = args.handler(args)
    except cli.UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (cli.InvariantBreach, ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def outcome(entry, argv, columns="80"):
    """Exit code, stdout and stderr of one call, with help text laid out for ``columns``."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": columns}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = entry(list(argv))
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def by_repr(values):
    return {key: repr(value) if isinstance(value, float) else value for key, value in values.items()}


class TestDispatch:
    """``cli.main`` walks the subcommand's options when it can; nothing it prints may change."""

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["-h"], ["probs", "-h"], ["probs", "--he"], ["probs", "--bet", "3"],
            ["probs", "--", "x"], ["probs", "stray"], ["bogus"], ["--out", "x", "probs"],
            ["bell-test", "--visibility=0.3"], ["probs", "--phi", "-33.1"],
            ["probs", "--format=csv", "--format", "json"], ["probs", "--beta", "3", "--beta", "-1e-05"],
            ["probs", "--out", ""], ["probs", "--beta="], ["probs", "--beta", "-1e"],
            ["scan", "--grid", "phi=0:90:30", "--phi-prime", "-45"],
        ],
    )
    def test_matches_full_parser(self, argv):
        assert outcome(cli.main, argv) == outcome(reference_main, argv)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(fuzzed_argv())
    def test_fuzzed_argv_matches_full_parser(self, argv):
        assert outcome(cli.main, argv) == outcome(reference_main, argv)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(fuzzed_argv())
    def test_walk_matches_full_parser(self, argv):
        # whatever argv the option walk accepts, the full parser accepts too,
        # with the same values; repr tells -0.0 from 0.0
        walked = cli._walk_args(argv)
        if walked is not None:
            full = cli.build_parser().parse_args(argv)
            assert by_repr(vars(walked)) == by_repr(vars(full))


# The benchmark's invalid requests (perfbench/inputs.py), each of which exits 2.
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
    ["scan"]
    + [
        arg
        for axis in ("beta", "phi", "beta-prime", "phi-prime")
        for arg in ("--grid", f"{axis}=0:359:0.5")
    ],
    ["swap", "--verbose"],
    ["entangle"],
)


class TestUsageCache:
    """``main``'s parsers keep their usage texts; what they print must stay argparse's."""

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    def test_invalid_requests_match_uncached_parser(self, columns):
        for argv in INVALID_REQUESTS:
            expected = outcome(reference_main, argv, columns)
            assert expected[0] == 2, argv
            # the first call may render the usage, the second reads it back
            for _ in range(2):
                assert outcome(cli.main, argv, columns) == expected, argv

    def test_usage_depends_on_width(self):
        # so a cache that ignored the width would print the wrong text
        argv = ["scan", "--grid", "phi=0:90"]
        assert outcome(reference_main, argv, "40") != outcome(reference_main, argv, "200")


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv", [["probs"], ["swap"], ["scan", "--grid", "phi=0:359:0.5"]]
    )
    def test_closed_pipe_exits_2(self, argv):
        # the read end is closed before the child starts, so every write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "telebell", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 2
        assert result.stderr.startswith("error:")
        assert result.stderr.count("\n") == 1, result.stderr
