"""Tests for the command-line front end: values, determinism, exit codes."""

import csv
import io
import json
import math
import os
import resource
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telebell import cli
from telebell.schema import available_schemas, load_schema

SQRT_HALF = math.sqrt(0.5)
ANGLE_OPTIONS = ("--beta", "--phi", "--beta-prime", "--phi-prime")
ADDRESS_SPACE_CAP = 1 << 30


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


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.floats().map(np.float64)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=30,
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
        # The capped address space turns an attempt to build the points into
        # a MemoryError in the child instead of exhausting the machine.
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

        result = subprocess.run(
            [sys.executable, "-m", "telebell", "scan", "--grid", grid],
            capture_output=True,
            text=True,
            timeout=120,
            preexec_fn=cap_address_space,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        )
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
    def test_payload_edge_cases(self):
        payload = {
            "zero": -0.0,
            "np": np.float64(-1e-300),
            "float32": np.float32(0.1),
            "ints": [0, -7, 2**64],
            "flags": (True, False, None),
            "empty": {"list": [], "tuple": (), "dict": {}},
            "text": "\u00e9\u6f22\U0001f600 \"q\" \\ \n\t\x00",
            "\u00fc": [1.23456789012345e-7, 123456789012345.0, math.inf, -math.inf, math.nan],
            "nested": [[{"a": [0.1 + 0.2]}]],
        }
        assert cli._render_json(payload) == reference_render(payload)

    @settings(derandomize=True, max_examples=500)
    @given(JSON_VALUES)
    def test_matches_reference(self, value):
        payload = {"value": value}
        assert cli._render_json(payload) == reference_render(payload)

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            cli._render_json({"x": object()})


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
