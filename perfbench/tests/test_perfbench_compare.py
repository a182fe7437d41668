"""Verdicts of the compare command: paired wins, spread against the bound, regressions."""

import json

import compare

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def scaled(values, factor):
    return [v * factor for v in values]


def test_same_values_unchanged():
    assert compare.verdict(BASE, list(BASE), "lower", 0.1, False) == "unchanged"


def test_clear_gain_is_improved_in_either_direction():
    assert compare.verdict(BASE, scaled(BASE, 0.8), "lower", 0.1, False) == "improved"
    assert compare.verdict(BASE, scaled(BASE, 1.2), "higher", 0.1, False) == "improved"


def test_worse_beyond_bound_is_regressed():
    assert compare.verdict(BASE, scaled(BASE, 1.2), "lower", 0.1, False) == "regressed"
    assert compare.verdict(BASE, scaled(BASE, 0.8), "higher", 0.1, False) == "regressed"


def test_worse_within_bound_is_unchanged():
    assert compare.verdict(BASE, scaled(BASE, 1.05), "lower", 0.1, False) == "unchanged"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(noisy, list(reversed(noisy)), "lower", 0.1, False) == "unresolved"


def test_gain_needs_nine_tenths_of_pairs():
    change = scaled(BASE, 0.8)
    change[0] = change[1] = 200.0  # two of ten pairs lost
    assert compare.verdict(BASE, change, "lower", 0.5, False) != "improved"


def test_gain_does_not_count_with_more_failures():
    assert compare.verdict(BASE, scaled(BASE, 0.8), "lower", 0.1, True) != "improved"


def write_set(directory, values, trace_value=None):
    directory.mkdir()
    for seed, value in enumerate(values):
        run = {
            "env": {"seed": seed, "trace": 0},
            "workloads": {"oracle": {"failed": 0, "metrics": {}, "detail": {"op_p50_ms": value}}},
        }
        (directory / f"{seed}.json").write_text(json.dumps(run))
    if trace_value is not None:
        run = {
            "env": {"seed": 99, "trace": 1},
            "workloads": {"oracle": {"failed": 0, "metrics": {"op_p50_ms": trace_value}}},
        }
        (directory / "traced.json").write_text(json.dumps(run))


def test_series_reads_untraced_runs_in_seed_order(tmp_path):
    write_set(tmp_path / "a", [3.0, 1.0, 2.0], trace_value=1000.0)
    runs = compare.load(tmp_path / "a")
    assert compare.series(runs, "oracle", "op_p50_ms") == [3.0, 1.0, 2.0]
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps({"runs": runs}))
    assert compare.series(compare.load(bundle), "oracle", "op_p50_ms") == [3.0, 1.0, 2.0]


def test_main_exits_1_on_regression(tmp_path, capsys):
    write_set(tmp_path / "base", BASE)
    write_set(tmp_path / "same", BASE)
    write_set(tmp_path / "slow", scaled(BASE, 1.5))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "same")]) == 0
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "slow")]) == 1
    assert "oracle    op_p50_ms" in capsys.readouterr().out


def test_detail_metrics_come_from_the_results(tmp_path, capsys):
    for side in ("base", "change"):
        directory = tmp_path / side
        directory.mkdir()
        for seed, value in enumerate(BASE):
            run = {
                "env": {"seed": seed, "trace": 0},
                "workloads": {"verdicts": {"failed": 0, "metrics": {}, "detail": {"any_kind_ms": value}}},
            }
            (directory / f"{seed}.json").write_text(json.dumps(run))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "change")]) == 0
    assert "verdicts  any_kind_ms" in capsys.readouterr().out
