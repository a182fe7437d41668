"""The generators are pure functions of the seed."""

import itertools
import math

import inputs


def first(stream, n=3):
    return list(itertools.islice(stream, n))


def test_same_seed_same_inputs():
    assert first(inputs.oracle_blocks(7)) == first(inputs.oracle_blocks(7))
    assert first(inputs.verdict_blocks(7)) == first(inputs.verdict_blocks(7))
    assert inputs.verdict_warmup(7) == inputs.verdict_warmup(7)
    assert inputs.scan_grid(7) == inputs.scan_grid(7)
    for name in ("oracle", "scan", "verdicts"):
        assert inputs.properties(name, 7) == inputs.properties(name, 7)


def test_other_seed_other_inputs():
    assert first(inputs.oracle_blocks(7)) != first(inputs.oracle_blocks(8))
    assert first(inputs.verdict_blocks(7)) != first(inputs.verdict_blocks(8))
    assert inputs.scan_grid(7) != inputs.scan_grid(8)


def test_oracle_block_shape_and_repeat_share():
    block = next(inputs.oracle_blocks(1))
    grid = inputs.GRID_SIDE**4  # GRID_SIDE**2 preparations times as many analyzers
    assert len(block) == grid + inputs.RANDOM_PAIRS
    # every grid pair but the first repeats a setting; random pairs repeat none
    expected = (grid - 1) / (grid + inputs.RANDOM_PAIRS)
    share = inputs.properties("oracle", 1, blocks=1)["settings_repeat_share"]
    assert math.isclose(share, expected)


def test_verdict_blocks_have_fixed_composition():
    for block in first(inputs.verdict_blocks(3), 5):
        counts = {kind: 0 for kind in inputs.VERDICT_MIX}
        for kind, request in block:
            counts[kind] += 1
            if kind == "bell_test":
                v = float(request[2])
                assert abs(v - inputs.THRESHOLD) > 0.02
            if kind in ("bell_test", "probs", "teleport_fidelity"):
                for arg in request[2::2]:
                    assert float(arg) == float(inputs._number(float(arg)))
                    assert "e" not in arg  # argparse takes -1e-05 for an option
            if kind == "invalid":
                assert request not in inputs.KNOWN_DEFECT_REQUESTS
                assert not any("1e-310" in arg for arg in request)
        assert counts == inputs.VERDICT_MIX


def test_scan_grid_is_exact_and_fixed_size():
    for seed in range(5):
        grid = inputs.scan_grid(seed)
        assert math.prod(len(v) for v in grid.values()) == math.prod(inputs.SCAN_DIMS)
        for values in grid.values():
            assert all((4 * v).is_integer() for v in values)
        argv = inputs.scan_argv(grid, "out.csv")
        for axis, arg in zip(grid, argv[2::2]):
            start, stop, step = (float(x) for x in arg.split("=")[1].split(":"))
            assert (start, stop) == (grid[axis][0], grid[axis][-1])
            assert round((stop - start) / step) + 1 == len(grid[axis])
