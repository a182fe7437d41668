"""Command-line front end.

Angles are degrees at this boundary and radians inside the library.  Output
is deterministic: floats are fixed at 12 significant digits, payload key
order is fixed, and no timestamps or environment data are emitted.  Exit
codes: 0 success, 2 usage error, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable

import numpy as np

from .corrvec import correlation_closed_form, super_norm_sq
from .lhv import QUANTUM_BOUND, QUANTUM_SUPER_VECTOR, STRATEGY_SIGNS, bell_test, check_visibility
from .noise import violation_threshold
from .schema import SCHEMA_VERSION
from .swap import TSIRELSON_BOUND, reduced_purity, run_swap
from .teleport import (
    BELL_OUTCOMES,
    BOB_OUTCOMES,
    AnalyzerSettings,
    PreparationSettings,
    joint_distribution_closed_form,
    joint_distribution_simulated,
    run_full_teleportation,
)

CHECK_TOL = 1e-12
MAX_SCAN_ROWS = 1_000_000
# 100 turns.  Within it the degree-to-radian conversion and the reduction
# mod 2 pi lose less than 1e-13 rad, so printed values keep the 1e-12
# contract; far beyond it the reduced angle carries no meaning.
MAX_ANGLE_DEG = 36_000.0
_GRID_AXES = ("beta", "phi", "beta-prime", "phi-prime")
# argparse reads a "-"-led token as a value, not an option, when its parser's
# negative-number pattern matches it.  The pattern argparse ships has changed
# between patch releases and refuses exponent forms such as -1e-05, so every
# parser here gets this one: argparse's own, plus an optional exponent.
_NEGATIVE_NUMBER = re.compile(r"^-(?:\d+|\d*\.\d+)(?:[eE][+-]?\d+)?$")
# Options that a negative-number token could name or abbreviate.
_NUMBER_LIKE_OPTION = re.compile(r"-[\d.]")

__all__ = ["main", "build_parser", "InvariantBreach", "UsageError"]


class InvariantBreach(RuntimeError):
    """An internal consistency check failed; maps to exit code 3."""


class UsageError(ValueError):
    """Invalid request detected after argument parsing; maps to exit code 2."""


def _fmt(value: float) -> str:
    # adding 0.0 folds negative zero into plain zero
    return f"{value + 0.0:.12g}"


def _json_float(value: float) -> str:
    text = _fmt(value)
    # ``text`` has at most 12 significant digits, so outside the subnormal
    # range it is already the shortest repr of the float it reads as; repr
    # differs only where it picks another notation: integral values (no "."
    # or "e") and exponents 12 to 15, which repr writes out in full
    if "e" in text:
        exponent = int(text[text.index("e") + 1 :])
        if exponent > 15 or -308 < exponent < 12:
            return text
    elif "." in text:
        return text
    rounded = float(text)
    if math.isfinite(rounded):
        return repr(rounded)
    if rounded != rounded:
        return "NaN"
    return "Infinity" if rounded > 0.0 else "-Infinity"


# A layout's placeholder leaf.  ``_json`` renders it as a raw NUL, which
# ``encode_basestring_ascii`` never emits, so the rendered text splits there.
_SLOT = object()


def _json(obj, indent: str) -> str:
    """``json.dumps(obj, indent=2)`` with every float fixed at 12 significant digits."""
    if isinstance(obj, float):
        return _json_float(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[\n" + ",\n".join(inner + _json(v, inner) for v in obj) + "\n" + indent + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, np.floating):
        return _json_float(float(obj))
    if obj is None:
        return "null"
    if obj is _SLOT:
        return "\0"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _render_json(payload: dict) -> str:
    return _json(payload, "") + "\n"


def _layout(payload: dict) -> tuple[str, ...]:
    """``_render_json(payload)`` cut at each ``_SLOT`` leaf: the text around its values.

    Each JSON subcommand builds its layout once, at import, and ``_fill``
    renders one request's values into it.
    """
    return tuple(_render_json(payload).split("\0"))


def _fill(layout: tuple[str, ...], values) -> str:
    """The layout's text with ``values`` rendered into its slots, in order.

    Each value renders as ``_json`` would render it in place of its slot;
    a count that differs from the layout's raises ValueError.
    """
    parts = [layout[0]]
    for value, text in zip(values, layout[1:], strict=True):
        parts.append(_json_float(value) if type(value) is float else _json(value, ""))
        parts.append(text)
    return "".join(parts)


def _require_checks(names: tuple[str, ...], values: list[float]) -> list[float]:
    for name, value in zip(names, values, strict=True):
        if not (value <= CHECK_TOL):  # a NaN residual is a breach too
            raise InvariantBreach(f"check {name} = {value:.3e} exceeds {CHECK_TOL}")
    return values


def _max_residual(residuals) -> float:
    """The largest residual, or NaN if any is NaN: ``max`` keeps a NaN only in first place."""
    residuals = list(residuals)
    return math.nan if any(map(math.isnan, residuals)) else max(residuals)


def _visibility_arg(text: str) -> float:
    float(text)  # a non-number raises ValueError here: argparse's "invalid value" message
    try:
        return check_visibility(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _angle_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid angle {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"angle must be finite, got {text!r}")
    if abs(value) > MAX_ANGLE_DEG:
        raise argparse.ArgumentTypeError(
            f"angle must lie within +-{MAX_ANGLE_DEG:g} degrees, got {text!r}"
        )
    return value


def _grid_arg(text: str) -> tuple[str, float, float, int]:
    """An axis spec as ``(axis, start, step, count)``; ``scan`` builds the points."""
    axis, sep, rest = text.partition("=")
    if not sep or axis not in _GRID_AXES:
        raise argparse.ArgumentTypeError(
            f"grid argument must be <axis>=<start>:<stop>:<step> with axis in {_GRID_AXES}, got {text!r}"
        )
    parts = rest.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid range must be <start>:<stop>:<step>, got {rest!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric grid range {rest!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise argparse.ArgumentTypeError("grid range values must be finite")
    if step <= 0.0:
        raise argparse.ArgumentTypeError("grid step must be positive")
    if stop < start:
        raise argparse.ArgumentTypeError("grid stop must not precede start")
    # count the points before building them: a tiny step can ask for more
    # points than memory holds, or for an infinite number
    span = (stop - start) / step + 1e-9
    if not math.isfinite(span) or span >= MAX_SCAN_ROWS:
        raise argparse.ArgumentTypeError(
            f"grid axis {axis} has more than {MAX_SCAN_ROWS} points, the row limit"
        )
    if max(abs(start), abs(stop)) > MAX_ANGLE_DEG:
        raise argparse.ArgumentTypeError(
            f"grid range must lie within +-{MAX_ANGLE_DEG:g} degrees, got {rest!r}"
        )
    return axis, start, step, int(math.floor(span)) + 1


def _add_angle_args(parser: argparse.ArgumentParser, *, analyzer: bool) -> None:
    parser.add_argument(
        "--beta", type=_angle_arg, default=45.0, help="preparation beta in degrees"
    )
    parser.add_argument("--phi", type=_angle_arg, default=0.0, help="preparation phi in degrees")
    if analyzer:
        parser.add_argument(
            "--beta-prime", type=_angle_arg, default=45.0, help="analyzer beta' in degrees"
        )
        parser.add_argument(
            "--phi-prime", type=_angle_arg, default=0.0, help="analyzer phi' in degrees"
        )


_PROBS_CHECKS = ("total_deviation", "marginal_deviation", "oracle_deviation")
_PROBS_LAYOUT = _layout(
    {
        "schema": SCHEMA_VERSION,
        "command": "probs",
        "settings": dict.fromkeys(
            ("beta_deg", "phi_deg", "beta_prime_deg", "phi_prime_deg"), _SLOT
        ),
        "probabilities": {bell: dict.fromkeys(BOB_OUTCOMES, _SLOT) for bell in BELL_OUTCOMES},
        "checks": dict.fromkeys(_PROBS_CHECKS, _SLOT),
    }
)


def _cmd_probs(args: argparse.Namespace) -> str:
    prep = PreparationSettings.from_degrees(args.beta, args.phi)
    analyzer = AnalyzerSettings.from_degrees(args.beta_prime, args.phi_prime)
    closed = joint_distribution_closed_form(prep, analyzer)
    simulated = joint_distribution_simulated(prep, analyzer)
    # the eight entries in row-major order as floats; the sums are numpy's
    # for the same table: e0 + e1 per row, and the pairwise tree for all 8
    entries = closed.table.ravel().tolist()
    m0, m1, m2, m3 = closed._marginal
    checks = _require_checks(
        _PROBS_CHECKS,
        [
            abs(((m0 + m1) + (m2 + m3)) - 1.0),
            _max_residual(abs(m - 0.25) for m in closed._marginal),
            _max_residual(abs(c - s) for c, s in zip(entries, simulated.table.ravel().tolist())),
        ],
    )
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["bell", "bob", "probability"])
        writer.writerows(
            [bell, bob, _fmt(p)]
            for (bell, bob), p in zip(itertools.product(BELL_OUTCOMES, BOB_OUTCOMES), entries)
        )
        return buffer.getvalue()
    return _fill(
        _PROBS_LAYOUT, (args.beta, args.phi, args.beta_prime, args.phi_prime, *entries, *checks)
    )


_BELL_TEST_CHECKS = ("strategy_count_deviation", "bound_symmetry", "ratio_residual")
_BELL_TEST_LAYOUT = _layout(
    {
        "schema": SCHEMA_VERSION,
        "command": "bell_test",
        "visibility": _SLOT,
        "quantum_value": _SLOT,
        "lhv_upper_bound": _SLOT,
        "lhv_lower_bound": _SLOT,
        "violated": _SLOT,
        "violation_ratio": _SLOT,
        "margin": _SLOT,
        "optimal_strategy": {
            "bob": {"-45": _SLOT, "45": _SLOT},
            "alice": {"0": [_SLOT, _SLOT], "90": [_SLOT, _SLOT]},
        },
        "checks": dict.fromkeys(_BELL_TEST_CHECKS, _SLOT),
    }
)


def _cmd_bell_test(args: argparse.Namespace) -> str:
    report = bell_test(args.visibility)
    checks = _require_checks(
        _BELL_TEST_CHECKS,
        [
            float(abs(len(STRATEGY_SIGNS) - 64)),
            abs(report.lhv_upper_bound + report.lhv_lower_bound),
            abs(report.violation_ratio * report.lhv_upper_bound - report.quantum_value),
        ],
    )
    strategy = report.optimal_strategy
    return _fill(
        _BELL_TEST_LAYOUT,
        (
            args.visibility,
            report.quantum_value,
            report.lhv_upper_bound,
            report.lhv_lower_bound,
            report.violated,
            report.violation_ratio,
            report.quantum_value - report.lhv_upper_bound,
            *strategy.bob,
            *strategy.alice[0],
            *strategy.alice[1],
            *checks,
        ),
    )


def _cmd_scan(args: argparse.Namespace) -> str:
    axes = {
        "beta": [args.beta],
        "phi": [args.phi],
        "beta-prime": [args.beta_prime],
        "phi-prime": [args.phi_prime],
    }
    # the last spec per axis wins; its points are built only once the
    # whole grid is known to fit the row limit
    specs = {axis: (start, step, count) for axis, start, step, count in args.grid or ()}
    rows = math.prod(count for _, _, count in specs.values())
    if rows > MAX_SCAN_ROWS:
        raise UsageError(f"grid of {rows} rows exceeds the {MAX_SCAN_ROWS} row limit")
    for axis, (start, step, count) in specs.items():
        axes[axis] = [start + i * step for i in range(count)]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["beta", "phi", "beta_prime", "phi_prime", "E_x", "E_y"])
    for beta, phi, beta_prime, phi_prime in itertools.product(
        axes["beta"], axes["phi"], axes["beta-prime"], axes["phi-prime"]
    ):
        prep = PreparationSettings.from_degrees(beta, phi)
        analyzer = AnalyzerSettings.from_degrees(beta_prime, phi_prime)
        e = correlation_closed_form(prep, analyzer)
        writer.writerow([_fmt(v) for v in (beta, phi, beta_prime, phi_prime, e[0], e[1])])
    return buffer.getvalue()


_SWAP_CHECKS = (
    "total_probability_deviation",
    "uniformity_deviation",
    "purity_deviation",
    "tsirelson_excess",
)
_SWAP_LAYOUT = _layout(
    {
        "schema": SCHEMA_VERSION,
        "command": "swap",
        "outcomes": [
            {
                "bell": c,
                **dict.fromkeys(("probability", "reduced_purity", "chsh_max"), _SLOT),
                "chsh_angles_deg": [_SLOT] * 4,
            }
            for c in BELL_OUTCOMES
        ],
        "checks": dict.fromkeys(_SWAP_CHECKS, _SLOT),
    }
)


def _cmd_swap(args: argparse.Namespace) -> str:
    report = run_swap()
    probabilities = [report.outcome_probabilities[c] for c in BELL_OUTCOMES]
    purities = [reduced_purity(report.post_states[c], report.post_states[c].factor_labels[0]) for c in BELL_OUTCOMES]
    chsh = [report.chsh_values[c] for c in BELL_OUTCOMES]
    checks = _require_checks(
        _SWAP_CHECKS,
        [
            abs(sum(probabilities) - 1.0),
            _max_residual(abs(p - 0.25) for p in probabilities),
            _max_residual(abs(p - 0.5) for p in purities),
            _max_residual((0.0, *(c - TSIRELSON_BOUND for c in chsh))),
        ],
    )
    values = []
    for c, p, purity, chsh_max in zip(BELL_OUTCOMES, probabilities, purities, chsh):
        values += (p, purity, chsh_max, *(math.degrees(a) for a in report.chsh_angles[c]))
    return _fill(_SWAP_LAYOUT, (*values, *checks))


_NOISE_THRESHOLD_CHECKS = ("threshold_equation_residual",)
_NOISE_THRESHOLD_LAYOUT = _layout(
    {
        "schema": SCHEMA_VERSION,
        "command": "noise_threshold",
        "threshold": _SLOT,
        "bracket": {
            side: dict.fromkeys(("visibility", "quantum_value", "violated"), _SLOT)
            for side in ("below", "above")
        },
        "checks": dict.fromkeys(_NOISE_THRESHOLD_CHECKS, _SLOT),
    }
)


def _cmd_noise_threshold(args: argparse.Namespace) -> str:
    threshold = violation_threshold()
    below = bell_test(threshold - 0.01)
    above = bell_test(threshold + 0.01)
    if below.violated or not above.violated:
        raise InvariantBreach("Bell verdict does not flip across the computed threshold")
    checks = _require_checks(
        _NOISE_THRESHOLD_CHECKS,
        [abs(threshold * super_norm_sq(QUANTUM_SUPER_VECTOR) - QUANTUM_BOUND.maximum)],
    )
    return _fill(
        _NOISE_THRESHOLD_LAYOUT,
        (
            threshold,
            threshold - 0.01,
            below.quantum_value,
            below.violated,
            threshold + 0.01,
            above.quantum_value,
            above.violated,
            *checks,
        ),
    )


_TELEPORT_FIDELITY_CHECKS = (
    "total_probability_deviation",
    "probability_deviation",
    "fidelity_deviation",
)
_TELEPORT_FIDELITY_LAYOUT = _layout(
    {
        "schema": SCHEMA_VERSION,
        "command": "teleport_fidelity",
        "settings": dict.fromkeys(("beta_deg", "phi_deg"), _SLOT),
        "outcomes": [dict.fromkeys(("bell", "probability", "fidelity"), _SLOT)]
        * len(BELL_OUTCOMES),
        "checks": dict.fromkeys(_TELEPORT_FIDELITY_CHECKS, _SLOT),
    }
)


def _cmd_teleport_fidelity(args: argparse.Namespace) -> str:
    prep = PreparationSettings.from_degrees(args.beta, args.phi)
    results = run_full_teleportation(prep)
    probabilities = [p for _, p, _ in results]
    fidelities = [f for _, _, f in results]
    checks = _require_checks(
        _TELEPORT_FIDELITY_CHECKS,
        [
            abs(sum(probabilities) - 1.0),
            _max_residual(abs(p - 0.25) for p in probabilities),
            _max_residual(abs(f - 1.0) for f in fidelities),
        ],
    )
    return _fill(
        _TELEPORT_FIDELITY_LAYOUT,
        (args.beta, args.phi, *itertools.chain.from_iterable(results), *checks),
    )


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers, by subcommand name."""
    parser = argparse.ArgumentParser(
        prog="telebell",
        description="Bell analysis of the channel-cut teleportation protocol.",
    )
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    def register(name: str, handler: Callable, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        p.set_defaults(handler=handler)
        commands[name] = p
        return p

    probs = register("probs", _cmd_probs, "eight joint outcome probabilities")
    _add_angle_args(probs, analyzer=True)
    probs.add_argument("--format", choices=("json", "csv"), default="json")

    bell = register("bell-test", _cmd_bell_test, "quantum vs LHV super-vector verdict")
    bell.add_argument("--visibility", type=_visibility_arg, default=1.0)

    scan = register("scan", _cmd_scan, "correlation vectors over a settings grid (CSV)")
    _add_angle_args(scan, analyzer=True)
    scan.add_argument(
        "--grid",
        type=_grid_arg,
        action="append",
        metavar="AXIS=START:STOP:STEP",
        help="sweep an axis (beta, phi, beta-prime, phi-prime) in degrees; repeatable",
    )

    register("swap", _cmd_swap, "entanglement swapping with per-outcome CHSH maxima")
    register("noise-threshold", _cmd_noise_threshold, "visibility threshold of the Bell violation")

    fidelity = register(
        "teleport-fidelity", _cmd_teleport_fidelity, "full corrected protocol sanity check"
    )
    _add_angle_args(fidelity, analyzer=False)

    return parser, commands


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _option_walk(name: str, parser: argparse.ArgumentParser):
    """A parse of ``[name, *tokens]`` that walks ``parser``'s own store options.

    The returned function reads only ``--opt value`` and ``--opt=value``
    tokens of single-value store options, applies each option's ``type`` and
    ``choices``, and returns the namespace ``build_parser().parse_args``
    would.  It returns None for anything else: help, an abbreviation,
    ``--``, an appended option, a converter or choice error, a stray token.
    Like argparse, it takes a ``-``-led value only when the parser's
    negative-number pattern matches it.  There is no walk (None) for a
    parser whose arguments it could misread: a positional or required one,
    or an option that a negative number could name.
    """
    actions = parser._actions
    if any(
        not action.option_strings
        or action.required
        or any(_NUMBER_LIKE_OPTION.match(option) for option in action.option_strings)
        for action in actions
    ):
        return None
    table = {
        option: action
        for action in actions
        if type(action) is argparse._StoreAction and action.nargs is None
        for option in action.option_strings
    }
    # the parser's namespace for no tokens: every default and the handler
    defaults = {"command": name, **vars(parser.parse_args([]))}
    negative = parser._negative_number_matcher

    def walk(tokens: list[str]) -> argparse.Namespace | None:
        args = argparse.Namespace()
        values = vars(args)
        values.update(defaults)
        tokens = iter(tokens)
        for token in tokens:
            action = table.get(token)
            if action is not None:
                text = next(tokens, None)
            else:
                option, _, text = token.partition("=")
                action = table.get(option)
            if action is None or text is None or (text[:1] == "-" and not negative.match(text)):
                return None
            if action.type is None:
                value = text
            else:
                try:
                    value = action.type(text)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
        return args

    return walk


@functools.cache
def _shared_parsers():
    """The parsers ``main`` uses and each subcommand's option walk, by name.

    Built on first use, then kept for the process.
    """
    parser, commands = _build_parsers()
    return parser, {name: _option_walk(name, command) for name, command in commands.items()}


def _walk_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace of ``argv`` from its subcommand's option walk, or None if it declines."""
    walk = _shared_parsers()[1].get(argv[0]) if argv else None
    return walk(argv[1:]) if walk is not None else None


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``: the option walk, else the full parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _walk_args(argv)
    return _shared_parsers()[0].parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        text = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantBreach, ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:  # an unwritable --out path, or a closed stdout pipe
        if not args.out:
            # drop what stdout still buffers, so that the flush at
            # interpreter exit does not fail on the closed pipe again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
