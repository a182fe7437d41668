"""Tests for the package's exported names and for library code that no path runs."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import telebell

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(telebell.__path__) if not info.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"telebell.{name}")
    assert [export for export in module.__all__ if not hasattr(module, export)] == []


def test_package_reexports_are_exported_at_home():
    # each function or class the package re-exports is listed in the
    # ``__all__`` of the module that defines it
    unlisted = [
        name
        for name, value in vars(telebell).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and name not in sys.modules[value.__module__].__all__
    ]
    assert unlisted == []


# Every function in src/telebell that no library, CLI or benchmark path
# enters, with the reason it stays.  A function that joins this set is code
# that nothing runs: delete it, or name its reason here.
UNRUN = {
    "qstate.measure_probabilities": "the benchmark tracer wraps it by name",
    "qstate.basis_coefficients": "run only under measure_probabilities",
    "qstate._kron_1d": "run only under measure_probabilities",
    "qstate.PureState.norm_sq": "run only under measure_probabilities",
    "qstate.PureState.is_unit": "run only under measure_probabilities",
    "qstate.ProjectiveBasis.subsystem_labels": "run only under measure_probabilities",
    "lhv.strategy_super_vector": "acceptance criterion 3 reads it",
    "swap.ChshScanResult.grid_value": "acceptance criterion 7 reads it",
    "schema.load_schema": "acceptance criterion 8 validates the CLI's JSON against it",
    "cli.build_parser": "the full parser that the option walk is tested against",
    "noise.noisy_joint_distribution": "the admixture model that checks bell_test(v)'s scaling",
}

# Records the code of every Python function entered from before ``import
# telebell`` on: import, each CLI subcommand and one invalid request through
# ``cli.main``, and the direct calls of the benchmark's oracle and verdicts
# workloads.  Prints telebell's path, then each entered code as
# [file, first line, name].
PROFILED_RUN = r"""
import contextlib, io, json, os, sys

entered = set()


def record(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(record)
import telebell
from telebell import cli, corrvec, lhv, teleport

requests = [
    ["probs", "--beta", "33", "--phi", "71", "--beta-prime", "58", "--phi-prime", "-12"],
    ["probs", "--format", "csv"],
    ["bell-test", "--visibility", "0.8"],
    ["scan", "--grid", "phi=0:90:30", "--grid", "phi-prime=-45:45:45"],
    ["swap"],
    ["noise-threshold"],
    ["teleport-fidelity", "--beta", "30", "--phi", "77"],
    ["probs", "--beta", "nan"],
]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in requests:
        try:
            cli.main(argv)
        except SystemExit:
            pass
prep = teleport.PreparationSettings(0.3, 1.1)
analyzer = teleport.AnalyzerSettings(0.7, -0.4)
teleport.joint_distribution_closed_form(prep, analyzer)
teleport.joint_distribution_simulated(prep, analyzer)
strategies = lhv.enumerate_strategies()
ensemble = lhv.StrategyEnsemble(((strategies[5], 0.25), (strategies[40], 0.75)))
corrvec.super_dot(lhv.QUANTUM_SUPER_VECTOR, lhv.ensemble_super_vector(ensemble))
sys.setprofile(None)
codes = [[os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name] for c in entered]
print(json.dumps([os.path.realpath(telebell.__file__), codes]))
"""


def defined_functions():
    """Each function defined in telebell's modules, as ``(file, first line,
    name)`` to its qualified name.  A decorated function's code starts at its
    first decorator."""
    functions = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                functions[(path, first, child.name)] = f"{prefix}.{child.name}"
                visit(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(Path(telebell.__file__).parent.glob("*.py")):
        path = os.path.realpath(path)
        visit(ast.parse(Path(path).read_text(encoding="utf-8")), path, Path(path).stem)
    return functions


def test_unrun_functions_are_the_named_ones():
    src = os.path.dirname(os.path.dirname(os.path.realpath(telebell.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", PROFILED_RUN],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )
    imported, codes = json.loads(result.stdout)
    assert imported == os.path.realpath(telebell.__file__)
    functions = defined_functions()
    assert len(set(functions.values())) == len(functions)
    entered = {functions[tuple(code)] for code in codes if tuple(code) in functions}
    assert sorted(set(functions.values()) - entered) == sorted(UNRUN)
