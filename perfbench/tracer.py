"""Spans around the calls into each telebell layer, for the traced run only.

The benchmark does not edit the program.  While a ``Tracer`` is installed it
replaces each traced function, in every telebell module namespace that holds
it, with a wrapper that records a span; on exit it puts the originals back.
Replacing the name where the caller looks it up is what reaches layers that
only other modules call, such as ``qstate`` under ``teleport`` and ``swap``.
Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

# Traced name -> (module, attributes).  The two settings classes are one
# layer metric: constructing the preparation and analyzer settings.
LAYER_FUNCTIONS = {
    "qstate.measure_probabilities": ("qstate", ("measure_probabilities",)),
    "teleport.settings": ("teleport", ("PreparationSettings", "AnalyzerSettings")),
    "teleport.joint_distribution_closed_form": ("teleport", ("joint_distribution_closed_form",)),
    "teleport.joint_distribution_simulated": ("teleport", ("joint_distribution_simulated",)),
    "teleport.run_full_teleportation": ("teleport", ("run_full_teleportation",)),
    "corrvec.correlation_closed_form": ("corrvec", ("correlation_closed_form",)),
    "corrvec.build_quantum_super_vector": ("corrvec", ("build_quantum_super_vector",)),
    "lhv.enumerate_strategies": ("lhv", ("enumerate_strategies",)),
    "lhv.lhv_extremal_bound": ("lhv", ("lhv_extremal_bound",)),
    "lhv.bell_test": ("lhv", ("bell_test",)),
    "lhv.ensemble_super_vector": ("lhv", ("ensemble_super_vector",)),
    "noise.violation_threshold": ("noise", ("violation_threshold",)),
    "swap.run_swap": ("swap", ("run_swap",)),
    "swap.max_chsh": ("swap", ("max_chsh",)),
    "swap.chsh_on_pair": ("swap", ("chsh_on_pair",)),
    "cli.main": ("cli", ("main",)),
}


class _TracedSettings:
    """Stands in for a settings class: construction and ``from_degrees`` record a span."""

    def __init__(self, cls, traced_call, traced_from_degrees):
        self._cls = cls
        self._call = traced_call
        self.from_degrees = traced_from_degrees

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._cls, name)


class Tracer:
    """Records spans [name, start_ns, end_ns, parent index, request id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "telebell"]
        for name, (module, attrs) in LAYER_FUNCTIONS.items():
            home = sys.modules[f"telebell.{module}"]
            for attr in attrs:
                original = getattr(home, attr)
                if isinstance(original, type):
                    replacement = _TracedSettings(
                        original, self.wrap(original, name), self.wrap(original.from_degrees, name)
                    )
                else:
                    replacement = self.wrap(original, name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, original))
                            setattr(mod, key, replacement)
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """calls, busy_ms and self_ms per traced name; self time excludes child spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        metrics = {}
        for name in LAYER_FUNCTIONS:
            metrics[f"{name}.calls"] = 0
            metrics[f"{name}.busy_ms"] = 0.0
            metrics[f"{name}.self_ms"] = 0.0
        for index, (name, start, end, _, _) in enumerate(self.spans):
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.busy_ms"] += (end - start) / 1e6
            metrics[f"{name}.self_ms"] += (end - start - child_ns[index]) / 1e6
        return metrics

    def write(self, path: str) -> None:
        """One JSON list per line: name, start_ns, end_ns, parent line index or -1, request."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
