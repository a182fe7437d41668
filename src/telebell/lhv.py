"""Deterministic local-hidden-variable strategies and the Bell verdict.

With two settings per side and finitely many outcomes, every local hidden
variable model is a convex mixture of the 64 deterministic response
functions: Bob picks a sign for each of his two phase settings (2^2 choices)
and Alice picks one of the four outcome vectors for each of her two settings
(4^2 choices).  The scalar product of the quantum super-vector with any
strategy super-vector is bounded by sqrt(2) (found here by exhaustion, not
algebra), strictly below the quantum norm 2, which is the Bell theorem for
the channel-cut scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum, inf, isfinite
from typing import NamedTuple

import numpy as np

from .corrvec import (
    ALICE_PHI_DEGREES,
    BOB_PHI_DEGREES,
    SETTING_PAIRS_DEGREES,
    _as_super_vector,
    build_quantum_super_vector,
    super_dot,
)

VIOLATION_TOL = 1e-12

__all__ = [
    "VIOLATION_TOL",
    "STRATEGY_SIGNS",
    "QUANTUM_SUPER_VECTOR",
    "QUANTUM_BOUND",
    "DeterministicStrategy",
    "StrategyEnsemble",
    "BellTestReport",
    "ExtremalBound",
    "strategy_super_vector",
    "enumerate_strategies",
    "lhv_extremal_bound",
    "ensemble_super_vector",
    "check_visibility",
    "bell_test",
]


def _is_sign(answer) -> bool:
    # a Python int only: a bool, float or numpy integer equal to a sign would
    # keep its type in the answers, which the CLI prints
    return type(answer) is int and answer in (-1, 1)


@dataclass(frozen=True)
class DeterministicStrategy:
    """One hidden-variable value: fixed answers for every setting.

    ``bob`` holds the signs returned at phi' = -45 and +45 degrees; ``alice``
    holds the outcome vectors returned at phi = 0 and 90 degrees.  ``row``
    is the strategy's index in the enumeration order, its row of
    ``STRATEGY_SIGNS``; it follows from the answers, so it takes no part in
    equality or hashing.
    """

    bob: tuple[int, int]
    alice: tuple[tuple[int, int], tuple[int, int]]
    row: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.bob) != 2 or not all(map(_is_sign, self.bob)):
            raise ValueError(f"bob answers must be two int signs, got {self.bob}")
        if len(self.alice) != 2 or any(
            len(vec) != 2 or not all(map(_is_sign, vec)) for vec in self.alice
        ):
            raise ValueError(f"alice answers must be two int sign 2-vectors, got {self.alice}")
        # tuples, so that answers given as lists hash and compare as tuples do
        object.__setattr__(self, "bob", tuple(self.bob))
        object.__setattr__(self, "alice", tuple(map(tuple, self.alice)))
        # the enumeration runs over (bob -45, bob +45, alice 0, alice 90) with
        # -1 before +1 in each sign: the answers are the row's binary digits
        row = 0
        for sign in (*self.bob, *self.alice[0], *self.alice[1]):
            row = 2 * row + (sign > 0)
        object.__setattr__(self, "row", row)

    def bob_value(self, phi_prime_deg: float) -> int:
        try:
            return self.bob[BOB_PHI_DEGREES.index(phi_prime_deg)]
        except ValueError:
            raise ValueError(f"unknown Bob setting {phi_prime_deg!r} degrees") from None

    def alice_vector(self, phi_deg: float) -> np.ndarray:
        try:
            return np.array(self.alice[ALICE_PHI_DEGREES.index(phi_deg)], dtype=float)
        except ValueError:
            raise ValueError(f"unknown Alice setting {phi_deg!r} degrees") from None


def strategy_super_vector(strategy: DeterministicStrategy) -> np.ndarray:
    """Strategy's super-vector over the standard grid: sign times vector per pair."""
    rows = [
        strategy.bob_value(phi_prime_deg) * strategy.alice_vector(phi_deg)
        for phi_deg, phi_prime_deg in SETTING_PAIRS_DEGREES
    ]
    return np.stack(rows)


# Strategy i answers (bob -45, bob +45, alice 0, alice 90) with the signs of
# i's six binary digits, most significant first.  The (64, 4, 2) sign tensor
# pairs them as SETTING_PAIRS_DEGREES does: (0, -45), (0, 45), (90, -45), (90, 45).
_ANSWERS = 2 * ((np.arange(64)[:, None] >> np.arange(5, -1, -1)) & 1) - 1
_STRATEGIES = tuple(
    DeterministicStrategy(bob=(b0, b1), alice=((a0, a1), (a2, a3)))
    for b0, b1, a0, a1, a2, a3 in _ANSWERS.tolist()  # Python ints, as the CLI prints them
)
STRATEGY_SIGNS = (
    _ANSWERS[:, (0, 1, 0, 1), None] * _ANSWERS[:, ((2, 3), (2, 3), (4, 5), (4, 5))]
).astype(float, order="C")
STRATEGY_SIGNS.setflags(write=False)
_FLAT_SIGNS = STRATEGY_SIGNS.reshape(len(_STRATEGIES), -1)


def enumerate_strategies() -> list[DeterministicStrategy]:
    """All 64 deterministic strategies, in a fixed order (the rows of ``STRATEGY_SIGNS``)."""
    return list(_STRATEGIES)


class ExtremalBound(NamedTuple):
    maximum: float
    argmax: DeterministicStrategy


def lhv_extremal_bound(v_qm) -> ExtremalBound:
    """Exhaustive maximum of the scalar product over all 64 strategies.

    By sign symmetry of the enumeration the minimum is the negated maximum.
    Ties resolve to the first strategy in enumeration order.  A non-finite
    super-vector, or one whose products overflow, raises ValueError.
    """
    v = _as_super_vector(v_qm)
    if v.shape != STRATEGY_SIGNS.shape[1:]:
        raise ValueError(f"super-vector must have shape (4, 2), got {v.shape}")
    # a non-finite entry or an overflowing sum makes a value non-finite: that
    # raises the ValueError below, not a RuntimeWarning
    with np.errstate(invalid="ignore", over="ignore"):
        values = (STRATEGY_SIGNS * v).sum(axis=(1, 2))
    if not np.isfinite(values).all():
        raise ValueError("super-vector products must be finite")
    best = int(values.argmax())
    return ExtremalBound(float(values[best]), _STRATEGIES[best])


# The quantum super-vector over the standard grid and its exhaustive LHV
# bound: fixed by the scenario, so built once from that machinery.
QUANTUM_SUPER_VECTOR = build_quantum_super_vector()
QUANTUM_SUPER_VECTOR.setflags(write=False)
QUANTUM_BOUND = lhv_extremal_bound(QUANTUM_SUPER_VECTOR)


@dataclass(frozen=True)
class StrategyEnsemble:
    """Finite mixture of deterministic strategies with normalized weights.

    ``_rows`` holds each strategy's row of ``STRATEGY_SIGNS`` and
    ``_weights`` the weights, both as read-only arrays in entry order; they
    follow from ``entries``, so they take no part in equality or hashing.
    """

    entries: tuple[tuple[DeterministicStrategy, float], ...]
    _rows: np.ndarray = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # from a list, not a generator: cheaper at the sizes a mixture has
        entries = tuple([(strategy, float(weight)) for strategy, weight in self.entries])
        if not entries:
            raise ValueError("ensemble needs at least one strategy")
        weights = [weight for _, weight in entries]
        if not (all(map(isfinite, weights)) and min(weights) >= 0.0):
            bad = next(w for w in weights if not (isfinite(w) and w >= 0.0))
            raise ValueError(f"weights must be finite and nonnegative, got {bad!r}")
        try:
            total = fsum(weights)
        except OverflowError:  # finite weights whose partial sums overflow
            total = inf
        if not (abs(total - 1.0) <= 1e-12):
            raise ValueError(f"weights sum to {total!r}, not 1")
        object.__setattr__(self, "entries", entries)
        # the type check in the row gather is the range check too: only a
        # DeterministicStrategy's row is certain to be one of the 64
        rows = [s.row for s, _ in entries if isinstance(s, DeterministicStrategy)]
        if len(rows) != len(entries):
            bad = next(s for s, _ in entries if not isinstance(s, DeterministicStrategy))
            raise TypeError(f"ensemble entries must be DeterministicStrategy, got {bad!r}")
        rows = np.array(rows, dtype=np.intp)
        rows.setflags(write=False)
        object.__setattr__(self, "_rows", rows)
        weights = np.array(weights)
        weights.setflags(write=False)
        object.__setattr__(self, "_weights", weights)


def ensemble_super_vector(ensemble: StrategyEnsemble) -> np.ndarray:
    """Weight-averaged strategy super-vector."""
    return (ensemble._weights @ _FLAT_SIGNS.take(ensemble._rows, axis=0)).reshape(4, 2)


@dataclass(frozen=True)
class BellTestReport:
    """Verdict of the geometric Bell argument.

    ``violated`` holds exactly when the quantum value exceeds the LHV upper
    bound by more than ``VIOLATION_TOL``; ``violation_ratio`` is their ratio.
    """

    quantum_value: float
    lhv_upper_bound: float
    lhv_lower_bound: float
    violated: bool
    violation_ratio: float
    optimal_strategy: DeterministicStrategy


def check_visibility(visibility) -> float:
    """Visibility as a float, refusing anything outside [0, 1] or not finite."""
    v = float(visibility)
    if not (isfinite(v) and 0.0 <= v <= 1.0):
        raise ValueError(f"visibility must lie in [0, 1], got {visibility!r}")
    return v


def bell_test(visibility: float = 1.0) -> BellTestReport:
    """Compare the quantum prediction against the exhaustive LHV bound.

    At full visibility the quantum value is the super-vector squared norm 2;
    reduced visibility scales the predicted correlations, hence the scalar
    product, by the visibility factor.
    """
    visibility = check_visibility(visibility)
    quantum_value = super_dot(QUANTUM_SUPER_VECTOR, visibility * QUANTUM_SUPER_VECTOR)
    bound = QUANTUM_BOUND.maximum
    return BellTestReport(
        quantum_value=quantum_value,
        lhv_upper_bound=bound,
        lhv_lower_bound=-bound,
        violated=bool(quantum_value > bound + VIOLATION_TOL),
        violation_ratio=quantum_value / bound,
        optimal_strategy=QUANTUM_BOUND.argmax,
    )
