"""Channel-cut teleportation scenario on qubits A, B, C.

Cecil prepares qubit A as ``sin(beta)|0> + cos(beta) e^{i phi}|1>``, qubits
B and C share the EPR pair ``(|00> + |11>)/sqrt(2)``.  Alice measures the
(B, A) pair in the Bell basis; Bob, who never learns her outcome, measures C
with a dichotomic analyzer parameterized by ``(beta', phi')``.  This module
provides the eight joint outcome probabilities both in closed form and
through an independent state-vector simulation, plus the full corrected
protocol as a sanity check.

Index convention: basis index 0/1 of each qubit corresponds to the first and
second orthogonal state of that particle.  Bell outcome labels are the
two-bit strings ``00, 01, 10, 11``; inside each label the Bell states are
stored on the (B, A) subspace with B as the most significant bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, degrees, isfinite, pi, radians, sin, sqrt

import numpy as np

from .qstate import (
    ATOL,
    PROB_FLOOR,
    ProjectiveBasis,
    PureState,
    clamp_probability,
)

_FLOAT64 = np.dtype(np.float64)

BELL_OUTCOMES = ("00", "01", "10", "11")
BOB_OUTCOMES = ("0", "1")

__all__ = [
    "BELL_OUTCOMES",
    "BOB_OUTCOMES",
    "PreparationSettings",
    "AnalyzerSettings",
    "JointDistribution",
    "bell_basis",
    "joint_distribution_closed_form",
    "joint_distribution_simulated",
    "correction_unitary",
    "run_full_teleportation",
]


def _wrap_phase(phi: float) -> float:
    """Reduce a phase to (-pi, pi]; in-range values pass through unchanged."""
    if -pi < phi <= pi:
        return phi
    wrapped = phi % (2.0 * pi)
    return wrapped - 2.0 * pi if wrapped > pi else wrapped


def _canonical_angles(beta: float, phi: float) -> tuple[float, float]:
    """Reduce (beta, phi) to beta in [0, pi/2], phi in (-pi, pi].

    The reduction maps the parameter pair to the canonical representative of
    the same physical state: shifting beta by pi is a global sign, and
    reflecting beta about pi/2 while advancing phi by pi leaves both the
    amplitudes and the analyzer projectors unchanged.
    """
    if not (isfinite(beta) and isfinite(phi)):
        raise ValueError("angles must be finite")
    # a float32 is reduced in double precision, and an int phase is not kept;
    # converted only after the check, which refuses strings and complex numbers
    if type(beta) is not float or type(phi) is not float:
        beta, phi = float(beta), float(phi)
    b = beta % (2.0 * pi)
    if b >= pi:
        b -= pi
    if b > pi / 2.0:
        b = pi - b
        phi = phi + pi
    return b, _wrap_phase(phi)


@dataclass(frozen=True, init=False)
class _AnglePair:
    """A (beta, phi) pair in radians, reduced to its canonical representative.

    Each angle may be any finite real number; it is stored as a Python float.
    """

    beta: float
    phi: float

    # its own ``__init__``, so that each field is written once, with the
    # reduced angle
    def __init__(self, beta: float, phi: float) -> None:
        beta, phi = _canonical_angles(beta, phi)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "phi", phi)

    @classmethod
    def from_degrees(cls, beta_deg: float, phi_deg: float):
        return cls(radians(beta_deg), radians(phi_deg))

    @property
    def degrees(self) -> tuple[float, float]:
        return degrees(self.beta), degrees(self.phi)


# Two subclasses, not one class under two names: a preparation never compares
# equal to an analyzer with the same angles, and the benchmark tracer, which
# replaces each name with its own wrapper, needs two distinct classes.
class PreparationSettings(_AnglePair):
    """Angles (beta, phi) of the prepared qubit-A state, in radians."""


class AnalyzerSettings(_AnglePair):
    """Angles (beta', phi') of Bob's dichotomic analyzer, as ``beta`` and ``phi``, in radians."""


@dataclass(frozen=True, eq=False, init=False)
class JointDistribution:
    """The eight joint probabilities P(bell outcome, analyzer outcome).

    Stored as a (4, 2) array with rows in ``BELL_OUTCOMES`` order and columns
    in ``BOB_OUTCOMES`` order.  Construction clamps sub-tolerance negative
    rounding residue; ``validate`` enforces the distribution invariants
    (normalization and the flat 1/4 Bell marginal).
    """

    table: np.ndarray
    _largest: float = field(init=False, repr=False)
    _marginal: tuple[float, ...] = field(init=False, repr=False)

    def __init__(self, table) -> None:
        if type(table) is np.ndarray and table.dtype is _FLOAT64:
            # what ``np.array(table, dtype=float)`` does with a float64 array
            table = table.copy(order="K")
        else:
            # refused, not cast: a cast to float would drop the imaginary parts
            if np.asarray(table).dtype.kind == "c":
                raise ValueError("probabilities must be real, got a complex table")
            table = np.array(table, dtype=float)
        if table.shape != (4, 2):
            raise ValueError(f"expected a (4, 2) probability table, got shape {table.shape}")
        # the checks run on the eight entries as plain floats: cheaper than
        # numpy reductions at this size, and ``validate`` reuses the sums
        entries = table.ravel().tolist()
        if not all(map(isfinite, entries)):
            raise ValueError("probabilities must be finite")
        low = min(entries)
        if low < 0.0:
            if low < -ATOL:
                raise ValueError("negative probability beyond rounding tolerance")
            entries = [0.0 if p < 0.0 else p for p in entries]
            table = np.array(entries).reshape(4, 2)
        table.setflags(write=False)
        e0, e1, e2, e3, e4, e5, e6, e7 = entries
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_largest", max(entries))
        object.__setattr__(self, "_marginal", (e0 + e1, e2 + e3, e4 + e5, e6 + e7))

    def validate(self) -> "JointDistribution":
        if not (self._largest <= 1.0 + ATOL):
            raise ValueError("probability above 1")
        total = sum(self._marginal)
        if not (abs(total - 1.0) <= ATOL):
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        m0, m1, m2, m3 = self._marginal
        # a NaN fails every comparison, so it is refused here too
        if not (
            abs(m0 - 0.25) <= ATOL
            and abs(m1 - 0.25) <= ATOL
            and abs(m2 - 0.25) <= ATOL
            and abs(m3 - 0.25) <= ATOL
        ):
            raise ValueError(f"Bell-outcome marginal {self._marginal!r} is not flat 1/4")
        return self


def _preparation_amplitudes(prep: PreparationSettings) -> np.ndarray:
    return np.array([sin(prep.beta), cos(prep.beta) * np.exp(1j * prep.phi)])


def _bell_basis() -> ProjectiveBasis:
    r = 1.0 / sqrt(2.0)
    amplitudes = (
        (r, 0.0, 0.0, r),
        (0.0, r, r, 0.0),
        (0.0, r, -r, 0.0),
        (r, 0.0, 0.0, -r),
    )
    states = tuple(PureState(np.array(a, dtype=complex), ("B", "A")) for a in amplitudes)
    return ProjectiveBasis(states, BELL_OUTCOMES)


_BELL_BASIS = _bell_basis()
# The Bell stage's fixed operands: the conjugated Bell rows, and the EPR pair
# (|00> + |11>)/sqrt(2) as a (2, 2) amplitude matrix, rows indexed by its
# first qubit, with its (B, A, D, C) view that broadcasts against A's
# amplitudes: B of the (B, C) pair along the first axis, C along the last.
_BELL_CONJ = _BELL_BASIS.matrix.conj()
_BELL_CONJ.setflags(write=False)
_EPR = np.array(np.array([1.0, 0.0, 0.0, 1.0]) / sqrt(2.0), dtype=complex).reshape(2, 2)
_EPR.setflags(write=False)
_EPR_B11C = _EPR.reshape(2, 1, 1, 2)


def bell_basis() -> ProjectiveBasis:
    """The four Bell states on the (B, A) subspace, labelled 00, 01, 10, 11."""
    return _BELL_BASIS


def _analyzer_operand(beta: float, phi: float) -> np.ndarray:
    """The dichotomic analyzer's conjugated states as the columns of one (2, 2) array.

    Outcome "0" is ``cos(beta)|0> + sin(beta) e^{i phi}|1>``, outcome "1" the
    orthogonal ``-sin(beta)|0> + cos(beta) e^{i phi}|1>``; column k holds
    state k conjugated, so a row ``r`` of amplitudes times this C-contiguous
    array is the pair of coefficients ``<a_k|r>``.
    """
    c, s, phase = cos(beta), sin(beta), np.exp(1j * phi)
    return np.array([[c, -s], [s * phase, c * phase]]).conj()


def joint_distribution_closed_form(
    prep: PreparationSettings, analyzer: AnalyzerSettings
) -> JointDistribution:
    """The eight joint probabilities evaluated from their closed form."""
    cc = cos(2.0 * prep.beta) * cos(2.0 * analyzer.beta)
    ss = sin(2.0 * prep.beta) * sin(2.0 * analyzer.beta)
    minus = cos(prep.phi - analyzer.phi)
    plus = cos(prep.phi + analyzer.phi)
    # P(j, "0") for each Bell outcome j; P(j, "1") is the rest of its 1/4
    p0 = (1.0 - cc + ss * minus) / 8.0
    p1 = (1.0 + cc + ss * plus) / 8.0
    p2 = (1.0 + cc - ss * plus) / 8.0
    p3 = (1.0 - cc - ss * minus) / 8.0
    table = np.array([p0, 0.25 - p0, p1, 0.25 - p1, p2, 0.25 - p2, p3, 0.25 - p3]).reshape(4, 2)
    return JointDistribution(table).validate()


def _bell_stage(amp: np.ndarray) -> np.ndarray:
    """Alice's Bell measurement on (B, A), with B half of the (B, C) EPR pair.

    ``amp`` holds A's amplitudes, ``amp[a]``, or with a spectator qubit D
    entangled with A, ``amp[a, d]``.  The result has one row per Bell
    outcome: row j is ``<b_j|psi>``, the unnormalized state left on C, or on
    (D, C) with D the more significant bit, whose squared norm is that
    outcome's probability.  The amplitudes ``amp[a, d] * epr[b, c]`` of the
    full state are laid out with rows in (B, A) order and contracted with
    the fixed conjugated Bell rows: the products and the matmul of
    ``basis_coefficients`` on the full state, without building that state.
    """
    return _BELL_CONJ @ (amp.reshape(2, -1, 1) * _EPR_B11C).reshape(4, -1)


def _bell_outcomes(amp: np.ndarray) -> list[tuple[str, float, np.ndarray]]:
    """``(outcome, probability, row)`` for each row of ``_bell_stage(amp)``.

    Every outcome of a Bell measurement on half of an EPR pair has
    probability 1/4, so one below ``PROB_FLOOR`` is an invariant breach.
    """
    results = []
    for outcome, row in zip(BELL_OUTCOMES, _bell_stage(amp)):
        p = clamp_probability(float(np.vdot(row, row).real))
        if not (p >= PROB_FLOOR):
            raise RuntimeError(f"Bell outcome {outcome} unexpectedly has zero probability")
        results.append((outcome, p, row))
    return results


def joint_distribution_simulated(
    prep: PreparationSettings, analyzer: AnalyzerSettings
) -> JointDistribution:
    """Born-rule oracle: measure the Bell basis on (B, A), then Bob's on C.

    Entry (j, k) is ``|<a_k|r_j>|^2`` for Bell-stage row ``r_j`` and Bob's
    analyzer state ``a_k``: the Bell stage's rows times the analyzer operand,
    built from the angles with no basis object.  Independent of the closed
    form; the two must agree within 1e-12.
    """
    operand = _analyzer_operand(analyzer.beta, analyzer.phi)
    amplitudes = _bell_stage(_preparation_amplitudes(prep)) @ operand
    return JointDistribution(np.abs(amplitudes) ** 2).validate()


def _checked_corrections(corrections: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The correction unitaries, each checked unitary and made read-only."""
    for outcome, u in corrections.items():
        if not (np.abs(u.conj().T @ u - np.eye(2)).max() <= ATOL):
            raise RuntimeError(f"correction for Bell outcome {outcome} is not unitary")
        u.setflags(write=False)
    return corrections


_CORRECTIONS = _checked_corrections(
    {
        "00": np.eye(2, dtype=complex),
        "01": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        "10": np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex),
        "11": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    }
)


def correction_unitary(outcome: str) -> np.ndarray:
    """Unitary Bob would apply to C for the given Bell outcome.

    Fixed (up to global phase) by requiring that C's conditional state after
    the correction reproduces the prepared A state with fidelity 1 for every
    preparation; the oracle test in ``run_full_teleportation`` guards the
    convention.
    """
    try:
        return _CORRECTIONS[outcome]
    except KeyError:
        raise ValueError(f"unknown Bell outcome {outcome!r}") from None


def run_full_teleportation(prep: PreparationSettings) -> list[tuple[str, float, float]]:
    """Simulate the corrected protocol end to end.

    Returns ``[(bell outcome, probability, fidelity after correction), ...]``;
    every probability is 1/4 and every fidelity 1, up to rounding.  For
    Bell-stage row ``r`` with probability ``p = |r|^2``, correction ``U`` and
    prepared amplitudes ``a``, the fidelity is ``|<a|U r> / sqrt(p)|^2``.
    """
    target = _preparation_amplitudes(prep)
    results = []
    for outcome, p, row in _bell_outcomes(target):
        overlap = complex(np.vdot(target, _CORRECTIONS[outcome] @ row))
        results.append((outcome, p, abs(overlap / sqrt(p)) ** 2))
    return results
