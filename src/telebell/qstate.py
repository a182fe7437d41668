"""Dense complex state vectors for small labelled qubit systems.

Conventions
-----------
- A ``PureState`` owns one complex amplitude per computational basis vector
  of its labelled tensor factors.  The label order fixes bit significance
  (leftmost label is the most significant bit), so for labels ``("B", "A")``
  the amplitude at index 2 (binary ``10``) belongs to ``|B=1, A=0>``.
- Everything runs in double precision.  Systems here have at most 16
  amplitudes, so a single absolute tolerance ``ATOL`` (1e-12) covers all
  orthonormality and normalization checks.
- All operations are pure functions of immutable values; amplitude arrays
  are stored read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, sqrt

import numpy as np

ATOL = 1e-12
PROB_FLOOR = 1e-14
MAX_QUBITS = 4

__all__ = [
    "ATOL",
    "PROB_FLOOR",
    "MAX_QUBITS",
    "PureState",
    "ProjectiveBasis",
    "basis_coefficients",
    "measure_probabilities",
    "clamp_probability",
]


def clamp_probability(p: float) -> float:
    """Clamp tiny negative rounding residue to zero.

    Values below ``-ATOL`` are treated as genuine errors, not noise, and so
    are nan and infinities.
    """
    if not isfinite(p):
        raise ValueError(f"probability {p!r} is not finite")
    if p < -ATOL:
        raise ValueError(f"negative probability {p!r} exceeds rounding tolerance")
    return 0.0 if p < 0.0 else float(p)


@dataclass(frozen=True, eq=False)
class PureState:
    """Complex amplitude vector over 1-4 labelled qubits.

    The vector is not forced to unit norm at construction; projection
    residuals are legitimately sub-normalized.
    """

    amplitudes: np.ndarray
    factor_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.factor_labels)
        if not 1 <= len(labels) <= MAX_QUBITS:
            raise ValueError(f"need 1..{MAX_QUBITS} factor labels, got {len(labels)}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"factor labels must be distinct, got {labels}")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (2 ** len(labels),):
            raise ValueError(
                f"expected {2 ** len(labels)} amplitudes for labels {labels}, got shape {amps.shape}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "factor_labels", labels)

    @property
    def num_qubits(self) -> int:
        return len(self.factor_labels)

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def is_unit(self) -> bool:
        return abs(self.norm_sq - 1.0) <= ATOL


def _kron_1d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, None] * b).reshape(-1)


@dataclass(frozen=True, eq=False)
class ProjectiveBasis:
    """Complete orthonormal basis of a labelled subspace, with outcome names.

    Orthonormality and completeness (state count equals the subspace
    dimension) are enforced at construction, so every instance is safe to
    measure against.  ``matrix`` holds the states' amplitudes as rows
    (read-only).
    """

    states: tuple[PureState, ...]
    outcome_labels: tuple[str, ...]
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        states = tuple(self.states)
        labels = tuple(self.outcome_labels)
        if not states:
            raise ValueError("basis needs at least one state")
        subsystem = states[0].factor_labels
        if any(s.factor_labels != subsystem for s in states):
            raise ValueError("basis states must share one subsystem labelling")
        dim = 2 ** len(subsystem)
        if len(states) != dim:
            raise ValueError(f"basis must span the subspace: need {dim} states, got {len(states)}")
        if len(labels) != len(states) or len(set(labels)) != len(labels):
            raise ValueError("need one distinct outcome label per basis state")
        matrix = np.array([s.amplitudes for s in states])
        # written so that a NaN residual (an overflowed Gram entry) fails too
        if not (np.abs(matrix.conj() @ matrix.T - np.eye(dim)).max() <= ATOL):
            raise ValueError("basis states are not orthonormal within tolerance")
        matrix.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "outcome_labels", labels)
        object.__setattr__(self, "matrix", matrix)

    @property
    def subsystem_labels(self) -> tuple[str, ...]:
        return self.states[0].factor_labels


def _front_permutation(state: PureState, front_labels: tuple[str, ...]) -> tuple[list[int], tuple[str, ...]]:
    """Axis order putting ``front_labels`` first; remaining labels keep their order."""
    front = []
    for label in front_labels:
        if label not in state.factor_labels:
            raise ValueError(f"unknown factor label {label!r} in state on {state.factor_labels}")
        front.append(state.factor_labels.index(label))
    rest = [i for i in range(state.num_qubits) if i not in front]
    return front + rest, tuple(state.factor_labels[i] for i in rest)


def _front_matrix(state: PureState, front_labels: tuple[str, ...]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Amplitudes as a matrix: rows index ``front_labels``, columns the remaining labels."""
    perm, rest = _front_permutation(state, front_labels)
    mat = (
        state.amplitudes.reshape([2] * state.num_qubits)
        .transpose(perm)
        .reshape(2 ** len(front_labels), -1)
    )
    return mat, rest


def basis_coefficients(state: PureState, basis: ProjectiveBasis, measured_labels) -> np.ndarray:
    """Coefficient rows ``<b_j|psi>`` of a basis on a labelled subsystem.

    Row ``j`` is the unnormalized residual left on the remaining labels (in
    their original order) when ``state`` is projected on basis element
    ``j``; its squared norm is that outcome's Born probability.  Returns an
    array of shape ``(len(basis.states), 2 ** remaining qubits)``.
    """
    measured = tuple(measured_labels)
    if basis.subsystem_labels != measured:
        raise ValueError(
            f"basis lives on {basis.subsystem_labels}, measurement requested on {measured}"
        )
    mat, _ = _front_matrix(state, measured)
    return basis.matrix.conj() @ mat


def measure_probabilities(
    state: PureState, basis: ProjectiveBasis, measured_labels
) -> list[tuple[str, float, PureState | None]]:
    """Born-rule statistics of a projective measurement on a subsystem.

    Args:
        state: unit-norm state; may be larger than the measured subsystem.
        basis: complete orthonormal basis on exactly ``measured_labels``.
        measured_labels: ordered subsystem labels, matching the basis states.

    Returns:
        ``[(outcome_label, probability, post_state), ...]`` in basis order.
        ``post_state`` is the normalized projection of ``state`` onto the
        basis element (tensor identity on the rest), expressed in the
        original label order.  It is None for outcomes with probability
        below ``PROB_FLOOR``.
    """
    measured = tuple(measured_labels)
    if not state.is_unit():
        raise ValueError("state must be normalized before measurement")
    coeffs = basis_coefficients(state, basis, measured)
    probs = np.einsum("ij,ij->i", coeffs, coeffs.conj()).real

    n = state.num_qubits
    perm, _ = _front_permutation(state, measured)
    inverse = [perm.index(axis) for axis in range(n)]
    results: list[tuple[str, float, PureState | None]] = []
    for j, outcome in enumerate(basis.outcome_labels):
        p = clamp_probability(float(probs[j]))
        post = None
        if p >= PROB_FLOOR:
            residual = coeffs[j] / sqrt(p)
            full = _kron_1d(basis.states[j].amplitudes, residual)
            full = full.reshape([2] * n).transpose(inverse).reshape(-1)
            post = PureState(full, state.factor_labels)
        results.append((outcome, p, post))
    return results
