"""Entanglement swapping on two EPR pairs, with CHSH tests on the swapped pair.

Qubits D and A share one EPR pair, B and C the other.  A Bell measurement on
(B, A) leaves D and C, which never interacted, in one of four maximally
entangled states, each with probability 1/4.  No correction is applied to
the post-selected pair; instead the CHSH optimization over analyzer angles
absorbs the outcome-dependent local rotation, so post-selection on any single
Bell outcome already yields the full quantum CHSH value 2*sqrt(2).

CHSH analyzers are restricted to the real (phi = 0) dichotomic family, which
suffices to reach the quantum maximum for all four post-states.  Angles are
radians internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, cos, hypot, isfinite, pi, sin, sqrt
from typing import NamedTuple

import numpy as np

from .qstate import PureState, _front_matrix
from .teleport import _EPR, _bell_outcomes

TSIRELSON_BOUND = 2.0 * sqrt(2.0)

__all__ = [
    "TSIRELSON_BOUND",
    "SwapReport",
    "ChshScanResult",
    "reduced_purity",
    "chsh_on_pair",
    "max_chsh",
    "run_swap",
]


def reduced_purity(state: PureState, label: str) -> float:
    """Purity of the reduced density matrix of one labelled qubit.

    1 for a product state, 1/2 for a maximally entangled partner.
    """
    mat, _ = _front_matrix(state, (label,))
    rho = mat @ mat.conj().T
    return float((rho @ rho).trace().real)


def _analyzer_rows(angles) -> np.ndarray:
    """(n, 2, 2) stack of real dichotomic analyzers, one per angle, as basis rows.

    Row 0 (outcome "0") is ``(cos t, sin t)``, row 1 (outcome "1") is
    ``(-sin t, cos t)``: the dichotomic analyzer of ``teleport`` at phase 0.
    """
    return np.array([((cos(t), sin(t)), (-sin(t), cos(t))) for t in angles])


def _correlations(state: PureState, angles_1, angles_2) -> np.ndarray:
    """Born-rule correlations E(a_k, b_k) of real analyzer pairs, in one batch.

    For the (2, 2) amplitude matrix ``Psi`` of the state, entry (k, l) of
    ``|A_a Psi A_b^T|^2`` is the Born probability of outcomes k and l at the
    analyzers ``A_a`` and ``A_b`` (real, so equal to their conjugates).
    Outcomes carry signs -1 (outcome "0") and +1 (outcome "1"); the product
    is the same under the opposite convention.
    """
    if state.num_qubits != 2:
        raise ValueError("correlation is defined for 2-qubit states")
    amplitudes = (
        _analyzer_rows(angles_1)
        @ state.amplitudes.reshape(2, 2)
        @ _analyzer_rows(angles_2).transpose(0, 2, 1)
    )
    p = (np.abs(amplitudes) ** 2).reshape(-1, 4).T
    return p[0] - p[1] - p[2] + p[3]


def chsh_on_pair(state: PureState, angles) -> float:
    """CHSH value S = E(a,b) - E(a,b') + E(a',b) + E(a',b') from the Born rule.

    Non-finite angles raise ``ValueError``.
    """
    a, a_alt, b, b_alt = angles
    try:
        if not all(map(isfinite, (a, a_alt, b, b_alt))):
            raise ValueError("angles must be finite")
    except OverflowError:  # an int beyond the float range
        raise ValueError("angles must be finite") from None
    e = _correlations(state, (a, a, a_alt, a_alt), (b, b_alt, b, b_alt)).tolist()
    s = e[0] - e[1] + e[2] + e[3]
    if not (abs(s) <= TSIRELSON_BOUND + 1e-12):
        raise RuntimeError(f"CHSH value {s!r} exceeds the quantum bound")
    return s


def _analyzer_angle(direction: np.ndarray) -> float:
    """Angle t in [0, pi) whose analyzer direction (cos 2t, sin 2t) is ``direction``."""
    angle = (0.5 * atan2(direction[1], direction[0])) % pi
    # a tiny negative half-angle rounds up to pi, the same analyzer as 0
    return 0.0 if angle == pi else angle


# The four (a, b) pairs over the axis angles 0 and pi/4, in row-major order.
_AXES_FIRST = (0.0, 0.0, pi / 4.0, pi / 4.0)
_AXES_SECOND = (0.0, pi / 4.0, 0.0, pi / 4.0)


def _correlation_matrix(state: PureState) -> np.ndarray:
    """2x2 matrix M with E(a, b) = u(a) . M u(b) for u(t) = (cos 2t, sin 2t).

    Built from the Born-rule correlations at the axis angles 0 and pi/4, in
    one batch; bilinearity in the analyzer directions then reproduces E
    everywhere.
    """
    return _correlations(state, _AXES_FIRST, _AXES_SECOND).reshape(2, 2)


class ChshScanResult(NamedTuple):
    """Maximal CHSH value, the angles (radians) reaching it, and its closed form.

    ``value`` is the Born-rule CHSH value at ``angles``;
    ``closed_form_value`` is the closed-form optimum ``2 sqrt(s1^2 + s2^2)``
    of the correlation matrix.
    """

    value: float
    angles: tuple[float, float, float, float]
    closed_form_value: float

    @property
    def grid_value(self) -> float:
        """``closed_form_value`` under its former name, which the acceptance tests read."""
        return self.closed_form_value


# Alice's axes (columns u1, u2) when M has degenerate singular values.  Any
# orthonormal pair is then optimal; these are the directions of the analyzer
# angles pi/2 and pi/4, the pair the SVD returned for the four swapped pairs,
# so the angles printed for them stay as they were.
_DEGENERATE_ALICE_AXES = np.array([[-1.0, 0.0], [0.0, 1.0]])
# Below this gap, relative to s1, the singular vectors of M come from
# rounding noise.
_DEGENERATE_GAP = 1e-12


def _optimal_axes(m: np.ndarray) -> tuple[float, tuple[float, float, float, float]]:
    """Closed-form CHSH optimum of the correlation matrix M, and analyzer angles reaching it.

    With E(a, b) = u(a) . M u(b), the optimum over real analyzers is
    ``2 sqrt(s1^2 + s2^2)`` for the singular values s1 >= s2 of M (the
    Horodecki criterion, Phys. Lett. A 200, 340 (1995)).  Alice's
    directions are orthonormal axes u1, u2 and Bob's are
    ``cos(t) v1 +- sin(t) v2`` with ``tan t = s2 / s1`` and
    ``M v_i = s_i u_i``: the singular vectors of M.  When s1 == s2 (to
    within ``_DEGENERATE_GAP``), M / s1 is orthogonal and every orthonormal
    pair u1, u2 is optimal; Alice's axes are then fixed and Bob's are
    ``v_i = (M / s1)^T u_i``, so that rounding noise in M does not pick
    them.  Otherwise each pair (u_i, v_i) is signed so that the
    largest-magnitude component of u_i (the first, on a tie) is positive,
    as LAPACK may return either sign.  The angles are folded into [0, pi).
    """
    left, sigma, right_t = np.linalg.svd(m)
    s1, s2 = sigma.tolist()
    # a zero M (s2 == 0 == s1) reaches 0 at any angles and has no s1 to divide by
    if s2 > 0.0 and s1 - s2 <= _DEGENERATE_GAP * s1:
        orthogonal = m / s1
        if not (np.abs(orthogonal.T @ orthogonal - np.eye(2)).max() <= 1e-9):
            raise RuntimeError("correlation matrix with degenerate singular values is not orthogonal")
        left = _DEGENERATE_ALICE_AXES
        right_t = left.T @ orthogonal
    else:
        signs = np.sign(left[np.abs(left).argmax(axis=0), (0, 1)])
        left = left * signs
        right_t = right_t * signs[:, None]
    t = atan2(s2, s1)
    directions = (
        left[:, 1],
        left[:, 0],
        cos(t) * right_t[0] + sin(t) * right_t[1],
        cos(t) * right_t[0] - sin(t) * right_t[1],
    )
    return 2.0 * hypot(s1, s2), tuple(_analyzer_angle(d) for d in directions)


def max_chsh(state: PureState) -> ChshScanResult:
    """Maximal CHSH value of a 2-qubit state over real analyzer angles.

    The optimum and its angles come from the closed form of
    ``_optimal_axes``; the returned value is the Born-rule CHSH value at
    those angles, which must reproduce the closed form.
    """
    closed_form_value, angles = _optimal_axes(_correlation_matrix(state))
    born_value = chsh_on_pair(state, angles)
    bound = TSIRELSON_BOUND + 1e-9
    if not (closed_form_value <= bound and born_value <= bound):
        raise RuntimeError("CHSH optimum exceeds the quantum bound")
    if not (abs(born_value - closed_form_value) <= 1e-9):
        raise RuntimeError(
            f"Born-rule CHSH value {born_value!r} misses the closed-form optimum "
            f"{closed_form_value!r}"
        )
    return ChshScanResult(born_value, angles, closed_form_value)


@dataclass(frozen=True, eq=False)
class SwapReport:
    """Per-outcome results of the swapping protocol.

    Maps are keyed by Bell outcome label; ``post_states`` hold the
    post-selected (D, C) pair, ``chsh_values`` its maximal CHSH value
    and ``chsh_angles`` the analyzer angles (radians) achieving it.
    """

    outcome_probabilities: dict[str, float]
    post_states: dict[str, PureState]
    chsh_values: dict[str, float]
    chsh_angles: dict[str, tuple[float, float, float, float]]


def run_swap() -> SwapReport:
    """Bell-measure (B, A) of the double EPR state and analyse every outcome.

    A is half of the (D, A) EPR pair, so the Bell stage runs on A's
    amplitudes with D as the spectator, ``amp[a, d]``: the (D, A) pair's
    amplitude matrix transposed, which for the symmetric ``_EPR`` is
    ``_EPR`` itself.  Row j of the stage is the unnormalized (D, C) pair
    given Bell outcome j.
    """
    probabilities: dict[str, float] = {}
    posts: dict[str, PureState] = {}
    chsh_values: dict[str, float] = {}
    chsh_angles: dict[str, tuple[float, float, float, float]] = {}
    for outcome, probability, row in _bell_outcomes(_EPR):
        pair = PureState(row / sqrt(probability), ("D", "C"))
        scan = max_chsh(pair)
        probabilities[outcome] = probability
        posts[outcome] = pair
        chsh_values[outcome] = scan.value
        chsh_angles[outcome] = scan.angles
    return SwapReport(probabilities, posts, chsh_values, chsh_angles)
