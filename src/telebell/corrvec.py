"""Vector-valued outcome assignment and the correlation super-vector.

Alice's four Bell outcomes map to the 2-vectors (-1,-1), (-1,1), (1,-1),
(1,1) (binary labels with 0 replaced by -1); Bob's outcomes map to -1 and +1.
The correlation function is the probability-weighted average of Bob's sign
times Alice's vector, so it is itself a 2-vector.  Stacking it over the four
standard setting pairs gives the quantum super-vector whose squared norm is 2.
"""

from __future__ import annotations

from math import cos, sin

import numpy as np

from .teleport import AnalyzerSettings, JointDistribution, PreparationSettings

ALICE_PHI_DEGREES = (0.0, 90.0)
BOB_PHI_DEGREES = (-45.0, 45.0)
STANDARD_BETA_DEGREES = 45.0

# Setting-pair order is part of the super-vector contract; downstream code
# (LHV strategies, the Bell report) indexes into it.
SETTING_PAIRS_DEGREES = (
    (0.0, -45.0),
    (0.0, 45.0),
    (90.0, -45.0),
    (90.0, 45.0),
)

_ALICE_VECTORS = {
    "00": (-1.0, -1.0),
    "01": (-1.0, 1.0),
    "10": (1.0, -1.0),
    "11": (1.0, 1.0),
}
_BOB_VALUES = {"0": -1.0, "1": 1.0}

_ALICE_MATRIX = np.array([_ALICE_VECTORS[c] for c in ("00", "01", "10", "11")])
_BOB_SIGNS = np.array([_BOB_VALUES["0"], _BOB_VALUES["1"]])
_ALICE_MATRIX.setflags(write=False)
_BOB_SIGNS.setflags(write=False)

__all__ = [
    "ALICE_PHI_DEGREES",
    "BOB_PHI_DEGREES",
    "STANDARD_BETA_DEGREES",
    "SETTING_PAIRS_DEGREES",
    "alice_value",
    "bob_value",
    "correlation_from_distribution",
    "correlation_closed_form",
    "standard_setting_pairs",
    "build_quantum_super_vector",
    "super_norm_sq",
    "super_dot",
]


def alice_value(outcome: str) -> np.ndarray:
    """2-vector assigned to a Bell outcome."""
    if outcome not in _ALICE_VECTORS:
        raise ValueError(f"unknown Bell outcome {outcome!r}")
    return np.array(_ALICE_VECTORS[outcome])


def bob_value(outcome: str) -> float:
    """Sign assigned to Bob's outcome: -1 for "0", +1 for "1"."""
    if outcome not in _BOB_VALUES:
        raise ValueError(f"unknown analyzer outcome {outcome!r}")
    return _BOB_VALUES[outcome]


def correlation_from_distribution(dist: JointDistribution) -> np.ndarray:
    """Average of Bob's sign times Alice's vector under the distribution."""
    signed = dist.table @ _BOB_SIGNS
    return _ALICE_MATRIX.T @ signed


def correlation_closed_form(
    prep: PreparationSettings, analyzer: AnalyzerSettings
) -> np.ndarray:
    """Correlation vector in closed form:

    ``sin(2 beta) sin(2 beta') (cos phi cos phi', sin phi sin phi')``.
    """
    ss = sin(2.0 * prep.beta) * sin(2.0 * analyzer.beta)
    return np.array(
        [
            ss * cos(prep.phi) * cos(analyzer.phi),
            ss * sin(prep.phi) * sin(analyzer.phi),
        ]
    )


def standard_setting_pairs() -> tuple[tuple[PreparationSettings, AnalyzerSettings], ...]:
    """The four (preparation, analyzer) pairs of the fixed Bell-test grid."""
    pairs = []
    for phi_deg, phi_prime_deg in SETTING_PAIRS_DEGREES:
        prep = PreparationSettings.from_degrees(STANDARD_BETA_DEGREES, phi_deg)
        analyzer = AnalyzerSettings.from_degrees(STANDARD_BETA_DEGREES, phi_prime_deg)
        pairs.append((prep, analyzer))
    return tuple(pairs)


def build_quantum_super_vector() -> np.ndarray:
    """Quantum super-vector over the standard grid, shape (4, 2).

    Entries evaluate to (sqrt(1/2), 0), (sqrt(1/2), 0), (0, -sqrt(1/2)),
    (0, sqrt(1/2)) up to rounding.
    """
    return np.array(
        [correlation_closed_form(prep, analyzer) for prep, analyzer in standard_setting_pairs()]
    )


def _as_super_vector(v) -> np.ndarray:
    arr = np.asarray(v)
    # refused, not cast: a cast to float would drop the imaginary parts
    if arr.dtype.kind == "c":
        raise ValueError("super-vector must be real, got a complex array")
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ValueError(f"super-vector must have shape (n, 2), got {arr.shape}")
    return arr


def super_norm_sq(v) -> float:
    """Sum over entries of the squared 2-vector norms."""
    arr = _as_super_vector(v)
    return float((arr * arr).sum())


def super_dot(a, b) -> float:
    """Entrywise sum of 2-vector dot products, compatible with the norm."""
    x = _as_super_vector(a)
    y = _as_super_vector(b)
    if x.shape != y.shape:
        raise ValueError(f"super-vector shapes differ: {x.shape} vs {y.shape}")
    return float((x * y).sum())
