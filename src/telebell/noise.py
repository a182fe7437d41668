"""Visibility analysis for the channel-cut Bell test.

Visibility v mixes the ideal joint distribution with uniform noise,
``P_v = v P + (1 - v)/8``, which scales every correlation vector by exactly
v while keeping the flat 1/4 Bell marginal.  The Bell verdict then flips at
the visibility where the scaled quantum value 2v crosses the LHV bound
sqrt(2), i.e. at v = 1/sqrt(2), about 71 percent.
"""

from __future__ import annotations

from .corrvec import super_norm_sq
from .lhv import QUANTUM_BOUND, QUANTUM_SUPER_VECTOR, check_visibility
from .teleport import (
    AnalyzerSettings,
    JointDistribution,
    PreparationSettings,
    joint_distribution_closed_form,
)

__all__ = ["noisy_joint_distribution", "violation_threshold"]


def noisy_joint_distribution(
    prep: PreparationSettings, analyzer: AnalyzerSettings, visibility: float
) -> JointDistribution:
    """Ideal distribution mixed with uniform noise at the given visibility."""
    v = check_visibility(visibility)
    ideal = joint_distribution_closed_form(prep, analyzer)
    return JointDistribution(v * ideal.table + (1.0 - v) / 8.0).validate()


def violation_threshold() -> float:
    """Smallest visibility whose scaled quantum value beats the LHV bound.

    Computed from the bound machinery itself (the scaled quantum value is
    ``v * super_norm_sq``), not hard-coded; evaluates to 1/sqrt(2).
    """
    return QUANTUM_BOUND.maximum / super_norm_sq(QUANTUM_SUPER_VECTOR)
