"""Tests for the visibility admixture and the violation threshold."""

import math

import numpy as np
import pytest

from telebell.corrvec import super_norm_sq
from telebell.lhv import QUANTUM_BOUND, QUANTUM_SUPER_VECTOR, VIOLATION_TOL, bell_test
from telebell.noise import noisy_joint_distribution, violation_threshold
from telebell.teleport import (
    AnalyzerSettings,
    PreparationSettings,
    joint_distribution_closed_form,
)

from reference import correlation_from_distribution


class TestNoisyDistribution:
    def test_full_visibility_is_ideal(self):
        prep = PreparationSettings(0.7, -1.1)
        analyzer = AnalyzerSettings(1.2, 0.4)
        noisy = noisy_joint_distribution(prep, analyzer, 1.0)
        ideal = joint_distribution_closed_form(prep, analyzer)
        assert np.max(np.abs(noisy.table - ideal.table)) <= 1e-15

    def test_zero_visibility_is_uniform(self):
        noisy = noisy_joint_distribution(
            PreparationSettings(0.7, -1.1), AnalyzerSettings(1.2, 0.4), 0.0
        )
        assert np.max(np.abs(noisy.table - 0.125)) <= 1e-15

    def test_marginal_stays_flat(self):
        rng = np.random.default_rng(113)
        for _ in range(50):
            noisy = noisy_joint_distribution(
                PreparationSettings(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                AnalyzerSettings(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                rng.random(),
            )
            assert np.max(np.abs(noisy.table.sum(axis=1) - 0.25)) <= 1e-12

    def test_correlation_scales_linearly(self):
        rng = np.random.default_rng(127)
        for _ in range(50):
            prep = PreparationSettings(rng.uniform(-3, 3), rng.uniform(-3, 3))
            analyzer = AnalyzerSettings(rng.uniform(-3, 3), rng.uniform(-3, 3))
            v = rng.random()
            scaled = correlation_from_distribution(noisy_joint_distribution(prep, analyzer, v))
            ideal = correlation_from_distribution(joint_distribution_closed_form(prep, analyzer))
            assert np.max(np.abs(scaled - v * ideal)) <= 1e-12

    def test_invalid_visibility(self):
        prep = PreparationSettings(0.7, -1.1)
        analyzer = AnalyzerSettings(1.2, 0.4)
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                noisy_joint_distribution(prep, analyzer, bad)


class TestViolationThreshold:
    def test_value(self):
        assert abs(violation_threshold() - 1.0 / math.sqrt(2.0)) <= 1e-9

    def test_matches_rounded_seventy_one_percent(self):
        assert round(violation_threshold(), 2) == 0.71

    def test_bracketing(self):
        threshold = violation_threshold()
        assert bell_test(threshold + 0.01).violated is True
        assert bell_test(threshold - 0.01).violated is False

    def test_quoted_visibilities(self):
        assert bell_test(0.65).violated is False
        assert bell_test(1.0).violated is True
        margin = bell_test(1.0).quantum_value - bell_test(1.0).lhv_upper_bound
        assert margin == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)

    def test_verdict_flips_exactly_once(self):
        threshold = violation_threshold()
        verdicts = [bell_test(v).violated for v in np.linspace(0.0, 1.0, 101)]
        flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
        assert flips == 1
        assert verdicts[0] is False and verdicts[-1] is True
        # quantum value is strictly increasing in the visibility
        values = [bell_test(v).quantum_value for v in np.linspace(0.0, 1.0, 21)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert bell_test(min(threshold + 0.001, 1.0)).violated is True


class TestPaperNumbers:
    # the paper's numbers, each the correctly rounded double: the LHV bound
    # sqrt(2), the quantum value 2 and the threshold visibility 1/sqrt(2)

    # the last visibility that bell_test does not call a violation
    LAST_UNVIOLATED = 0.7071067811870476

    def test_lhv_bound_is_sqrt_two(self):
        assert QUANTUM_BOUND.maximum == math.sqrt(2.0)

    def test_quantum_norm_is_two(self):
        assert super_norm_sq(QUANTUM_SUPER_VECTOR) == 2.0

    def test_threshold_is_sqrt_half(self):
        # sqrt(0.5), not 1 / sqrt(2.0), which rounds one ulp lower
        assert violation_threshold() == math.sqrt(0.5)
        assert 1.0 / math.sqrt(2.0) == math.nextafter(math.sqrt(0.5), 0.0)

    def test_verdict_flips_at_adjacent_doubles(self):
        edge = self.LAST_UNVIOLATED
        assert bell_test(math.nextafter(edge, 0.0)).violated is False
        assert bell_test(edge).violated is False
        assert bell_test(math.nextafter(edge, 1.0)).violated is True

    def test_flip_lies_half_the_tolerance_above_threshold(self):
        # the quantum value 2v must beat sqrt(2) by VIOLATION_TOL, so the
        # flip lies VIOLATION_TOL / 2 above 1/sqrt(2): 4,505 ulps
        threshold, flip = violation_threshold(), math.nextafter(self.LAST_UNVIOLATED, 1.0)
        assert (flip - threshold) / math.ulp(threshold) == 4505.0
        assert abs(flip - (threshold + VIOLATION_TOL / 2)) <= 2 * math.ulp(threshold)
