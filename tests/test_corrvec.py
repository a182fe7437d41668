"""Tests for outcome vectors, correlation vectors and super-vectors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telebell.corrvec import (
    SETTING_PAIRS_DEGREES,
    build_quantum_super_vector,
    correlation_closed_form,
    standard_setting_pairs,
    super_dot,
    super_norm_sq,
)
from telebell.teleport import (
    BELL_OUTCOMES,
    BOB_OUTCOMES,
    AnalyzerSettings,
    JointDistribution,
    PreparationSettings,
    joint_distribution_closed_form,
    joint_distribution_simulated,
)

from reference import (
    ALICE_VECTORS,
    BOB_SIGNS,
    correlation_from_distribution,
    quantum_super_vector,
)

SQRT_HALF = math.sqrt(0.5)
ANGLES = st.floats(-10.0, 10.0)


def numpy_correlation_closed_form(prep, analyzer):
    """The closed-form correlation vector evaluated with numpy's ufuncs."""
    ss = np.sin(2.0 * prep.beta) * np.sin(2.0 * analyzer.beta)
    return np.array(
        [
            ss * np.cos(prep.phi) * np.cos(analyzer.phi),
            ss * np.sin(prep.phi) * np.sin(analyzer.phi),
        ]
    )


# Bob's sign times Alice's vector for all the weight on one pair of outcomes.
POINT_MASSES = [
    ("00", "0", [1.0, 1.0]),
    ("00", "1", [-1.0, -1.0]),
    ("01", "0", [1.0, -1.0]),
    ("01", "1", [-1.0, 1.0]),
    ("10", "0", [-1.0, 1.0]),
    ("10", "1", [1.0, -1.0]),
    ("11", "0", [-1.0, -1.0]),
    ("11", "1", [1.0, 1.0]),
]


class TestValueAssignment:
    # the point masses fix the signs only up to flipping both parties' signs
    # at once; test_mapping and test_bob_values fix which

    def test_mapping(self):
        assert np.array_equal(ALICE_VECTORS, [[-1, -1], [-1, 1], [1, -1], [1, 1]])

    def test_injective(self):
        assert len({tuple(vector) for vector in ALICE_VECTORS}) == 4

    def test_bob_values(self):
        assert np.array_equal(BOB_SIGNS, [-1.0, 1.0])

    @pytest.mark.parametrize(
        "alice, bob, expected", POINT_MASSES, ids=[f"{a}-{b}" for a, b, _ in POINT_MASSES]
    )
    def test_point_mass(self, alice, bob, expected):
        table = np.zeros((4, 2))
        table[BELL_OUTCOMES.index(alice), BOB_OUTCOMES.index(bob)] = 1.0
        assert np.array_equal(correlation_from_distribution(JointDistribution(table)), expected)


class TestCorrelationFromDistribution:
    def test_uniform_distribution_vanishes(self):
        uniform = JointDistribution(np.full((4, 2), 0.125))
        assert np.allclose(correlation_from_distribution(uniform), [0.0, 0.0], atol=1e-15)

    def test_synthetic_point_mass(self):
        # all weight on (00, "0"): value is (-1) * (-1, -1) = (1, 1)
        table = np.zeros((4, 2))
        table[0, 0] = 1.0
        point = JointDistribution(table)
        assert np.array_equal(correlation_from_distribution(point), [1.0, 1.0])

    def test_matched_quarter_settings(self):
        dist = joint_distribution_closed_form(
            PreparationSettings(np.pi / 4, 0.0), AnalyzerSettings(np.pi / 4, 0.0)
        )
        assert np.allclose(correlation_from_distribution(dist), [1.0, 0.0], atol=1e-12)

    def test_bob_relabelling_negates_exactly(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            dist = joint_distribution_closed_form(
                PreparationSettings(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                AnalyzerSettings(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            )
            swapped = JointDistribution(dist.table[:, ::-1])
            assert np.array_equal(
                correlation_from_distribution(swapped), -correlation_from_distribution(dist)
            )


class TestCorrelationClosedForm:
    def test_first_standard_pair(self):
        e = correlation_closed_form(
            PreparationSettings(np.pi / 4, 0.0), AnalyzerSettings(np.pi / 4, -np.pi / 4)
        )
        assert np.allclose(e, [SQRT_HALF, 0.0], atol=1e-12)

    def test_fourth_standard_pair(self):
        e = correlation_closed_form(
            PreparationSettings(np.pi / 4, np.pi / 2), AnalyzerSettings(np.pi / 4, np.pi / 4)
        )
        assert np.allclose(e, [0.0, SQRT_HALF], atol=1e-12)

    def test_degenerate_preparation_vanishes(self):
        rng = np.random.default_rng(87)
        for _ in range(20):
            e = correlation_closed_form(
                PreparationSettings(0.0, rng.uniform(-3, 3)),
                AnalyzerSettings(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            )
            assert np.allclose(e, [0.0, 0.0], atol=1e-12)

    def test_agreement_with_distribution_paths(self):
        betas = np.linspace(0.0, np.pi / 2, 7)
        phis = np.linspace(-np.pi, np.pi, 7)
        for beta in betas:
            for phi in phis:
                prep = PreparationSettings(beta, phi)
                for beta_prime in betas[::2]:
                    for phi_prime in phis[::2]:
                        analyzer = AnalyzerSettings(beta_prime, phi_prime)
                        direct = correlation_closed_form(prep, analyzer)
                        via_closed = correlation_from_distribution(
                            joint_distribution_closed_form(prep, analyzer)
                        )
                        via_simulated = correlation_from_distribution(
                            joint_distribution_simulated(prep, analyzer)
                        )
                        assert np.max(np.abs(direct - via_closed)) <= 1e-12
                        assert np.max(np.abs(direct - via_simulated)) <= 1e-12

    @settings(derandomize=True, max_examples=300)
    @given(ANGLES, ANGLES, ANGLES, ANGLES)
    def test_matches_numpy_form_bitwise(self, beta, phi, beta_prime, phi_prime):
        prep = PreparationSettings(beta, phi)
        analyzer = AnalyzerSettings(beta_prime, phi_prime)
        e = correlation_closed_form(prep, analyzer)
        assert e.tobytes() == numpy_correlation_closed_form(prep, analyzer).tobytes()

    def test_componentwise_bounds(self):
        rng = np.random.default_rng(91)
        for _ in range(200):
            e = correlation_closed_form(
                PreparationSettings(rng.uniform(-7, 7), rng.uniform(-7, 7)),
                AnalyzerSettings(rng.uniform(-7, 7), rng.uniform(-7, 7)),
            )
            assert np.max(np.abs(e)) <= 1.0 + 1e-12

    def test_one_norm_bound_in_balanced_family(self):
        rng = np.random.default_rng(93)
        for _ in range(200):
            e = correlation_closed_form(
                PreparationSettings(np.pi / 4, rng.uniform(-7, 7)),
                AnalyzerSettings(np.pi / 4, rng.uniform(-7, 7)),
            )
            assert abs(e[0]) + abs(e[1]) <= 1.0 + 1e-12


class TestSuperVector:
    def test_entries(self):
        v = build_quantum_super_vector()
        expected = np.array(
            [[SQRT_HALF, 0.0], [SQRT_HALF, 0.0], [0.0, -SQRT_HALF], [0.0, SQRT_HALF]]
        )
        assert np.max(np.abs(v - expected)) <= 1e-12

    def test_entries_match_closed_form_at_standard_pairs(self):
        v = build_quantum_super_vector()
        for row, (prep, analyzer) in zip(v, standard_setting_pairs()):
            assert np.max(np.abs(row - correlation_closed_form(prep, analyzer))) <= 1e-12

    def test_matches_stack_form_bitwise(self):
        v = build_quantum_super_vector()
        expected = quantum_super_vector()
        assert v.dtype == expected.dtype and v.shape == expected.shape
        assert v.tobytes() == expected.tobytes()

    def test_setting_pair_order(self):
        assert SETTING_PAIRS_DEGREES == ((0, -45), (0, 45), (90, -45), (90, 45))

    def test_norm(self):
        assert super_norm_sq(build_quantum_super_vector()) == pytest.approx(2.0, abs=1e-12)

    def test_zero_norm(self):
        assert super_norm_sq(np.zeros((4, 2))) == 0.0

    def test_all_ones_norm(self):
        assert super_norm_sq(np.ones((4, 2))) == 8.0


class TestSuperDot:
    def test_self_dot_matches_norm(self):
        v = build_quantum_super_vector()
        assert super_dot(v, v) == super_norm_sq(v)
        assert super_dot(v, v) == pytest.approx(2.0, abs=1e-12)

    def test_zero_annihilates(self):
        assert super_dot(build_quantum_super_vector(), np.zeros((4, 2))) == 0.0

    def test_bilinearity(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            a, b, c = rng.standard_normal((3, 4, 2))
            left = super_dot(a, b + c)
            right = super_dot(a, b) + super_dot(a, c)
            assert abs(left - right) <= 1e-12

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            a, b = rng.standard_normal((2, 4, 2))
            assert super_dot(a, b) ** 2 <= super_norm_sq(a) * super_norm_sq(b) + 1e-12

    def test_complex_rejected(self):
        # the norm of i * v is 2, which a cast to float would read as 0
        v = build_quantum_super_vector()
        with pytest.raises(ValueError, match="real"):
            super_norm_sq(v * 1j)
        with pytest.raises(ValueError, match="real"):
            super_dot(v, v + 0j)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            super_dot(np.zeros((4, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            super_norm_sq(np.zeros(4))
