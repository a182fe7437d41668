"""Tests for the channel-cut teleportation scenario."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telebell.qstate import (
    PureState,
    apply_local_unitary,
    basis_coefficients,
    inner_product,
    measure_probabilities,
    partial_inner,
)
from telebell.swap import chsh_on_pair
from telebell.teleport import (
    BELL_OUTCOMES,
    BOB_OUTCOMES,
    AnalyzerSettings,
    JointDistribution,
    PreparationSettings,
    _bell_stage,
    _checked_corrections,
    bell_basis,
    bob_basis,
    correction_unitary,
    dichotomic_basis,
    joint_distribution_closed_form,
    joint_distribution_simulated,
    run_full_teleportation,
)

from reference import bob_rows, closed_form_table, initial_state, simulated_table

SQRT_HALF = 1 / math.sqrt(2.0)
ANGLES = st.floats(-10.0, 10.0)


def sequential_teleportation(prep):
    """Reference protocol on 3-qubit states: Bell measurement with post
    states, correction on C, contraction with the Bell state, overlap."""
    state = initial_state(prep)
    target = PureState(
        np.array([math.sin(prep.beta), math.cos(prep.beta) * np.exp(1j * prep.phi)]), ("C",)
    )
    basis = bell_basis()
    results = []
    for idx, (outcome, p, post) in enumerate(measure_probabilities(state, basis, ("B", "A"))):
        corrected = apply_local_unitary(post, correction_unitary(outcome), "C")
        residual = partial_inner(basis.states[idx], corrected).normalize()
        results.append((outcome, p, abs(inner_product(target, residual)) ** 2))
    return results


def closed_form_raw(beta, phi, beta_prime, phi_prime):
    """Reference evaluation of the displayed formulas at unreduced angles."""
    cc = math.cos(2 * beta) * math.cos(2 * beta_prime)
    ss = math.sin(2 * beta) * math.sin(2 * beta_prime)
    minus = math.cos(phi - phi_prime)
    plus = math.cos(phi + phi_prime)
    p0 = np.array(
        [
            (1 - cc + ss * minus) / 8,
            (1 + cc + ss * plus) / 8,
            (1 + cc - ss * plus) / 8,
            (1 - cc - ss * minus) / 8,
        ]
    )
    return np.column_stack([p0, 0.25 - p0])


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# beta + pi is a global sign; beta -> pi - beta with phi + pi leaves the
# amplitudes and projectors unchanged.
EQUIVALENT_ANGLES = (
    lambda b, f: (b, f),
    lambda b, f: (b + math.pi, f),
    lambda b, f: (math.pi - b, f + math.pi),
)


SETTINGS_CLASSES = (PreparationSettings, AnalyzerSettings)


class TestSettings:
    def test_canonical_ranges(self):
        rng = np.random.default_rng(41)
        for cls in SETTINGS_CLASSES:
            for _ in range(200):
                pair = cls(rng.uniform(-10, 10), rng.uniform(-10, 10))
                assert 0.0 <= pair.beta <= np.pi / 2
                assert -np.pi < pair.phi <= np.pi

    def test_reduction_preserves_distribution(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            beta, phi = rng.uniform(-10, 10, size=2)
            beta_prime, phi_prime = rng.uniform(-10, 10, size=2)
            reduced = joint_distribution_closed_form(
                PreparationSettings(beta, phi), AnalyzerSettings(beta_prime, phi_prime)
            )
            raw = closed_form_raw(beta, phi, beta_prime, phi_prime)
            assert np.max(np.abs(reduced.table - raw)) <= 1e-12

    def test_in_range_angles_unchanged(self):
        for cls in SETTINGS_CLASSES:
            pair = cls(0.3, -1.2)
            assert pair.beta == 0.3
            assert pair.phi == -1.2

    def test_non_finite_rejected(self):
        for cls in SETTINGS_CLASSES:
            for angles in ((np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.0)):
                with pytest.raises(ValueError):
                    cls(*angles)

    def test_degree_round_trip(self):
        for cls in SETTINGS_CLASSES:
            pair = cls.from_degrees(30.0, 77.0)
            assert type(pair) is cls
            assert pair.degrees == pytest.approx((30.0, 77.0))

    def test_classes_are_distinct(self):
        # not one class under two names: the benchmark tracer replaces each
        # name with its own wrapper, which an alias would share
        assert PreparationSettings is not AnalyzerSettings

    def test_equal_angles_compare_unequal_across_classes(self):
        assert PreparationSettings(0.3, -1.2) != AnalyzerSettings(0.3, -1.2)
        assert PreparationSettings(0.3, -1.2) == PreparationSettings(0.3, -1.2)
        assert AnalyzerSettings(0.3, -1.2) == AnalyzerSettings(0.3, -1.2)

    @pytest.mark.parametrize("cls", SETTINGS_CLASSES)
    @pytest.mark.parametrize("name", ["beta", "phi"])
    def test_frozen(self, cls, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cls(0.3, -1.2), name, 0.0)


# Non-finite angles, finite ones whose squares overflow, and any float.
EXTREME_ANGLES = (
    st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e300, sys.float_info.max])
    | st.floats()
    | ANGLES
)


_EPR_DC = PureState(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0), ("D", "C"))
# Every entry point that takes angles, as a function of four angles.
ANGLE_ENTRY_POINTS = {
    **{
        cls.__name__: lambda a, cls=cls: dataclasses.astuple(cls(a[0], a[1]))
        for cls in SETTINGS_CLASSES
    },
    **{
        f"{cls.__name__}.from_degrees": lambda a, cls=cls: cls.from_degrees(a[2], a[3]).degrees
        for cls in SETTINGS_CLASSES
    },
    "dichotomic_basis": lambda a: dichotomic_basis(a[0], a[1], "C").matrix,
    "chsh_on_pair": lambda a: chsh_on_pair(_EPR_DC, a),
}


class TestExtremeAngles:
    @settings(derandomize=True, max_examples=300)
    @given(st.tuples(*[EXTREME_ANGLES] * 4))
    def test_refused_or_finite(self, angles):
        # pytest turns RuntimeWarning into an error; each entry point passes
        # only by refusing its input or by returning finite values
        with np.errstate(all="ignore"):
            for name, call in ANGLE_ENTRY_POINTS.items():
                try:
                    result = call(angles)
                except ValueError:
                    continue
                assert np.isfinite(result).all(), name


class TestInitialState:
    def test_beta_right_angle_gives_pure_first_component(self):
        state = initial_state(PreparationSettings(np.pi / 2, 1.234))
        # amplitude of |A=0> factor is 1: components live at indices 0..3
        assert abs(state.amplitudes[0] - SQRT_HALF) <= 1e-12
        assert abs(state.amplitudes[3] - SQRT_HALF) <= 1e-12
        assert np.max(np.abs(state.amplitudes[4:])) <= 1e-12

    def test_beta_quarter_gives_balanced_amplitudes(self):
        state = initial_state(PreparationSettings(np.pi / 4, 0.0))
        a_factor = partial_inner(
            PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), ("B", "C")), state
        )
        assert np.allclose(a_factor.amplitudes, [SQRT_HALF, SQRT_HALF], atol=1e-12)

    def test_unit_norm_for_random_settings(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            state = initial_state(PreparationSettings(rng.uniform(-7, 7), rng.uniform(-7, 7)))
            assert abs(state.norm_sq - 1.0) <= 1e-12


class TestBellBasis:
    def test_orthonormal(self):
        basis = bell_basis()
        for i, a in enumerate(basis.states):
            for j, b in enumerate(basis.states):
                expected = 1.0 if i == j else 0.0
                assert abs(inner_product(a, b) - expected) <= 1e-12

    def test_minus_sign_of_third_state(self):
        # state "10" carries amplitude -1/sqrt(2) on |B=1, A=0> (index 2)
        state = bell_basis().states[2]
        assert abs(state.amplitudes[2] - (-SQRT_HALF)) <= 1e-12

    def test_projector_completeness(self):
        total = np.zeros((4, 4), dtype=complex)
        for state in bell_basis().states:
            total += np.outer(state.amplitudes, state.amplitudes.conj())
        assert np.max(np.abs(total - np.eye(4))) <= 1e-12

    def test_outcome_labels(self):
        assert bell_basis().outcome_labels == BELL_OUTCOMES


    def test_is_one_constant(self):
        assert bell_basis() is bell_basis()


class TestBellStage:
    @settings(derandomize=True, max_examples=300)
    @given(ANGLES, ANGLES)
    def test_matches_basis_coefficients_bitwise(self, beta, phi):
        # the fixed contraction performs the same products and matmul as the
        # generic Born-rule path over the full initial state
        for shift in EQUIVALENT_ANGLES:
            prep = PreparationSettings(*shift(beta, phi))
            expected = basis_coefficients(initial_state(prep), bell_basis(), ("B", "A"))
            assert same_bits(_bell_stage(prep), expected)


class TestBobBasis:
    def test_zero_beta_prime(self):
        basis = bob_basis(AnalyzerSettings(0.0, 0.7))
        zero, one = basis.states
        assert np.allclose(zero.amplitudes, [1.0, 0.0], atol=1e-12)
        assert np.allclose(one.amplitudes, [0.0, np.exp(0.7j)], atol=1e-12)

    def test_quarter_beta_prime(self):
        basis = bob_basis(AnalyzerSettings(np.pi / 4, 0.0))
        assert np.allclose(basis.states[0].amplitudes, [SQRT_HALF, SQRT_HALF], atol=1e-12)

    def test_orthogonality_random_settings(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            basis = bob_basis(AnalyzerSettings(rng.uniform(-7, 7), rng.uniform(-7, 7)))
            overlap = inner_product(basis.states[0], basis.states[1])
            assert abs(overlap) <= 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for beta, phi in ((bad, 0.3), (0.3, bad), (bad, bad)):
                with pytest.raises(ValueError, match="finite"):
                    dichotomic_basis(beta, phi, "C")


class TestClosedForm:
    def test_matched_quarter_settings(self):
        dist = joint_distribution_closed_form(
            PreparationSettings(np.pi / 4, 0.0), AnalyzerSettings(np.pi / 4, 0.0)
        )
        assert dist.probability("00", "0") == pytest.approx(0.25, abs=1e-12)
        assert dist.probability("00", "1") == pytest.approx(0.0, abs=1e-12)
        assert dist.probability("01", "0") == pytest.approx(0.25, abs=1e-12)
        assert dist.probability("10", "1") == pytest.approx(0.25, abs=1e-12)
        assert dist.probability("11", "1") == pytest.approx(0.25, abs=1e-12)
        assert dist.probability("10", "0") == pytest.approx(0.0, abs=1e-12)
        assert dist.probability("11", "0") == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_beta_kills_phase_dependence(self):
        analyzer = AnalyzerSettings(0.9, 0.3)
        tables = [
            joint_distribution_closed_form(PreparationSettings(0.0, phi), analyzer).table
            for phi in (-2.0, 0.0, 1.1, 3.0)
        ]
        for table in tables[1:]:
            assert np.max(np.abs(table - tables[0])) <= 1e-12
        expected = (1 - math.cos(2 * 0.9)) / 8
        assert tables[0][0, 0] == pytest.approx(expected, abs=1e-12)

    @settings(derandomize=True, max_examples=300)
    @given(ANGLES, ANGLES, ANGLES, ANGLES)
    def test_table_matches_column_stack_bitwise(self, beta, phi, beta_prime, phi_prime):
        for shift in EQUIVALENT_ANGLES:
            prep = PreparationSettings(*shift(beta, phi))
            analyzer = AnalyzerSettings(*shift(beta_prime, phi_prime))
            table = joint_distribution_closed_form(prep, analyzer).table
            # the column_stack reference, evaluated at the canonical angles
            raw = closed_form_raw(prep.beta, prep.phi, analyzer.beta, analyzer.phi)
            assert same_bits(table, JointDistribution(raw).table)

    @settings(derandomize=True, max_examples=300)
    @given(ANGLES, ANGLES, ANGLES, ANGLES)
    def test_table_matches_array_p_zero_bitwise(self, beta, phi, beta_prime, phi_prime):
        # four Python floats give the bits of the numpy-array form they replace
        for shift in EQUIVALENT_ANGLES:
            prep = PreparationSettings(*shift(beta, phi))
            analyzer = AnalyzerSettings(*shift(beta_prime, phi_prime))
            table = joint_distribution_closed_form(prep, analyzer).table
            assert same_bits(table, closed_form_table(prep, analyzer))

    def test_total_probability_one(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            dist = joint_distribution_closed_form(
                PreparationSettings(rng.uniform(-7, 7), rng.uniform(-7, 7)),
                AnalyzerSettings(rng.uniform(-7, 7), rng.uniform(-7, 7)),
            )
            assert abs(dist.table.sum() - 1.0) <= 1e-12


class TestSimulated:
    def test_agrees_with_closed_form_on_grid(self):
        betas = np.linspace(0.0, np.pi / 2, 5)
        phis = np.linspace(-np.pi, np.pi, 5)
        for beta in betas:
            for phi in phis:
                prep = PreparationSettings(beta, phi)
                for beta_prime in betas:
                    for phi_prime in phis:
                        analyzer = AnalyzerSettings(beta_prime, phi_prime)
                        closed = joint_distribution_closed_form(prep, analyzer)
                        simulated = joint_distribution_simulated(prep, analyzer)
                        assert np.max(np.abs(closed.table - simulated.table)) <= 1e-12

    def test_opposite_phases_cancel(self):
        dist = joint_distribution_simulated(
            PreparationSettings(np.pi / 4, 0.0), AnalyzerSettings(np.pi / 4, np.pi)
        )
        assert dist.probability("00", "0") == pytest.approx(0.0, abs=1e-12)

    def test_alice_marginal_flat(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            dist = joint_distribution_simulated(
                PreparationSettings(rng.uniform(-7, 7), rng.uniform(-7, 7)),
                AnalyzerSettings(rng.uniform(-7, 7), rng.uniform(-7, 7)),
            )
            assert np.max(np.abs(dist.table.sum(axis=1) - 0.25)) <= 1e-12

    def test_measurement_order_irrelevant(self):
        prep = PreparationSettings(0.6, 1.9)
        analyzer = AnalyzerSettings(1.1, -0.4)
        expected = joint_distribution_simulated(prep, analyzer)

        # Bob first, then Alice on his conditional states.
        state = initial_state(prep)
        table = np.zeros((4, 2))
        for col, (_, p_bob, post) in enumerate(
            measure_probabilities(state, bob_basis(analyzer), ("C",))
        ):
            if post is None:
                continue
            for row, (_, p_bell, _) in enumerate(
                measure_probabilities(post, bell_basis(), ("B", "A"))
            ):
                table[row, col] = p_bob * p_bell
        assert np.max(np.abs(table - expected.table)) <= 1e-12

    @settings(derandomize=True, max_examples=300)
    @given(ANGLES, ANGLES, ANGLES, ANGLES)
    def test_agrees_with_closed_form_at_random_settings(self, beta, phi, beta_prime, phi_prime):
        prep = PreparationSettings(beta, phi)
        analyzer = AnalyzerSettings(beta_prime, phi_prime)
        closed = joint_distribution_closed_form(prep, analyzer)
        simulated = joint_distribution_simulated(prep, analyzer)
        assert np.max(np.abs(closed.table - simulated.table)) <= 1e-12

    @settings(derandomize=True, max_examples=200)
    @given(ANGLES, ANGLES, ANGLES, ANGLES)
    def test_canonicalization_invariance(self, beta, phi, beta_prime, phi_prime):
        # both sides, at either shift of the angles, must reproduce the
        # formula at the original, unreduced angles
        raw = closed_form_raw(beta, phi, beta_prime, phi_prime)
        for shift in EQUIVALENT_ANGLES[1:]:
            prep = PreparationSettings(*shift(beta, phi))
            analyzer = AnalyzerSettings(*shift(beta_prime, phi_prime))
            for dist in (
                joint_distribution_simulated(prep, analyzer),
                joint_distribution_closed_form(prep, analyzer),
            ):
                assert np.max(np.abs(dist.table - raw)) <= 1e-12

    @settings(derandomize=True, max_examples=300)
    @given(ANGLES, ANGLES, ANGLES, ANGLES)
    def test_table_matches_reconjugated_rows_bitwise(self, beta, phi, beta_prime, phi_prime):
        # Bob's basis, built from unchecked states, has the rows of the
        # validated reference, and its stored conjugated rows give the bits
        # of conjugating those rows again
        for shift in EQUIVALENT_ANGLES:
            prep = PreparationSettings(*shift(beta, phi))
            analyzer = AnalyzerSettings(*shift(beta_prime, phi_prime))
            basis, rows = bob_basis(analyzer), bob_rows(analyzer)
            assert same_bits(basis.matrix, rows)
            assert same_bits(basis._matrix_conj, rows.conj())
            table = joint_distribution_simulated(prep, analyzer).table
            assert same_bits(table, simulated_table(prep, analyzer))

    def test_phase_conjugation_symmetry(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            beta, phi = rng.uniform(-3, 3, size=2)
            beta_prime, phi_prime = rng.uniform(-3, 3, size=2)
            direct = joint_distribution_simulated(
                PreparationSettings(beta, phi), AnalyzerSettings(beta_prime, phi_prime)
            )
            mirrored = joint_distribution_simulated(
                PreparationSettings(beta, -phi), AnalyzerSettings(beta_prime, -phi_prime)
            )
            assert np.max(np.abs(direct.table - mirrored.table)) <= 1e-12


class TestJointDistribution:
    def test_validate_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum"):
            JointDistribution(np.full((4, 2), 0.2)).validate()

    def test_validate_rejects_skewed_marginal(self):
        table = np.array([[0.5, 0.0], [0.0, 0.0], [0.25, 0.0], [0.25, 0.0]])
        with pytest.raises(ValueError, match="marginal"):
            JointDistribution(table).validate()

    def test_rejects_genuinely_negative_entry(self):
        table = np.full((4, 2), 0.125)
        table[0, 0] = -1e-9
        with pytest.raises(ValueError, match="negative"):
            JointDistribution(table)

    def test_clamps_rounding_residue(self):
        table = np.full((4, 2), 0.125)
        table[0, 0] = -1e-14
        assert JointDistribution(table).probability("00", "0") == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entry(self, bad):
        table = np.full((4, 2), 0.125)
        table[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            JointDistribution(table)

    @pytest.mark.parametrize("shape", [(8,), (2, 4), (4, 3), (3, 2), (4, 2, 1)])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="shape"):
            JointDistribution(np.full(shape, 0.125))

    def test_validate_rejects_entry_above_one(self):
        table = np.zeros((4, 2))
        table[0, 0] = 1.0 + 1e-9
        with pytest.raises(ValueError, match="above 1"):
            JointDistribution(table).validate()

    def test_input_array_left_writable(self):
        table = np.full((4, 2), 0.125)
        dist = JointDistribution(table)
        table[0, 0] = 0.5
        assert dist.probability("00", "0") == 0.125
        assert not dist.table.flags.writeable

    def test_rejects_complex_table(self):
        # a cast to float would drop the imaginary parts; they are refused instead
        with pytest.raises(ValueError, match="real"):
            JointDistribution(np.full((4, 2), 0.125) + 0.5j)
        with pytest.raises(ValueError, match="real"):
            JointDistribution(np.full((4, 2), 0.125 + 0j))

    def test_unknown_outcome_labels(self):
        dist = JointDistribution(np.full((4, 2), 0.125))
        with pytest.raises(ValueError, match="Bell outcome"):
            dist.probability("02", "0")
        with pytest.raises(ValueError, match="analyzer outcome"):
            dist.probability("00", "2")


class TestCorrections:
    def test_identity_for_outcome_00(self):
        assert np.allclose(correction_unitary("00"), np.eye(2))

    def test_phase_flip_for_outcome_11(self):
        assert np.allclose(correction_unitary("11"), np.diag([1.0, -1.0]))

    def test_unknown_outcome(self):
        with pytest.raises(ValueError):
            correction_unitary("22")

    def test_nan_correction_rejected(self):
        nan_entry = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="01 is not unitary"):
            _checked_corrections({"00": np.eye(2, dtype=complex), "01": nan_entry})

    def test_all_corrections_reach_unit_fidelity(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            prep = PreparationSettings(rng.uniform(-7, 7), rng.uniform(-7, 7))
            for _, _, fidelity in run_full_teleportation(prep):
                assert abs(fidelity - 1.0) <= 1e-12


class TestFullProtocol:
    def test_trivial_preparation(self):
        results = run_full_teleportation(PreparationSettings(np.pi / 2, 0.0))
        assert [label for label, _, _ in results] == list(BELL_OUTCOMES)
        for _, p, fidelity in results:
            assert abs(p - 0.25) <= 1e-12
            assert abs(fidelity - 1.0) <= 1e-12

    @settings(derandomize=True, max_examples=300)
    @given(ANGLES, ANGLES)
    def test_matches_sequential_reference(self, beta, phi):
        prep = PreparationSettings(beta, phi)
        got = run_full_teleportation(prep)
        want = sequential_teleportation(prep)
        assert [outcome for outcome, _, _ in got] == [outcome for outcome, _, _ in want]
        for (_, p, fidelity), (_, p_ref, fidelity_ref) in zip(got, want):
            assert abs(p - p_ref) <= 1e-12
            assert abs(fidelity - fidelity_ref) <= 1e-12

    def test_outcome_probabilities_flat_for_random_preparations(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            prep = PreparationSettings(rng.uniform(-7, 7), rng.uniform(-7, 7))
            for _, p, _ in run_full_teleportation(prep):
                assert abs(p - 0.25) <= 1e-12


def test_outcome_label_constants():
    assert BELL_OUTCOMES == ("00", "01", "10", "11")
    assert BOB_OUTCOMES == ("0", "1")
