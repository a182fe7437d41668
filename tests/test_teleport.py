"""Tests for the channel-cut teleportation scenario."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from telebell import teleport
from telebell.qstate import (
    ATOL,
    PROB_FLOOR,
    ProjectiveBasis,
    PureState,
    basis_coefficients,
    measure_probabilities,
)
from telebell.swap import chsh_on_pair
from telebell.teleport import (
    BELL_OUTCOMES,
    BOB_OUTCOMES,
    AnalyzerSettings,
    JointDistribution,
    PreparationSettings,
    _analyzer_operand,
    _bell_outcomes,
    _bell_stage,
    _checked_corrections,
    _preparation_amplitudes,
    joint_distribution_closed_form,
    joint_distribution_simulated,
    run_full_teleportation,
)

from reference import (
    CORRECTIONS,
    analyzer_basis,
    apply_local_unitary,
    bell_basis,
    bob_rows,
    checked_table,
    closed_form_table,
    epr_pair,
    initial_state,
    inner_product,
    normalize,
    partial_inner,
    simulated_table,
    tensor_product,
    tolerance_edge,
)

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
        corrected = apply_local_unitary(post, CORRECTIONS[outcome], "C")
        residual = normalize(partial_inner(basis.states[idx], corrected))
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

    @pytest.mark.parametrize("cls", SETTINGS_CLASSES)
    @pytest.mark.parametrize("beta", [math.pi, -math.pi])
    @pytest.mark.parametrize("phi", [0.3, -1.2, 0.0, math.pi])
    def test_beta_pi_is_zero_with_the_same_phase(self, cls, beta, phi):
        # beta = pi is a global sign of beta = 0; the reduction must land on
        # (0, phi), not on the other representative (0, phi + pi)
        pair = cls(beta, phi)
        assert (pair.beta, pair.phi) == (0.0, phi)

    def test_non_finite_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cls in SETTINGS_CLASSES:
                for bad in (math.nan, math.inf, -math.inf):
                    for angles in ((bad, 0.3), (0.3, bad), (bad, bad)):
                        with pytest.raises(ValueError, match="finite"):
                            cls(*angles)

    def test_any_real_number_stored_as_float(self):
        # a float32 angle is reduced in double precision, and an int or bool
        # in range is not kept as it is: each field has the bits that
        # float(x) inputs give
        rng = np.random.default_rng(89)
        inputs = [
            (np.float32(100.0), np.float32(50.0)),
            *[tuple(map(np.float32, rng.uniform(-1e3, 1e3, 2))) for _ in range(100)],
            (0, 0),
            (7, -9),
            (-100, 50),
            (True, False),
            (False, True),
            *[tuple(map(np.float64, rng.uniform(-1e3, 1e3, 2))) for _ in range(100)],
        ]
        for cls in SETTINGS_CLASSES:
            for beta, phi in inputs:
                pair, expected = cls(beta, phi), cls(float(beta), float(phi))
                assert type(pair.beta) is float and type(pair.phi) is float
                assert pair.beta.hex() == expected.beta.hex()
                assert pair.phi.hex() == expected.phi.hex()

    def test_degree_round_trip(self):
        # in-range angles in degrees: radians(x), not reduced further
        for cls in SETTINGS_CLASSES:
            pair = cls.from_degrees(30.0, 77.0)
            assert type(pair) is cls
            assert (pair.beta, pair.phi) == (math.radians(30.0), math.radians(77.0))

    @pytest.mark.parametrize("cls", SETTINGS_CLASSES)
    @pytest.mark.parametrize("angles", [(10**400, 0), (0, -(10**400)), (10**400, 10**400)])
    def test_huge_integer_refused(self, cls, angles):
        # an int beyond the float range is refused as a non-finite float is,
        # not with an OverflowError
        with pytest.raises(ValueError, match="finite"):
            cls(*angles)
        with pytest.raises(ValueError, match="finite"):
            cls.from_degrees(*angles)

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

    @pytest.mark.parametrize("cls", SETTINGS_CLASSES)
    def test_dataclass_surface(self, cls):
        pair = cls(7.0, 9.0)
        assert repr(pair) == f"{cls.__name__}(beta={pair.beta!r}, phi={pair.phi!r})"
        assert hash(pair) == hash(cls(7.0, 9.0))
        assert dataclasses.astuple(pair) == (pair.beta, pair.phi)
        # replace goes through the constructor, so the new angle is reduced too
        assert dataclasses.replace(pair, phi=4.0) == cls(pair.beta, 4.0)
        assert dataclasses.replace(pair, phi=4.0).phi == 4.0 - 2.0 * math.pi
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(pair, beta=math.nan)


# Non-finite angles, finite ones whose squares overflow, ints beyond the
# float range, and any float.
EXTREME_ANGLES = (
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 1e200, -1e300, sys.float_info.max, 10**400, -(10**400)]
    )
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
        f"{cls.__name__}.from_degrees": lambda a, cls=cls: dataclasses.astuple(
            cls.from_degrees(a[2], a[3])
        )
        for cls in SETTINGS_CLASSES
    },
    **{
        f.__name__: lambda a, f=f: f(
            PreparationSettings(a[0], a[1]), AnalyzerSettings(a[2], a[3])
        ).table
        for f in (joint_distribution_simulated, joint_distribution_closed_form)
    },
    "chsh_on_pair": lambda a: chsh_on_pair(_EPR_DC, a),
}


class TestExtremeAngles:
    @settings(derandomize=True, max_examples=300)
    @given(st.tuples(*[EXTREME_ANGLES] * 4))
    def test_refused_or_finite(self, angles):
        # pytest turns RuntimeWarning into an error; each entry point passes
        # only by refusing its input or by returning finite values
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
    # the library's Bell basis, from which the Bell stage's operand is built
    def test_orthonormal(self):
        basis = teleport._bell_basis()
        for i, a in enumerate(basis.states):
            for j, b in enumerate(basis.states):
                expected = 1.0 if i == j else 0.0
                assert abs(inner_product(a, b) - expected) <= 1e-12

    def test_minus_sign_of_third_state(self):
        # state "10" carries amplitude -1/sqrt(2) on |B=1, A=0> (index 2)
        state = teleport._bell_basis().states[2]
        assert abs(state.amplitudes[2] - (-SQRT_HALF)) <= 1e-12

    def test_projector_completeness(self):
        total = np.zeros((4, 4), dtype=complex)
        for state in teleport._bell_basis().states:
            total += np.outer(state.amplitudes, state.amplitudes.conj())
        assert np.max(np.abs(total - np.eye(4))) <= 1e-12

    def test_outcome_labels(self):
        assert teleport._bell_basis().outcome_labels == BELL_OUTCOMES

    def test_stage_operand_is_conjugated_matrix_bitwise(self):
        # the Bell stage's fixed operand, built once at import, against the
        # literal reference basis
        assert same_bits(teleport._BELL_CONJ, bell_basis().matrix.conj())
        assert teleport._BELL_CONJ.flags.c_contiguous
        assert not teleport._BELL_CONJ.flags.writeable


class TestBellStage:
    @settings(derandomize=True, max_examples=300)
    @given(ANGLES, ANGLES)
    def test_matches_basis_coefficients_bitwise(self, beta, phi):
        # the fixed contraction performs the same products and matmul as the
        # generic Born-rule path over the full initial state
        for shift in EQUIVALENT_ANGLES:
            prep = PreparationSettings(*shift(beta, phi))
            expected = basis_coefficients(initial_state(prep), bell_basis(), ("B", "A"))
            assert same_bits(_bell_stage(_preparation_amplitudes(prep)), expected)

    @settings(derandomize=True, max_examples=300)
    @given(arrays(float, 8, elements=st.floats(-1e6, 1e6)))
    def test_spectator_matches_basis_coefficients_bitwise(self, parts):
        # with A half of a (D, A) pair, D rides along as a spectator axis:
        # the stage gives the generic path's rows over the (D, A, B, C) state
        pair = parts[:4] + 1j * parts[4:]
        state = tensor_product(PureState(pair, ("D", "A")), epr_pair(("B", "C")))
        expected = basis_coefficients(state, bell_basis(), ("B", "A"))
        assert same_bits(_bell_stage(pair.reshape(2, 2).T), expected)


def analyzer_states(beta, phi):
    """The analyzer's two states as rows: the operand's columns, conjugated back."""
    return _analyzer_operand(beta, phi).conj().T


class TestBobBasis:
    # Bob's analyzer basis is the oracle's operand, read column by column

    def test_zero_beta_prime(self):
        zero, one = analyzer_states(0.0, 0.7)
        assert np.allclose(zero, [1.0, 0.0], atol=1e-12)
        assert np.allclose(one, [0.0, np.exp(0.7j)], atol=1e-12)

    def test_quarter_beta_prime(self):
        zero, _ = analyzer_states(np.pi / 4, 0.0)
        assert np.allclose(zero, [SQRT_HALF, SQRT_HALF], atol=1e-12)

    def test_orthogonality_random_settings(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            analyzer = AnalyzerSettings(rng.uniform(-7, 7), rng.uniform(-7, 7))
            zero, one = analyzer_states(analyzer.beta, analyzer.phi)
            assert abs(np.vdot(zero, one)) <= 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_rejected(self, bad):
        # the operand's angles reach the oracle only through AnalyzerSettings,
        # in radians or in degrees, which refuses them before any arithmetic
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for beta, phi in ((bad, 0.3), (0.3, bad), (bad, bad)):
                for build in (AnalyzerSettings, AnalyzerSettings.from_degrees):
                    with pytest.raises(ValueError, match="finite"):
                        build(beta, phi)


# Every finite double, extremes and subnormals included.
FINITE_ANGLES = (
    st.sampled_from(
        [0.0, 5e-324, -5e-324, 2.2e-308, 1e16, -1e300, sys.float_info.max, -sys.float_info.max]
    )
    | st.floats(allow_nan=False, allow_infinity=False)
    | ANGLES
)


class TestAnalyzerBasisGram:
    # the Gram residual of the analyzer's states stays far inside the 1e-12
    # tolerance of a checked ProjectiveBasis for every finite angle pair

    @settings(derandomize=True, max_examples=500)
    @given(FINITE_ANGLES, FINITE_ANGLES)
    def test_orthonormal_for_every_finite_pair(self, beta, phi):
        states = analyzer_states(beta, phi)
        assert np.abs(states.conj() @ states.T - np.eye(2)).max() <= 1e-15


class TestAnalyzerOperand:
    # the oracle multiplies the Bell stage's rows by this operand, built from
    # the angles; the tests' analyzer bases come from the independent reference

    @settings(derandomize=True, max_examples=500)
    @given(FINITE_ANGLES, FINITE_ANGLES)
    def test_is_reference_rows_conjugated_bitwise(self, beta, phi):
        # at the canonical angles the oracle uses, and at the raw ones
        analyzer = AnalyzerSettings(beta, phi)
        operand = _analyzer_operand(analyzer.beta, analyzer.phi)
        assert same_bits(operand, bob_rows(analyzer).conj().T)
        assert operand.flags.c_contiguous
        raw = analyzer_basis(beta, phi, "C").matrix
        assert same_bits(_analyzer_operand(beta, phi), raw.conj().T)

    def test_oracle_builds_no_basis_or_state(self, monkeypatch):
        rng = np.random.default_rng(83)
        pairs = [
            (PreparationSettings(*rng.uniform(-7, 7, 2)), AnalyzerSettings(*rng.uniform(-7, 7, 2)))
            for _ in range(50)
        ]
        tables = [joint_distribution_simulated(prep, analyzer).table for prep, analyzer in pairs]

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle built a state or a basis")

        monkeypatch.setattr(PureState, "__post_init__", refuse)
        monkeypatch.setattr(ProjectiveBasis, "__post_init__", refuse)
        for (prep, analyzer), table in zip(pairs, tables):
            assert same_bits(joint_distribution_simulated(prep, analyzer).table, table)


class TestClosedForm:
    def test_matched_quarter_settings(self):
        dist = joint_distribution_closed_form(
            PreparationSettings(np.pi / 4, 0.0), AnalyzerSettings(np.pi / 4, 0.0)
        )
        # rows are Bell outcomes 00, 01, 10, 11; columns analyzer outcomes 0, 1
        assert dist.table[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert dist.table[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert dist.table[1, 0] == pytest.approx(0.25, abs=1e-12)
        assert dist.table[2, 1] == pytest.approx(0.25, abs=1e-12)
        assert dist.table[3, 1] == pytest.approx(0.25, abs=1e-12)
        assert dist.table[2, 0] == pytest.approx(0.0, abs=1e-12)
        assert dist.table[3, 0] == pytest.approx(0.0, abs=1e-12)

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
            assert same_bits(table, checked_table(raw)[0])

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
        assert dist.table[0, 0] == pytest.approx(0.0, abs=1e-12)

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
        bob = analyzer_basis(analyzer.beta, analyzer.phi, "C")
        for col, (_, p_bob, post) in enumerate(measure_probabilities(state, bob, ("C",))):
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
        # the reference's analyzer basis has the rows of its checked rows,
        # and the oracle's table the reference's bits
        for shift in EQUIVALENT_ANGLES:
            prep = PreparationSettings(*shift(beta, phi))
            analyzer = AnalyzerSettings(*shift(beta_prime, phi_prime))
            basis = analyzer_basis(analyzer.beta, analyzer.phi, "C")
            assert same_bits(basis.matrix, bob_rows(analyzer))
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

    @pytest.mark.parametrize("side", [1, -1])
    def test_validate_total_at_its_tolerance(self, side):
        # three marginals a quarter of ATOL off 1/4, well inside their own
        # check, and a fourth that makes the total each value: the sum is
        # exact, as partial + (total - partial) with both near 1
        edge = tolerance_edge(1.0, ATOL, side)
        m = 0.25 + side * ATOL / 4
        partial = m + m + m
        for total, valid in (
            (math.nextafter(edge, 1.0), True),
            (edge, True),
            (math.nextafter(edge, side * math.inf), False),
        ):
            table = np.array([[m, 0.0], [m, 0.0], [m, 0.0], [total - partial, 0.0]])
            assert sum(table[:, 0].tolist()) == total
            dist = JointDistribution(table)
            if valid:
                dist.validate()
            else:
                with pytest.raises(ValueError, match="sum to"):
                    dist.validate()

    @pytest.mark.parametrize("side", [1, -1])
    def test_validate_marginal_at_its_tolerance(self, side):
        # one marginal at each value, the other three sharing its deviation
        # with the opposite sign, so that the total stays well inside its own
        # check; entries in column 0, so that each marginal is exact
        edge = tolerance_edge(0.25, ATOL, side)
        for position in range(4):
            for m, valid in (
                (math.nextafter(edge, 0.25), True),
                (edge, True),
                (math.nextafter(edge, side * math.inf), False),
            ):
                marginals = [0.25 - (m - 0.25) / 3] * 4
                marginals[position] = m
                table = np.column_stack([marginals, np.zeros(4)])
                dist = JointDistribution(table)
                assert dist._marginal[position] == m
                if valid:
                    dist.validate()
                else:
                    with pytest.raises(ValueError, match="not flat 1/4"):
                        dist.validate()

    def test_validate_largest_at_its_tolerance(self):
        # the check compares with the rounded 1.0 + ATOL, one ulp above the
        # last float within ATOL of 1; at and below it a later check refuses
        # the lone large entry, one ulp above it this one does
        edge = 1.0 + ATOL
        assert edge == math.nextafter(tolerance_edge(1.0, ATOL, 1), math.inf)
        for index in np.ndindex(4, 2):
            for x, passes in (
                (math.nextafter(edge, 0.0), True),
                (edge, True),
                (math.nextafter(edge, math.inf), False),
            ):
                table = np.zeros((4, 2))
                table[index] = x
                with pytest.raises(ValueError) as info:
                    JointDistribution(table).validate()
                assert ("above 1" not in str(info.value)) is passes

    def test_clamp_at_its_tolerance(self):
        edge = tolerance_edge(0.0, ATOL, -1)
        assert edge == -ATOL
        for index in np.ndindex(4, 2):
            for x, clamped in (
                (math.nextafter(edge, 0.0), True),
                (edge, True),
                (math.nextafter(edge, -math.inf), False),
            ):
                table = np.full((4, 2), 0.125)
                table[index] = x
                if clamped:
                    kept = JointDistribution(table).table
                    assert kept[index] == 0.0
                    assert np.count_nonzero(kept != table) == 1
                else:
                    with pytest.raises(ValueError, match="negative"):
                        JointDistribution(table)

    def test_validate_refuses_nan_marginal_in_every_position(self):
        # no finite table gives a NaN marginal; one set by hand is refused
        for position in range(4):
            dist = JointDistribution(np.full((4, 2), 0.125))
            marginal = [0.25] * 4
            marginal[position] = math.nan
            object.__setattr__(dist, "_marginal", tuple(marginal))
            with pytest.raises(ValueError):
                dist.validate()

    @pytest.mark.parametrize(
        "kind",
        [
            "c",
            "f",
            "reversed",
            "strided",
            "int",
            "float32",
            "big-endian",
            "nested",
            "read-only",
            "subclass",
            "object",
        ],
    )
    @pytest.mark.parametrize("residue", [0.0, -1e-14])
    def test_input_kinds_match_reference(self, kind, residue):
        # the table's bits, dtype and layout, its largest entry and its
        # marginals, against the reference's numpy reductions; a negative
        # residue takes the clamp path, which stores a new C-ordered array
        # and keeps the sign of a zero
        base = np.array([[0.125, 0.125], [0.1, 0.15], [0.25, -0.0], [0.25, residue]])
        wide = np.zeros((4, 4))
        wide[:, ::2] = base
        readonly = base.copy()
        readonly.setflags(write=False)
        table = {
            "c": base,
            "f": np.asfortranarray(base),
            "reversed": base[:, ::-1],
            "strided": wide[:, ::2],
            "int": np.array([[1, 0], [0, 0], [0, 0], [0, 0]]) - (residue < 0) * np.eye(4, 2, dtype=int),
            "float32": base.astype(np.float32),
            "big-endian": base.astype(">f8"),
            "nested": base.tolist(),
            "read-only": readonly,
            "subclass": base.view(np.matrix),
            "object": base.astype(object),
        }[kind]
        if kind == "int" and residue < 0:
            with pytest.raises(ValueError, match="negative"):
                checked_table(table)
            with pytest.raises(ValueError, match="negative"):
                JointDistribution(table)
            return
        before = np.array(table, dtype=object)
        writeable = getattr(getattr(table, "flags", None), "writeable", None)
        dist = JointDistribution(table)
        expected, largest, marginal = checked_table(table)
        assert type(dist.table) is np.ndarray
        assert same_bits(dist.table, expected)
        for flag in ("c_contiguous", "f_contiguous", "writeable"):
            assert getattr(dist.table.flags, flag) == getattr(expected.flags, flag), flag
        assert np.array([dist._largest, *dist._marginal]).tobytes() == (
            np.array([largest, *marginal]).tobytes()
        )
        # the input is copied, never frozen or changed
        assert getattr(getattr(table, "flags", None), "writeable", None) == writeable
        assert np.array_equal(np.array(table, dtype=object), before)

    def test_dataclass_surface(self):
        dist = JointDistribution(np.full((4, 2), 0.125))
        with pytest.raises(dataclasses.FrozenInstanceError):
            dist.table = np.zeros((4, 2))
        assert dist != JointDistribution(dist.table)
        assert repr(dist) == f"JointDistribution(table={dist.table!r})"
        # replace goes through the constructor and its checks
        assert same_bits(dataclasses.replace(dist, table=np.full((4, 2), 0.25)).table, np.full((4, 2), 0.25))
        with pytest.raises(ValueError, match="negative"):
            dataclasses.replace(dist, table=np.full((4, 2), -1.0))

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
        assert JointDistribution(table).table[0, 0] == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entry(self, bad):
        for index in np.ndindex(4, 2):
            table = np.full((4, 2), 0.125)
            table[index] = bad
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
        assert dist.table[0, 0] == 0.125
        assert not dist.table.flags.writeable

    def test_rejects_complex_table(self):
        # a cast to float would drop the imaginary parts; they are refused instead
        with pytest.raises(ValueError, match="real"):
            JointDistribution(np.full((4, 2), 0.125) + 0.5j)
        with pytest.raises(ValueError, match="real"):
            JointDistribution(np.full((4, 2), 0.125 + 0j))


class TestCorrections:
    def test_identity_for_outcome_00(self):
        assert np.allclose(teleport._CORRECTIONS["00"], np.eye(2))

    def test_phase_flip_for_outcome_11(self):
        assert np.allclose(teleport._CORRECTIONS["11"], np.diag([1.0, -1.0]))

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


class TestBellOutcomes:
    def test_nan_amplitude_refused(self):
        with pytest.raises(ValueError, match="not finite"):
            _bell_outcomes(np.array([np.nan, 1 + 0j]))

    @pytest.mark.parametrize(
        "p, accepted",
        [(PROB_FLOOR, True), (math.nextafter(PROB_FLOOR, 0.0), False), (math.nan, False)],
    )
    def test_floor(self, monkeypatch, p, accepted):
        # the floor itself passes, one ulp below it and a NaN do not, should
        # a probability ever reach it unclamped
        monkeypatch.setattr(teleport, "clamp_probability", lambda _: p)
        amplitudes = _preparation_amplitudes(PreparationSettings(0.3, 0.7))
        if accepted:
            assert [q for _, q, _ in _bell_outcomes(amplitudes)] == [p] * 4
        else:
            with pytest.raises(RuntimeError, match="zero probability"):
                _bell_outcomes(amplitudes)


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
