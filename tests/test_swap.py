"""Tests for entanglement swapping and the CHSH machinery."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from telebell.qstate import (
    ProjectiveBasis,
    PureState,
    basis_coefficients,
    measure_probabilities,
)
from telebell.swap import (
    TSIRELSON_BOUND,
    _analyzer_angle,
    _analyzer_rows,
    _correlation_matrix,
    _correlations,
    _optimal_axes,
    chsh_on_pair,
    max_chsh,
    reduced_purity,
    run_swap,
)
from telebell.teleport import BELL_OUTCOMES, bell_basis

from reference import (
    analyzer_basis,
    inner_product,
    normalize,
    partial_inner,
    swap_initial_state,
    tensor_product,
    tolerance_edge,
)
from reference import reduced_purity as trace_form_purity

# Real and imaginary parts of a random 2-qubit state, away from zero.
PAIR_PARTS = arrays(float, 8, elements=st.floats(-1.0, 1.0)).filter(
    lambda x: np.linalg.norm(x) > 0.1
)
ANGLES = st.floats(-2 * math.pi, 2 * math.pi)
# Amplitude matrices of the four Bell states, rows indexed by the first qubit.
BELL_MATRICES = {
    "00": np.array([[1.0, 0.0], [0.0, 1.0]]) / math.sqrt(2.0),
    "01": np.array([[0.0, 1.0], [1.0, 0.0]]) / math.sqrt(2.0),
    "10": np.array([[0.0, -1.0], [1.0, 0.0]]) / math.sqrt(2.0),
    "11": np.array([[1.0, 0.0], [0.0, -1.0]]) / math.sqrt(2.0),
}
ULPS = st.lists(st.integers(-4, 4), min_size=4, max_size=4)


@pytest.fixture(scope="module")
def swap_report():
    return run_swap()


def analytic_post_state(outcome):
    r = 1 / math.sqrt(2.0)
    amplitudes = {
        "00": [r, 0, 0, r],
        "01": [0, r, r, 0],
        "10": [0, -r, r, 0],
        "11": [r, 0, 0, -r],
    }[outcome]
    return PureState(np.array(amplitudes, dtype=complex), ("D", "C"))


def random_pair(parts):
    return normalize(PureState(parts[:4] + 1j * parts[4:], ("D", "C")))


def pair_correlation(state, angle_1, angle_2):
    """Born-rule correlation of one real analyzer pair: a batch of one."""
    return _correlations(state, (angle_1,), (angle_2,))[0]


def sequential_pair_correlation(state, angle_1, angle_2):
    """Reference: measure the product basis of the two analyzers as one 4-state basis."""
    label_1, label_2 = state.factor_labels
    first = analyzer_basis(angle_1, 0.0, label_1)
    second = analyzer_basis(angle_2, 0.0, label_2)
    states = tuple(tensor_product(a, b) for a in first.states for b in second.states)
    basis = ProjectiveBasis(states, ("00", "01", "10", "11"))
    p = [value for _, value, _ in measure_probabilities(state, basis, state.factor_labels)]
    return p[0] - p[1] - p[2] + p[3]


def coefficient_row_correlation(state, angle_1, angle_2):
    """Reference: one pair at a time, the first analyzer's coefficient rows
    against the second analyzer's basis matrix."""
    first, second = state.factor_labels
    rows = basis_coefficients(state, analyzer_basis(angle_1, 0.0, first), (first,))
    amplitudes = rows @ analyzer_basis(angle_2, 0.0, second).matrix.conj().T
    p = (np.abs(amplitudes) ** 2).ravel().tolist()
    return p[0] - p[1] - p[2] + p[3]


def sequential_swap_stage():
    """Reference: post-measurement states of the full system, then contract each Bell bra."""
    basis = bell_basis()
    results = measure_probabilities(swap_initial_state(), basis, ("B", "A"))
    return [
        (p, normalize(partial_inner(bra, post)))
        for bra, (_, p, post) in zip(basis.states, results)
    ]


def rotated_bell_state(outcome, theta_1, theta_2):
    """A Bell state with each qubit turned by its own real rotation."""

    def rotation(theta):
        return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])

    amplitudes = rotation(theta_1) @ BELL_MATRICES[outcome] @ rotation(theta_2).T
    return PureState(amplitudes.ravel().astype(complex), ("D", "C"))


def perturbed(m, ulps):
    """M with entry k moved by ``ulps[k]`` units in the last place."""
    out = m.ravel().copy()
    for k, steps in enumerate(ulps):
        for _ in range(abs(steps)):
            out[k] = np.nextafter(out[k], math.copysign(math.inf, steps))
    return out.reshape(2, 2)


def analyzer_gap(angles, others):
    """Largest distance between two analyzer angle lists; t and t + pi are one analyzer."""
    return max(min(abs(a - b), math.pi - abs(a - b)) for a, b in zip(angles, others))


def grid_reference_chsh(state, step_deg=3.0):
    """Reference: best CHSH value over a four-axis grid of analyzer angles.

    Uses E(a, b) = u(a) . M u(b) with u(t) = (cos 2t, sin 2t) and M from four
    Born-rule correlations; once Alice's pair is fixed, S separates into
    max_b (E(a,b) + E(a',b)) + max_b' (E(a',b') - E(a,b')).
    """
    axes = (0.0, math.pi / 4)
    m = np.array([[pair_correlation(state, a, b) for b in axes] for a in axes])
    thetas = np.radians(np.arange(0.0, 180.0, step_deg))
    directions = np.column_stack([np.cos(2 * thetas), np.sin(2 * thetas)])
    grid = directions @ m @ directions.T
    same = grid[:, None, :] + grid[None, :, :]
    diff = grid[None, :, :] - grid[:, None, :]
    return float((same.max(axis=2) + diff.max(axis=2)).max())


class TestInitialState:
    def test_labels_and_norm(self):
        state = swap_initial_state()
        assert state.factor_labels == ("D", "A", "B", "C")
        assert abs(state.norm_sq - 1.0) <= 1e-12

    def test_pairs_are_epr(self):
        state = swap_initial_state()
        assert reduced_purity(state, "D") == pytest.approx(0.5, abs=1e-12)
        assert reduced_purity(state, "B") == pytest.approx(0.5, abs=1e-12)


class TestReducedPurity:
    def test_product_state(self):
        product = PureState(np.array([1, 0, 0, 0], dtype=complex), ("D", "C"))
        assert reduced_purity(product, "D") == pytest.approx(1.0, abs=1e-12)

    def test_maximally_entangled(self):
        assert reduced_purity(analytic_post_state("00"), "C") == pytest.approx(0.5, abs=1e-12)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            reduced_purity(analytic_post_state("00"), "X")

    @settings(derandomize=True, max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 3))
    def test_matches_trace_form_bitwise(self, seed, n, which):
        rng = np.random.default_rng(seed)
        amplitudes = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        state = normalize(PureState(amplitudes, ("D", "A", "B", "C")[:n]))
        label = state.factor_labels[which % n]
        assert reduced_purity(state, label).hex() == trace_form_purity(state, label).hex()


class TestRunSwap:
    def test_outcome_probabilities_uniform(self, swap_report):
        for outcome in BELL_OUTCOMES:
            assert abs(swap_report.outcome_probabilities[outcome] - 0.25) <= 1e-12
        assert abs(sum(swap_report.outcome_probabilities.values()) - 1.0) <= 1e-12

    def test_post_states_maximally_entangled(self, swap_report):
        for outcome in BELL_OUTCOMES:
            state = swap_report.post_states[outcome]
            assert state.factor_labels == ("D", "C")
            assert abs(state.norm_sq - 1.0) <= 1e-12
            assert abs(reduced_purity(state, "D") - 0.5) <= 1e-12
            assert abs(reduced_purity(state, "C") - 0.5) <= 1e-12

    def test_post_selection_matches_analytic_propagation(self, swap_report):
        for outcome in BELL_OUTCOMES:
            simulated = swap_report.post_states[outcome]
            fidelity = abs(inner_product(analytic_post_state(outcome), simulated)) ** 2
            assert abs(fidelity - 1.0) <= 1e-12

    def test_chsh_values_reach_quantum_maximum(self, swap_report):
        for outcome in BELL_OUTCOMES:
            assert abs(swap_report.chsh_values[outcome] - TSIRELSON_BOUND) <= 1e-6

    def test_chsh_values_agree_across_outcomes(self, swap_report):
        values = list(swap_report.chsh_values.values())
        assert max(values) - min(values) <= 1e-6

    def test_matches_sequential_reference_bitwise(self, swap_report):
        for outcome, (p, pair) in zip(BELL_OUTCOMES, sequential_swap_stage()):
            assert swap_report.outcome_probabilities[outcome] == p
            simulated = swap_report.post_states[outcome]
            assert simulated.factor_labels == pair.factor_labels
            assert simulated.amplitudes.tobytes() == pair.amplitudes.tobytes()


class TestPairCorrelation:
    def test_phi_plus_correlation_law(self):
        state = analytic_post_state("00")
        rng = np.random.default_rng(131)
        for _ in range(25):
            a, b = rng.uniform(0, math.pi, size=2)
            expected = math.cos(2 * (a - b))
            assert pair_correlation(state, a, b) == pytest.approx(expected, abs=1e-12)

    def test_requires_two_qubits(self):
        with pytest.raises(ValueError, match="2-qubit"):
            chsh_on_pair(swap_initial_state(), (0.0, 0.0, 0.0, 0.0))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(PAIR_PARTS, ANGLES, ANGLES)
    def test_matches_sequential_reference(self, parts, angle_1, angle_2):
        state = random_pair(parts)
        value = pair_correlation(state, angle_1, angle_2)
        assert isinstance(value, float)
        assert value == pytest.approx(
            sequential_pair_correlation(state, angle_1, angle_2), abs=1e-12
        )


class TestChshOnPair:
    def test_known_optimal_angles(self):
        # E = cos 2(a-b) for the 00 post-state; these angles sum the four
        # terms to the quantum maximum.
        state = analytic_post_state("00")
        angles = (0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)
        assert chsh_on_pair(state, angles) == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_equal_angles_stay_classical(self):
        state = analytic_post_state("00")
        rng = np.random.default_rng(137)
        for _ in range(20):
            a, b = rng.uniform(0, math.pi, size=2)
            s = chsh_on_pair(state, (a, a, b, b))
            # the two middle terms cancel pairwise, leaving 2 E(a, b)
            assert s == pytest.approx(2 * pair_correlation(state, a, b), abs=1e-12)
            assert abs(s) <= 2.0 + 1e-12

    def test_random_angles_respect_tsirelson(self):
        rng = np.random.default_rng(139)
        for outcome in BELL_OUTCOMES:
            state = analytic_post_state(outcome)
            for _ in range(25):
                angles = tuple(rng.uniform(0, math.pi, size=4))
                assert abs(chsh_on_pair(state, angles)) <= TSIRELSON_BOUND + 1e-9

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, position, angle):
        angles = [0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8]
        angles[position] = angle
        with pytest.raises(ValueError, match="finite"):
            chsh_on_pair(analytic_post_state("00"), angles)


class TestBatchedCorrelations:
    """One batched Born-rule call per CHSH value and per correlation matrix."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(PAIR_PARTS, st.tuples(ANGLES, ANGLES, ANGLES, ANGLES))
    def test_chsh_is_its_four_pair_correlations(self, parts, angles):
        state = random_pair(parts)
        a, a_alt, b, b_alt = angles
        expected = (
            pair_correlation(state, a, b)
            - pair_correlation(state, a, b_alt)
            + pair_correlation(state, a_alt, b)
            + pair_correlation(state, a_alt, b_alt)
        )
        assert chsh_on_pair(state, angles) == expected

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(PAIR_PARTS, ANGLES, ANGLES)
    def test_pair_matches_coefficient_rows(self, parts, angle_1, angle_2):
        state = random_pair(parts)
        assert pair_correlation(state, angle_1, angle_2) == pytest.approx(
            coefficient_row_correlation(state, angle_1, angle_2), abs=1e-15
        )

    @settings(derandomize=True, max_examples=300)
    @given(st.floats(allow_nan=False, allow_infinity=False) | ANGLES)
    def test_analyzer_rows_are_the_real_dichotomic_basis(self, angle):
        # the batched rows are the reference's phi = 0 analyzer basis rows,
        # bit for bit
        rows = _analyzer_rows((angle,))[0]
        matrix = analyzer_basis(angle, 0.0, "C").matrix
        assert rows.dtype == np.float64
        assert rows.astype(complex).tobytes() == matrix.tobytes()

    def test_swapped_pairs_keep_their_correlation_matrix(self, swap_report):
        # M is +-1 on the diagonal up to rounding, and its rounding-level
        # entries reach the last digits of the CHSH values: they must match
        # the per-pair path bit for bit
        axes = (0.0, math.pi / 4)
        for pair in swap_report.post_states.values():
            expected = [[coefficient_row_correlation(pair, a, b) for b in axes] for a in axes]
            assert _correlation_matrix(pair).tolist() == expected


class TestMaxChsh:
    def test_entangled_pairs_reach_bound(self):
        for outcome in ("00", "10"):
            scan = max_chsh(analytic_post_state(outcome))
            assert abs(scan.value - TSIRELSON_BOUND) <= 1e-6
            assert scan.value <= TSIRELSON_BOUND + 1e-9
            assert scan.closed_form_value <= scan.value + 1e-9

    def test_born_value_at_scan_angles_matches(self):
        scan = max_chsh(analytic_post_state("01"))
        assert chsh_on_pair(analytic_post_state("01"), scan.angles) == pytest.approx(
            scan.value, abs=1e-12
        )

    def test_product_state_stays_classical(self):
        product = PureState(np.array([1, 0, 0, 0], dtype=complex), ("D", "C"))
        scan = max_chsh(product)
        assert scan.value <= 2.0 + 1e-9
        assert scan.value == pytest.approx(2.0, abs=1e-6)

    def test_angle_fold_stays_below_pi(self):
        # a direction just below the x axis has a half-angle of about -5e-18,
        # which reduces mod pi to exactly pi in floating point
        assert _analyzer_angle(np.array([1.0, -1e-17])) == 0.0
        assert _analyzer_angle(np.array([0.0, -1.0])) == pytest.approx(3 * math.pi / 4)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(PAIR_PARTS)
    def test_random_states_against_grid_reference(self, parts):
        state = random_pair(parts)
        scan = max_chsh(state)
        assert scan.value >= grid_reference_chsh(state) - 1e-12
        assert chsh_on_pair(state, scan.angles) == pytest.approx(scan.value, abs=1e-12)
        assert scan.value <= TSIRELSON_BOUND + 1e-9
        assert abs(scan.closed_form_value - scan.value) <= 1e-12
        assert all(0.0 <= angle < math.pi for angle in scan.angles)


    def test_swapped_pair_angles_ignore_rounding_noise(self, swap_report):
        # s1 == s2 for every swapped pair, so the singular vectors of M carry
        # no information; moving one entry by a few ulps must not move the
        # angles, which are the ones the CLI has always printed
        printed = {"00": [45, 90, 67.5, 112.5], "01": [45, 90, 22.5, 157.5],
                   "10": [45, 90, 157.5, 22.5], "11": [45, 90, 112.5, 67.5]}
        for outcome, pair in swap_report.post_states.items():
            m = _correlation_matrix(pair)
            _, angles = _optimal_axes(m)
            assert [float(f"{math.degrees(a):.12g}") for a in angles] == printed[outcome]
            assert swap_report.chsh_angles[outcome] == angles
            for k in range(4):
                for steps in (-4, -1, 1, 4):
                    ulps = [steps if j == k else 0 for j in range(4)]
                    _, moved = _optimal_axes(perturbed(m, ulps))
                    assert analyzer_gap(angles, moved) <= 1e-12, (outcome, ulps)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.sampled_from(BELL_OUTCOMES), ANGLES, ANGLES, ULPS)
    def test_rotated_bell_states_keep_their_angles(self, outcome, theta_1, theta_2, ulps):
        state = rotated_bell_state(outcome, theta_1, theta_2)
        m = _correlation_matrix(state)
        value, angles = _optimal_axes(m)
        _, moved = _optimal_axes(perturbed(m, ulps))
        assert analyzer_gap(angles, moved) <= 1e-12
        assert value == pytest.approx(TSIRELSON_BOUND, abs=1e-12)
        scan = max_chsh(state)
        assert scan.angles == angles
        assert scan.value == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        arrays(float, (2, 2), elements=st.floats(-1.0, 1.0)),
        st.sampled_from(((-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0))),
    )
    def test_axes_ignore_the_sign_lapack_picks(self, m, pair_signs):
        # (u_i, v_i) -> (-u_i, -v_i) is an equally valid SVD of M; the angles
        # must not depend on which of the two LAPACK returns
        sigma = np.linalg.svd(m, compute_uv=False)
        assume(sigma[0] - sigma[1] > 1e-6 * sigma[0])
        expected = _optimal_axes(m)
        signs = np.array(pair_signs)
        svd = np.linalg.svd

        def negated_svd(a):
            left, s, right_t = svd(a)
            return left * signs, s, right_t * signs[:, None]

        with mock.patch.object(np.linalg, "svd", negated_svd):
            assert _optimal_axes(m) == expected

    def test_nan_born_value_rejected(self):
        # a NaN passes every `value > bound` test; the checks must refuse it
        with mock.patch("telebell.swap.chsh_on_pair", lambda state, angles: math.nan):
            with pytest.raises(RuntimeError, match="quantum bound"):
                max_chsh(analytic_post_state("00"))

    def test_nan_closed_form_value_rejected(self):
        def nan_optimum(m):
            return math.nan, _optimal_axes(m)[1]

        with mock.patch("telebell.swap._optimal_axes", nan_optimum):
            with pytest.raises(RuntimeError, match="quantum bound"):
                max_chsh(analytic_post_state("00"))

    def test_nan_orthogonality_residual_rejected(self):
        # an SVD that reports equal, finite singular values for a matrix
        # holding a NaN: the degenerate branch's check must still refuse it
        def degenerate_svd(a):
            return np.eye(2), np.array([1.0, 1.0]), np.eye(2)

        m = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with mock.patch.object(np.linalg, "svd", degenerate_svd), np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match="not orthogonal"):
                _optimal_axes(m)


class TestBoundEdges:
    # each check at exactly its bound, one ulp inside and one ulp outside;
    # the Born-rule values are patched in, so only the checks are under test
    OPTIMAL_ANGLES = (0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_chsh_on_pair_bound(self, sign):
        bound = TSIRELSON_BOUND + 1e-12
        state = analytic_post_state("00")
        for s, valid in (
            (math.nextafter(bound, 0.0), True),
            (bound, True),
            (math.nextafter(bound, math.inf), False),
        ):
            e = np.array([sign * s, 0.0, 0.0, 0.0])
            with mock.patch("telebell.swap._correlations", lambda *args, e=e: e):
                if valid:
                    assert chsh_on_pair(state, self.OPTIMAL_ANGLES) == sign * s
                else:
                    with pytest.raises(RuntimeError, match="quantum bound"):
                        chsh_on_pair(state, self.OPTIMAL_ANGLES)

    def max_chsh_with(self, closed_form_value, born_value):
        def optimum(m):
            return closed_form_value, self.OPTIMAL_ANGLES

        with mock.patch("telebell.swap._optimal_axes", optimum), mock.patch(
            "telebell.swap.chsh_on_pair", lambda state, angles: born_value
        ):
            return max_chsh(analytic_post_state("00"))

    def test_max_chsh_bound(self):
        bound = TSIRELSON_BOUND + 1e-9
        inside, above = math.nextafter(bound, 0.0), math.nextafter(bound, math.inf)
        for value in (inside, bound):
            assert self.max_chsh_with(value, value).value == value
        for closed_form_value, born_value in ((above, bound), (bound, above)):
            with pytest.raises(RuntimeError, match="exceeds the quantum bound"):
                self.max_chsh_with(closed_form_value, born_value)

    @pytest.mark.parametrize("center", [0.0, 2.0])
    @pytest.mark.parametrize("side", [1, -1])
    def test_max_chsh_closed_form_agreement(self, center, side):
        # about 0 the difference can be exactly 1e-9; about 2, a difference
        # is exact but no multiple of its ulp is 1e-9
        edge = tolerance_edge(center, 1e-9, side)
        if center == 0.0:
            assert edge == side * 1e-9
        for value, valid in (
            (math.nextafter(edge, center), True),
            (edge, True),
            (math.nextafter(edge, side * math.inf), False),
        ):
            for closed_form_value, born_value in ((value, center), (center, value)):
                if valid:
                    assert self.max_chsh_with(closed_form_value, born_value).value == born_value
                else:
                    with pytest.raises(RuntimeError, match="misses the closed-form optimum"):
                        self.max_chsh_with(closed_form_value, born_value)


class TestSingleOutcomeSubensemble:
    def test_selected_outcome(self, swap_report):
        # one post-selected Bell outcome, with no correction and no use of
        # the other outcomes, already violates the CHSH inequality maximally
        probability = swap_report.outcome_probabilities["10"]
        chsh = swap_report.chsh_values["10"]
        assert abs(probability - 0.25) <= 1e-12
        assert abs(chsh - TSIRELSON_BOUND) <= 1e-6
