"""Tests for the labelled state-vector engine."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telebell.qstate import (
    ATOL,
    ProjectiveBasis,
    PureState,
    basis_coefficients,
    clamp_probability,
    measure_probabilities,
)

from reference import (
    apply_local_unitary,
    basis_matrix,
    inner_product,
    normalize,
    partial_inner,
    pure_state_amplitudes,
    tensor_product,
    tolerance_edge,
)


def random_state(rng, labels):
    n = len(labels)
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return normalize(PureState(amps, labels))


def random_unitary(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(g)
    return q


def ket(bits, labels):
    amps = np.zeros(2 ** len(labels), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return PureState(amps, labels)


class TestPureState:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 0.0, 0.0]), ("A",))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            PureState(np.zeros(4), ("A", "A"))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PureState(np.array([np.nan, 0.0]), ("A",))
        with pytest.raises(ValueError):
            PureState(np.array([np.inf + 0j, 0.0]), ("A",))

    def test_rejects_more_than_four_qubits(self):
        with pytest.raises(ValueError):
            PureState(np.zeros(32), ("A", "B", "C", "D", "E"))

    def test_normalize(self):
        state = normalize(PureState(np.array([3.0, 4.0]), ("A",)))
        assert abs(state.norm_sq - 1.0) <= ATOL

    def test_normalize_zero_state(self):
        with pytest.raises(ValueError):
            normalize(PureState(np.zeros(2), ("A",)))

    def test_normalize_overflowed_norm(self):
        # finite amplitudes whose squared norm overflows to inf, which would
        # divide every amplitude to zero
        with pytest.raises(ValueError, match="squared norm is inf"):
            normalize(PureState(np.array([1e200, 0.0]), ("A",)))

    def test_amplitudes_read_only(self):
        state = ket("0", ("A",))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 2.0


def checked(build, *args):
    """A constructor's array as (dtype, shape, bytes), or its ValueError's message."""
    try:
        arr = build(*args)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", arr.dtype, arr.shape, arr.tobytes()


@st.composite
def amplitude_cases(draw):
    """0-5 labels, mostly 1-4, sometimes one repeated; the right number of
    amplitudes or one off; sometimes one non-finite real or imaginary part."""
    labels = "ABCDE"[: draw(st.sampled_from((1, 2, 3, 4) * 3 + (0, 5)))]
    if len(labels) > 1 and draw(st.integers(0, 7)) == 0:
        labels = labels[:-1] + labels[0]
    labels = tuple(labels)
    size = max(2 ** len(labels) + draw(st.sampled_from((0, 0, 0, -1, 1))), 0)
    parts = draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * size, max_size=2 * size))
    if parts and draw(st.booleans()):
        bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        parts[draw(st.integers(0, len(parts) - 1))] = bad
    return [complex(re, im) for re, im in zip(parts[0::2], parts[1::2])], labels


class TestPureStateChecks:
    @settings(derandomize=True, max_examples=300)
    @given(amplitude_cases())
    def test_matches_function_form(self, case):
        amplitudes, labels = case
        assert checked(lambda: PureState(amplitudes, labels).amplitudes) == checked(
            pure_state_amplitudes, amplitudes, labels
        )


class TestTensorProduct:
    def test_basis_state_composite(self):
        composite = tensor_product(ket("0", ("A",)), ket("0", ("B",)))
        assert np.allclose(composite.amplitudes, [1, 0, 0, 0])
        assert composite.factor_labels == ("A", "B")

    def test_linearity(self):
        plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0), ("B",))
        composite = tensor_product(ket("0", ("A",)), plus)
        r = 1 / np.sqrt(2.0)
        assert np.allclose(composite.amplitudes, [r, r, 0, 0])

    def test_norm_multiplicative_on_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = random_state(rng, ("A",))
            b = random_state(rng, ("B", "C"))
            assert abs(tensor_product(a, b).norm_sq - a.norm_sq * b.norm_sq) <= 1e-12

    def test_label_collision(self):
        with pytest.raises(ValueError, match="collision"):
            tensor_product(ket("0", ("A",)), ket("0", ("A",)))

    def test_dimension_overflow(self):
        with pytest.raises(ValueError, match="exceed"):
            tensor_product(ket("000", ("A", "B", "C")), ket("00", ("D", "E")))


class TestInnerProduct:
    def test_same_basis_state(self):
        assert inner_product(ket("0", ("A",)), ket("0", ("A",))) == 1.0

    def test_orthogonal_basis_states(self):
        assert inner_product(ket("0", ("A",)), ket("1", ("A",))) == 0.0

    def test_distinct_bell_states_orthogonal(self):
        r = 1 / np.sqrt(2.0)
        bell_00 = PureState(np.array([r, 0, 0, r]), ("B", "A"))
        bell_11 = PureState(np.array([r, 0, 0, -r]), ("B", "A"))
        assert abs(inner_product(bell_00, bell_11)) <= 1e-12

    def test_conjugates_first_argument(self):
        rng = np.random.default_rng(3)
        a = random_state(rng, ("A",))
        b = random_state(rng, ("A",))
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))

    def test_label_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(ket("0", ("A",)), ket("0", ("B",)))
        with pytest.raises(ValueError):
            inner_product(ket("00", ("A", "B")), ket("00", ("B", "A")))


def z_basis(label):
    return ProjectiveBasis((ket("0", (label,)), ket("1", (label,))), ("0", "1"))


class TestProjectiveBasis:
    def test_degenerate_basis_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            ProjectiveBasis((ket("0", ("A",)), ket("0", ("A",))), ("0", "1"))

    def test_incomplete_basis_rejected(self):
        with pytest.raises(ValueError, match="span"):
            ProjectiveBasis((ket("00", ("A", "B")), ket("11", ("A", "B"))), ("0", "1"))

    def test_unnormalized_state_rejected(self):
        bad = PureState(np.array([2.0, 0.0]), ("A",))
        with pytest.raises(ValueError, match="orthonormal"):
            ProjectiveBasis((bad, ket("1", ("A",))), ("0", "1"))

    def test_overflowed_gram_rejected(self):
        # each state's squared norm overflows, so the Gram diagonal is NaN
        huge = 1e155 + 1e155j
        states = (PureState([huge, 0.0], ("A",)), PureState([0.0, huge], ("A",)))
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="orthonormal"):
                ProjectiveBasis(states, ("0", "1"))
            with pytest.raises(ValueError, match="orthonormal"):
                basis_matrix(states, ("0", "1"))


class TestMeasureProbabilities:
    def test_product_state_in_bell_basis(self):
        r = 1 / np.sqrt(2.0)
        bell = ProjectiveBasis(
            (
                PureState(np.array([r, 0, 0, r]), ("B", "A")),
                PureState(np.array([0, r, r, 0]), ("B", "A")),
                PureState(np.array([0, r, -r, 0]), ("B", "A")),
                PureState(np.array([r, 0, 0, -r]), ("B", "A")),
            ),
            ("00", "01", "10", "11"),
        )
        results = measure_probabilities(ket("00", ("B", "A")), bell, ("B", "A"))
        probs = {label: p for label, p, _ in results}
        assert probs["00"] == pytest.approx(0.5, abs=1e-12)
        assert probs["11"] == pytest.approx(0.5, abs=1e-12)
        assert probs["01"] == pytest.approx(0.0, abs=1e-12)
        assert probs["10"] == pytest.approx(0.0, abs=1e-12)

    def test_born_completeness_on_random_states(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            state = random_state(rng, ("A", "B"))
            basis = z_basis("A")
            total = sum(p for _, p, _ in measure_probabilities(state, basis, ("A",)))
            assert abs(total - 1.0) <= 1e-12

    def test_zero_probability_outcome_has_null_post_state(self):
        results = measure_probabilities(ket("0", ("A",)), z_basis("A"), ("A",))
        assert results[0][1] == pytest.approx(1.0, abs=1e-12)
        assert results[1][1] == 0.0
        assert results[1][2] is None

    def test_post_state_is_projection(self):
        rng = np.random.default_rng(9)
        state = random_state(rng, ("A", "B"))
        for label, p, post in measure_probabilities(state, z_basis("B"), ("B",)):
            if post is None:
                continue
            assert post.factor_labels == ("A", "B")
            assert abs(post.norm_sq - 1.0) <= 1e-12
            # projecting again must be idempotent
            again = measure_probabilities(post, z_basis("B"), ("B",))
            idx = 0 if label == "0" else 1
            assert again[idx][1] == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_insensitive_exact_phases(self):
        rng = np.random.default_rng(13)
        state = random_state(rng, ("A", "B"))
        basis = z_basis("A")
        reference = [p for _, p, _ in measure_probabilities(state, basis, ("A",))]
        for phase in (-1.0, 1j, -1j):
            shifted = PureState(phase * state.amplitudes, state.factor_labels)
            probs = [p for _, p, _ in measure_probabilities(shifted, basis, ("A",))]
            assert probs == reference

    def test_global_phase_insensitive_generic_phase(self):
        rng = np.random.default_rng(17)
        state = random_state(rng, ("A", "B", "C"))
        basis = z_basis("C")
        reference = [p for _, p, _ in measure_probabilities(state, basis, ("C",))]
        shifted = PureState(np.exp(0.321j) * state.amplitudes, state.factor_labels)
        probs = [p for _, p, _ in measure_probabilities(shifted, basis, ("C",))]
        assert np.allclose(probs, reference, atol=1e-12)

    def test_unnormalized_state_rejected(self):
        state = PureState(np.array([1.0, 1.0]), ("A",))
        with pytest.raises(ValueError, match="normalized"):
            measure_probabilities(state, z_basis("A"), ("A",))

    def test_basis_label_mismatch(self):
        with pytest.raises(ValueError, match="basis lives on"):
            measure_probabilities(ket("00", ("A", "B")), z_basis("A"), ("B",))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_basis(rng, labels):
    dim = 2 ** len(labels)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    return ProjectiveBasis(
        tuple(PureState(row, labels) for row in q.T), tuple(str(j) for j in range(dim))
    )


LABELS = ("A", "B", "C", "D")


# Off-diagonal Gram residuals at ATOL, one ulp either side of it, and around
# it.  Basis state i carries ``t * phase`` on basis vector j, so the largest
# Gram residual is exactly |t|: the other entries round back to 0 and 1.
ATOL_NEIGHBOURS = (np.nextafter(ATOL, 0.0), ATOL, np.nextafter(ATOL, 1.0))
GRAM_RESIDUALS = st.one_of(st.sampled_from(ATOL_NEIGHBOURS), st.floats(0.5 * ATOL, 1.5 * ATOL))
PHASES = (1.0, -1.0, 1j, -1j)


class TestProjectiveBasisChecks:
    @settings(derandomize=True, max_examples=300)
    @given(
        GRAM_RESIDUALS,
        st.sampled_from(PHASES),
        st.integers(1, 2).flatmap(
            lambda n: st.tuples(
                st.just(n), st.sampled_from(list(itertools.permutations(range(2**n), 2)))
            )
        ),
    )
    def test_gram_residual_matches_function_form(self, t, phase, case):
        n, (i, j) = case
        rows = np.eye(2**n, dtype=complex)
        rows[i, j] = t * phase
        states = tuple(PureState(row, LABELS[:n]) for row in rows)
        outcomes = tuple(str(k) for k in range(2**n))
        result = checked(lambda: ProjectiveBasis(states, outcomes).matrix)
        assert result == checked(basis_matrix, states, outcomes)
        assert result[0] == ("ok" if t <= ATOL else "error")

    @settings(derandomize=True, max_examples=200)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.sampled_from(["none", "repeat", "drop", "scale", "relabel", "mixed labels"]),
    )
    def test_defects_match_function_form(self, seed, n, defect):
        rng = np.random.default_rng(seed)
        states = list(random_basis(rng, LABELS[:n]).states)
        outcomes = [str(k) for k in range(2**n)]
        if defect == "repeat":
            states[-1] = states[0]
        elif defect == "drop":
            states.pop()
        elif defect == "scale":
            scale = 1.0 + rng.uniform(-1e-11, 1e-11)
            states[0] = PureState(states[0].amplitudes * scale, LABELS[:n])
        elif defect == "relabel":
            outcomes[-1] = outcomes[0]
        elif defect == "mixed labels":
            states[-1] = PureState(states[-1].amplitudes, ("E",) + LABELS[1:n])
        assert checked(lambda: ProjectiveBasis(states, outcomes).matrix) == checked(
            basis_matrix, states, outcomes
        )

    @settings(derandomize=True, max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_matrix_is_stack_of_rows_bitwise(self, seed, n):
        basis = random_basis(np.random.default_rng(seed), LABELS[:n])
        stacked = np.stack([s.amplitudes for s in basis.states])
        assert same_bits(basis.matrix, stacked)
        assert same_bits(basis._matrix_conj, stacked.conj())


class TestBasisCoefficients:
    @settings(derandomize=True, max_examples=200)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 4).flatmap(
            lambda n: st.tuples(
                st.just(n), st.sampled_from(list(itertools.permutations(LABELS[:n])))
            )
        ),
        st.integers(1, 3),
    )
    def test_rows_match_measure_probabilities(self, seed, sizes, measured_count):
        n, order = sizes
        measured = order[: min(measured_count, n - 1)]
        rng = np.random.default_rng(seed)
        state = random_state(rng, LABELS[:n])
        basis = random_basis(rng, measured)
        coeffs = basis_coefficients(state, basis, measured)
        results = measure_probabilities(state, basis, measured)
        assert coeffs.shape == (2 ** len(measured), 2 ** (n - len(measured)))
        for row, basis_state, (_, p, _) in zip(coeffs, basis.states, results):
            assert abs(np.vdot(row, row).real - p) <= 1e-12
            residual = partial_inner(basis_state, state)
            assert np.max(np.abs(row - residual.amplitudes)) <= 1e-12

    def test_basis_label_mismatch(self):
        with pytest.raises(ValueError, match="basis lives on"):
            basis_coefficients(ket("00", ("A", "B")), z_basis("A"), ("B",))

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown factor label"):
            basis_coefficients(ket("00", ("A", "B")), z_basis("C"), ("C",))


class TestApplyLocalUnitary:
    def test_identity(self):
        rng = np.random.default_rng(21)
        state = random_state(rng, ("A", "B"))
        out = apply_local_unitary(state, np.eye(2), "A")
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_bit_flip(self):
        flip = np.array([[0, 1], [1, 0]])
        out = apply_local_unitary(ket("0", ("A",)), flip, "A")
        assert np.allclose(out.amplitudes, [0, 1])

    def test_phase_flip_twice_is_identity(self):
        rng = np.random.default_rng(23)
        state = random_state(rng, ("A", "B", "C"))
        z = np.diag([1.0, -1.0])
        twice = apply_local_unitary(apply_local_unitary(state, z, "B"), z, "B")
        fidelity = abs(inner_product(state, twice)) ** 2
        assert abs(fidelity - 1.0) <= 1e-12

    def test_only_target_factor_transformed(self):
        flip = np.array([[0, 1], [1, 0]])
        out = apply_local_unitary(ket("00", ("A", "B")), flip, "B")
        assert np.allclose(out.amplitudes, ket("01", ("A", "B")).amplitudes)

    def test_preserves_inner_products(self):
        rng = np.random.default_rng(27)
        for _ in range(25):
            a = random_state(rng, ("A", "B"))
            b = random_state(rng, ("A", "B"))
            u = random_unitary(rng)
            before = inner_product(a, b)
            after = inner_product(
                apply_local_unitary(a, u, "B"), apply_local_unitary(b, u, "B")
            )
            assert abs(after - before) <= 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            apply_local_unitary(ket("0", ("A",)), np.array([[1, 0], [0, 2]]), "A")

    def test_nan_matrix_rejected(self):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="unitary"):
            apply_local_unitary(ket("0", ("C",)), [[np.nan, 0.0], [0.0, 1.0]], "C")

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown factor label"):
            apply_local_unitary(ket("0", ("A",)), np.eye(2), "B")


class TestPartialInner:
    def test_residual_of_product_state(self):
        state = tensor_product(ket("1", ("A",)), ket("0", ("B",)))
        residual = partial_inner(ket("1", ("A",)), state)
        assert residual.factor_labels == ("B",)
        assert np.allclose(residual.amplitudes, [1, 0])

    def test_residual_norm_is_born_probability(self):
        rng = np.random.default_rng(31)
        state = random_state(rng, ("A", "B"))
        p0 = partial_inner(ket("0", ("A",)), state).norm_sq
        p1 = partial_inner(ket("1", ("A",)), state).norm_sq
        assert abs(p0 + p1 - 1.0) <= 1e-12

    def test_full_overlap_rejected(self):
        with pytest.raises(ValueError, match="strict subsystem"):
            partial_inner(ket("0", ("A",)), ket("0", ("A",)))


def test_clamp_probability():
    assert clamp_probability(-5e-15) == 0.0
    assert clamp_probability(0.3) == 0.3
    with pytest.raises(ValueError):
        clamp_probability(-1e-11)


def test_clamp_probability_edge():
    # -ATOL itself is rounding residue; one ulp below it is an error
    assert clamp_probability(-ATOL) == 0.0
    assert clamp_probability(math.nextafter(-ATOL, 0.0)) == 0.0
    with pytest.raises(ValueError, match="exceeds rounding tolerance"):
        clamp_probability(math.nextafter(-ATOL, -1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_clamp_probability_refuses_non_finite(bad):
    # a NaN passes every `p < bound` test; it is refused before any of them
    with pytest.raises(ValueError, match="not finite"):
        clamp_probability(bad)


class TestIsUnitEdge:
    # norm_sq - 1 is exact near 1, so no norm lies at exactly ATOL: the last
    # value accepted on each side is the one tolerance_edge finds
    @pytest.mark.parametrize("side", [1, -1])
    def test_last_norm_inside_and_first_outside(self, monkeypatch, side):
        edge = tolerance_edge(1.0, ATOL, side)
        state = PureState(np.array([1.0, 0.0]), ("A",))
        for norm_sq, unit in (
            (math.nextafter(edge, 1.0), True),
            (edge, True),
            (math.nextafter(edge, side * math.inf), False),
        ):
            monkeypatch.setattr(PureState, "norm_sq", property(lambda self, v=norm_sq: v))
            assert state.is_unit() is unit
