"""Tests for deterministic strategies, the exhaustive bound and the verdict."""

import contextlib
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from telebell.corrvec import (
    SETTING_PAIRS_DEGREES,
    build_quantum_super_vector,
    super_dot,
    super_norm_sq,
)
from telebell.lhv import (
    STRATEGY_SIGNS,
    DeterministicStrategy,
    StrategyEnsemble,
    bell_test,
    ensemble_super_vector,
    enumerate_strategies,
    lhv_extremal_bound,
    strategy_super_vector,
)

from reference import extremal_bound, tolerance_edge

SQRT_TWO = math.sqrt(2.0)


def all_plus():
    return DeterministicStrategy(bob=(1, 1), alice=((1, 1), (1, 1)))


def loop_extremal_bound(v):
    """Reference: the per-strategy loop, first strict maximum in enumeration order."""
    best_value, best_strategy = -math.inf, None
    for strategy in enumerate_strategies():
        value = super_dot(v, strategy_super_vector(strategy))
        if value > best_value:
            best_value, best_strategy = value, strategy
    return best_value, best_strategy


def loop_ensemble_super_vector(ensemble):
    """Reference: the weighted sum of strategy super-vectors, one entry at a time."""
    total = np.zeros((4, 2))
    for strategy, weight in ensemble.entries:
        total += weight * strategy_super_vector(strategy)
    return total


def loop_ensemble_correlation(ensemble, alice_phi_deg, bob_phi_deg):
    """Reference: the per-entry loop over one setting pair, reading each
    strategy's answers at Bob's phi' of -45 or 45 and Alice's phi of 0 or 90."""
    bob_index = {-45.0: 0, 45.0: 1}[bob_phi_deg]
    alice_index = {0.0: 0, 90.0: 1}[alice_phi_deg]
    total = np.zeros(2)
    for strategy, weight in ensemble.entries:
        alice = np.array(strategy.alice[alice_index], dtype=float)
        total += weight * strategy.bob[bob_index] * alice
    return total


def gathered_ensemble_super_vector(ensemble):
    """Reference: rows and weights gathered from the entries on every call."""
    rows = [strategy.row for strategy, _ in ensemble.entries]
    weights = np.array([weight for _, weight in ensemble.entries])
    return (weights @ STRATEGY_SIGNS.reshape(64, -1)[rows]).reshape(4, 2)


def random_ensemble(rng, strategies):
    weights = rng.random(len(strategies))
    weights /= weights.sum()
    return StrategyEnsemble(tuple(zip(strategies, weights)))


# Strategy answers: signs, and values that are not signs.
SIGN_LIKE_ANSWERS = (
    st.sampled_from(
        [-1, 1, 0, 2, -2, 1.0, -1.0, 0.5, math.nan, math.inf, -math.inf, True, False]
        + [np.int64(1), np.int64(-1), np.int8(1), np.float64(-1.0)]
    )
    | st.integers()
    | st.floats()
)


class TestDeterministicStrategy:
    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError):
            DeterministicStrategy(bob=(0, 1), alice=((1, 1), (1, 1)))
        with pytest.raises(ValueError):
            DeterministicStrategy(bob=(1, 1), alice=((2, 1), (1, 1)))

    @settings(derandomize=True, max_examples=300)
    @given(st.lists(SIGN_LIKE_ANSWERS, min_size=6, max_size=6))
    # answers that only compare equal to signs: each is refused, since the
    # CLI would print them as they are
    @example([1.0, True, np.int64(1), -1.0, 1, 1])
    @example([1, 1, np.int64(1), 1, 1, 1])
    @example([-1, 1, 1, 1, 1, False])
    def test_refused_or_valid(self, answers):
        with np.errstate(all="ignore"):
            try:
                s = DeterministicStrategy(
                    bob=tuple(answers[:2]), alice=(tuple(answers[2:4]), tuple(answers[4:]))
                )
            except ValueError:
                return
            assert all(type(v) is int and v in (-1, 1) for v in answers)
            assert enumerate_strategies()[s.row] == s

    def test_list_answers_equal_tuple_answers(self):
        from_lists = DeterministicStrategy([1, -1], [[1, 1], [1, 1]])
        from_tuples = DeterministicStrategy((1, -1), ((1, 1), (1, 1)))
        assert from_lists == from_tuples
        assert hash(from_lists) == hash(from_tuples)
        assert from_lists.row == from_tuples.row == 47
        assert from_lists.bob == (1, -1) and from_lists.alice == ((1, 1), (1, 1))
        assert from_lists in enumerate_strategies()

    def test_setting_lookup(self):
        # bob answers phi' = -45 with -1 and +45 with +1; alice answers
        # phi = 0 with (1, -1) and 90 with (1, 1).  Setting pair (phi, phi')
        # of the super-vector is Bob's sign times Alice's vector
        s = DeterministicStrategy(bob=(-1, 1), alice=((1, -1), (1, 1)))
        assert SETTING_PAIRS_DEGREES == ((0.0, -45.0), (0.0, 45.0), (90.0, -45.0), (90.0, 45.0))
        expected = np.array([[-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [1.0, 1.0]])
        h = strategy_super_vector(s)
        assert h.dtype == np.float64 and np.array_equal(h, expected)


class TestStrategySuperVector:
    def test_all_plus_strategy(self):
        assert np.array_equal(strategy_super_vector(all_plus()), np.ones((4, 2)))

    def test_hand_computed_example(self):
        s = DeterministicStrategy(bob=(-1, 1), alice=((-1, -1), (1, 1)))
        expected = np.array([[1, 1], [-1, -1], [-1, -1], [1, 1]], dtype=float)
        assert np.array_equal(strategy_super_vector(s), expected)

    def test_entries_are_signs(self):
        for s in enumerate_strategies():
            h = strategy_super_vector(s)
            assert np.all(np.isin(h, (-1.0, 1.0)))


class TestEnumeration:
    def test_count(self):
        assert len(enumerate_strategies()) == 64

    def test_contains_all_plus(self):
        assert all_plus() in enumerate_strategies()

    def test_pairwise_distinct(self):
        strategies = enumerate_strategies()
        assert len(set(strategies)) == 64

    def test_sign_symmetry(self):
        strategies = set(enumerate_strategies())
        for s in strategies:
            mirrored = DeterministicStrategy(
                bob=tuple(-v for v in s.bob), alice=s.alice
            )
            assert mirrored in strategies
            assert np.array_equal(
                strategy_super_vector(mirrored), -strategy_super_vector(s)
            )


class TestExtremalBound:
    def test_quantum_super_vector(self):
        bound = lhv_extremal_bound(build_quantum_super_vector())
        assert abs(bound.maximum - SQRT_TWO) <= 1e-12

    def test_minimum_is_negated_maximum(self):
        quantum = build_quantum_super_vector()
        values = [super_dot(quantum, strategy_super_vector(s)) for s in enumerate_strategies()]
        assert abs(min(values) + max(values)) <= 1e-12
        assert abs(min(values) + SQRT_TWO) <= 1e-12

    def test_zero_super_vector(self):
        assert lhv_extremal_bound(np.zeros((4, 2))).maximum == 0.0

    def test_self_alignment(self):
        s = DeterministicStrategy(bob=(1, -1), alice=((1, -1), (-1, 1)))
        h = strategy_super_vector(s)
        bound = lhv_extremal_bound(h)
        assert bound.maximum == 8.0
        assert strategy_super_vector(bound.argmax) is not None
        assert np.array_equal(strategy_super_vector(bound.argmax), h)

    @settings(derandomize=True, max_examples=300)
    @given(
        st.one_of(
            arrays(float, (4, 2), elements=st.floats(-3.0, 3.0)),
            # small integers tie often: the first strategy in order must win
            arrays(float, (4, 2), elements=st.integers(-2, 2).map(float)),
        )
    )
    def test_matches_function_form_bitwise(self, v):
        bound = lhv_extremal_bound(v)
        maximum, row = extremal_bound(v)
        assert bound.maximum.hex() == maximum.hex()
        assert bound.argmax.row == row

    def test_complex_rejected(self):
        # a cast to float would drop the imaginary parts; they are refused instead
        with pytest.raises(ValueError, match="real"):
            lhv_extremal_bound(build_quantum_super_vector() * 1j)

    def test_argmax_attains_maximum(self):
        quantum = build_quantum_super_vector()
        bound = lhv_extremal_bound(quantum)
        assert super_dot(quantum, strategy_super_vector(bound.argmax)) == bound.maximum


# Super-vectors with non-finite entries, finite ones whose products
# overflow, and any float.
EXTREME_ENTRIES = (
    st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e300, 1.7976931348623157e308])
    | st.floats()
)
# Every super-vector entry point, as a function of one (4, 2) super-vector.
SUPER_VECTOR_ENTRY_POINTS = {
    "super_dot": lambda v: super_dot(build_quantum_super_vector(), v),
    "super_norm_sq": super_norm_sq,
    "lhv_extremal_bound": lambda v: lhv_extremal_bound(v).maximum,
}
# The entry points that may warn before they refuse: they run on the mixture
# path and keep numpy's default error state.  The bound runs once, at import,
# and refuses without a warning.
WARNING_ENTRY_POINTS = {"super_dot", "super_norm_sq"}


def call_entry_point(name, v):
    quiet = np.errstate(all="ignore") if name in WARNING_ENTRY_POINTS else contextlib.nullcontext()
    with quiet:
        return SUPER_VECTOR_ENTRY_POINTS[name](v)


class TestExtremeSuperVectors:
    @pytest.mark.parametrize(
        "name, v",
        [
            ("lhv_extremal_bound", np.full((4, 2), math.nan)),
            ("super_dot", np.array([[math.inf, 0.0]] + [[0.0, 0.0]] * 3)),
            ("super_norm_sq", np.array([[1e200, 0.0]] * 4)),
            ("lhv_extremal_bound", np.full((4, 2), math.inf)),
            ("lhv_extremal_bound", np.full((4, 2), 1e308)),
        ],
    )
    def test_non_finite_result_refused(self, name, v):
        with pytest.raises(ValueError, match="finite"):
            call_entry_point(name, v)

    @settings(derandomize=True, max_examples=300)
    @given(arrays(float, (4, 2), elements=EXTREME_ENTRIES))
    def test_refused_or_finite(self, v):
        # pytest turns RuntimeWarning into an error; each entry point passes
        # only by refusing its input or by returning a finite value
        for name in SUPER_VECTOR_ENTRY_POINTS:
            try:
                result = call_entry_point(name, v)
            except ValueError:
                continue
            assert math.isfinite(result), name


# Random ensembles: distinct strategy indices with positive raw weights, and
# whether to take the enumerated strategy or one built fresh from its signs.
ENSEMBLE_ENTRIES = st.lists(
    st.tuples(st.integers(0, 63), st.floats(1e-6, 1.0), st.booleans()),
    min_size=1,
    max_size=64,
    unique_by=lambda entry: entry[0],
)


def fresh_strategy(index):
    """The strategy at ``index`` built anew from the signs of its binary digits."""
    signs = [1 if index >> shift & 1 else -1 for shift in range(5, -1, -1)]
    return DeterministicStrategy(bob=tuple(signs[:2]), alice=(tuple(signs[2:4]), tuple(signs[4:])))


def ensemble_from_entries(entries):
    strategies = enumerate_strategies()
    weights = np.array([weight for _, weight, _ in entries])
    weights /= weights.sum()
    return StrategyEnsemble(
        tuple(
            (fresh_strategy(i) if fresh else strategies[i], float(w))
            for (i, _, fresh), w in zip(entries, weights)
        )
    )


class TestArrayPaths:
    """The sign-tensor forms against the per-strategy loops they replace."""

    def test_sign_tensor_rows_follow_enumeration(self):
        strategies = enumerate_strategies()
        assert STRATEGY_SIGNS.shape == (64, 4, 2)
        assert not STRATEGY_SIGNS.flags.writeable
        for row, strategy in zip(STRATEGY_SIGNS, strategies):
            assert np.array_equal(row, strategy_super_vector(strategy))

    def test_sign_tensor_built_from_row_bits(self):
        # the one-expression tensor against the per-strategy stacks it replaced
        strategies = enumerate_strategies()
        stacked = np.stack([strategy_super_vector(s) for s in strategies])
        assert STRATEGY_SIGNS.dtype == stacked.dtype and STRATEGY_SIGNS.shape == stacked.shape
        assert STRATEGY_SIGNS.tobytes() == stacked.tobytes()
        for index, strategy in enumerate(strategies):
            assert strategy.row == index
            # the CLI prints the answers; only Python ints fill its slots
            answers = (*strategy.bob, *strategy.alice[0], *strategy.alice[1])
            assert all(type(v) is int for v in answers)

    def test_row_is_the_enumeration_index(self):
        for index, strategy in enumerate(enumerate_strategies()):
            fresh = fresh_strategy(index)
            assert fresh is not strategy
            assert strategy.row == fresh.row == index
            assert fresh == strategy and hash(fresh) == hash(strategy)
            assert "row" not in repr(fresh)

    def test_enumeration_is_a_fresh_list(self):
        strategies = enumerate_strategies()
        strategies.clear()
        assert len(enumerate_strategies()) == 64

    @settings(derandomize=True, max_examples=300)
    @given(arrays(float, (4, 2), elements=st.floats(-1e6, 1e6)))
    def test_bound_matches_loop_bitwise(self, v):
        bound = lhv_extremal_bound(v)
        value, strategy = loop_extremal_bound(v)
        assert np.float64(bound.maximum).tobytes() == np.float64(value).tobytes()
        assert bound.argmax == strategy

    @settings(derandomize=True, max_examples=300)
    @given(arrays(float, (4, 2), elements=st.integers(-2, 2)))
    def test_tied_bound_picks_first_in_order(self, v):
        bound = lhv_extremal_bound(v)
        value, strategy = loop_extremal_bound(v)
        assert bound.maximum == value
        assert bound.argmax == strategy

    @pytest.mark.parametrize("shape", [(8,), (4, 3), (2, 2), (1, 4, 2), (64, 4, 2)])
    def test_bound_rejects_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="shape"):
            lhv_extremal_bound(np.ones(shape))

    @settings(derandomize=True, max_examples=200)
    @given(ENSEMBLE_ENTRIES)
    def test_ensemble_matches_loop(self, entries):
        ensemble = ensemble_from_entries(entries)
        assert np.max(
            np.abs(ensemble_super_vector(ensemble) - loop_ensemble_super_vector(ensemble))
        ) <= 1e-15

    @settings(derandomize=True, max_examples=200)
    @given(ENSEMBLE_ENTRIES)
    def test_ensemble_matches_gathered_rows_bitwise(self, entries):
        ensemble = ensemble_from_entries(entries)
        actual = ensemble_super_vector(ensemble)
        expected = gathered_ensemble_super_vector(ensemble)
        assert actual.dtype == expected.dtype and actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes()
        # the kept rows and weights are read-only and follow from the entries
        assert not ensemble._rows.flags.writeable and not ensemble._weights.flags.writeable
        twin = StrategyEnsemble(ensemble.entries)
        assert twin == ensemble and hash(twin) == hash(ensemble)
        assert "_rows" not in repr(ensemble) and "_weights" not in repr(ensemble)

    @settings(derandomize=True, max_examples=200)
    @given(ENSEMBLE_ENTRIES)
    def test_ensemble_correlation_matches_loop(self, entries):
        ensemble = ensemble_from_entries(entries)
        rows = ensemble_super_vector(ensemble)
        for row, (alice_deg, bob_deg) in zip(rows, SETTING_PAIRS_DEGREES):
            assert np.max(
                np.abs(row - loop_ensemble_correlation(ensemble, alice_deg, bob_deg))
            ) <= 1e-15


# Weights that are not finite, negative, overflowing in sum, or any float;
# and weight lists that do sum to 1.
EXTREME_WEIGHTS = (
    st.sampled_from([math.nan, math.inf, -math.inf, -0.5, -0.0, 5e-324, 1e308, 1.0, 0.5])
    | st.floats()
)
VALID_WEIGHT_LISTS = [
    [(5, 1.0)],
    [(0, 0.5), (63, 0.5)],
    [(1, 0.25), (2, 0.25), (3, 0.25), (4, 0.25)],
    [(7, 1.0), (8, 0.0)],
]


class TestStrategyEnsemble:
    def test_weights_must_normalize(self):
        s = all_plus()
        with pytest.raises(ValueError, match="sum"):
            StrategyEnsemble(((s, 0.5),))

    def test_weights_must_be_nonnegative(self):
        strategies = enumerate_strategies()
        with pytest.raises(ValueError, match="nonnegative"):
            StrategyEnsemble(((strategies[0], -0.5), (strategies[1], 1.5)))

    @pytest.mark.parametrize(
        "bad",
        [
            "x",
            None,
            3,
            # a row attribute, in range or not, does not make a strategy: -1
            # would read strategy 63, and 64 or 99 fail only at the gather
            *(pytest.param(SimpleNamespace(row=row), id=f"row={row}") for row in (-1, 64, 99, 5)),
        ],
    )
    def test_non_strategy_entry_refused(self, bad):
        entries = ((all_plus(), 0.5), (bad, 0.5))
        with pytest.raises(TypeError, match=re.escape(f"DeterministicStrategy, got {bad!r}")):
            StrategyEnsemble(entries)

    def test_zero_weight_allowed_and_first_bad_weight_named(self):
        strategies = enumerate_strategies()
        ensemble = StrategyEnsemble(((strategies[7], 1.0), (strategies[8], 0.0)))
        assert ensemble.entries[1][1] == 0.0
        with pytest.raises(ValueError, match=r"got -0\.5$"):
            StrategyEnsemble(((strategies[0], 0.0), (strategies[1], -0.5), (strategies[2], 1.5)))

    @pytest.mark.parametrize("side", [1, -1])
    def test_weight_sum_at_its_tolerance(self, side):
        # one weight, so that the fsum total is the weight itself
        edge = tolerance_edge(1.0, 1e-12, side)
        strategy = enumerate_strategies()[0]
        for total, valid in (
            (math.nextafter(edge, 1.0), True),
            (edge, True),
            (math.nextafter(edge, side * math.inf), False),
        ):
            if valid:
                assert StrategyEnsemble(((strategy, total),)).entries[0][1] == total
            else:
                with pytest.raises(ValueError, match="sum to"):
                    StrategyEnsemble(((strategy, total),))

    def test_overflowing_weight_sum_refused(self):
        strategies = enumerate_strategies()
        with pytest.raises(ValueError, match="sum to"):
            StrategyEnsemble(((strategies[0], 1e308), (strategies[1], 1e308)))

    @settings(derandomize=True, max_examples=300)
    @given(
        st.lists(st.tuples(st.integers(0, 63), EXTREME_WEIGHTS), min_size=1, max_size=4)
        | st.sampled_from(VALID_WEIGHT_LISTS)
    )
    def test_refused_or_valid(self, entries):
        strategies = enumerate_strategies()
        with np.errstate(all="ignore"):
            try:
                ensemble = StrategyEnsemble(tuple((strategies[i], w) for i, w in entries))
            except ValueError:
                return
            weights = [w for _, w in ensemble.entries]
            assert all(math.isfinite(w) and w >= 0.0 for w in weights)
            assert abs(math.fsum(weights) - 1.0) <= 1e-12
            assert np.isfinite(ensemble_super_vector(ensemble)).all()

    def test_point_mass_correlation(self):
        s = DeterministicStrategy(bob=(-1, 1), alice=((-1, 1), (1, -1)))
        v = ensemble_super_vector(StrategyEnsemble(((s, 1.0),)))
        assert np.array_equal(v[SETTING_PAIRS_DEGREES.index((0.0, -45.0))], [1, -1])
        assert np.array_equal(v[SETTING_PAIRS_DEGREES.index((90.0, 45.0))], [1, -1])

    def test_uniform_mixture_vanishes(self):
        strategies = enumerate_strategies()
        uniform = StrategyEnsemble(tuple((s, 1.0 / 64.0) for s in strategies))
        assert np.allclose(ensemble_super_vector(uniform), np.zeros((4, 2)), atol=1e-15)

    def test_sign_flip_mixture_cancels(self):
        s = DeterministicStrategy(bob=(1, 1), alice=((1, -1), (-1, 1)))
        flipped = DeterministicStrategy(bob=(-1, -1), alice=s.alice)
        v = ensemble_super_vector(StrategyEnsemble(((s, 0.5), (flipped, 0.5))))
        assert np.allclose(v[SETTING_PAIRS_DEGREES.index((0.0, 45.0))], [0, 0], atol=1e-15)

    def test_convexity_of_scalar_product(self):
        rng = np.random.default_rng(103)
        quantum = build_quantum_super_vector()
        strategies = enumerate_strategies()
        for _ in range(300):
            ensemble = random_ensemble(rng, strategies)
            value = super_dot(quantum, ensemble_super_vector(ensemble))
            assert abs(value) <= SQRT_TWO + 1e-12

    def test_vertex_optimality(self):
        rng = np.random.default_rng(107)
        quantum = build_quantum_super_vector()
        strategies = enumerate_strategies()
        deterministic_max = lhv_extremal_bound(quantum).maximum
        ensemble_best = max(
            super_dot(quantum, ensemble_super_vector(random_ensemble(rng, strategies)))
            for _ in range(300)
        )
        assert ensemble_best <= deterministic_max + 1e-12
        point_mass = StrategyEnsemble(((lhv_extremal_bound(quantum).argmax, 1.0),))
        assert super_dot(quantum, ensemble_super_vector(point_mass)) == pytest.approx(
            deterministic_max, abs=1e-12
        )


class TestBellVerdict:
    def test_report_values(self):
        report = bell_test()
        assert report.quantum_value == pytest.approx(2.0, abs=1e-12)
        assert report.lhv_upper_bound == pytest.approx(SQRT_TWO, abs=1e-12)
        assert report.lhv_lower_bound == pytest.approx(-SQRT_TWO, abs=1e-12)
        assert report.violated is True
        assert report.violation_ratio == pytest.approx(SQRT_TWO, abs=1e-12)

    def test_separation(self):
        quantum = build_quantum_super_vector()
        gap = super_norm_sq(quantum) - lhv_extremal_bound(quantum).maximum
        assert gap == pytest.approx(2.0 - SQRT_TWO, abs=1e-12)
        assert gap > 0.5

    def test_report_invariant(self):
        report = bell_test()
        assert report.violated == (report.quantum_value > report.lhv_upper_bound + 1e-12)
        assert report.violation_ratio == pytest.approx(
            report.quantum_value / report.lhv_upper_bound, abs=1e-15
        )

    def test_visibility_scaling(self):
        report = bell_test(0.5)
        assert report.quantum_value == pytest.approx(1.0, abs=1e-12)
        assert report.violated is False

    def test_invalid_visibility(self):
        with pytest.raises(ValueError):
            bell_test(1.5)
        with pytest.raises(ValueError):
            bell_test(-0.1)
