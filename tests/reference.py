"""Sequential references that only the tests use.

Each builds its result the slow, explicit way, so that the library's fast
paths can be checked against it.  The state arithmetic and the outcome
sign convention that the references are built from, and that no library
path needs, live here too.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from telebell.corrvec import correlation_closed_form, standard_setting_pairs
from telebell.lhv import STRATEGY_SIGNS
from telebell.qstate import (
    ATOL,
    MAX_QUBITS,
    PROB_FLOOR,
    ProjectiveBasis,
    PureState,
    _front_matrix,
)
from telebell.teleport import BOB_OUTCOMES, _bell_stage, _preparation_amplitudes


def tensor_product(a, b):
    """Kronecker composite of two states with concatenated labels."""
    overlap = set(a.factor_labels) & set(b.factor_labels)
    if overlap:
        raise ValueError(f"factor label collision: {sorted(overlap)}")
    if a.num_qubits + b.num_qubits > MAX_QUBITS:
        raise ValueError(f"composite would exceed {MAX_QUBITS} qubits")
    return PureState(np.kron(a.amplitudes, b.amplitudes), a.factor_labels + b.factor_labels)


def epr_pair(labels):
    """``(|00> + |11>)/sqrt(2)`` on two labelled qubits."""
    return PureState(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0), labels)


def initial_state(prep):
    """Prepared qubit A tensored with the (B, C) EPR pair; labels (A, B, C).

    A's amplitudes ``sin(beta)|0> + cos(beta) e^{i phi}|1>`` and the EPR
    pair ``(|00> + |11>)/sqrt(2)`` are computed by the same operations as
    in ``telebell.teleport``, so the Bell stage can be compared with the
    generic Born-rule path over this state bit for bit.
    """
    a = np.array([math.sin(prep.beta), math.cos(prep.beta) * np.exp(1j * prep.phi)])
    return tensor_product(PureState(a, ("A",)), epr_pair(("B", "C")))


def swap_initial_state():
    """EPR(D, A) tensor EPR(B, C); labels (D, A, B, C)."""
    return tensor_product(epr_pair(("D", "A")), epr_pair(("B", "C")))


# The numpy-function forms below are the expressions the library evaluated
# before it moved to array methods and plain ``np.array``.  Each must give
# the library's result bit for bit, and raise where it raises, with the same
# message.


def pure_state_amplitudes(amplitudes, factor_labels):
    """``PureState``'s checks with ``np.all(np.isfinite(...))``; the stored amplitudes."""
    labels = tuple(factor_labels)
    if not 1 <= len(labels) <= MAX_QUBITS:
        raise ValueError(f"need 1..{MAX_QUBITS} factor labels, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"factor labels must be distinct, got {labels}")
    amps = np.array(amplitudes, dtype=complex)
    if amps.shape != (2 ** len(labels),):
        raise ValueError(
            f"expected {2 ** len(labels)} amplitudes for labels {labels}, got shape {amps.shape}"
        )
    if not np.all(np.isfinite(amps)):
        raise ValueError("amplitudes must be finite")
    return amps


def basis_matrix(states, outcome_labels):
    """``ProjectiveBasis``'s checks with ``np.stack`` and ``np.max(np.abs(...))``; its ``matrix``."""
    states = tuple(states)
    labels = tuple(outcome_labels)
    if not states:
        raise ValueError("basis needs at least one state")
    subsystem = states[0].factor_labels
    if any(s.factor_labels != subsystem for s in states):
        raise ValueError("basis states must share one subsystem labelling")
    dim = 2 ** len(subsystem)
    if len(states) != dim:
        raise ValueError(f"basis must span the subspace: need {dim} states, got {len(states)}")
    if len(labels) != len(states) or len(set(labels)) != len(labels):
        raise ValueError("need one distinct outcome label per basis state")
    matrix = np.stack([s.amplitudes for s in states])
    gram = matrix.conj() @ matrix.T
    if not (np.max(np.abs(gram - np.eye(dim))) <= ATOL):
        raise ValueError("basis states are not orthonormal within tolerance")
    return matrix


def checked_table(table):
    """``JointDistribution``'s construction with numpy reductions: its
    ``table``, ``_largest`` and ``_marginal``, refused where it refuses, with
    the same message.  The clamped table is a new C-ordered array; any other
    is ``np.array(table, dtype=float)``, with that call's layout."""
    if np.asarray(table).dtype.kind == "c":
        raise ValueError("probabilities must be real, got a complex table")
    table = np.array(table, dtype=float)
    if table.shape != (4, 2):
        raise ValueError(f"expected a (4, 2) probability table, got shape {table.shape}")
    if not np.isfinite(table).all():
        raise ValueError("probabilities must be finite")
    if table.min() < 0.0:
        if table.min() < -ATOL:
            raise ValueError("negative probability beyond rounding tolerance")
        # -0.0 < 0.0 is false, so a negative zero is kept, as the library keeps it
        table = np.ascontiguousarray(np.where(table < 0.0, 0.0, table))
    table.setflags(write=False)
    return table, float(table.max()), tuple(table.sum(axis=1).tolist())


def validated_table(table):
    """``checked_table`` followed by ``JointDistribution.validate``'s checks,
    in its order and with its messages; the stored table."""
    table, largest, marginal = checked_table(table)
    if not (largest <= 1.0 + ATOL):
        raise ValueError("probability above 1")
    total = sum(marginal)
    if not (abs(total - 1.0) <= ATOL):
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    if not (np.abs(np.array(marginal) - 0.25) <= ATOL).all():
        raise ValueError(f"Bell-outcome marginal {marginal!r} is not flat 1/4")
    return table


def closed_form_table(prep, analyzer):
    """The closed-form table with ``p_zero`` built as an array and iterated as numpy scalars."""
    cc = math.cos(2.0 * prep.beta) * math.cos(2.0 * analyzer.beta)
    ss = math.sin(2.0 * prep.beta) * math.sin(2.0 * analyzer.beta)
    minus = math.cos(prep.phi - analyzer.phi)
    plus = math.cos(prep.phi + analyzer.phi)
    p_zero = np.array(
        [
            (1.0 - cc + ss * minus) / 8.0,
            (1.0 + cc + ss * plus) / 8.0,
            (1.0 + cc - ss * plus) / 8.0,
            (1.0 - cc - ss * minus) / 8.0,
        ]
    )
    return validated_table(np.array([(p, 0.25 - p) for p in p_zero]))


def analyzer_amplitudes(beta, phi):
    """Bob's two analyzer states as amplitude lists: outcome "0" is
    ``cos(beta)|0> + sin(beta) e^{i phi}|1>``, outcome "1" the orthogonal
    ``-sin(beta)|0> + cos(beta) e^{i phi}|1>``."""
    phase = np.exp(1j * phi)
    return (
        [math.cos(beta), math.sin(beta) * phase],
        [-math.sin(beta), math.cos(beta) * phase],
    )


def analyzer_basis(beta, phi, label):
    """The dichotomic analyzer on one labelled qubit, built and Gram-checked by
    the public ``PureState`` and ``ProjectiveBasis`` constructors."""
    zero, one = analyzer_amplitudes(beta, phi)
    return ProjectiveBasis((PureState(zero, (label,)), PureState(one, (label,))), BOB_OUTCOMES)


def bob_rows(analyzer):
    """Bob's analyzer states as rows, each checked by ``pure_state_amplitudes``
    and the pair by ``basis_matrix``: the ``matrix`` of ``analyzer_basis`` on C."""
    states = tuple(
        SimpleNamespace(amplitudes=pure_state_amplitudes(amplitudes, ("C",)), factor_labels=("C",))
        for amplitudes in analyzer_amplitudes(analyzer.beta, analyzer.phi)
    )
    return basis_matrix(states, BOB_OUTCOMES)


def simulated_table(prep, analyzer):
    """The oracle's table with Bob's rows from ``bob_rows``, conjugated here."""
    amplitudes = _bell_stage(_preparation_amplitudes(prep)) @ bob_rows(analyzer).conj().T
    return validated_table(np.abs(amplitudes) ** 2)


def extremal_bound(v):
    """``lhv_extremal_bound`` with ``np.argmax``: the maximum and its strategy's row."""
    values = (STRATEGY_SIGNS * np.asarray(v, dtype=float)).sum(axis=(1, 2))
    best = int(np.argmax(values))
    return float(values[best]), best


def quantum_super_vector():
    """``build_quantum_super_vector`` with ``np.stack``."""
    return np.stack(
        [correlation_closed_form(prep, analyzer) for prep, analyzer in standard_setting_pairs()]
    )


def reduced_purity(state, label):
    """``swap.reduced_purity`` with ``np.trace``."""
    axis = state.factor_labels.index(label)
    tensor = state.amplitudes.reshape([2] * state.num_qubits)
    mat = np.moveaxis(tensor, axis, 0).reshape(2, -1)
    rho = mat @ mat.conj().T
    return float(np.trace(rho @ rho).real)


def normalize(state):
    """The unit-norm version of ``state``; a near-zero or non-finite squared norm raises."""
    n_sq = state.norm_sq
    if not math.isfinite(n_sq):
        raise ValueError(f"cannot normalize a state whose squared norm is {n_sq!r}")
    if n_sq < PROB_FLOOR:
        raise ValueError("cannot normalize a near-zero state")
    return PureState(state.amplitudes / math.sqrt(n_sq), state.factor_labels)


def inner_product(a, b):
    """``<a|b>`` with conjugation on the first argument."""
    if a.factor_labels != b.factor_labels:
        raise ValueError(
            f"states live on different subsystems: {a.factor_labels} vs {b.factor_labels}"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def partial_inner(bra, state):
    """Contract ``<bra|`` against its subsystem of ``state``.

    Returns the unnormalized residual on the remaining labels; its squared
    norm is the Born probability of ``bra``.
    """
    if bra.num_qubits >= state.num_qubits:
        raise ValueError("bra must cover a strict subsystem; use inner_product for full overlap")
    mat, rest = _front_matrix(state, bra.factor_labels)
    return PureState(bra.amplitudes.conj() @ mat, rest)


def apply_local_unitary(state, u, target_label):
    """Apply a 2x2 unitary to one labelled factor, leaving the rest untouched."""
    mat = np.asarray(u, dtype=complex)
    if mat.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {mat.shape}")
    if not (np.abs(mat.conj().T @ mat - np.eye(2)).max() <= ATOL):
        raise ValueError("matrix is not unitary within tolerance")
    try:
        axis = state.factor_labels.index(target_label)
    except ValueError:
        raise ValueError(
            f"unknown factor label {target_label!r} in state on {state.factor_labels}"
        ) from None
    tensor = state.amplitudes.reshape([2] * state.num_qubits)
    moved = np.tensordot(mat, tensor, axes=([1], [axis]))
    return PureState(np.moveaxis(moved, 0, axis).reshape(-1), state.factor_labels)


# The outcome sign convention: Alice's Bell outcomes "00", "01", "10", "11"
# (the rows of a joint table) as 2-vectors with 0 replaced by -1, and Bob's
# outcomes "0" and "1" (its columns) as -1 and +1.
ALICE_VECTORS = np.array([(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)])
BOB_SIGNS = np.array([-1.0, 1.0])


def correlation_from_distribution(dist):
    """Average of Bob's sign times Alice's vector under the joint distribution."""
    signed = dist.table @ BOB_SIGNS
    return ALICE_VECTORS.T @ signed


def tolerance_edge(center, tol, side):
    """The float farthest from ``center`` on ``side`` (+1 or -1) that lies
    within ``tol`` of it in exact arithmetic: the last value a check
    ``abs(x - center) <= tol`` accepts; one ulp further out, it must refuse."""
    outward = math.copysign(math.inf, side)
    x, limit = center + side * tol, Fraction(tol)
    while abs(Fraction(x) - Fraction(center)) > limit:
        x = math.nextafter(x, center)
    while abs(Fraction(math.nextafter(x, outward)) - Fraction(center)) <= limit:
        x = math.nextafter(x, outward)
    return x
