"""Sequential references that only the tests use.

Each builds its result the slow, explicit way, so that the library's fast
paths can be checked against it.
"""

import math
from types import SimpleNamespace

import numpy as np

from telebell.corrvec import correlation_closed_form, standard_setting_pairs
from telebell.lhv import STRATEGY_SIGNS
from telebell.qstate import ATOL, MAX_QUBITS, PureState, tensor_product
from telebell.teleport import BOB_OUTCOMES, JointDistribution, _bell_stage


def initial_state(prep):
    """Prepared qubit A tensored with the (B, C) EPR pair; labels (A, B, C).

    A's amplitudes ``sin(beta)|0> + cos(beta) e^{i phi}|1>`` and the EPR
    pair ``(|00> + |11>)/sqrt(2)`` are computed by the same operations as
    in ``telebell.teleport``, so the Bell stage can be compared with the
    generic Born-rule path over this state bit for bit.
    """
    a = np.array([math.sin(prep.beta), math.cos(prep.beta) * np.exp(1j * prep.phi)])
    epr = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return tensor_product(PureState(a, ("A",)), PureState(epr, ("B", "C")))


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
    table = np.array([(p, 0.25 - p) for p in p_zero])
    return JointDistribution(table).validate().table


def bob_rows(analyzer):
    """Bob's analyzer states as rows, each checked by ``pure_state_amplitudes``
    and the pair by ``basis_matrix``: the ``matrix`` that ``bob_basis`` must give."""
    beta, phi = analyzer.beta, analyzer.phi
    phase = np.exp(1j * phi)
    states = tuple(
        SimpleNamespace(amplitudes=pure_state_amplitudes(amplitudes, ("C",)), factor_labels=("C",))
        for amplitudes in (
            [math.cos(beta), math.sin(beta) * phase],
            [-math.sin(beta), math.cos(beta) * phase],
        )
    )
    return basis_matrix(states, BOB_OUTCOMES)


def simulated_table(prep, analyzer):
    """The oracle's table with Bob's rows from ``bob_rows``, conjugated here."""
    amplitudes = _bell_stage(prep) @ bob_rows(analyzer).conj().T
    return JointDistribution(np.abs(amplitudes) ** 2).validate().table


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
