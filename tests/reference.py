"""Sequential references that only the tests use.

Each builds its result the slow, explicit way, so that the library's fast
paths can be checked against it.
"""

import math

import numpy as np

from telebell.qstate import PureState, tensor_product


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
