"""Bell analysis of the nonclassical part of qubit teleportation.

The package simulates the channel-cut teleportation protocol (Bell
measurement on one side, an uninformed dichotomic measurement on the other),
builds the vector-valued correlation super-vector, bounds every local
hidden variable model by exhausting the 64 deterministic strategies, and
extends the argument to visibility thresholds and entanglement swapping.
"""

from .corrvec import (
    SETTING_PAIRS_DEGREES,
    build_quantum_super_vector,
    correlation_closed_form,
    super_dot,
    super_norm_sq,
)
from .lhv import (
    BellTestReport,
    DeterministicStrategy,
    StrategyEnsemble,
    bell_test,
    ensemble_super_vector,
    enumerate_strategies,
    lhv_extremal_bound,
    strategy_super_vector,
)
from .noise import noisy_joint_distribution, violation_threshold
from .qstate import (
    ProjectiveBasis,
    PureState,
    measure_probabilities,
)
from .swap import (
    TSIRELSON_BOUND,
    SwapReport,
    chsh_on_pair,
    max_chsh,
    reduced_purity,
    run_swap,
)
from .teleport import (
    BELL_OUTCOMES,
    BOB_OUTCOMES,
    AnalyzerSettings,
    JointDistribution,
    PreparationSettings,
    bell_basis,
    correction_unitary,
    joint_distribution_closed_form,
    joint_distribution_simulated,
    run_full_teleportation,
)

__version__ = "0.1.0"
