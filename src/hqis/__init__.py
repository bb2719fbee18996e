"""Hierarchical quantum-information-splitting simulator.

A boss splits a secret qubit among two grades of agents over a shared
entangled channel.  Higher-grade agents recover it with one lower-grade
helper; lower-grade agents need everyone.  The package simulates the
protocol exactly (sampled or exhaustively enumerated), computes the
knowledge each agent holds, and models intercept-resend eavesdropping
with its correlation-check detection.
"""

from .adversary import (
    CheckStats,
    Scenario,
    build_scenario_state,
    correlation_check,
    exact_detection_probability,
    missed_detection_probability,
)
from .channel import (
    PartySizes,
    compose_with_secret,
    make_channel,
    make_fake_channel,
    make_standard_form,
)
from .protocol import (
    BellOutcome,
    CorrectionOp,
    Designee,
    Role,
    TrialResult,
    agent_marginal,
    check_designee,
    enumerate_branches,
    iter_branches,
    parity,
    run_recovery,
)
from .qstate import (
    MeasBasis,
    RegisterCapError,
    ResourceLimitError,
    SecretState,
    StateVector,
    apply_gate,
    basis_state,
    bell_project,
    permute_qubits,
    project,
    reduced_density,
    tensor,
)

__all__ = [
    "BellOutcome",
    "CheckStats",
    "CorrectionOp",
    "Designee",
    "MeasBasis",
    "PartySizes",
    "RegisterCapError",
    "ResourceLimitError",
    "Role",
    "Scenario",
    "SecretState",
    "StateVector",
    "TrialResult",
    "agent_marginal",
    "apply_gate",
    "basis_state",
    "bell_project",
    "build_scenario_state",
    "check_designee",
    "compose_with_secret",
    "correlation_check",
    "enumerate_branches",
    "exact_detection_probability",
    "iter_branches",
    "make_channel",
    "make_fake_channel",
    "make_standard_form",
    "missed_detection_probability",
    "parity",
    "permute_qubits",
    "project",
    "reduced_density",
    "run_recovery",
    "tensor",
]

__version__ = "0.1.0"
