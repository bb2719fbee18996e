"""Hierarchical quantum-information-splitting simulator.

A boss splits a secret qubit among two grades of agents over a shared
entangled channel.  Higher-grade agents recover it with one lower-grade
helper; lower-grade agents need everyone.  The package simulates the
protocol exactly (sampled or exhaustively enumerated), computes the
knowledge each agent holds, and models intercept-resend eavesdropping
with its correlation-check detection.
"""

from importlib import import_module

# Each export, named once, under the module that owns it.  The module is
# imported the first time one of its names is used.
_OWNERS = {
    name: module
    for module, names in {
        "adversary": "CheckStats Scenario correlation_check exact_detection_probability"
        " missed_detection_probability",
        "channel": "PartySizes",
        "dense": "StateVector TrialResult agent_marginal apply_gate basis_state bell_project"
        " build_scenario_state compose_with_secret enumerate_branches iter_branches"
        " make_channel make_fake_channel make_standard_form permute_qubits project"
        " reduced_density run_recovery tensor",
        "protocol": "CorrectionOp Designee Role check_designee parity",
        "qstate": "BellOutcome MeasBasis RegisterCapError ResourceLimitError SecretState",
    }.items()
    for name in names.split()
}

__all__ = sorted(_OWNERS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _OWNERS:
        return getattr(import_module(f".{_OWNERS[name]}", __name__), name)
    # The owners themselves, which ``import hqis.cli`` need not have loaded.
    if name in _OWNERS.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
