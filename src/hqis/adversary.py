"""Intercept-resend eavesdropping and its correlation-based detection.

Eve captures the agents' qubits in flight and forwards a look-alike channel
with no A qubit.  That preserves the correlations inside each agent group
but cuts the link to Alice, so sacrificed rounds of computational-basis
comparison expose her: each Alice-vs-Bob comparison mismatches with
probability 1/2 per round.

The checks work on the joint state's support alone, on the class register:
every delivered Bob holds one bit and every Charlie another, so neither
check's cost grows with m + n.  The dense joint state,
``build_scenario_state``, lives in :mod:`hqis.dense` as the reference the
tests compare with, and is still served here.
"""

import operator
from collections import namedtuple

from .channel import _CLASSES, PartySizes, Scenario, _channel_support, _fake_channel_support
from .qstate import MAX_TRIALS, _from_dense

__getattr__ = _from_dense(__name__, {"build_scenario_state"})

# 2**63 - 1, numpy's int64 trial count: the most rounds the check's one
# multinomial takes, from a qstate.Stream or from a numpy Generator.
MAX_ROUNDS = MAX_TRIALS


def _check_rounds(rounds: int) -> int:
    """``rounds`` as an int: TypeError on a float, ValueError outside 1..MAX_ROUNDS."""
    rounds = operator.index(rounds)
    if not 1 <= rounds <= MAX_ROUNDS:
        raise ValueError(f"rounds must be in 1..{MAX_ROUNDS}, got {rounds}")
    return rounds


class CheckStats(namedtuple("CheckStats", "rounds alice_bob_match_rates"
                            " charlie_group_consistent_rate detected detection_rule")):
    """Tallies of one correlation-check session: the round count, a match
    rate per Bob, the Charlies' consistent rate, the verdict and its rule."""

    __slots__ = ()


def _check_scenario(scenario) -> Scenario:
    """``scenario``, or TypeError unless it is a :class:`Scenario` member."""
    if not isinstance(scenario, Scenario):
        raise TypeError(f"scenario must be a Scenario, got {scenario!r}")
    return scenario


def _outcomes(scenario: Scenario):
    """``(probs, matched)``: each class-register support entry's probability
    and whether its Bob bit equals its Alice bit, the channel's 4 entries when
    honest and those times the fake channel's 4 under attack, in the index
    order of :func:`hqis.dense.build_scenario_state` at any size.  Every
    amplitude is +-1/2 or a product of two, so the probabilities are exact
    and sum to 1.
    Not cached: the check and the exact probability each run it once a call."""
    pairs = _channel_support(_CLASSES)
    if _check_scenario(scenario) is Scenario.HONEST:
        entries = [(index >> 2, index, amp) for index, amp in pairs]
    else:
        fake = _fake_channel_support(_CLASSES)
        entries = [
            (index >> 2, fake_index, amp * fake_amp)
            for index, amp in pairs
            for fake_index, fake_amp in fake
        ]
    probs = tuple(abs(amp) ** 2 for _, _, amp in entries)
    matched = tuple(agents >> 1 & 1 == alice for alice, agents, _ in entries)
    return probs, matched


def correlation_check(
    sizes: PartySizes,
    scenario: Scenario,
    rounds: int,
    rng: "qstate.Stream | numpy.random.Generator",
    threshold: float = 0.99,
) -> CheckStats:
    """Run sacrificed check rounds where everyone measures computationally.

    Eve's retained block never enters the statistics, so it is left
    unmeasured.  All the measured observables commute, so each round is one
    draw from the outcome distribution of :func:`hqis.dense.build_scenario_state`.
    That state is never built: the rounds are one multinomial(rounds, probs)
    draw over its class-register support (``_outcomes``), which draws what
    one over every dense amplitude does, as zero-probability categories draw
    nothing.  Every Bob matches Alice in the same rounds, so time and memory
    grow neither with ``rounds`` nor with m + n, apart from the m equal rates
    returned.  ``rounds`` must be an int in 1..``MAX_ROUNDS`` (TypeError on
    a float) and ``threshold`` in [0, 1], or ValueError is raised.  A
    :class:`hqis.qstate.Stream` and a numpy Generator in the same state draw
    the same counts.  Nothing here is dense, so the register cap does not apply.
    """
    rounds = _check_rounds(rounds)
    if not 0.0 <= threshold <= 1.0:  # NaN fails this comparison too
        raise ValueError(f"threshold must be a number in [0, 1], got {threshold!r}")
    probs, matched = _outcomes(scenario)
    counts = rng.multinomial(rounds, probs)
    rate = sum(int(count) for count, match in zip(counts, matched) if match) / rounds

    rule = f"flag when any Alice-vs-Bob computational match rate drops below {threshold}"
    return CheckStats(
        rounds=rounds,
        alice_bob_match_rates=(rate,) * sizes.m,
        # Both supports give every Charlie the same bit c, so they always agree.
        charlie_group_consistent_rate=1.0,
        # Every Bob's rate is this one, so some rate drops below iff it does.
        detected=bool(rate < threshold),
        detection_rule=rule,
    )


def exact_detection_probability(
    sizes: PartySizes, scenario: Scenario = Scenario.INTERCEPT_RESEND
) -> float:
    """Per-round probability that some Alice-vs-Bob comparison mismatches.

    No sampling: one minus the total probability of the support entries of
    :func:`hqis.dense.build_scenario_state` where Alice's bit equals the Bobs'.
    It reads the class register, so it is the same at every size, and builds
    no register, so the register cap does not apply.
    """
    probs, matched = _outcomes(scenario)
    return 1.0 - sum(p for p, match in zip(probs, matched) if match)


def missed_detection_probability(sizes: PartySizes, rounds: int) -> float:
    """Chance that `rounds` independent check rounds all fail to flag an attack.

    ``rounds`` must be an int in 1..``MAX_ROUNDS``, as for :func:`correlation_check`.
    """
    rounds = _check_rounds(rounds)
    return (1.0 - exact_detection_probability(sizes)) ** rounds
