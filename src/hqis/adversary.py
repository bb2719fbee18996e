"""Intercept-resend eavesdropping and its correlation-based detection.

Eve captures the agents' qubits in flight and forwards a look-alike channel
with no A qubit.  That preserves the correlations inside each agent group
but cuts the link to Alice, so sacrificed rounds of computational-basis
comparison expose her: each Alice-vs-Bob comparison mismatches with
probability 1/2 per round.

The checks work on the joint state's support alone.  The dense joint state,
``build_scenario_state``, lives in :mod:`hqis.dense` as the reference the
tests compare with, and is still served here.
"""

import functools
from collections import namedtuple
from enum import Enum

from .channel import PartySizes, _channel_support, _fake_channel_support
from .qstate import MAX_TRIALS, _from_dense

__getattr__ = _from_dense(__name__, {"build_scenario_state"})

# 2**63 - 1, numpy's int64 trial count: the most rounds the check's one
# multinomial takes, from a qstate.Stream or from a numpy Generator.
MAX_ROUNDS = MAX_TRIALS


def _check_rounds(rounds: int) -> None:
    if not 1 <= rounds <= MAX_ROUNDS:
        raise ValueError(f"rounds must be in 1..{MAX_ROUNDS}, got {rounds}")


class Scenario(Enum):
    HONEST = "honest"
    INTERCEPT_RESEND = "intercept-resend"


class CheckStats(namedtuple("CheckStats", "rounds alice_bob_match_rates"
                            " charlie_group_consistent_rate detected detection_rule")):
    """Tallies of one correlation-check session: the round count, a match
    rate per Bob, the Charlies' consistent rate, the verdict and its rule."""

    __slots__ = ()


def _delivered_qubits(sizes: PartySizes, scenario: Scenario) -> tuple[int, list[int], list[int]]:
    """(alice qubit, delivered Bob qubits, delivered Charlie qubits)."""
    if scenario is Scenario.HONEST:
        offset = 1
    else:
        offset = 1 + sizes.m + sizes.n
    bobs = [offset + i for i in range(sizes.m)]
    charlies = [offset + sizes.m + j for j in range(sizes.n)]
    return 0, bobs, charlies


def _joint_support(sizes: PartySizes, scenario: Scenario):
    """(qubit count, (basis index, amplitude) pairs) of
    :func:`hqis.dense.build_scenario_state`, in index order.

    Built from the channel module's pairs: under attack the support is the
    outer product of the channel's 4 and the fake channel's 4.
    """
    pairs = _channel_support(sizes)
    total = sizes.channel_qubits
    if scenario is Scenario.INTERCEPT_RESEND:
        fake_qubits = sizes.m + sizes.n
        pairs = [
            (index << fake_qubits | fake_index, amp * fake_amp)
            for index, amp in pairs
            for fake_index, fake_amp in _fake_channel_support(sizes)
        ]
        total += fake_qubits
    return total, pairs


@functools.lru_cache(maxsize=64)
def _outcomes(sizes: PartySizes, scenario: Scenario):
    """Each support entry's probability and computational outcome bits:
    ``(probs, ((alice bit, Bob bits, Charlie bits), ...))``.  Every amplitude
    is +-1/2 or a product of two, so the probabilities are exact and sum to 1."""
    total, pairs = _joint_support(sizes, scenario)
    alice_q, bob_qs, charlie_qs = _delivered_qubits(sizes, scenario)

    def bit(index, q):
        return (index >> (total - 1 - q)) & 1

    probs = tuple(abs(amp) ** 2 for _, amp in pairs)
    bits = tuple(
        (
            bit(index, alice_q),
            tuple(bit(index, q) for q in bob_qs),
            tuple(bit(index, q) for q in charlie_qs),
        )
        for index, _ in pairs
    )
    return probs, bits


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
    That state is never built: its support is the outer product of the
    factors' supports (4 entries honest, 16 under attack), taken from the
    channel module's pairs.  The tallies read only how many rounds fell on
    each support entry, and those counts are one multinomial(rounds, probs)
    draw, so time and memory grow neither with ``rounds`` nor with m + n.
    ``rounds`` must lie in 1..``MAX_ROUNDS`` and ``threshold`` in [0, 1], or
    ValueError is raised.  A multinomial draws nothing for a zero-probability
    category, so a seed gives the same counts as a multinomial over every
    amplitude of the dense state.  A :class:`hqis.qstate.Stream` and a numpy
    Generator in the same state draw the same counts, by the same algorithm.
    Nothing here is dense, so the register cap does not apply.
    """
    _check_rounds(rounds)
    if not 0.0 <= threshold <= 1.0:  # NaN fails this comparison too
        raise ValueError(f"threshold must be a number in [0, 1], got {threshold!r}")
    probs, bits = _outcomes(sizes, scenario)
    counts = [int(count) for count in rng.multinomial(rounds, probs)]

    bob_matches = [
        sum(count for count, (alice, bobs, _) in zip(counts, bits) if bobs[k] == alice)
        for k in range(sizes.m)
    ]
    charlies_agree = sum(
        count for count, (_, _, charlies) in zip(counts, bits) if len(set(charlies)) == 1
    )

    match_rates = tuple(count / rounds for count in bob_matches)
    rule = f"flag when any Alice-vs-Bob computational match rate drops below {threshold}"
    return CheckStats(
        rounds=rounds,
        alice_bob_match_rates=match_rates,
        charlie_group_consistent_rate=charlies_agree / rounds,
        detected=any(rate < threshold for rate in match_rates),
        detection_rule=rule,
    )


def exact_detection_probability(
    sizes: PartySizes, scenario: Scenario = Scenario.INTERCEPT_RESEND
) -> float:
    """Per-round probability that some Alice-vs-Bob comparison mismatches.

    No sampling: one minus the total probability of the support entries of
    :func:`hqis.dense.build_scenario_state` where Alice's bit equals every Bob's bit.
    The support has 16 entries at most and no register is built, so the
    register cap does not apply.
    """
    probs, bits = _outcomes(sizes, scenario)
    match_prob = sum(
        p for p, (alice, bobs, _) in zip(probs, bits) if all(b == alice for b in bobs)
    )
    return 1.0 - match_prob


def missed_detection_probability(sizes: PartySizes, rounds: int) -> float:
    """Chance that `rounds` independent check rounds all fail to flag an attack.

    ``rounds`` must lie in 1..``MAX_ROUNDS``, as for :func:`correlation_check`.
    """
    _check_rounds(rounds)
    return (1.0 - exact_detection_probability(sizes)) ** rounds
