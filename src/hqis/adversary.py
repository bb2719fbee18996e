"""Intercept-resend eavesdropping and its correlation-based detection.

Eve captures the agents' qubits in flight and forwards a look-alike channel
with no A qubit.  That preserves the correlations inside each agent group
but cuts the link to Alice, so sacrificed rounds of computational-basis
comparison expose her: each Alice-vs-Bob comparison mismatches with
probability 1/2 per round.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import PartySizes, make_channel, make_fake_channel
from .qstate import MeasBasis, StateVector, _check_cap, project, tensor

# Check rounds drawn per call of the generator; bounds the memory of a check.
_CHUNK_ROUNDS = 2**16


class Scenario(Enum):
    HONEST = "honest"
    INTERCEPT_RESEND = "intercept-resend"


@dataclass(frozen=True)
class CheckStats:
    """Tallies of one correlation-check session."""

    rounds: int
    alice_bob_match_rates: tuple[float, ...]
    charlie_group_consistent_rate: float
    detected: bool
    detection_rule: str


def build_scenario_state(sizes: PartySizes, scenario: Scenario) -> StateVector:
    """Joint state of every qubit in play for the scenario.

    Honest: the channel itself.  Under attack: channel (Alice + Eve's
    captured block) tensored with the fake channel the agents receive.
    Raises RegisterCapError when the combined register exceeds the cap;
    use :func:`exact_detection_probability` for sizes past that point.
    :func:`correlation_check` samples this state's outcomes from its support
    alone; the dense state is kept as the reference the tests compare with.
    """
    honest = make_channel(sizes)
    if scenario is Scenario.HONEST:
        return honest
    return tensor(honest, make_fake_channel(sizes))


def _delivered_qubits(sizes: PartySizes, scenario: Scenario) -> tuple[int, list[int], list[int]]:
    """(alice qubit, delivered Bob qubits, delivered Charlie qubits)."""
    if scenario is Scenario.HONEST:
        offset = 1
    else:
        offset = 1 + sizes.m + sizes.n
    bobs = [offset + i for i in range(sizes.m)]
    charlies = [offset + sizes.m + j for j in range(sizes.n)]
    return 0, bobs, charlies


def _support(state: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """(basis indices, amplitudes) of the state's nonzero entries, in index order."""
    indices = np.flatnonzero(state.amplitudes)
    return indices, state.amplitudes[indices]


def correlation_check(
    sizes: PartySizes,
    scenario: Scenario,
    rounds: int,
    rng: np.random.Generator,
    threshold: float = 0.99,
) -> CheckStats:
    """Run sacrificed check rounds where everyone measures computationally.

    Eve's retained block never enters the statistics, so it is left
    unmeasured.  All the measured observables commute, so each round is one
    draw from the outcome distribution of :func:`build_scenario_state`.
    That state is never built: its support is the outer product of the
    factors' supports (4 entries honest, 16 under attack), and rounds are
    drawn over it in chunks of ``_CHUNK_ROUNDS``, so memory does not grow
    with ``rounds``.  Zero-probability entries leave every partial sum of
    the distribution unchanged and chunked draws continue one stream, so a
    seed gives the same tallies as one draw per round over the dense state.
    Under attack the joint register of 1+2(m+n) qubits is still held to the
    register cap.
    """
    if rounds < 1:
        raise ValueError(f"need at least one round, got {rounds}")
    indices, amps = _support(make_channel(sizes))
    total = sizes.channel_qubits
    if scenario is Scenario.INTERCEPT_RESEND:
        fake = make_fake_channel(sizes)
        total += fake.num_qubits
        _check_cap(total)
        fake_indices, fake_amps = _support(fake)
        indices = np.add.outer(indices << fake.num_qubits, fake_indices).ravel()
        amps = np.outer(amps, fake_amps).ravel()
    alice_q, bob_qs, charlie_qs = _delivered_qubits(sizes, scenario)

    probs = np.abs(amps) ** 2
    probs /= probs.sum()
    counts = np.zeros(probs.size, dtype=np.int64)
    for start in range(0, rounds, _CHUNK_ROUNDS):
        draws = rng.choice(probs.size, size=min(_CHUNK_ROUNDS, rounds - start), p=probs)
        counts += np.bincount(draws, minlength=probs.size)

    def bit(q):
        return (indices >> (total - 1 - q)) & 1

    alice_bits = bit(alice_q)
    bob_matches = [int(counts[bit(q) == alice_bits].sum()) for q in bob_qs]
    charlie_bits = np.stack([bit(q) for q in charlie_qs])
    charlies_agree = int(counts[np.all(charlie_bits == charlie_bits[0], axis=0)].sum())

    match_rates = tuple(count / rounds for count in bob_matches)
    rule = f"flag when any Alice-vs-Bob computational match rate drops below {threshold}"
    return CheckStats(
        rounds=rounds,
        alice_bob_match_rates=match_rates,
        charlie_group_consistent_rate=charlies_agree / rounds,
        detected=any(rate < threshold for rate in match_rates),
        detection_rule=rule,
    )


def _chained_match_probability(state: StateVector, first: int, rest: list[int], bit: int) -> float:
    """P(qubit `first` = bit and every qubit in `rest` = bit), by projection."""
    prob, conditioned = project(state, first, MeasBasis.COMPUTATIONAL, bit)
    if conditioned is None:
        return 0.0
    for q in rest:
        step, conditioned = project(conditioned, q, MeasBasis.COMPUTATIONAL, bit)
        if conditioned is None:
            return 0.0
        prob *= step
    return prob


def exact_detection_probability(
    sizes: PartySizes, scenario: Scenario = Scenario.INTERCEPT_RESEND
) -> float:
    """Per-round probability that some Alice-vs-Bob comparison mismatches.

    Computed from projection probabilities alone, no sampling.  Under
    attack the fake channel is independent of Alice's qubit, so the two
    factors are chained separately; this path stays within the register
    cap even when the joint sampling state of
    :func:`build_scenario_state` would not.
    """
    honest = make_channel(sizes)
    bob_qs = [1 + i for i in range(sizes.m)]
    match_prob = 0.0
    if scenario is Scenario.HONEST:
        for bit in (0, 1):
            match_prob += _chained_match_probability(honest, 0, bob_qs, bit)
    else:
        fake = make_fake_channel(sizes)
        fake_bob_qs = list(range(sizes.m))
        for bit in (0, 1):
            alice_prob, _ = project(honest, 0, MeasBasis.COMPUTATIONAL, bit)
            match_prob += alice_prob * _chained_match_probability(
                fake, fake_bob_qs[0], fake_bob_qs[1:], bit
            )
    return 1.0 - match_prob


def missed_detection_probability(sizes: PartySizes, rounds: int) -> float:
    """Chance that `rounds` independent check rounds all fail to flag an attack."""
    return (1.0 - exact_detection_probability(sizes)) ** rounds
