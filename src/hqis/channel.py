"""Entangled-channel construction for the splitting protocol.

The honest channel over (A, B-block, C-block) puts amplitude +1/2 on the
basis states where the B bits track A and the C bits agree among themselves,
with a minus sign on the all-ones string.  Those four (basis index,
amplitude) pairs are the channel's support, built once per size by
``_channel_support``; the dense constructors and every support-only path
take the amplitudes from it.  ``make_standard_form`` builds the same state
from its graph product form so tests can cross-check the two constructions
against each other.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .qstate import SecretState, StateVector, _check_cap, tensor

__all__ = [
    "PartySizes",
    "SecretState",
    "make_channel",
    "make_standard_form",
    "make_fake_channel",
    "compose_with_secret",
]


@dataclass(frozen=True)
class PartySizes:
    """Number of higher-grade agents (m Bobs) and lower-grade agents (n Charlies)."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"need at least one agent per grade, got m={self.m}, n={self.n}")

    @property
    def channel_qubits(self) -> int:
        return 1 + self.m + self.n


def _bits_index(bits: list[int]) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    return idx


@functools.lru_cache(maxsize=64)
def _channel_support(sizes: PartySizes) -> tuple[tuple[int, complex], ...]:
    """The channel's four (basis index, amplitude) pairs, in index order."""
    m, n = sizes.m, sizes.n
    return tuple(
        (_bits_index([a_bit] * (1 + m) + [c_bit] * n), complex(0.5 * sign))
        for a_bit, c_bit, sign in ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, -1))
    )


def _fake_channel_support(sizes: PartySizes) -> tuple[tuple[int, complex], ...]:
    """Eve's substitute as pairs: the channel's support with the A bit dropped."""
    agent_mask = (1 << (sizes.m + sizes.n)) - 1
    return tuple((index & agent_mask, amp) for index, amp in _channel_support(sizes))


def _dense(num_qubits: int, pairs) -> StateVector:
    _check_cap(num_qubits)
    amps = np.zeros(2**num_qubits, dtype=complex)
    for index, amp in pairs:
        amps[index] = amp
    return StateVector(num_qubits, amps)


def make_channel(sizes: PartySizes) -> StateVector:
    """The (1+m+n)-qubit channel shared by Alice, the Bobs, and the Charlies."""
    return _dense(sizes.channel_qubits, _channel_support(sizes))


def make_standard_form(sizes: PartySizes) -> StateVector:
    """The channel in graph product form, built from its sign expansion.

    Expanding the product (|0_A> + |1_A> Z_B1)(|0_B1> + |1_B1> Z_B2..Z_Bm Z_C1)
    (|0_B2>+|1_B2>)..(|0_C1> + |1_C1> Z_C2..Z_Cn).. gives one term per bit
    string, with sign -1 raised to the number of "both ends set" pairs along
    the edges A-B1, B1-Bi, B1-C1, and C1-Cj.  Equivalent to Hadamards on every
    qubit except B1 and C1 of :func:`make_channel`; deliberately not computed
    that way, so the equivalence stays a two-path check.
    """
    m, n = sizes.m, sizes.n
    total = sizes.channel_qubits
    _check_cap(total)
    a_q, b1_q, c1_q = 0, 1, 1 + m
    shifts = total - 1 - np.arange(total)
    bits = (np.arange(2**total)[:, None] >> shifts[None, :]) & 1
    other_bobs = bits[:, 2 : 1 + m].sum(axis=1)
    other_charlies = bits[:, 2 + m :].sum(axis=1)
    exponent = (
        bits[:, a_q] * bits[:, b1_q]
        + bits[:, b1_q] * (other_bobs + bits[:, c1_q])
        + bits[:, c1_q] * other_charlies
    )
    amps = np.where(exponent % 2 == 0, 1.0, -1.0).astype(complex)
    return StateVector(total, amps / 2 ** (total / 2))


def make_fake_channel(sizes: PartySizes) -> StateVector:
    """Eve's (m+n)-qubit substitute: the channel structure with no A qubit."""
    return _dense(sizes.m + sizes.n, _fake_channel_support(sizes))


def compose_with_secret(secret: SecretState, channel: StateVector) -> StateVector:
    """Prepend the secret qubit S to the channel register."""
    return tensor(secret.as_state(), channel)
