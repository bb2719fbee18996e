"""Entangled-channel construction for the splitting protocol.

The honest channel over (A, B-block, C-block) puts amplitude +1/2 on the
basis states where the B bits track A and the C bits agree among themselves,
with a minus sign on the all-ones string.  Those four (basis index,
amplitude) pairs are the channel's support, built once per size by
``_channel_support``; every support-only path takes the amplitudes from it.
The dense builders (``make_channel``, ``make_fake_channel``, and
``make_standard_form``, the same state built from its graph product form so
tests can cross-check the two constructions) live in :mod:`hqis.dense`, and
are still served here.
"""

import functools
import operator
from collections import namedtuple

from .qstate import SecretState, _from_dense

__getattr__ = _from_dense(
    __name__,
    {"_dense", "make_channel", "make_standard_form", "make_fake_channel", "compose_with_secret"},
)


class PartySizes(namedtuple("PartySizes", "m n")):
    """Number of higher-grade agents (m Bobs) and lower-grade agents (n Charlies)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, m: int, n: int):
        m, n = operator.index(m), operator.index(n)  # TypeError on a float
        if m < 1 or n < 1:
            raise ValueError(f"need at least one agent per grade, got m={m}, n={n}")
        return super().__new__(cls, m, n)

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
