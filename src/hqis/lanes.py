"""Sampled trials seeded, drawn and picked a block of trials at a time.

Each trial of a run draws from its own PCG64 stream, seeded by the run's
``qstate._seeder``: a draw per step, Alice's Bell outcome first, then each
helper in plan order.  Here a block of trials is seeded and drawn at once: the
streams sit one a lane in a Python int, so each hash and each PCG64 step is
one big-int operation for the whole block instead of one a trial.  Only the
Bell step and the contracted helper's read their draws as floats.  Every other
helper's outcome is ``draw >= 0.5``, the top bit of the draw, which
``_heads`` reads for every lane at once off the step's bytes, and
``protocol.run_block`` picks the block's trials from those columns.  A block
too small to gain by it is seeded, drawn and picked a trial at a time, by
``protocol.run_pick``.  Either way a trial's leaf and bits are those its
``qstate._uniforms`` draws pick.  Only a sampled run loads this module.
"""

import struct

from . import protocol
from .qstate import _MASK32, _MASK128, _PCG_MULT, _uniforms

# A block has at most LANES lanes and LANE_CELLS draws, so its memory does
# not grow with the trials or the parties.  A block of fewer than MIN_LANES
# lanes could cost more packed than seeded, drawn and picked a trial at a
# time: packing won, in at least 8 of 9 interleaved rounds, from 3 lanes at 3
# draws a trial, 4 at 6, 6 at 13, 8 at 26, 10 at 51, 13 at 101 (12 in 7 of
# 9) and 12 at 201-341, and not within the 10 lanes a block holds at 401
# draws (in process, Python 3.11 on a 2-CPU VM; "crossover" in
# BENCH_30.json).  So a trial of more than LANE_CELLS // MIN_LANES = 341
# draws always draws alone.
LANES, LANE_CELLS, MIN_LANES = 128, 2**12, 12


def trial_picks(table, seed_path, start: int, stop: int):
    """The ``(leaf, bits)`` of trials ``start`` to ``stop - 1`` of ``table``'s
    run, in order: trial ``k``'s are ``protocol.run_pick(table, draws)`` of
    its draws ``_uniforms(*seed_path(k), 1 + table.helpers)[0]``, from a
    ``_seeder``'s ``seed_path``.  A block of at least MIN_LANES trials below
    2**32 is seeded, drawn and picked at once, a lane a trial, with one
    ``protocol.run_block`` call; any other trial alone, with one
    ``protocol.run_pick`` call.  A block's bits are one buffer, ``helpers``
    bytes a trial, which each trial's row slices."""
    helpers, at = table.helpers, 1 + table.contracted
    most = min(LANES, LANE_CELLS // (1 + helpers))
    k = start
    while k < stop:
        lanes = min(most, stop - k, 2**32 - k)
        if lanes < MIN_LANES:
            yield protocol.run_pick(table, _uniforms(*seed_path(k), 1 + helpers)[0])
            k += 1
            continue
        *columns, bits = lane_draws(*seed_block(seed_path, k, lanes), lanes, 1 + helpers, at)
        # The contracted outcomes fill the slot lane_draws left in each row.
        leaves, bits[at - 1 :: helpers] = protocol.run_block(table, *columns)
        bits = bytes(bits)
        rows = map(slice, range(0, len(bits), helpers), range(helpers, len(bits) + 1, helpers))
        yield from zip(leaves, map(bits.__getitem__, rows))
        k += lanes


def _ones(lanes: int, width: int) -> int:
    """A 1 in each of ``lanes`` lanes ``width`` bits wide, whole bytes: times
    a value below ``2**width``, that value in every lane."""
    return int.from_bytes((b"\1" + bytes(width // 8 - 1)) * lanes, "little")


def seed_block(seed_path, k: int, lanes: int) -> tuple[int, int]:
    """PCG64's ``(state, inc)`` of the one-word paths ``k`` to ``k + lanes -
    1``, each below 2**32, from a ``_seeder``'s ``seed_path``: a stream in
    each 256-bit lane, the first in the lowest, as :func:`lane_draws`
    takes them.  Path ``k + j`` is hashed in 64-bit lane ``j``."""
    if lanes == 1:  # one lane is one stream, as seed_path gives it
        return seed_path(k)
    ones = _ones(lanes, 64)
    # j < 256 is the lane's low byte.
    index = bytearray(8 * lanes)
    index[::8] = range(lanes)
    w = seed_path(k * ones + int.from_bytes(index, "little"), ones=ones)
    # A lane holds the seed's low and high uint64, then the sequence's, each
    # made of two uint32 as for one stream.  The view only moves whole 8-byte
    # items and never reads them as numbers, so the host's byte order does
    # not matter.
    mask = _MASK32 * ones
    both = memoryview(bytearray(32 * lanes)).cast("Q")
    for slot, (high, low) in enumerate(((3, 2), (1, 0), (7, 6), (5, 4))):
        uint64s = ((w[high] & mask) << 32 | w[low] & mask).to_bytes(8 * lanes, "little")
        both[slot::4] = memoryview(uint64s).cast("Q")
    both = int.from_bytes(both, "little")
    wide = _ones(lanes, 256)
    mask = _MASK128 * wide
    inc = ((both >> 128 & mask) << 1 | wide) & mask
    # A lane's product stays below 2**256.
    return (((inc + (both & mask)) & mask) * _PCG_MULT + inc) & mask, inc


def lane_draws(state: int, inc: int, lanes: int, size: int, at: int) -> tuple:
    """The draws of the ``lanes`` streams packed in ``state`` and ``inc``,
    256-bit lanes, ``size`` steps each, as ``protocol.run_block`` reads them,
    with a buffer for the trials' bits: ``(bell_draws, draws, before, after,
    bits)``.  Steps 0 and ``at`` are lists of the floats ``_uniforms`` draws;
    each other step's ``draw >= 0.5``, a lane a byte, is written to every
    ``size - 1``-th byte of ``bits``, from its step - 1, and XORed, as an int,
    into ``before`` or ``after`` the step ``at``.  Each step is one product for
    every lane, which stays below 2**256 in each."""
    wide = _ones(lanes, 256)
    mult, mask, top53 = _PCG_MULT, _MASK128 * wide, 2**53 - 1
    floats, parities, bits = [], [0, 0], bytearray(lanes * (size - 1))
    for step in range(size):
        state = (state * mult + inc) & mask
        # A lane of state >> 64 ^ state holds the word, hi ^ lo, then hi,
        # whose top 6 bits are the rotation, little-endian.
        raw = (state >> 64 ^ state).to_bytes(32 * lanes, "little")
        if step and step != at:
            bits[step - 1 :: size - 1] = heads = _heads(raw)
            parities[step > at] ^= int.from_bytes(heads)
            continue
        # Each draw is the word's top 53 bits after the rotation, scaled, read
        # off the word doubled to 128 bits.
        floats.append([
            (word * (2**64 + 1) >> (high >> 58) + 11 & top53) * 2**-53
            for word, high in struct.iter_unpack("<QQ16x", raw)
        ])
    return *floats, *parities, bits


def _bit_masks() -> tuple[bytes, ...]:
    """Per byte p of a lane's word, the ``bytes.translate`` table from the
    lane's byte 15, whose top 6 bits are the rotation rot, to the bit of byte
    p that holds bit (rot + 63) & 63 of the word, or to 0 if another byte
    holds it.  That bit is the top bit of the word rotated, so of the draw."""
    masks = [bytearray(256) for _ in range(8)]
    for byte in range(256):
        bit = ((byte >> 2) + 63) & 63
        masks[bit >> 3][byte] = 1 << (bit & 7)
    return tuple(map(bytes, masks))


_BIT_MASKS = _bit_masks()
_NONZERO = b"\0" + b"\1" * 255


def _heads(raw: bytes) -> bytes:
    """Each lane's ``draw >= 0.5``, a byte 0 or 1, from a step's lanes
    ``raw``, 32 bytes each, little-endian: the word, hi ^ lo, then hi.  Each
    byte of the word is masked with the bit its lane's rotation picks there,
    every lane at once."""
    rots = raw[15::32]
    heads = 0
    for p, mask in enumerate(_BIT_MASKS):
        heads |= int.from_bytes(rots.translate(mask)) & int.from_bytes(raw[p::32])
    return heads.to_bytes(len(rots)).translate(_NONZERO)
