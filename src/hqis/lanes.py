"""Sampled trials seeded, drawn and picked a block of trials at a time.

Each trial of a run draws from its own PCG64 stream, seeded by the run's
``qstate._seeder``: a draw per step, Alice's Bell outcome first, then each
helper in plan order.  Here a block of trials is seeded and drawn at once: the
streams sit one a lane in a Python int, so each hash and each PCG64 step is
one big-int operation for the whole block instead of one a trial.  A block
makes no floats: ``_heads`` reads a bit of every lane's draw at once off the
step's bytes.  A helper's outcome is ``draw >= 0.5``, the draw's top bit.  A
Bell outcome has probability 1/4 and a contracted label 1/2 at any secret, so
a table's sums lie within a few ulps of k/4 (``_banded`` checks it once a
run), and for a draw not within ``_BAND`` of such a boundary (``_guarded``
flags those) the Bell outcome is the draw's top two bits and the contracted
helper's its top bit.  ``protocol.run_block`` picks the block's trials from
those byte columns.  A block too small to gain by it, or with a draw the guard
flags, and every trial of a run whose table is not banded, is seeded, drawn
and picked a trial at a time, by ``protocol.run_pick``.  Either way a trial's
leaf and bits are those its ``qstate._uniforms`` draws pick.  Only a sampled
run loads this module.
"""

import math

from . import protocol
from .qstate import _MASK32, _MASK128, _PCG_MULT, _uniforms

# A block has at most LANES lanes and LANE_CELLS draws, so its memory does not
# grow with the trials or the parties.  LANES is 256, the most that
# seed_block's one-byte lane index takes.  512 lanes, with a two-byte index,
# was not taken: it made the bench's `sample` call 2-4% faster in process, but
# moved neither its ops_per_s nor its peak_rss_mb beyond noise in 3 bench
# pairs ("lanes_512" in BENCH_34.json).  A block of fewer than MIN_LANES lanes
# could cost more packed than seeded, drawn and picked a trial at a time:
# packing won, in at least 8 of 9 interleaved rounds, from 6 lanes at 3 and 6
# draws a trial, 9 at 13, 10 at 26 and 51, 11 at 101 and 201 and 12 at 341,
# and not within the 10 lanes a block holds at 401 draws (in process, Python
# 3.11 on a 2-CPU VM; "crossover" in BENCH_34.json).  So a trial of more than
# LANE_CELLS // MIN_LANES = 341 draws always draws alone.
LANES, LANE_CELLS, MIN_LANES = 256, 2**12, 12


def trial_picks(table, seed_path, start: int, stop: int):
    """The ``(leaf, bits)`` of trials ``start`` to ``stop - 1`` of ``table``'s
    run, in order: trial ``k``'s are ``protocol.run_pick(table, draws)`` of
    its draws ``_uniforms(*seed_path(k), 1 + table.helpers)[0]``, from a
    ``_seeder``'s ``seed_path``.  A block of at least MIN_LANES trials below
    2**32 is seeded, drawn and picked at once, a lane a trial, with one
    ``protocol.run_block`` call, if ``table`` is ``_banded`` and no draw of
    the block falls in the guard band; any other trial alone, with one
    ``protocol.run_pick`` call.  A block's bits are one buffer, ``helpers``
    bytes a trial, which each trial's row slices."""
    size, at = 1 + table.helpers, 1 + table.contracted
    most = min(LANES, LANE_CELLS // size) if _banded(table) else 1  # else each trial alone
    k = start
    while k < stop:
        lanes = min(most, stop - k, 2**32 - k)
        drawn = lanes >= MIN_LANES and lane_draws(*seed_block(seed_path, k, lanes), lanes, size, at)
        if drawn:
            *columns, bits = drawn
            leaves = protocol.run_block(table, *columns)
            ends = range(0, len(bits) + 1, size - 1)
            yield from zip(leaves, map(bits.__getitem__, map(slice, ends, ends[1:])))
        else:
            lanes = max(lanes, 1)  # past 2**32 a trial draws alone
            for j in range(k, k + lanes):
                yield protocol.run_pick(table, _uniforms(*seed_path(j), size)[0])
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


def lane_draws(state: int, inc: int, lanes: int, size: int, at: int) -> tuple | None:
    """The outcomes that the ``lanes`` streams packed in ``state`` and
    ``inc``, 256-bit lanes, draw in ``size`` steps each, as byte columns for
    ``protocol.run_block``, and the trials' bits: ``(bells, outcomes, before,
    after, bits)``; or None if ``_guarded`` flags a lane's step 0 or step
    ``at``.  ``bells`` holds each lane's Bell outcome, the top two bits of its
    step 0 draw, a byte a lane.  Every other step's ``draw >= 0.5``, a byte a
    lane, is written to every ``size - 1``-th byte of ``bits``, from its step
    - 1; at step ``at`` it is ``outcomes``, and at any other it is XORed, as
    an int, into ``before`` or ``after`` it.  Each step is one product for
    every lane, which stays below 2**256 in each."""
    wide = _ones(lanes, 256)
    mult, mask = _PCG_MULT, _MASK128 * wide
    flags = _ones(lanes, 64) * (0x0C << 56)
    parities, bits = [0, 0], bytearray(lanes * (size - 1))
    for step in range(size):
        state = (state * mult + inc) & mask
        # A lane of state >> 64 ^ state holds the word, hi ^ lo, then hi,
        # whose top 6 bits are the rotation, little-endian.
        raw = (state >> 64 ^ state).to_bytes(32 * lanes, "little")
        if step in (0, at) and _guarded(raw, flags):
            return None
        heads = _heads(raw)
        if not step:
            second = int.from_bytes(_heads(raw, _SECOND_MASKS))
            bells = (int.from_bytes(heads) << 1 | second).to_bytes(lanes)
            continue
        bits[step - 1 :: size - 1] = heads
        if step == at:
            outcomes = heads
        else:
            parities[step > at] ^= int.from_bytes(heads)
    return bells, outcomes, *parities, bytes(bits)


def _bit_masks(offset: int) -> tuple[bytes, ...]:
    """Per byte p of a lane's word, the ``bytes.translate`` table from the
    lane's byte 15, whose top 6 bits are the rotation rot, to the bit of byte
    p that holds bit (rot + offset) & 63 of the word, or to 0 if another byte
    holds it.  That bit is bit ``offset`` of the word rotated, so bit ``offset
    - 11`` of the draw's 53."""
    masks = [bytearray(256) for _ in range(8)]
    for byte in range(256):
        bit = ((byte >> 2) + offset) & 63
        masks[bit >> 3][byte] = 1 << (bit & 7)
    return tuple(map(bytes, masks))


# The draw's top bit, ``draw >= 0.5``, and the one below it.
_BIT_MASKS, _SECOND_MASKS = _bit_masks(63), _bit_masks(62)
_NONZERO = b"\0" + b"\1" * 255


def _heads(raw: bytes, masks=_BIT_MASKS) -> bytes:
    """Each lane's ``draw >= 0.5``, a byte 0 or 1, from a step's lanes
    ``raw``, 32 bytes each, little-endian: the word, hi ^ lo, then hi.  Each
    byte of the word is masked with the bit its lane's rotation picks there,
    every lane at once.  With ``_SECOND_MASKS``, the draw's next bit."""
    rots = raw[15::32]
    heads = 0
    for p, mask in enumerate(masks):
        heads |= int.from_bytes(rots.translate(mask)) & int.from_bytes(raw[p::32])
    return heads.to_bytes(len(rots)).translate(_NONZERO)


# A threshold s is banded if ceil(s * 2**53), the least 53-bit draw that
# passes it, lies within _BAND of its boundary k * 2**51: then a draw below
# k * 2**51 - _BAND, or from k * 2**51 + _BAND on, passes s exactly when its
# top bits reach k.  A draw d = k * 2**51 + e, -_BAND <= e < _BAND, has its 39
# bits 12 to 50 equal, so at least 4 whole bytes of its word, rotated or not,
# are 0x00 or 0xFF: ``_guarded`` flags every lane whose word has 4 such bytes.
_BAND = 2**12
_BYTE_ONES = 0x0101010101010101
_EXTREME = bytes(byte in (0, 255) for byte in range(256))


def _banded(table) -> bool:
    """Whether ``table``'s Bell sums, each near k/4, and its contracted
    thresholds, each near 1/2, are all banded: only then can a block read
    its Bell and contracted outcomes off its draws' top bits."""
    thresholds = [
        *zip(table.bell_sums, (2**51, 2**52, 3 * 2**51), strict=True),
        *((passed.__self__, 2**52) for pair in table.passed for passed in pair),
    ]
    return all(abs(math.ceil(s * 2**53) - bound) <= _BAND for s, bound in thresholds)


def _guarded(raw: bytes, flags: int) -> int:
    """Nonzero if a lane of a step's ``raw``, as ``_heads`` reads it, has at
    least 4 bytes of its word 0x00 or 0xFF.  The words, 8 bytes a lane, are
    one buffer; each such byte is a 1, and one product sums a word's into its
    byte 7, at most 8 so with no carry, whose bits 2 and 3, set for 4 to 8,
    ``flags`` marks."""
    words = memoryview(raw).cast("Q")[::4].tobytes().translate(_EXTREME)
    return int.from_bytes(words, "little") * _BYTE_ONES & flags
