"""Sampled trials drawn a block of trials at a time.

Each trial of a run draws from its own PCG64 stream, seeded by the run's
``qstate._seeder``.  Here a block of trials is seeded and drawn at once: the
streams sit one a lane in a Python int, so each hash and each PCG64 step is
one big-int operation for the whole block instead of one a trial.  A block
too small to gain by it is seeded and drawn a trial at a time.  The draws
are ``qstate._uniforms``', bit for bit.  Only a sampled run loads this module.
"""

import sys

from .qstate import _MASK32, _MASK128, _PCG_MULT, _uniforms

# A block has at most LANES lanes and LANE_CELLS draws, so its memory does
# not grow with the trials or the parties.  A block of fewer than MIN_LANES
# lanes would cost more packed than seeded and drawn a trial at a time:
# packing won from 4 lanes at 3-6 draws a trial, 6 at 13-26, 8 at 51, 10 at
# 101, 12 at 201-256, and not within the 10 lanes a block holds at 401
# draws (in process, median of 9 interleaved rounds, Python 3.11 on a 2-CPU
# VM; "crossover" in BENCH_26.json).  So a trial of more than
# LANE_CELLS // MIN_LANES = 256 draws always draws alone.
LANES, LANE_CELLS, MIN_LANES = 128, 2**12, 16
# lane_uniforms reads each lane's words as the host's uint64s, which are the
# lanes' own on a little-endian host only; elsewhere each trial draws alone.
PACKED = sys.byteorder == "little"


def trial_draws(seed_path, start: int, stop: int, size: int):
    """The draws of trials ``start`` to ``stop - 1``, in order: trial ``k``'s
    are ``_uniforms(*seed_path(k), size)[0]``, bit for bit, from a
    ``_seeder``'s ``seed_path``.  A block of at least MIN_LANES trials below
    2**32 is seeded and drawn at once, a lane a trial; any other trial is
    seeded and drawn alone."""
    most = min(LANES, LANE_CELLS // size)
    k = start
    while k < stop:
        lanes = min(most, stop - k, 2**32 - k)
        if lanes >= MIN_LANES and PACKED:
            yield from lane_uniforms(*seed_block(seed_path, k, lanes), lanes, size)
            k += lanes
        else:
            yield _uniforms(*seed_path(k), size)[0]
            k += 1


def _ones(lanes: int, width: int) -> int:
    """A 1 in each of ``lanes`` lanes ``width`` bits wide, whole bytes: times
    a value below ``2**width``, that value in every lane."""
    return int.from_bytes((b"\1" + bytes(width // 8 - 1)) * lanes, "little")


def seed_block(seed_path, k: int, lanes: int) -> tuple[int, int]:
    """PCG64's ``(state, inc)`` of the one-word paths ``k`` to ``k + lanes -
    1``, each below 2**32, from a ``_seeder``'s ``seed_path``: a stream in
    each 256-bit lane, the first in the lowest, as :func:`lane_uniforms`
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


def lane_uniforms(state: int, inc: int, lanes: int, size: int):
    """The rows ``_uniforms(state_j, inc_j, size)[0]``, as tuples, of the
    ``lanes`` streams packed in ``state`` and ``inc``, 256-bit lanes: each
    step is one product for every lane, which stays below 2**256 in each."""
    wide = _ones(lanes, 256)
    mult, mask, top53 = _PCG_MULT, _MASK128 * wide, 2**53 - 1
    columns = []
    for _ in range(size):
        state = (state * mult + inc) & mask
        # A lane of state >> 64 ^ state holds the word, hi ^ lo, then hi,
        # whose top 6 bits are the rotation.  Each draw is the word's top 53
        # bits after it, scaled, read off the word doubled to 128 bits.
        words = memoryview((state >> 64 ^ state).to_bytes(32 * lanes, "little")).cast("Q")
        columns.append([
            (word * (2**64 + 1) >> (high >> 58) + 11 & top53) * 2**-53
            for word, high in zip(words[::4], words[1::4])
        ])
    return zip(*columns)
