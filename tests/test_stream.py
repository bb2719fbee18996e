"""``qstate.Stream`` against numpy: the pure-Python SeedSequence, PCG64,
ziggurat and multinomial give numpy's draws bit for bit, so every seed keeps
its secret, its trials and its check tallies."""

import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import CLEARED_MODULES, memo_caches
from hypothesis import given, settings
from hypothesis import strategies as st

from hqis import lanes, protocol, qstate
from hqis.adversary import Scenario, correlation_check
from hqis.channel import PartySizes
from hqis.protocol import Designee, parity
from hqis.qstate import SecretState, Stream

# Words past 2**64 and 2**128, bools, and numpy ints, which numpy takes as the ints they equal.
WIDE_WORDS = st.one_of(
    st.integers(2**64, 2**128 - 1),
    st.integers(2**128, 2**200),
    st.booleans(),
    st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(0, 255).map(np.uint8),
)
SEEDS = st.one_of(
    st.just(2**64 - 1), st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), WIDE_WORDS
)
PURPOSES = st.one_of(st.integers(0, 2), WIDE_WORDS)
PATH_WORDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64), WIDE_WORDS)


# A negative word as the seed, the purpose or a path word, each beside the
# SeedSequence arguments numpy refuses for it.
NEGATIVE_WORDS = [
    ("from hqis.qstate import Stream", "Stream(-1, 1)", dict(entropy=-1, spawn_key=(1,))),
    ("from hqis.qstate import Stream", "Stream(0, -1)", dict(entropy=0, spawn_key=(-1,))),
    ("from hqis.qstate import Stream", "Stream(0, 1, 7, -1)", dict(entropy=0, spawn_key=(1, 7, -1))),
    pytest.param("from hqis.qstate import Stream", "Stream(0, 1, -1)",
                 dict(entropy=0, spawn_key=(1, -1)), id="one negative path word"),
]


@pytest.mark.parametrize("imports, call, seed_sequence", NEGATIVE_WORDS)
def test_a_negative_word_is_refused_as_numpy_refuses_it(imports, call, seed_sequence):
    with pytest.raises(ValueError) as refused:
        np.random.SeedSequence(**seed_sequence)
    # A child process, capped at 1 GiB of address space and ten seconds: a
    # stream that loops on a negative word grows a list at about 1 GB/s.
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        f"{imports}\n"
        f"{call}\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qstate.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=10)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == f"ValueError: {refused.value}"


def _numpy_rng(seed, *path):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=path))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=SEEDS,
    purpose=PURPOSES,
    path=st.lists(PATH_WORDS, max_size=2),
    count=st.integers(0, 12),
)
def test_random_is_numpys(seed, purpose, path, count):
    stream, reference = Stream(seed, purpose, *path), _numpy_rng(seed, purpose, *path)
    assert stream.random(count) == reference.random(count).tolist()
    assert stream.random() == reference.random()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("k", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_a_runs_seeder_draws_the_trial_streams(seed, k):
    # One or two path words; the CLI draws trial k this way.
    seed_trial = qstate._seeder(seed, 1)
    for size in (1, 2, 6, 1000):
        draws, state = qstate._uniforms(*seed_trial(k), size)
        reference, stream = _numpy_rng(seed, 1, k), Stream(seed, 1, k)
        assert draws == reference.random(size).tolist() == stream.random(size)
        assert state == reference.bit_generator.state["state"]["state"] == stream.state
        assert seed_trial(k)[1] == reference.bit_generator.state["state"]["inc"] == stream.inc


# Lane counts on both sides of the fallback to drawing trial by trial, and
# past a full block.
LANE_COUNTS = st.one_of(
    st.integers(1, 2 * lanes.MIN_LANES), st.integers(lanes.LANES - 2, lanes.LANES + 40)
)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([0, 1, 17, 2**32 - 1, 2**32, 2**64 - 1]),
                   st.integers(0, 2**64 - 1)),
    count=LANE_COUNTS,
    size=st.integers(2, 40),
    data=st.data(),
)
def test_lane_draws_are_each_trials_stream(seed, count, size, data):
    # The last block below 2**32 too, where the one-word paths end.
    k0 = data.draw(st.one_of(st.just(0), st.just(2**32 - count), st.integers(0, 2**32 - 300)))
    at = data.draw(st.integers(1, size - 1))
    seed_trial = qstate._seeder(seed, 1)
    state, inc = lanes.seed_block(seed_trial, k0, count)
    bell_draws, draws, before, after, bits = lanes.lane_draws(state, inc, count, size, at)
    rows = [qstate._uniforms(*seed_trial(k), size)[0] for k in range(k0, k0 + count)]
    assert rows[-1] == _numpy_rng(seed, 1, k0 + count - 1).random(size).tolist()
    # The Bell and contracted steps as the floats, every other as draw >= 0.5,
    # a trial's bits in its row, the contracted one's left 0, and their parities.
    heads = [[int(draw >= 0.5) for draw in row[1:]] for row in rows]
    for head in heads:
        head[at - 1] = 0
    assert bell_draws == [row[0] for row in rows]
    assert draws == [row[at] for row in rows]
    assert list(bits) == [head for row in heads for head in row]
    assert list(before.to_bytes(count)) == [parity(head[: at - 1]) for head in heads]
    assert list(after.to_bytes(count)) == [parity(head[at:]) for head in heads]


def test_a_lanes_head_is_its_draws_top_bit_at_every_rotation():
    # A lane is the word, hi ^ lo, then hi, whose top 6 bits are the rotation.
    # Each rotation reads each of the 64 single-bit words and a few others.
    words = [1 << bit for bit in range(64)] + [0, 2**64 - 1, 0x0123456789ABCDEF, 2**63 - 1]
    for rot in range(64):
        for low_bits in (0, 2**58 - 1):
            high = rot << 58 | low_bits
            raw = b"".join(
                word.to_bytes(8, "little") + high.to_bytes(8, "little") + bytes(16)
                for word in words
            )
            draws = [(((word >> rot | word << 64 - rot) & 2**64 - 1) >> 11) * 2**-53
                     for word in words]
            assert list(lanes._heads(raw)) == [int(draw >= 0.5) for draw in draws], rot
    # Rotation 0 reads bit 63.
    raw = (2**63).to_bytes(8, "little") + bytes(24) + (2**62).to_bytes(8, "little") + bytes(24)
    assert lanes._heads(raw) == b"\1\0"


def _table(grade: str, helpers: int, m: int):
    """A leaf table of ``helpers`` helpers, ``m`` Bobs of them under a Charlie
    designee (the contracted helper at position m - 1), every Bob but the
    designee under a Bob designee (charlie*, contracted, last)."""
    if grade == "bob":
        sizes, designee = PartySizes(helpers, 2), Designee.bob(min(m, helpers), 2)
    else:
        m = min(m, helpers)
        sizes, designee = PartySizes(m, helpers - m + 1), Designee.charlie(helpers - m + 1)
    table = protocol._leaf_table(sizes, designee, SecretState(0.6, 0.8j))
    assert table.helpers == helpers
    return table


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([0, 17, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    start=st.one_of(st.integers(0, 300), st.integers(2**32 - 300, 2**32 + 5)),
    count=st.one_of(LANE_COUNTS, st.integers(2 * lanes.LANES, 3 * lanes.LANES + 7)),
    grade=st.sampled_from(["bob", "charlie"]),
    # 255, 256 and 257 draws a trial, and more than a block's cells.
    helpers=st.sampled_from([1, 2, 3, 5, 40, 99, 254, 255, 256, lanes.LANE_CELLS]),
    m=st.integers(1, 300),
)
def test_trial_picks_are_each_trials_run_pick_in_order(seed, start, count, grade, helpers, m):
    # A block of trials packed, one too small to pack, one that would cross
    # 2**32 and a trial of more draws than a block's cells.
    table = _table(grade, helpers, m)
    size = 1 + helpers
    count = min(count, 2 * lanes.LANE_CELLS // size)
    seed_trial = qstate._seeder(seed, 1)
    picks = lanes.trial_picks(table, seed_trial, start, start + count)
    expected = [protocol.run_pick(table, qstate._uniforms(*seed_trial(k), size)[0])
                for k in range(start, start + count)]
    assert list(picks) == expected


@pytest.mark.parametrize("helpers", [255, 999])
def test_a_block_of_trials_holds_at_most_its_cells_of_draws(helpers):
    # A block of LANES trials of 1000 draws would hold 4 MiB of floats; one
    # of 16 trials of 256 draws is packed.
    table = _table("charlie", helpers, 3)
    seed_trial = qstate._seeder(17, 1)
    tracemalloc.start()
    try:
        for _ in lanes.trial_picks(table, seed_trial, 0, lanes.LANES):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * lanes.LANE_CELLS, peak


def test_the_seeder_cache_is_a_module_attribute_that_clears():
    # bench/worker.py clears the caches it finds among these modules' attributes
    # before each call, so that a call starts cold, as a CLI process does.  The
    # four kept are those a caller reads again: every trial's Stream reads the
    # seeder, library run_recovery the leaf table, agent_marginal and each
    # table of a secret its Bell children, and every normal draw the ziggurat.
    caches = memo_caches(*CLEARED_MODULES)
    kept = [qstate._seeder, qstate._ziggurat, protocol._bell_children, protocol._leaf_table]
    assert sorted(map(id, caches)) == sorted(map(id, kept)), [c.__wrapped__ for c in caches]
    # The worker never clears these two, so a cache there would outlive a call.
    assert memo_caches("binomial", "dense") == []
    Stream(17, 0).normal(4)
    protocol._leaf_table(PartySizes(2, 2), Designee.charlie(1), SecretState(0.6, 0.8))
    for cached in kept:
        assert cached.cache_info().currsize >= 1
        cached.cache_clear()
        assert cached.cache_info().currsize == 0


@pytest.mark.parametrize("words", [(3.0, 1), (3, 1.0), (3, 1, 7.0)])
def test_a_float_word_is_refused_even_after_its_int_is_cached(words):
    seed, *spawn_key = words
    with pytest.raises(TypeError):
        np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    qstate._seeder.cache_clear()
    ints = [int(word) for word in words]
    for _ in range(2):
        # The cache takes 3.0 for the key 3, so this holds only if the check precedes it.
        with pytest.raises(TypeError):
            Stream(*words)
        Stream(*ints).random()


_PCG_INVERSE = pow(qstate._PCG_MULT, -1, 2**128)


def _steps(start: int, end: int, inc: int) -> int:
    """How many PCG64 steps lead from state ``start`` to state ``end``."""
    for steps in range(64):
        if start == end:
            return steps
        start = (start * qstate._PCG_MULT + inc) & qstate._MASK128
    raise AssertionError("the draw consumed more than 63 words")


def _numpy_at(stream: Stream) -> np.random.Generator:
    """A numpy Generator whose PCG64 is in ``stream``'s state."""
    reference = np.random.default_rng(0)
    reference.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": stream.state, "inc": stream.inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return reference


def _stream_at(*words: int) -> Stream:
    """A stream whose next one or two 64-bit outputs are ``words``.  A state
    with no high word outputs its low word unrotated; the increment is
    chosen so that the step after the first lands on the second word's
    state, and is odd as PCG64 needs."""
    stream = Stream(0, 0)
    first = words[0]
    if len(words) == 2:
        for high in (0, 1):
            second_state = high << 64 | words[1] ^ high
            stream.inc = (second_state - first * qstate._PCG_MULT) & qstate._MASK128
            if stream.inc & 1:
                break
    stream.state = ((first - stream.inc) * _PCG_INVERSE) & qstate._MASK128
    return stream


def _assert_multinomial_is_numpys(stream: Stream, reference, n: int, pvals) -> None:
    assert stream.multinomial(n, pvals) == reference.multinomial(n, pvals).tolist(), (n, pvals)
    assert stream.state == reference.bit_generator.state["state"]["state"], (n, pvals)


# 481 * 1/16 is past 30, where a binomial turns from inversion to BTPE; 2**63 - 1
# is numpy's largest count, where BTPE's int64 n + 1 wraps.
ROUNDS = (1, 7, 480, 481, 65536, 3 * 10**6, 10**12, 2**63 - 1)


@pytest.mark.parametrize("categories", [4, 16])
def test_multinomial_is_numpys(categories):
    # These seeds reach every region of BTPE: the triangle, the
    # parallelograms, both exponential tails, the exact ratio near the
    # mode, and the squeeze and Stirling bound of its step 52.
    pvals = [1 / categories] * categories
    for rounds in ROUNDS:
        for seed in range(60):
            _assert_multinomial_is_numpys(Stream(seed, 2), _numpy_rng(seed, 2), rounds, pvals)


@pytest.mark.parametrize("pvals", [
    [0.5, 0.0, 0.25, 0.0, 0.25],
    [0.1, 0.0, 0.6, 0.3, 0.0],  # 0.6 / 0.9 > 1/2: its failures are drawn
    [0.5, 0.0, 0.5, 0.0],  # 0.5 / 0.5 = 1 draws once and takes every trial
    [0.3, 0.7000000000000001, 0.0],  # a share past 1 does the same
    [0.015625, 0.984375],
    [1.0],
])
def test_multinomial_is_numpys_on_uneven_pvals(pvals):
    for rounds in (0, *ROUNDS):
        for seed in range(8):
            _assert_multinomial_is_numpys(Stream(seed, 2), _numpy_rng(seed, 2), rounds, pvals)


def test_multinomial_is_numpys_where_a_double_rounds_n():
    # A share of 1e-16 puts BTPE's mean near 100-1000, where its exact ratio
    # (with numpy's int64 n + 1, which wraps at 2**63 - 1) and its Stirling
    # bound (with n rounded to a double) decide often enough to be reached.
    pvals = [1e-16, 0.0, 1.0 - 1e-16]
    for rounds in (10**18 + 4321, 2**63 - 601, 2**63 - 1):
        for seed in range(100):
            _assert_multinomial_is_numpys(Stream(seed, 2), _numpy_rng(seed, 2), rounds, pvals)


def _top53(fraction: float) -> int:
    return int(fraction * 2**53) << 11


# (n, pvals, the next output words), named for what the first draw does.  At
# n = 61 and p = 1/2 BTPE's left tail holds u / p4 in (0.831, 0.922] and its
# right tail the rest above; a second draw v of 0, or of 2**-53, lands past
# either end.
RARE = [
    pytest.param(3, [0.21875, 0.78125], [2**64 - 1], id="inversion-redraws-past-its-bound"),
    pytest.param(61, [0.5, 0.5], [_top53(0.88), 0], id="left-tail-v-0"),
    pytest.param(61, [0.5, 0.5], [_top53(0.88), 1 << 11], id="left-tail-y-below-0"),
    pytest.param(61, [0.5, 0.5], [_top53(0.97), 0], id="right-tail-v-0"),
    pytest.param(61, [0.5, 0.5], [_top53(0.97), 1 << 11], id="right-tail-y-above-n"),
]


@pytest.mark.parametrize("n, pvals, words", RARE)
def test_multinomial_rejections_are_numpys(n, pvals, words):
    stream = _stream_at(*words)
    start, reference = stream.state, _numpy_at(stream)
    assert stream.random(len(words)) == [(word >> 11) * 2**-53 for word in words]
    stream.state = start
    _assert_multinomial_is_numpys(stream, reference, n, pvals)
    # The first draw (inversion) or pair (BTPE) was rejected, so more followed.
    assert _steps(start, stream.state, stream.inc) > len(words)


@pytest.mark.parametrize("n, pvals", [
    (-1, [0.5, 0.5]),
    (2**63, [0.5, 0.5]),
    (5, []),
    (5, [1.5, -0.5]),
    (5, [float("nan"), 0.5]),
    (5, [0.6, 0.5, 0.1]),
])
def test_multinomial_rejects_what_numpy_rejects(n, pvals):
    with pytest.raises((ValueError, OverflowError)):
        np.random.default_rng(0).multinomial(n, pvals)
    with pytest.raises(ValueError):
        Stream(0, 0).multinomial(n, pvals)


@pytest.mark.parametrize("scenario", list(Scenario))
def test_check_is_one_rule_for_numpy_and_the_stream(scenario):
    for sizes in (PartySizes(1, 1), PartySizes(5, 6)):
        for rounds in (1, 64, 3 * 10**6, 2**63 - 1):
            for seed in range(5):
                assert correlation_check(sizes, scenario, rounds, Stream(seed, 2)) == (
                    correlation_check(sizes, scenario, rounds, _numpy_rng(seed, 2))
                ), (sizes, rounds, seed)


def test_normal_is_numpys_on_every_ziggurat_path():
    """Each draw starts from a state whose next word is chosen: a state with
    no high word outputs its low word unrotated.  Every layer idx is tried
    just inside its fast path, at its edge, past it with bit 8 (the tail's
    sign) clear, and at the largest magnitude, with either sign; the draws
    past the first word follow the stream."""
    ki = [int(line.split()[0]) for line in qstate._ziggurat()]
    inc = Stream(0, 0).inc
    reference = np.random.default_rng(0)
    paths = set()
    for idx in range(256):
        for rabs in {max(ki[idx], 1) - 1, ki[idx], (ki[idx] | 0x1FF) + 1, 2**52 - 1}:
            for sign in (0, 1):
                word = (rabs << 1 | sign) << 8 | idx
                start = ((word - inc) * _PCG_INVERSE) & qstate._MASK128
                for draw, numpy_draw in (
                    (lambda s: s.normal(1)[0], lambda rng: rng.normal(size=1).tolist()[0]),
                    (Stream._standard_normal, np.random.Generator.standard_normal),
                ):
                    stream = Stream(0, 0)
                    stream.state, stream.inc = start, inc
                    reference.bit_generator.state = {
                        "bit_generator": "PCG64",
                        "state": {"state": start, "inc": inc},
                        "has_uint32": 0,
                        "uinteger": 0,
                    }
                    x = draw(stream)
                    assert repr(x) == repr(numpy_draw(reference)), (idx, rabs, sign)
                    assert stream.state == reference.bit_generator.state["state"]["state"]
                steps = _steps(start, stream.state, inc)
                if rabs < ki[idx]:
                    paths.add("fast")
                elif idx == 0:
                    paths.add(f"tail {'-' if rabs >> 8 & 1 else '+'}")
                else:
                    paths.add("wedge accept" if steps == 2 else "wedge reject")
    assert paths == {"fast", "wedge accept", "wedge reject", "tail +", "tail -"}


def test_normals_are_numpys_in_bulk():
    assert Stream(123, 4).normal(size=20000) == _numpy_rng(123, 4).normal(size=20000).tolist()


@pytest.mark.parametrize("seeds", [range(200), [2**32 - 1, 2**32, 2**63, 2**64 - 1]])
def test_haar_random_is_one_rule_for_numpy_and_the_stream(seeds):
    for seed in seeds:
        secret = SecretState.haar_random(Stream(seed, 0))
        assert secret == SecretState.haar_random(_numpy_rng(seed, 0))


# Where a normal draw can fall, and far past it.
FINITE = st.floats(min_value=-1e20, max_value=1e20).filter(lambda x: x == 0 or abs(x) > 1e-80)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=FINITE, b=FINITE, c=FINITE)
def test_fma_rounds_once(a, b, c):
    assert qstate._fma(a, b, c) == float(Fraction(a) * Fraction(b) + Fraction(c))
