"""``qstate.Stream`` against numpy: the pure-Python SeedSequence, PCG64,
ziggurat and multinomial give numpy's draws bit for bit, so every seed keeps
its secret, its trials and its check tallies."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import CLEARED_MODULES, memo_caches
from hypothesis import given, settings
from hypothesis import strategies as st

from hqis import protocol, qstate
from hqis.adversary import Scenario, correlation_check
from hqis.channel import PartySizes
from hqis.protocol import Designee
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
    ki, _, _ = qstate._ziggurat()
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
