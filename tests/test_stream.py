"""``qstate.Stream`` against numpy: the pure-Python SeedSequence, PCG64 and
ziggurat give numpy's draws bit for bit, so every seed keeps its secret and
its trials."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqis import qstate
from hqis.qstate import SecretState, Stream

SEEDS = st.one_of(
    st.just(2**64 - 1), st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)
)
PATH_WORDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64))


def _numpy_rng(seed, *path):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=path))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=SEEDS,
    purpose=st.integers(0, 2),
    path=st.lists(PATH_WORDS, max_size=2),
    count=st.integers(0, 12),
)
def test_random_is_numpys(seed, purpose, path, count):
    stream, reference = Stream(seed, purpose, *path), _numpy_rng(seed, purpose, *path)
    assert stream.random(count) == reference.random(count).tolist()
    assert stream.random() == reference.random()


def test_a_numpy_generator_continues_the_stream():
    stream, reference = Stream(2**64 - 1, 2), _numpy_rng(2**64 - 1, 2)
    stream.random(3)
    reference.random(3)
    counts = stream.numpy().multinomial(1000, [0.25] * 4)
    assert counts.tolist() == reference.multinomial(1000, [0.25] * 4).tolist()


_PCG_INVERSE = pow(qstate._PCG_MULT, -1, 2**128)


def _steps(start: int, end: int, inc: int) -> int:
    """How many PCG64 steps lead from state ``start`` to state ``end``."""
    for steps in range(64):
        if start == end:
            return steps
        start = (start * qstate._PCG_MULT + inc) & qstate._MASK128
    raise AssertionError("the draw consumed more than 63 words")


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
                    ("normal", "normal"),
                    ("_standard_normal", "standard_normal"),
                ):
                    stream = Stream(0, 0)
                    stream.state, stream.inc = start, inc
                    reference.bit_generator.state = {
                        "bit_generator": "PCG64",
                        "state": {"state": start, "inc": inc},
                        "has_uint32": 0,
                        "uinteger": 0,
                    }
                    x = getattr(stream, draw)()
                    assert repr(x) == repr(getattr(reference, numpy_draw)()), (idx, rabs, sign)
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
