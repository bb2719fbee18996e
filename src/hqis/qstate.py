"""Support-only state core: one contraction and one stream.

The protocol's runs hold each state as its support, ``(basis index,
amplitude)`` pairs plus the qubit count.  :func:`_contract_support` measures
it, once per outcome, only while a run's table of outcomes is built; a trial
then reads that table's stored probability sums (``protocol.run_pick``) with
draws of a :class:`Stream`, numpy's seeded generator reproduced in plain
Python, or of a run's ``_seeder``, which hashes the run's seed and purpose
once and seeds the same streams.  Qubit 0 sits at the most significant bit
of the index.  This module also owns the register cap, the tolerances and
the measurement bases' bras, and imports no numpy.
The dense :class:`StateVector` layer, the oracle the support runtime is
tested against, lives in :mod:`hqis.dense` with the gate matrices and the
basis vectors as arrays; the names that moved there from here are still
served, and load it the first time one of them is used.
"""

import functools
import math
import operator
import os
from collections import namedtuple
from enum import Enum

DEFAULT_MAX_QUBITS = 24
NORM_TOL = 1e-10
ZERO_BRANCH_TOL = 1e-14
_UNITARY_TOL = 1e-12

_SQRT2_INV = 1.0 / math.sqrt(2.0)


class ResourceLimitError(RuntimeError):
    """A configured size limit (register cap, branch limit) was exceeded."""


class RegisterCapError(ResourceLimitError):
    pass


def register_cap() -> int:
    """Current register-size cap; HQIS_MAX_QUBITS overrides the default of 24.

    Raises ValueError unless the override is a positive integer.
    """
    override = os.environ.get("HQIS_MAX_QUBITS")
    if not override:
        return DEFAULT_MAX_QUBITS
    try:
        cap = int(override)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"HQIS_MAX_QUBITS must be a positive integer, got {override!r}")
    return cap


class MeasBasis(Enum):
    COMPUTATIONAL = "computational"
    PLUS_MINUS = "plus_minus"


def _bra(ket) -> tuple[complex, ...]:
    return tuple(complex(c).conjugate() for c in ket)


# Basis eigenvector bras indexed by outcome bit: 0 -> <0| / <+|, 1 -> <1| / <-|.
_BASIS_BRAS = {
    MeasBasis.COMPUTATIONAL: (_bra((1, 0)), _bra((0, 1))),
    MeasBasis.PLUS_MINUS: (_bra((_SQRT2_INV, _SQRT2_INV)), _bra((_SQRT2_INV, -_SQRT2_INV))),
}


class BellOutcome(Enum):
    """The four Bell states of a qubit pair, (|00>±|11>)/√2 and (|01>±|10>)/√2."""

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"

    __hash__ = object.__hash__  # the members are singletons: hash by identity, in C

    @property
    def is_phi(self) -> bool:
        return self in (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS)

    @property
    def sign_bit(self) -> int:
        """0 for the + states, 1 for the - states."""
        return 0 if self in (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS) else 1

    @property
    def vector(self) -> "numpy.ndarray":
        from .dense import _BELL_VECTORS

        return _BELL_VECTORS[self]


# The Bell bras over a pair's four basis indices, as :func:`_contract_support` takes them.
_BELL_BRAS = {
    outcome: _bra(c * _SQRT2_INV for c in ket)
    for outcome, ket in zip(
        BellOutcome, ((1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, 1, -1, 0))
    )
}


class SecretState(namedtuple("SecretState", "alpha beta")):
    """Normalized single-qubit amplitude pair (alpha, beta), two complexes."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, alpha: complex, beta: complex):
        norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
        if not abs(norm_sq - 1.0) <= NORM_TOL:  # NaN fails this comparison too
            raise ValueError(f"secret is not normalized: |a|^2+|b|^2 = {norm_sq!r}")
        return super().__new__(cls, alpha, beta)

    def as_state(self):
        """The secret as a one-qubit dense :class:`hqis.dense.StateVector`."""
        from .dense import StateVector

        return StateVector(1, [self.alpha, self.beta])

    @classmethod
    def haar_random(cls, rng: "Stream | numpy.random.Generator") -> "SecretState":
        """Draw uniformly from the single-qubit pure-state distribution.

        Four normals from ``rng`` are Re(a), Re(b), Im(a), Im(b), scaled to
        unit norm by numpy's rule for ``vec / numpy.linalg.norm(vec)``: the
        norm's dot products round as fused multiply-adds, and dividing by a
        real multiplies by its reciprocal.  So a seed draws one secret, on any
        BLAS, with or without numpy.
        """
        re_a, re_b, im_a, im_b = map(float, rng.normal(size=4))
        scale = 1.0 / math.sqrt(_fma(re_b, re_b, re_a * re_a) + _fma(im_b, im_b, im_a * im_a))
        return cls(complex(re_a * scale, im_a * scale), complex(re_b * scale, im_b * scale))


def _fma(a: float, b: float, c: float) -> float:
    """``a * b + c`` rounded once, as C's ``fma``: Dekker's exact product,
    ``p + e`` with Veltkamp's split, summed exactly by ``math.fsum``.  Exact
    while ``a * b`` neither overflows nor falls below about 2**-900."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return math.fsum((p, e, c))


def _split(a: float) -> tuple[float, float]:
    """``a`` as ``hi + lo``, each with at most 26 significant bits."""
    t = 134217729.0 * a  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _contract_support(
    pairs, num_qubits: int, bra: tuple[complex, ...], axis: int
) -> tuple[float, list[tuple[int, complex]] | None]:
    """:func:`hqis.dense._contract` on a state held as its support.

    ``pairs`` are the ``(basis index, amplitude)`` entries of a
    ``num_qubits``-qubit state, and ``bra`` lists a bra's components over
    qubits ``axis`` (and ``axis + 1`` when it has four), in index order.
    The contracted qubits leave the register and the rest keep their order.
    Returns the probability and the renormalized remainder as pairs, one per
    basis index, or ``None`` in place of the remainder below
    ``ZERO_BRANCH_TOL``.
    Plain Python: a support has a handful of entries, so numpy's per-call
    cost would be the whole cost.
    """
    width = len(bra).bit_length() - 1
    low = num_qubits - axis - width
    low_mask = (1 << low) - 1
    coeffs = {}
    for index, amp in pairs:
        weight = bra[(index >> low) & (len(bra) - 1)]
        if weight:
            key = (index >> (low + width)) << low | (index & low_mask)
            coeffs[key] = coeffs.get(key, 0) + weight * amp
    # Added in order with +: from Python 3.12, sum() of floats is compensated
    # and would round differently.
    prob = 0.0
    for c in coeffs.values():
        prob += c.real * c.real + c.imag * c.imag
    if prob < ZERO_BRANCH_TOL:
        return prob, None
    norm = math.sqrt(prob)
    return prob, [(key, c / norm) for key, c in coeffs.items()]


# numpy's SeedSequence hash (O'Neill's seed_seq_fe) over a pool of four
# uint32 words, its PCG64 (XSL-RR 128/64) and its ziggurat's tail.
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_ZIGGURAT_R = 3.6541528853610088
_ZIGGURAT_INV_R = 0.27366123732975828
# numpy's int64 trial count: the most trials its multinomial takes.
MAX_TRIALS = 2**63 - 1


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's uint32 words of a nonnegative int, least significant
    first.  A negative int raises ValueError, as in numpy: its shifts never
    reach 0.  A numpy int is taken as the Python int it equals, and a float
    raises TypeError."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hashmix(value: int, xor: int, mult: int) -> int:
    """SeedSequence's ``hashmix``, given its constants from ``_hash_pairs``."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    mixed = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return mixed ^ mixed >> 16


def _hash_pairs(const: int, count: int, mult: int = _MULT_A) -> tuple[tuple[int, int], ...]:
    """The (xor, multiplier) constants of ``count`` SeedSequence hashes in a
    row from hash constant ``const``.  Each hash steps the constant by
    ``mult`` whatever it hashes, so the streams of a run share one chain."""
    pairs = []
    for _ in range(count):
        xor, const = const, const * mult & _MASK32
        pairs.append((xor, const))
    return tuple(pairs)


def _mix_in(pool, const: int, words) -> tuple[list[int], int]:
    """The pool and hash constant after SeedSequence mixes entropy ``words``,
    those past the pool's size, into every pool word."""
    pool = list(pool)
    pairs = _hash_pairs(const, _POOL_SIZE * len(words))
    for step, pair in enumerate(pairs):
        dst = step % _POOL_SIZE
        pool[dst] = _mix(pool[dst], _hashmix(words[step // _POOL_SIZE], *pair))
    return pool, pairs[-1][1] if pairs else const


# generate_state's hash constants: its chain starts afresh at _INIT_B.
_GENERATE_PAIRS = _hash_pairs(_INIT_B, 2 * _POOL_SIZE, _MULT_B)


@functools.lru_cache(maxsize=64)
def _seeder(seed: int, purpose: int):
    """``seed_path(*path)``: PCG64's ``(state, inc)`` as
    ``SeedSequence(entropy=seed, spawn_key=(purpose, *path))`` seeds it, the
    one copy of the spawn rule; cached, as every trial's ``Stream`` reads it.
    Here numpy's ``mix_entropy`` mixes the seed's words, padded to the pool's
    size as a spawn key follows, then ``purpose``, into the run's pool, and a
    one-word path's hash constants are fixed; so a path hashes only its own
    words, then the pool's ``generate_state(4, uint64)``: (state seed,
    sequence) as 128-bit words."""
    words = _uint32_words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    # A hash per pool word, then one per ordered pair of pool words.
    pairs = _hash_pairs(_INIT_A, _POOL_SIZE * _POOL_SIZE)
    pool = [_hashmix(word, *pair) for word, pair in zip(words[:_POOL_SIZE], pairs)]
    cross = iter(pairs[_POOL_SIZE:])
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(cross)))
    pool, const = _mix_in(pool, pairs[-1][1], words[_POOL_SIZE:] + _uint32_words(purpose))
    mask, right = _MASK32, _MIX_MULT_R
    left0, left1, left2, left3 = (_MIX_MULT_L * word for word in pool)
    (y0, n0), (y1, n1), (y2, n2), (y3, n3) = _hash_pairs(const, _POOL_SIZE)
    (x0, m0), (x1, m1), (x2, m2), (x3, m3), (x4, m4), (x5, m5), (x6, m6), (x7, m7) = _GENERATE_PAIRS

    def seed_path(*path: int) -> tuple[int, int]:
        # _mix_in, _hashmix and _mix inlined for a one-word path, which every
        # trial below 2**32 has: this runs once per sampled trial.
        if len(path) == 1 and 0 <= (k := operator.index(path[0])) <= mask:
            a = (v := (left0 - right * ((h := (k ^ y0) * n0 & mask) ^ h >> 16)) & mask) ^ v >> 16
            b = (v := (left1 - right * ((h := (k ^ y1) * n1 & mask) ^ h >> 16)) & mask) ^ v >> 16
            c = (v := (left2 - right * ((h := (k ^ y2) * n2 & mask) ^ h >> 16)) & mask) ^ v >> 16
            d = (v := (left3 - right * ((h := (k ^ y3) * n3 & mask) ^ h >> 16)) & mask) ^ v >> 16
        else:
            (a, b, c, d), _ = _mix_in(pool, const, [w for k in path for w in _uint32_words(k)])
        w0 = (v := (a ^ x0) * m0 & mask) ^ v >> 16
        w1 = (v := (b ^ x1) * m1 & mask) ^ v >> 16
        w2 = (v := (c ^ x2) * m2 & mask) ^ v >> 16
        w3 = (v := (d ^ x3) * m3 & mask) ^ v >> 16
        w4 = (v := (a ^ x4) * m4 & mask) ^ v >> 16
        w5 = (v := (b ^ x5) * m5 & mask) ^ v >> 16
        w6 = (v := (c ^ x6) * m6 & mask) ^ v >> 16
        w7 = (v := (d ^ x7) * m7 & mask) ^ v >> 16
        # Little-endian pairs of uint32 make the uint64s, high uint64 first in each word.
        inc = (w5 << 97 | w4 << 65 | w7 << 33 | w6 << 1 | 1) & _MASK128
        return ((inc + (w1 << 96 | w0 << 64 | w3 << 32 | w2)) * _PCG_MULT + inc) & _MASK128, inc

    return seed_path


def _uniforms(state: int, inc: int, size: int) -> tuple[list[float], int]:
    """``size`` uniform doubles in [0, 1) from PCG64 at ``(state, inc)``, each
    the top 53 bits of a word, scaled, and the state after them."""
    # A word masked to its top 53 bits, times 2**-64, is (word >> 11) * 2**-53.
    mult, mask64, mask128 = _PCG_MULT, _MASK64, _MASK128
    top53 = mask64 ^ 0x7FF
    draws = []
    append = draws.append
    for _ in range(size):
        state = (state * mult + inc) & mask128
        word, rot = (state >> 64 ^ state) & mask64, state >> 122
        append(((word >> rot | word << 64 - rot) & top53) * 2**-64)
    return draws, state


@functools.cache
def _ziggurat() -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]:
    """numpy's ziggurat tables for ``standard_normal``, ``ki``, ``wi`` and
    ``fi``, cached: the package's data file is read once, on the first draw."""
    with open(os.path.join(os.path.dirname(__file__), "ziggurat.txt")) as handle:
        rows = [line.split() for line in handle if not line.startswith("#")]
    ki, wi, fi = zip(*rows)
    return tuple(map(int, ki)), tuple(map(float, wi)), tuple(map(float, fi))


class Stream:
    """The draws of numpy's PCG64 Generator seeded by
    ``SeedSequence(entropy=seed, spawn_key=(purpose, *path))``, bit for bit,
    in plain Python.

    Serves the part of ``numpy.random.Generator`` the package draws with:
    :meth:`random`, :meth:`normal` and :meth:`multinomial`.  A run hashes its
    seed and purpose once; each stream of the run mixes in only its own path.
    """

    __slots__ = ("state", "inc")

    def __init__(self, seed: int, purpose: int, *path: int):
        # As ints before the cache, which would take 1.0 for the key 1.
        self.state, self.inc = _seeder(operator.index(seed), operator.index(purpose))(*path)

    def _next64(self) -> int:
        self.state = state = (self.state * _PCG_MULT + self.inc) & _MASK128
        word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def random(self, size: int | None = None) -> "float | list[float]":
        """A uniform double in [0, 1), or a list of ``size`` of them: the top
        53 bits of a word, scaled."""
        if size is None:
            return (self._next64() >> 11) * 2**-53
        draws, self.state = _uniforms(self.state, self.inc, size)
        return draws

    def normal(self, size: int) -> list[float]:
        """A list of ``size`` standard normals, as ``Generator.normal(0.0,
        1.0, size)``: ``0.0 + 1.0 * x``, which turns a -0.0 into 0.0 as
        numpy's ``loc + scale * x`` does."""
        return [0.0 + 1.0 * self._standard_normal() for _ in range(size)]

    def _standard_normal(self) -> float:
        """numpy's ``random_standard_normal``: Marsaglia and Tsang's ziggurat."""
        ki, wi, fi = _ziggurat()
        while True:
            r = self._next64()
            idx = r & 0xFF
            r >>= 8
            rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
            x = rabs * wi[idx]
            if r & 1:
                x = -x
            if rabs < ki[idx]:
                return x
            if idx == 0:
                # The tail beyond r; log1p(-U) is log(1 - U), never log(0).
                while True:
                    xx = -_ZIGGURAT_INV_R * math.log1p(-self.random())
                    yy = -math.log1p(-self.random())
                    if yy + yy > xx * xx:
                        return -(_ZIGGURAT_R + xx) if (rabs >> 8) & 1 else _ZIGGURAT_R + xx
            elif (fi[idx - 1] - fi[idx]) * self.random() + fi[idx] < math.exp(-0.5 * x * x):
                return x

    def multinomial(self, n: int, pvals) -> list[int]:
        """The counts of ``n`` trials over the categories ``pvals``, as
        ``Generator.multinomial(n, pvals).tolist()``, drawn from this stream
        by :func:`hqis.binomial.multinomial`, which is loaded on first use."""
        from .binomial import multinomial

        return multinomial(self.random, n, pvals)


def _from_dense(module: str, names: set[str]):
    """A PEP 562 ``__getattr__`` for ``module`` that serves ``names``, the
    names that moved from it to :mod:`hqis.dense`, importing that module the
    first time one of them is used."""

    def __getattr__(name: str):
        if name in names:
            from . import dense

            return getattr(dense, name)
        raise AttributeError(f"module {module!r} has no attribute {name!r}")

    return __getattr__


__getattr__ = _from_dense(__name__, {
    "StateVector", "_check_cap", "_check_qubit", "_check_unitary", "_contract", "basis_state",
    "apply_gate", "tensor", "permute_qubits", "project", "bell_project", "reduced_density",
    "I", "X", "Y", "IY", "Z", "H", "_BASIS_VECTORS", "_BELL_VECTORS",
})
