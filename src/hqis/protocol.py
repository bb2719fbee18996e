"""The splitting protocol itself: Bell measurement, parity collaboration,
correction lookup, and recovery verification.

A run always follows the same shape.  Alice attaches the secret qubit S to
the channel, Bell-measures (S, A), and broadcasts the outcome.  The helpers
then measure according to the designee's grade:

* Bob designee: every other Bob measures in |+>/|->, one chosen Charlie
  (charlie*) measures in |0>/|1>, and the designee applies a Pauli picked
  by the Bell outcome and the parity of all reported bits.
* Charlie designee: all Bobs and all other Charlies measure in |+>/|->,
  and the designee applies a Hadamard followed by a Pauli, picked by the
  Bell outcome and the two per-grade parities.

Both kinds of run read one table of scored leaves, built once per run
(``_leaf_table``): four leaves per Bell outcome, under one key rule.  Its
``walk`` yields every outcome string in ``itertools.product`` order, in blocks
that share a prefix, and ``run_pick`` the one a trial's draws pick, a draw per
step, Alice's first; ``run_block`` picks a block of trials a column of draws
at a time, under the same key rule (``_pick``).  The CLI reads them directly;
the library's ``iter_branches`` and ``run_recovery`` wrap them in
``TrialResult``s, in :mod:`hqis.dense`.

The walk is keyed by class, not by qubit.  After the Bell measurement every
Bob's bit equals one bit a and every Charlie's one bit c, so the state is at
most 4 amplitudes keyed by (a, c) at any m and n; the four Bell children
depend on the secret alone and are computed once per secret.  A |+>/|->
measurement of a helper whose class keeps another member is then exactly
50/50, and its only effect is Z on that class bit (the Pauli-measurement rule
for stabilizer states): a sampled outcome is ``draw >= 0.5``, and the state is
not touched.  One helper, at position m - 1 of the plan (``_plan``: three runs
of indices), is a real contraction of at most 4 entries with
``qstate._contract_support``: charlie*'s |0>/|1> under a Bob designee, the
last Bob's |+>/|-> under a Charlie designee.  It leaves one qubit, the
designee's class, which a leaf contracts with the recovery bra.  Every other
helper's bit only flips a leaf's key, label << 1 | sign.  After the contracted
helper it flips the sign, a Z on the designee's qubit that the recovery bra
takes; before it, the table's ``before``: the sign under a Bob designee, the
label under a Charlie designee, whose contraction is on a, where <+|Z = <-|.
So the Bell outcome and the key fix a branch's probability, correction and
fidelity: at most 4·2² leaves, built when the run starts, with one contraction
per label and per leaf and none per trial or branch, at any m and n.  No path
of this module builds a dense register or reads a support at full size; the
:mod:`hqis.dense` operations, and the qubit-by-qubit support walk kept in the
tests, are the oracles the tests compare with.  ``agent_marginal``, which
reads the same Bell children, and the ``TrialResult`` view live in
:mod:`hqis.dense`, and this module serves them from there.
"""

import bisect
import functools
import itertools
import operator
from collections import namedtuple
from enum import Enum

from . import qstate
from .channel import _CLASSES, PartySizes, SecretState, _channel_support
from .qstate import BellOutcome, MeasBasis, ResourceLimitError, _from_dense

__getattr__ = _from_dense(__name__, {"agent_marginal", "TrialResult", "_HelperBits",
                                     "run_recovery", "iter_branches", "enumerate_branches"})

DEFAULT_BRANCH_LIMIT = 2**20

_SECRET_QUBIT = 0
_BELL_OUTCOMES = tuple(BellOutcome)


class BranchLimitError(ResourceLimitError):
    pass


class Role(namedtuple("Role", "grade index")):
    """A protocol participant: alice, bob:i, or charlie:j (1-based indices)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, grade: str, index: int = 0):
        index = operator.index(index)  # TypeError on a float
        if grade not in ("alice", "bob", "charlie"):
            raise ValueError(f"unknown grade {grade!r}")
        if grade == "alice":
            if index != 0:
                raise ValueError("alice takes no index")
        elif index < 1:
            raise ValueError(f"{grade} index must be >= 1, got {index}")
        return super().__new__(cls, grade, index)

    @classmethod
    def alice(cls) -> "Role":
        return cls("alice")

    @classmethod
    def bob(cls, i: int) -> "Role":
        return cls("bob", i)

    @classmethod
    def charlie(cls, j: int) -> "Role":
        return cls("charlie", j)

    @property
    def label(self) -> str:
        return self.grade if self.grade == "alice" else _label(self.grade, self.index)


_label = "{}:{}".format  # grade:index: Role.label, and the CLI's label for each helper in a plan


class Designee(namedtuple("Designee", "role charlie_star")):
    """The agent who ends up holding the secret, plus the assisting charlie*
    when that agent is a Bob."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, role: Role, charlie_star: int | None = None):
        if role.grade == "bob":
            if charlie_star is None:
                raise ValueError("a Bob designee needs a charlie-star index")
            charlie_star = operator.index(charlie_star)
        elif role.grade == "charlie":
            if charlie_star is not None:
                raise ValueError("charlie-star only applies to Bob designees")
        else:
            raise ValueError("the designee must be a Bob or a Charlie")
        return super().__new__(cls, role, charlie_star)

    @classmethod
    def bob(cls, i: int, charlie_star: int) -> "Designee":
        return cls(Role.bob(i), charlie_star)

    @classmethod
    def charlie(cls, j: int) -> "Designee":
        return cls(Role.charlie(j))


class CorrectionOp(Enum):
    """Local fix-up the designee applies; composite forms apply H first."""

    I = "I"
    X = "X"
    IY = "iY"
    Z = "Z"
    H = "H"
    XH = "XH"
    IYH = "iYH"
    ZH = "ZH"

    __hash__ = object.__hash__  # the members are singletons: hash by identity, in C

    @property
    def matrix(self) -> "numpy.ndarray":
        import numpy as np

        return np.array(_CORRECTION_ROWS[self], dtype=complex)


def _times_h(rows):
    """The rows of ``rows`` times H."""
    h = qstate._SQRT2_INV
    return tuple((h * (r0 + r1), h * (r0 - r1)) for r0, r1 in rows)


def _correction(h: int, x: int, z: int) -> CorrectionOp:
    """The CorrectionOp X^x Z^z, after a Hadamard when h is set.

    XZ is the member iY, which equals it up to a global phase.
    """
    pauli = {(0, 0): "", (1, 0): "X", (0, 1): "Z", (1, 1): "iY"}[x, z]
    return CorrectionOp(pauli + "H" * h or "I")


# Each op's 2x2 matrix as rows; iY is i*sigma_y written as a real matrix,
# the factor i only shifting global phase, which no fidelity can see.
_PAULI_ROWS = {
    CorrectionOp.I: ((1, 0), (0, 1)),
    CorrectionOp.X: ((0, 1), (1, 0)),
    CorrectionOp.IY: ((0, 1), (-1, 0)),
    CorrectionOp.Z: ((1, 0), (0, -1)),
}
_CORRECTION_ROWS = _PAULI_ROWS | {
    _correction(1, x, z): _times_h(_PAULI_ROWS[_correction(0, x, z)])
    for x, z in itertools.product((0, 1), repeat=2)
}


# Bob designee lookup: (Bell outcome, v_sum) -> X^psi Z^(sign xor v_sum),
# with psi set for the psi states and sign for the minus states.
BOB_CORRECTIONS = {
    (bell, v_sum): _correction(0, int(not bell.is_phi), bell.sign_bit ^ v_sum)
    for bell in BellOutcome
    for v_sum in (0, 1)
}

# Charlie designee lookup: (Bell outcome, v_g1, v_g2) ->
# X^(psi xor v_g2) Z^(sign xor v_g1) H.
CHARLIE_CORRECTIONS = {
    (bell, v_g1, v_g2): _correction(1, int(not bell.is_phi) ^ v_g2, bell.sign_bit ^ v_g1)
    for bell in BellOutcome
    for v_g1 in (0, 1)
    for v_g2 in (0, 1)
}


def parity(bits) -> int:
    """XOR of an int collection, the modulo-2 sum of bits; empty gives 0."""
    return functools.reduce(operator.xor, bits, 0)


def _check_role(sizes: PartySizes, role: Role) -> None:
    """Raise ValueError unless ``role`` is an agent that exists at ``sizes``."""
    if role.grade == "alice":
        raise ValueError("alice holds no agent qubit")
    limit = sizes.m if role.grade == "bob" else sizes.n
    if role.index > limit:
        raise ValueError(f"{role.label} out of range 1..{limit}")


def check_designee(sizes: PartySizes, designee: Designee) -> None:
    """Raise ValueError unless the designee, and the charlie-star assisting a
    Bob designee, exist at ``sizes``."""
    _check_role(sizes, designee.role)
    star = designee.charlie_star
    if star is not None and not 1 <= star <= sizes.n:
        raise ValueError(f"charlie-star {star} out of range 1..{sizes.n}")


def _plan(sizes: PartySizes, designee: Designee) -> tuple[tuple[str, range], ...]:
    """The helpers in plan order, as three ``(grade, indices)`` runs: the
    other Bobs, then charlie*, under a Bob designee; every Bob, then the
    other Charlies, under a Charlie designee.  Raises ValueError unless the
    designee exists at ``sizes``.

    The contracted helper sits at plan position m - 1, after the other Bobs:
    charlie*'s |0>/|1> on c under a Bob designee (its outcome leaves the idle
    Charlies in a product state no later step reads), or the last Bob's
    |+>/|-> on a under a Charlie designee, before the other Charlies.  Every
    other helper measures |+>/|-> on a class that keeps another member: 1/2
    exactly, its outcome a Z on that class bit.
    """
    check_designee(sizes, designee)
    (grade, index), star = designee
    bobs, charlies = range(1, sizes.m + 1), range(1, sizes.n + 1)
    if grade == "bob":
        return ("bob", bobs[: index - 1]), ("bob", bobs[index:]), ("charlie", range(star, star + 1))
    return ("bob", bobs), ("charlie", charlies[: index - 1]), ("charlie", charlies[index:])


def _possible(prob: float, post: list | None) -> tuple[float, tuple]:
    """``(prob, post)``, ``post`` as a tuple.  A Bell outcome has probability
    1/4 and a contracted label 1/2 at any secret: ``post`` None is a fault."""
    if post is None:
        raise ArithmeticError(f"an outcome of probability {prob!r} on the class register")
    return prob, tuple(post)


@functools.lru_cache(maxsize=64)
def _bell_children(secret: SecretState) -> tuple[tuple[float, tuple], ...]:
    """Alice's Bell measurement of (S, A) on the class register: the
    probability and post-Bell support of each outcome, in ``BellOutcome``
    order.  An entry's index is a << 1 | c.

    Depends on the secret alone, so it is cached: ``agent_marginal`` and
    every table of one secret, at any size, read it again.  The entries and
    their summation order are those of the same contraction on the whole
    (2+m+n)-qubit support, so the numbers are too.
    """
    # The secret qubit S joined to the class register: (S, A, a, c).
    whole = tuple(
        (s_bit << _CLASSES.channel_qubits | index, complex(s_amp) * amp)
        for s_bit, s_amp in enumerate((secret.alpha, secret.beta))
        for index, amp in _channel_support(_CLASSES)
    )
    return tuple(
        _possible(*qstate._contract_support(whole, 4, qstate._BELL_BRAS[outcome], _SECRET_QUBIT))
        for outcome in BellOutcome
    )


def _recovery_bra(secret: SecretState, op: CorrectionOp) -> tuple[complex, complex]:
    """<xi|G as a bra over the designee's qubit: G corrects, <xi| scores."""
    (g00, g01), (g10, g11) = _CORRECTION_ROWS[op]
    a, b = secret.alpha.conjugate(), secret.beta.conjugate()
    return a * g00 + b * g10, a * g01 + b * g11


class _LeafTable:
    """One run's scored leaves, built whole when the run starts.

    ``runs`` is the run's plan (``_plan``) and ``helpers`` its length.  Per
    Bell outcome, in ``BellOutcome`` order: ``passed``, the contracted step's
    thresholds ``q.__le__`` for label 0 and 1, and ``leaves``, its four leaves
    ``(bell, v_g1, aux, op, branch_probability, fidelity)`` by key,
    label << 1 | sign.  No outcome is impossible (``_possible``).  The parity
    of the helpers before the contracted one flips ``before`` in the key, 1
    (the sign) under a Bob designee and 2 (the label) under a Charlie
    designee; the parity of those after it flips the sign.  v_g1, the Bobs'
    parity, is the key bit ``before`` flips, and aux, charlie*'s bit or the
    other Charlies' parity, the other.  A leaf scores the designee's qubit
    against <xi|G Z^sign, G being the table correction.
    """

    def __init__(self, sizes: PartySizes, designee: Designee, secret: SecretState):
        self.runs = _plan(sizes, designee)
        self.helpers = sum(len(indices) for _, indices in self.runs)
        self.contracted = sizes.m - 1  # the contracted helper's plan position
        axis = int(designee.role.grade == "bob")  # charlie* on c, or the last Bob on a
        self.before = 2 >> axis
        bras = qstate._BASIS_BRAS[MeasBasis.COMPUTATIONAL if axis else MeasBasis.PLUS_MINUS]
        bells = _bell_children(secret)
        labels = [
            [_possible(*qstate._contract_support(post, 2, bra, axis)) for bra in bras]
            for _, post in bells
        ]
        # ``run_pick``'s sums, in outcome order: the Bell step's but the last, and per
        # Bell outcome ``q <= draw`` for the contracted step's label 0, or 1 when relabelled.
        self.bell_sums = tuple(itertools.accumulate(p for p, _ in bells))[:-1]
        self.passed = tuple((q0.__le__, q1.__le__) for (q0, _), (q1, _) in labels)
        head, after = 0.5**self.contracted, 0.5 ** (self.helpers - 1 - self.contracted)
        self.leaves = tuple(
            tuple(
                self._score(secret, bell, key, post, p_bell * head * q * after)
                for key, (q, post) in enumerate(label for label in pair for _sign in (0, 1))
            )
            for bell, (p_bell, _), pair in zip(_BELL_OUTCOMES, bells, labels)
        )

    def _score(self, secret: SecretState, bell: BellOutcome, key: int, pairs, prob: float):
        """The leaf of ``key`` on the designee's qubit ``pairs``."""
        v_g1, aux = key // self.before & 1, key // (3 ^ self.before) & 1
        if self.before == 1:
            op = BOB_CORRECTIONS[bell, v_g1 ^ aux]
        else:
            op = CHARLIE_CORRECTIONS[bell, v_g1, aux]
        g0, g1 = _recovery_bra(secret, op)
        fidelity, _ = qstate._contract_support(pairs, 1, (g0, -g1) if key & 1 else (g0, g1), 0)
        return bell, v_g1, aux, op, prob, min(fidelity, 1.0)

    def walk(self, width: int):
        """Every branch, outcome 0 first at every step, so in
        ``itertools.product`` order, in blocks ``(leaves, prefix)`` of
        ``2**width``: one Bell outcome and one ``prefix`` of the leading plan
        positions, block branch i having the bits ``prefix`` then i's
        ``width`` bits, and the leaf ``leaves[i]``.  A branch's key is the
        XOR of what each of its set bits flips, so a prefix's key XORs each
        suffix's: ``leaves`` is one of four tuples per Bell outcome."""
        at, cut = self.contracted, self.helpers - width
        flips = [self.before] * at + [2] + [1] * (self.helpers - 1 - at)
        keys = [
            parity(itertools.compress(flips[cut:], bits))
            for bits in itertools.product((0, 1), repeat=width)
        ]
        for leaves in self.leaves:
            blocks = [tuple(map(leaves.__getitem__, map(x.__xor__, keys))) for x in range(4)]
            for prefix in itertools.product((0, 1), repeat=cut):
                key = parity(itertools.compress(flips, prefix))
                yield blocks[key], bytes(prefix)


# The run's leaf table, cached: library ``run_recovery`` reads it every trial.
_leaf_table = functools.lru_cache(maxsize=64)(_LeafTable)


def _pick(table, bell_draws, draws, before, after):
    """The key rule, for a column of trials: their leaves, lazily, and their
    contracted outcomes, a byte each.  A trial's Bell step draws from
    ``bell_draws`` and its contracted step from ``draws``, and each takes the
    first outcome whose sum passes the draw, else the last.  The parities of
    the helpers before and after the contracted one are the bytes, a trial a
    byte, of the ints ``before`` and ``after``.  Each ``float.__le__`` gives
    a bool for a list's floats and np.float64s alike."""
    key = before * table.before ^ after
    bells = bytes(map(functools.partial(bisect.bisect_right, table.bell_sums), bell_draws))
    labels = map((2).__le__, key.to_bytes(len(draws)))
    passed = map(operator.getitem, map(table.passed.__getitem__, bells), labels)
    outcomes = bytes(map(operator.call, passed, draws))
    slots = (int.from_bytes(outcomes) << 1 ^ key).to_bytes(len(draws))
    return map(operator.getitem, map(table.leaves.__getitem__, bells), slots), outcomes


def run_pick(table: _LeafTable, draws) -> tuple[tuple, bytes]:
    """One sampled trial, ``table.walk``'s twin and the CLI's one call per
    trial drawn alone: the ``(leaf, bits)`` that ``draws``, one per step in
    plan order, pick.  A helper other than the contracted one reads
    ``draw >= 0.5``; the rest is ``_pick``'s, for a column of one trial."""
    heads = bytes(map((0.5).__le__, draws))
    at = 1 + table.contracted
    before, after = heads.count(1, 1, at) & 1, heads.count(1, at + 1) & 1
    (leaf,), outcome = _pick(table, draws[:1], draws[at : at + 1], before, after)
    return leaf, heads[1:at] + outcome + heads[at + 1 :]


def run_block(table, *columns):
    """A packed block of sampled trials: ``_pick``'s leaves and contracted
    outcomes for the columns of ``lanes.lane_draws``, and the CLI's one call
    per block.  It is public, apart from ``_pick``, so that span tracing sees
    one ``protocol.run_*`` call per block, and ``run_pick`` one per trial
    drawn alone."""
    return _pick(table, *columns)


def _check_branch_limit(sizes: PartySizes, designee: Designee, branch_limit: int) -> None:
    """Raise ValueError unless the designee exists at ``sizes``, and
    BranchLimitError if 4 * 2**helpers branches exceed ``branch_limit``, an
    int, building neither: 2**k > limit exactly when k >= limit.bit_length()."""
    exponent = 2 + sum(len(indices) for _, indices in _plan(sizes, designee))
    if exponent >= operator.index(branch_limit).bit_length():
        raise BranchLimitError(f"2**{exponent} branches exceed the limit of {branch_limit}")
