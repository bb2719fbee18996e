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
(``_leaf_table``): its ``walk`` yields every outcome string in
``itertools.product`` order, in blocks that share a prefix, and ``run_pick``
the one a trial's draws pick, a draw per step, Alice's first.  ``iter_branches``
and ``run_recovery``, which draws with one ``rng.random(1 + helpers)`` call,
wrap them in ``TrialResult``s; the CLI reads them directly.

The walk is keyed by class, not by qubit.  After the Bell measurement every
Bob's bit equals one bit a and every Charlie's one bit c, so the state is at
most 4 amplitudes keyed by (a, c) at any m and n; the four Bell children
depend on the secret alone and are computed once per secret.  A |+>/|->
measurement of a helper whose class keeps another member is then exactly
50/50, and its only effect is Z on that class bit (the Pauli-measurement rule
for stabilizer states): a sampled outcome is ``draw >= 0.5``, and the state
is not touched.  One helper, at plan position m - 1, is a real contraction of
at most 4 entries with ``qstate._contract_support`` (``_walk_steps``):
charlie*'s |0>/|1> under a Bob designee, the last Bob's |+>/|-> under a
Charlie designee.  It leaves one qubit, the designee's class, which a leaf
contracts with the recovery bra.  The other helpers' parity either relabels
the contracted outcome, since <+|Z = <-|, or is a sign on the designee's
qubit, which the recovery bra takes.  So the Bell outcome, the contracted
label and one sign fix a branch's probability, correction and fidelity: at
most 4·2² leaves, built when the run starts, with one contraction per label
and per leaf and none per trial or branch, at any m and n.
``agent_marginal`` reads the same Bell children, so no path of this module
builds a dense register or reads a support at full size; the :mod:`hqis.dense`
operations, and the qubit-by-qubit support walk kept in the tests, are the
oracles the tests compare with.
"""

import bisect
import functools
import itertools
import operator
from collections import namedtuple
from collections.abc import Mapping
from enum import Enum

from . import qstate
from .channel import _CLASSES, PartySizes, SecretState, _channel_support
from .qstate import BellOutcome, MeasBasis, ResourceLimitError

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
        return self.grade if self.grade == "alice" else f"{self.grade}:{self.index}"


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


class _HelperBits(Mapping):
    """The helpers' reported bits, Role -> bit, in plan order: a read-only
    view of one branch's outcomes, a byte per helper, through the plan's
    role index, which all the branches share, so a trial builds nothing per
    helper.  ``values()`` and ``items()`` are plan-order tuples."""

    __slots__ = ("_index", "_bits")

    def __init__(self, index: dict, bits: bytes):
        self._index = index
        self._bits = bits

    def __getitem__(self, role):
        return self._bits[self._index[role]]

    def __iter__(self):
        return iter(self._index)

    def __len__(self):
        return len(self._bits)

    def values(self):
        return tuple(self._bits)

    def items(self):
        return tuple(zip(self._index, self._bits))

    def __repr__(self):
        return repr(dict(self.items()))


class TrialResult(namedtuple("TrialResult", "bell classical_bits v_g1 v_g2_or_charlie_star"
                             " correction branch_probability fidelity")):
    """Outcome record of one protocol execution branch: a BellOutcome, the
    helpers' bits (a Mapping, Role -> bit), two bits, a CorrectionOp, two floats."""

    __slots__ = ()


def parity(bits) -> int:
    """Modulo-2 sum of a bit collection; empty input gives 0."""
    total = 0
    for b in bits:
        total ^= b
    return total


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


def _helper_count(sizes: PartySizes, designee: Designee) -> int:
    """How many helpers ``_walk_steps`` plans: the Bobs but a Bob designee,
    and charlie*; or every agent but a Charlie designee."""
    return sizes.m if designee.role.grade == "bob" else sizes.m + sizes.n - 1


def _walk_steps(sizes: PartySizes, designee: Designee) -> tuple[int, dict[Role, int]]:
    """The axis of the one contracted step on the class register (a, c),
    plus each helper's position in the plan.  Raises ValueError unless the
    designee exists at ``sizes``.

    The contracted helper sits at plan position m - 1, after the other Bobs:
    charlie*'s |0>/|1> on c, axis 1, under a Bob designee (its outcome leaves
    the idle Charlies in a product state no later step reads), or the last
    Bob's |+>/|-> on a, axis 0, under a Charlie designee, before the other
    Charlies.  Every other helper measures |+>/|-> on a class that keeps
    another member: 1/2 exactly, its outcome a Z on that class bit.
    """
    check_designee(sizes, designee)
    plan = [role for role in map(Role.bob, range(1, sizes.m + 1)) if role != designee.role]
    if designee.charlie_star is not None:
        plan.append(Role.charlie(designee.charlie_star))
    else:
        plan += [role for role in map(Role.charlie, range(1, sizes.n + 1)) if role != designee.role]
    index = {role: position for position, role in enumerate(plan)}
    return int(designee.charlie_star is not None), index


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

    ``root`` holds ``(prob, children)`` per Bell outcome, ``children`` the
    contracted step's two ``(prob, leaves)`` pairs in label order, ``leaves``
    the scored leaves ``(bell, v_g1, aux, op, branch_probability, fidelity)``
    for sign 0 and 1.  No outcome is impossible (``_possible``).  The helpers
    before the contracted one have parity p, the ones after it parity r.
    Under a Bob designee the label is charlie*'s bit, and p, a Z on a, is the
    sign.  Under a Charlie designee the contraction is on a, where <+|Z =
    <-|, so p turns the last Bob's bit b into the label b ^ p, and r, a Z on
    c, is the sign.  A leaf scores the designee's qubit, the one left,
    against <xi|G Z^sign, G being the table correction.  So there are at most
    4·2² leaves, one contraction each and one per label when the run starts;
    a trial (``run_pick``) or a branch (``walk``) only reads the table.
    """

    def __init__(self, sizes: PartySizes, designee: Designee, secret: SecretState):
        self.axis, self.index = _walk_steps(sizes, designee)
        self.secret = secret
        self.contracted = sizes.m - 1  # the contracted helper's plan position
        self.root = tuple(
            (p, self._children(bell, p, post))
            for bell, (p, post) in zip(_BELL_OUTCOMES, _bell_children(secret))
        )
        # ``run_pick``'s sums, in outcome order: the Bell step's but the last, and per
        # Bell outcome ``q <= draw`` for the contracted step's label 0, or 1 when relabelled.
        self.bell_sums = tuple(itertools.accumulate(p for p, _ in self.root))[:-1]
        self.passed = tuple((q0.__le__, q1.__le__) for _, ((q0, _), (q1, _)) in self.root)

    def _children(self, bell: BellOutcome, p_bell: float, pairs):
        """The contracted step's ``(prob, leaves)`` pairs on the Bell child
        ``pairs`` of probability ``p_bell``; every other step is 1/2 exactly."""
        bras = qstate._BASIS_BRAS[MeasBasis.COMPUTATIONAL if self.axis else MeasBasis.PLUS_MINUS]
        before = p_bell * 0.5**self.contracted
        after = 0.5 ** (len(self.index) - 1 - self.contracted)
        children = (_possible(*qstate._contract_support(pairs, 2, bra, self.axis)) for bra in bras)
        return tuple(
            (q, tuple(self._score(bell, label, sign, post, before * q * after) for sign in (0, 1)))
            for label, (q, post) in enumerate(children)
        )

    def _score(self, bell: BellOutcome, label: int, sign: int, pairs, prob: float):
        """The leaf of ``label`` and ``sign`` on the designee's qubit ``pairs``:
        aux is charlie*'s bit and v_g1 the other Bobs' parity under a Bob
        designee, v_g1 every Bob's parity and aux the other Charlies' under a
        Charlie designee."""
        if self.axis:
            v_g1, aux = sign, label
            op = BOB_CORRECTIONS[bell, v_g1 ^ aux]
        else:
            v_g1, aux = label, sign
            op = CHARLIE_CORRECTIONS[bell, v_g1, aux]
        g0, g1 = _recovery_bra(self.secret, op)
        fidelity, _ = qstate._contract_support(pairs, 1, (g0, -g1) if sign else (g0, g1), 0)
        return bell, v_g1, aux, op, prob, min(fidelity, 1.0)

    def result(self, leaf: tuple, bits: bytes) -> TrialResult:
        bell, v_g1, aux, op, prob, fidelity = leaf
        return TrialResult(bell, _HelperBits(self.index, bits), v_g1, aux, op, prob, fidelity)

    def walk(self, width: int):
        """Every branch, outcome 0 first at every step, so in
        ``itertools.product`` order, in blocks ``(leaves, prefix)`` of
        ``2**width``: one Bell outcome and one ``prefix`` of the leading plan
        positions, block branch i having the bits ``prefix`` then i's
        ``width`` bits, and the leaf ``leaves[i]``.  The label and sign that
        pick a leaf are parities of the bits, so a prefix's pair XORs each
        suffix's: ``leaves`` is one of four tuples per Bell outcome."""
        at, cut = self.contracted, len(self.index) - width
        # What each helper's bit flips in a leaf's key, label << 1 | sign.
        flips = [2 if i == at or i < at and not self.axis else 1 for i in range(len(self.index))]
        keys = [
            functools.reduce(operator.xor, itertools.compress(flips[cut:], bits), 0)
            for bits in itertools.product((0, 1), repeat=width)
        ]
        for _, ((_, label_0), (_, label_1)) in self.root:
            leaves = label_0 + label_1  # by key
            blocks = [tuple(map(leaves.__getitem__, map(x.__xor__, keys))) for x in range(4)]
            for prefix in itertools.product((0, 1), repeat=cut):
                key = functools.reduce(operator.xor, itertools.compress(flips, prefix), 0)
                yield blocks[key], bytes(prefix)


# The run's leaf table, cached: library ``run_recovery`` reads it every trial.
_leaf_table = functools.lru_cache(maxsize=64)(_LeafTable)


def run_pick(table: _LeafTable, draws) -> tuple[tuple, bytes]:
    """One sampled trial, ``table.walk``'s twin and the CLI's one call per
    trial: the ``(leaf, bits)`` that ``draws``, one per step in plan order,
    pick.  The Bell and contracted steps take the first outcome whose sum
    passes the draw, else the last; the rest read ``draw >= 0.5``.  Each
    ``float.__le__`` gives a bool for a list's floats and np.float64s alike."""
    heads = bytes(map((0.5).__le__, draws))
    at = 1 + table.contracted
    p = heads.count(1, 1, at) & 1
    relabel, sign = (0, p) if table.axis else (p, heads.count(1, at + 1) & 1)
    bell = bisect.bisect_right(table.bell_sums, draws[0])
    outcome = table.passed[bell][relabel](draws[at])
    leaf = table.root[bell][1][outcome ^ relabel][1][sign]
    return leaf, heads[1:at] + bytes((outcome,)) + heads[at + 1 :]


def run_recovery(
    sizes: PartySizes,
    designee: Designee,
    secret: SecretState,
    rng: "qstate.Stream | numpy.random.Generator",
) -> TrialResult:
    """One sampled run: the Bell outcome and each helper's outcome are drawn
    from ``rng`` with one ``rng.random(1 + helpers)`` call, and the branch
    ``run_pick`` reads off the run's table is returned as a ``TrialResult``."""
    table = _leaf_table(sizes, designee, secret)
    return table.result(*run_pick(table, rng.random(1 + len(table.index))))


def _check_branch_limit(sizes: PartySizes, designee: Designee, branch_limit: int) -> None:
    """Raise ValueError unless the designee exists at ``sizes``, and
    BranchLimitError if 4 * 2**helpers branches exceed ``branch_limit``, an
    int, building neither: 2**k > limit exactly when k >= limit.bit_length()."""
    check_designee(sizes, designee)
    exponent = 2 + _helper_count(sizes, designee)
    if exponent >= operator.index(branch_limit).bit_length():
        raise BranchLimitError(f"2**{exponent} branches exceed the limit of {branch_limit}")


def iter_branches(
    sizes: PartySizes,
    designee: Designee,
    secret: SecretState,
    branch_limit: int = DEFAULT_BRANCH_LIMIT,
):
    """Yield the branches of :func:`enumerate_branches` as the walk reaches them.

    The designee and the branch limit, an int, are checked when the first
    branch is requested, so a failing enumeration raises before it yields
    anything.
    """
    _check_branch_limit(sizes, designee, branch_limit)
    table = _leaf_table(sizes, designee, secret)
    for (leaf,), bits in table.walk(0):
        yield table.result(leaf, bits)


def enumerate_branches(
    sizes: PartySizes,
    designee: Designee,
    secret: SecretState,
    branch_limit: int = DEFAULT_BRANCH_LIMIT,
) -> list[TrialResult]:
    """Walk every (Bell outcome x agent outcomes) branch deterministically.

    Every branch is possible; the branch probabilities of the returned
    results sum to 1.
    """
    return list(iter_branches(sizes, designee, secret, branch_limit))


def agent_marginal(
    sizes: PartySizes, secret: SecretState, bell: BellOutcome, agent: Role
) -> "numpy.ndarray":
    """Single-qubit density matrix an agent holds right after Alice's broadcast.

    A partial trace over the Bell child on the class register (a, c): the
    entries that differ only in the agent's class bit make up one 2-vector,
    and the matrix is the sum of those vectors' outer products.  A class with
    another member keeps its copy of the bit, so each vector is one entry.
    """
    import numpy as np

    _check_role(sizes, agent)
    _, post = _bell_children(secret)[_BELL_OUTCOMES.index(bell)]
    shift, alone = (1, sizes.m == 1) if agent.grade == "bob" else (0, sizes.n == 1)
    keep = ~(alone << shift)  # the agent's bit leaves the key only with its last copy
    vectors = {}
    for index, amp in post:
        vectors.setdefault(index & keep, np.zeros(2, complex))[index >> shift & 1] += amp
    return sum(np.outer(vec, vec.conj()) for vec in vectors.values())
