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

So a run is one measurement tree: its root is Alice's Bell measurement,
with four children, and every level below measures one helper.  Both the
exhaustive and the sampled runs descend one table of that tree, built once
per run (``_leaf_table``).  ``iter_branches`` (and ``enumerate_branches``,
its list) descends into every possible outcome, in the order
``itertools.product`` would list them; ``run_recovery`` descends into one
outcome per step, picked by one ``rng.random(1 + helpers)`` call, one draw
per step in plan order.

The walk is keyed by class, not by qubit.  After the Bell measurement every
Bob's bit equals one bit a and every Charlie's one bit c, so the state is at
most 4 amplitudes keyed by (a, c), the same at any m and n; the four Bell
children depend on the secret alone and are computed once per secret.  A
|+>/|-> measurement of a helper whose class keeps another member is then
exactly 50/50, and its only effect is the sign (-1)^(outcome·a), or
(-1)^(outcome·c): the Pauli-measurement rule for stabilizer states.  So a
run of such steps is a factor 1/2 per step and a parity bit for the class,
its outcomes are ``draw >= 0.5`` when sampled, and the state is not touched.
So the designee's grade fixes the whole walk (``_walk_steps``).  A Bob
designee's is a run of the other Bobs, then charlie*'s |0>/|1>; a Charlie
designee's is a run of all Bobs but the last, the last Bob's |+>/|->, then a
run of the other Charlies.  The one step that is not a run is a real
contraction of at most 4 entries with ``qstate._contract_support``, after the
pending signs are applied.  It leaves one qubit, the designee's class, which
the leaf contracts with the recovery bra.  So a class path (the Bell
outcome, each run's parity, each contracted outcome) fixes the state, the
branch probability, the correction and the fidelity, and there are at most
4·2³ of them.  The table is the whole tree of class paths, built once per
run when the run starts: one contraction per outcome of a contracted step
and one per scored leaf, and none per trial or branch, at any m and n.
``agent_marginal`` reads the same Bell children, so no path of this module
builds a dense register or reads a support at full size; the :mod:`hqis.dense`
operations, and the qubit-by-qubit support walk kept in the tests, are the
oracles the tests compare with.
"""

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


# Each op's 2x2 matrix as rows; iY is i*sigma_y written as a real matrix,
# the factor i only shifting global phase, which no fidelity can see.
_PAULI_ROWS = {
    CorrectionOp.I: ((1, 0), (0, 1)),
    CorrectionOp.X: ((0, 1), (1, 0)),
    CorrectionOp.IY: ((0, 1), (-1, 0)),
    CorrectionOp.Z: ((1, 0), (0, -1)),
}
_CORRECTION_ROWS = _PAULI_ROWS | {
    composite: _times_h(_PAULI_ROWS[pauli])
    for composite, pauli in (
        (CorrectionOp.H, CorrectionOp.I),
        (CorrectionOp.XH, CorrectionOp.X),
        (CorrectionOp.IYH, CorrectionOp.IY),
        (CorrectionOp.ZH, CorrectionOp.Z),
    )
}


def _correction(h: int, x: int, z: int) -> CorrectionOp:
    """The CorrectionOp X^x Z^z, after a Hadamard when h is set.

    XZ is the member iY, which equals it up to a global phase.
    """
    pauli = {(0, 0): "", (1, 0): "X", (0, 1): "Z", (1, 1): "iY"}[x, z]
    return CorrectionOp(pauli + "H" * h or "I")


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


def _walk_steps(sizes: PartySizes, designee: Designee) -> tuple[tuple[tuple, ...], dict[Role, int]]:
    """The helpers' measurements as segments on the class register (a, c),
    plus each helper's position in the plan.  Raises ValueError unless the
    designee exists at ``sizes``.

    A segment is ``(grade, bras, count)``, ``grade`` 0 for Bobs and 1 for
    the other helpers.  ``bras`` is ``None`` for a run of ``count`` |+>/|->
    steps on a class that keeps another member, each 1/2 exactly, whose
    outcome flips the sign of class bit ``1 - grade``: the Bobs' runs come
    before the contraction, the Charlies' after it, on (c) alone.  Otherwise
    the segment is the one step contracted on (a, c) at axis ``grade``:
    charlie*'s |0>/|1> under a Bob designee (its outcome leaves the idle
    Charlies in a product state no later step reads), or the last Bob's
    |+>/|-> under a Charlie designee.  Empty runs are dropped.
    """
    check_designee(sizes, designee)
    plan = [role for role in map(Role.bob, range(1, sizes.m + 1)) if role != designee.role]
    segments = [(0, None, sizes.m - 1)]
    if designee.charlie_star is not None:
        plan.append(Role.charlie(designee.charlie_star))
        segments.append((1, qstate._BASIS_BRAS[MeasBasis.COMPUTATIONAL], 1))
    else:
        plan += [role for role in map(Role.charlie, range(1, sizes.n + 1)) if role != designee.role]
        segments += [(0, qstate._BASIS_BRAS[MeasBasis.PLUS_MINUS], 1), (1, None, sizes.n - 1)]
    index = {role: position for position, role in enumerate(plan)}
    return tuple(segment for segment in segments if segment[2]), index


@functools.lru_cache(maxsize=64)
def _bell_children(secret: SecretState) -> tuple[tuple[float, tuple | None], ...]:
    """Alice's Bell measurement of (S, A) on the class register: the
    probability and post-Bell support of each outcome, in ``BellOutcome``
    order.  An entry's index is a << 1 | c.

    Depends on the secret alone, so every size and trial shares one
    measurement.  The entries and their summation order are those of the
    same contraction on the whole (2+m+n)-qubit support, so the numbers are
    too.
    """
    # The secret qubit S joined to the class register: (S, A, a, c).
    whole = tuple(
        (s_bit << _CLASSES.channel_qubits | index, complex(s_amp) * amp)
        for s_bit, s_amp in enumerate((secret.alpha, secret.beta))
        for index, amp in _channel_support(_CLASSES)
    )
    children = (
        qstate._contract_support(whole, 4, qstate._BELL_BRAS[outcome], _SECRET_QUBIT)
        for outcome in BellOutcome
    )
    return tuple((p, None if post is None else tuple(post)) for p, post in children)


@functools.lru_cache(maxsize=64)
def _recovery_bra(secret: SecretState, op: CorrectionOp) -> tuple[complex, complex]:
    """<xi|G as a bra over the designee's qubit: G corrects, <xi| scores."""
    (g00, g01), (g10, g11) = _CORRECTION_ROWS[op]
    a, b = secret.alpha.conjugate(), secret.beta.conjugate()
    return a * g00 + b * g10, a * g01 + b * g11


def _signed(pairs, signs: int):
    """``pairs`` with the pending class phases applied: an entry takes the
    sign -1 when its index has an odd number of the bits set in ``signs``."""
    if not signs:
        return pairs
    return [(index, -amp if (index & signs).bit_count() & 1 else amp) for index, amp in pairs]


class _LeafTable:
    """One run's class-keyed measurement tree, built whole when the run starts.

    A node is a tuple of ``(prob, child)`` pairs, one per outcome of its
    step, ``child`` ``None`` for an impossible outcome, as
    ``qstate._sample_outcome`` takes them: Alice's four Bell outcomes at the
    root, then per segment of ``_walk_steps`` a run's two parities (1/2 per
    step each) or the contracted step's two outcomes.  The children of the
    last segment are the scored leaves ``(bell, v_g1, aux, op,
    branch_probability, fidelity)``, at most 4·2³ of them, ``v_g1`` the
    parity of the grade-0 segments' outcomes and ``aux`` that of the
    grade-1 ones, each leaf shared by every helper bit string with those
    parities.  The build makes one contraction per outcome of the contracted
    step and one per leaf; a trial or a branch only descends the tree.
    """

    def __init__(self, sizes: PartySizes, designee: Designee, secret: SecretState):
        self.segments, self.index = _walk_steps(sizes, designee)
        self.secret = secret
        self.bob_designee = designee.charlie_star is not None
        self.root = tuple(
            (p, None if post is None else self._build(0, bell, post, 0, p, 0))
            for bell, (p, post) in zip(_BELL_OUTCOMES, _bell_children(secret))
        )

    def _build(self, depth: int, bell: BellOutcome, pairs, signs: int, prob: float, parities: int):
        """The node of segment ``depth``, or the leaf past the last segment,
        on the support ``pairs`` with the class phases ``signs`` pending,
        reached with probability ``prob``; bit 0 of ``parities`` is the
        Bobs' parity, bit 1 the other helpers'.  A leaf's fidelity is the
        probability of contracting ``_recovery_bra``, <xi|G, against the
        designee's class, the one qubit left, G being the table correction
        its parities pick.
        """
        if depth == len(self.segments):
            # aux is charlie*'s bit for a Bob designee, the other Charlies' parity for a Charlie.
            v_g1, aux = parities & 1, parities >> 1
            if self.bob_designee:
                op = BOB_CORRECTIONS[bell, v_g1 ^ aux]
            else:
                op = CHARLIE_CORRECTIONS[bell, v_g1, aux]
            bra = _recovery_bra(self.secret, op)
            fidelity, _ = qstate._contract_support(_signed(pairs, signs), 1, bra, 0)
            return bell, v_g1, aux, op, prob, min(fidelity, 1.0)
        # Each outcome as (prob, support, pending signs): a run's parity only
        # flips signs, a contracted outcome applies them.
        grade, bras, count = self.segments[depth]
        if bras is None:
            outcomes = [(0.5**count, pairs, signs ^ bit << (1 - grade)) for bit in (0, 1)]
        else:
            signed = _signed(pairs, signs)
            outcomes = [(*qstate._contract_support(signed, 2, bra, grade), 0) for bra in bras]
        return tuple(
            (p, None if post is None else self._build(
                depth + 1, bell, post, pending, prob * p, parities ^ bit << grade
            ))
            for bit, (p, post, pending) in enumerate(outcomes)
        )

    def result(self, leaf: tuple, bits: bytes) -> TrialResult:
        bell, v_g1, aux, op, prob, fidelity = leaf
        return TrialResult(bell, _HelperBits(self.index, bits), v_g1, aux, op, prob, fidelity)

    def sample(self, draws) -> TrialResult:
        """The branch ``draws`` pick, one draw per measurement in plan order,
        Alice's first: ``qstate._sample_outcome`` for the Bell step and the
        contracted step, and ``draw >= 0.5`` for each step of a run, which
        has probability 1/2 exactly."""
        # float.__le__ gives a bool for a list's floats and an ndarray's np.float64 alike.
        heads = bytes(map((0.5).__le__, draws))
        _, _, node = qstate._sample_outcome(self.root, draws[0])
        bits = b""
        for _, bras, count in self.segments:
            start = 1 + len(bits)
            if bras is None:
                run = heads[start : start + count]
                _, node = node[run.count(1) & 1]
            else:
                outcome, _, node = qstate._sample_outcome(node, draws[start])
                run = bytes((outcome,))
            bits += run
        return self.result(node, bits)

    def branches(self):
        """Every possible branch, outcome 0 first at every step, so in
        ``itertools.product`` order.  The recursion is as deep as there are
        segments, at most three whatever m and n."""
        segments = self.segments

        def descend(node, bits, depth):
            if depth == len(segments):
                yield self.result(node, bits)
                return
            _, bras, count = segments[depth]
            if bras is None:
                for run in map(bytes, itertools.product((0, 1), repeat=count)):
                    yield from descend(node[run.count(1) & 1][1], bits + run, depth + 1)
                return
            for outcome, (_, child) in enumerate(node):
                if child is not None:
                    yield from descend(child, bits + bytes((outcome,)), depth + 1)

        for _, child in self.root:
            if child is not None:
                yield from descend(child, b"", 0)


@functools.lru_cache(maxsize=64)
def _leaf_table(sizes: PartySizes, designee: Designee, secret: SecretState) -> _LeafTable:
    """The run's leaf table, which every trial and branch of the run shares.
    Raises ValueError unless the designee exists at ``sizes``."""
    return _LeafTable(sizes, designee, secret)


def run_recovery(
    sizes: PartySizes,
    designee: Designee,
    secret: SecretState,
    rng: "qstate.Stream | numpy.random.Generator",
) -> TrialResult:
    """One sampled run: the Bell outcome and each helper's outcome are drawn
    from ``rng`` with a single ``rng.random(1 + helpers)`` call, and the
    designee's grade picks the helpers and the table."""
    table = _leaf_table(sizes, designee, secret)
    return table.sample(rng.random(1 + len(table.index)))


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
    check_designee(sizes, designee)
    # 4 * 2**helpers branches, checked before the table is built and without
    # building that number: 2**k > limit exactly when k >= limit.bit_length().
    exponent = 2 + _helper_count(sizes, designee)
    if exponent >= operator.index(branch_limit).bit_length():
        raise BranchLimitError(f"2**{exponent} branches exceed the limit of {branch_limit}")
    yield from _leaf_table(sizes, designee, secret).branches()


def enumerate_branches(
    sizes: PartySizes,
    designee: Designee,
    secret: SecretState,
    branch_limit: int = DEFAULT_BRANCH_LIMIT,
) -> list[TrialResult]:
    """Walk every (Bell outcome x agent outcomes) branch deterministically.

    Zero-probability branches are skipped; the branch probabilities of the
    returned results sum to 1.
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
