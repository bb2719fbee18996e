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
The one step that measures the last member of a class (the last Bob under a
Charlie designee), or charlie* under a Bob designee, is a real contraction
of at most 4 entries with ``qstate._contract_support``, after the pending
signs are applied, as is the designee's leaf.  So a class path (the Bell
outcome, each run's parity, each contracted outcome) fixes the state, the
branch probability, the correction and the fidelity, and there are at most
4·2³ of them.  The table keeps one node per class path reached, with its
contracted children, and one scored leaf: a run makes at most one
contraction per table node, and a trial makes none once its path has been
reached, at any m and n.  ``agent_marginal`` reads the
post-Bell support of the whole register, so no path of this module builds
a dense register; the :mod:`hqis.dense` operations, and the qubit-by-qubit
support walk kept in the tests, are the oracles the tests compare with.
"""

import functools
import itertools
from collections import namedtuple
from collections.abc import Mapping
from enum import Enum

from . import qstate
from .channel import PartySizes, SecretState, _channel_support
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


def _agent_qubit(sizes: PartySizes, role: Role) -> int:
    """Qubit index of an agent after the Bell measurement dropped S and A."""
    if role.grade == "bob":
        return role.index - 1
    return sizes.m + role.index - 1


def _helper_count(sizes: PartySizes, designee: Designee) -> int:
    """How many helpers ``_measurement_plan`` lists: the Bobs but a Bob
    designee, and charlie*; or every agent but a Charlie designee."""
    return sizes.m if designee.role.grade == "bob" else sizes.m + sizes.n - 1


def _measurement_plan(sizes: PartySizes, designee: Designee) -> list[tuple[Role, MeasBasis]]:
    if designee.role.grade == "bob":
        plan = [
            (Role.bob(i), MeasBasis.PLUS_MINUS)
            for i in range(1, sizes.m + 1)
            if i != designee.role.index
        ]
        plan.append((Role.charlie(designee.charlie_star), MeasBasis.COMPUTATIONAL))
        return plan
    plan = [(Role.bob(i), MeasBasis.PLUS_MINUS) for i in range(1, sizes.m + 1)]
    plan.extend(
        (Role.charlie(j), MeasBasis.PLUS_MINUS)
        for j in range(1, sizes.n + 1)
        if j != designee.role.index
    )
    return plan


@functools.lru_cache(maxsize=64)
def _walk_steps(
    sizes: PartySizes, designee: Designee
) -> tuple[tuple[tuple, ...], dict[Role, int], int, tuple[int, int]]:
    """The helpers' measurements as segments on the class register, plus
    each helper's position in the plan, how many of them are Bobs (a prefix
    of the plan), and the leaf register's size and the designee's axis in
    it.  Raises ValueError unless the designee exists at ``sizes``.

    The class register holds one qubit per grade still in play, the Bobs'
    first: after the Bell measurement every Bob's bit equals one bit a and
    every Charlie's one bit c.  A segment is one of:

    * ``(None, shift, count)``: ``count`` |+>/|-> measurements in a row on a
      class that keeps another member.  Each has probability 1/2 exactly,
      and its outcome only flips the sign of the entries whose class bit, at
      ``shift`` in the register index, is set.
    * ``(bras, qubits, axis)``: one measurement contracted on the register,
      which then drops that class: the measured helper was its last member,
      or (charlie*) its computational outcome leaves the idle Charlies in a
      product state that no later step reads.
    """
    check_designee(sizes, designee)
    plan = _measurement_plan(sizes, designee)
    members = {"bob": sizes.m, "charlie": sizes.n}
    register = ["bob", "charlie"]
    segments = []
    for role, basis in plan:
        members[role.grade] -= 1
        axis = register.index(role.grade)
        if basis is MeasBasis.PLUS_MINUS and members[role.grade]:
            shift = len(register) - 1 - axis
            if segments and segments[-1][:2] == (None, shift):
                segments[-1] = (None, shift, segments[-1][2] + 1)
            else:
                segments.append((None, shift, 1))
        else:
            segments.append((qstate._BASIS_BRAS[basis], len(register), axis))
            register.remove(role.grade)
    index = {role: position for position, (role, _) in enumerate(plan)}
    bobs = sum(role.grade == "bob" for role in index)
    return tuple(segments), index, bobs, (len(register), register.index(designee.role.grade))


@functools.lru_cache(maxsize=64)
def _whole_support(sizes: PartySizes, secret: SecretState) -> tuple[tuple[int, complex], ...]:
    """The secret qubit S joined to the channel's support, in index order.

    Pure and immutable, so repeated trials can share one join.
    """
    shift = sizes.channel_qubits
    return tuple(
        (s_bit << shift | index, complex(s_amp) * amp)
        for s_bit, s_amp in enumerate((secret.alpha, secret.beta))
        for index, amp in _channel_support(sizes)
    )


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
    # One Bob and one Charlie: the register (S, A, a, c).
    whole = _whole_support(PartySizes(1, 1), secret)
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


class _Children(dict):
    """The children of one contracted measurement, outcome -> (prob, post),
    each contracted the first time it is looked up: a sampled trial computes
    no child past the one it draws, and no child twice."""

    def __init__(self, pairs, qubits: int, bras, axis: int):
        super().__init__()
        self.pairs, self.qubits, self.bras, self.axis = pairs, qubits, bras, axis

    def __missing__(self, outcome):
        child = self[outcome] = qstate._contract_support(
            self.pairs, self.qubits, self.bras[outcome], self.axis
        )
        return child


class _LeafTable:
    """One run's class-keyed measurement tree, filled in as the walk first
    reaches each part of it.

    A node is keyed by its class path, one byte per step: Alice's Bell
    outcome, then each run's parity and each contracted step's outcome.  A
    run's outcomes differ only in their signs, so the path fixes the support,
    its pending signs, the probability and both parities, and every helper
    bit string with that path shares one leaf.  ``nodes`` holds the children
    ``(prob, post)`` of the Bell step (``_bell_children``, at ``b""``) and of
    each contracted step reached; ``leaves`` holds one scored leaf per path
    reached, ``(bell, v_g1, aux, op, branch_probability, fidelity)``, at most
    4·2³ of them.  A lookup fills in only what it misses, so a run makes at
    most one contraction per node, and a trial none once its path has been
    reached.
    """

    def __init__(self, sizes: PartySizes, designee: Designee, secret: SecretState):
        self.segments, self.index, self.bobs, (self.leaf_qubits, self.designee_axis) = (
            _walk_steps(sizes, designee)
        )
        self.secret = secret
        self.bob_designee = designee.charlie_star is not None
        self.nodes = {b"": _bell_children(secret)}
        self.leaves = {}

    def _state(self, path: bytes):
        """(pairs, signs, prob) at the end of a path the walk has reached:
        the support, the class phases not yet applied to it, and the path's
        probability, multiplied out step by step as the walk took them."""
        if len(path) == 1:
            prob, pairs = self.nodes[b""][path[0]]
            return pairs, 0, prob
        pairs, signs, prob = self._state(path[:-1])
        bras, *place = self.segments[len(path) - 2]
        if bras is None:
            shift, count = place
            return pairs, signs ^ path[-1] << shift, prob * 0.5**count
        p, post = self.nodes[path[:-1]][path[-1]]
        return tuple(post), 0, prob * p

    def _children(self, path: bytes) -> _Children:
        """The children of the contracted step at the end of ``path``."""
        children = self.nodes.get(path)
        if children is None:
            pairs, signs, _ = self._state(path)
            bras, qubits, axis = self.segments[len(path) - 1]
            children = self.nodes[path] = _Children(_signed(pairs, signs), qubits, bras, axis)
        return children

    def _leaf(self, path: bytes, bits: bytes) -> tuple:
        """The scored leaf at ``path``, which ``bits`` reached.

        The designee applies the table correction G, picked by the Bell
        outcome and the parities of the Bobs' and the Charlies' bits.  The
        recovery fidelity is the sum over the values of the qubits still held
        of |<xi|G|u>|², u being the designee's 2-vector for that value: the
        probability of contracting ``_recovery_bra`` against the designee's
        qubit.
        """
        leaf = self.leaves.get(path)
        if leaf is None:
            pairs, signs, prob = self._state(path)
            bell = _BELL_OUTCOMES[path[0]]
            v_g1 = bits.count(1, 0, self.bobs) & 1
            # charlie*'s bit for a Bob designee, the other Charlies' parity for a Charlie.
            aux = bits.count(1, self.bobs) & 1
            if self.bob_designee:
                op = BOB_CORRECTIONS[bell, v_g1 ^ aux]
            else:
                op = CHARLIE_CORRECTIONS[bell, v_g1, aux]
            fidelity, _ = qstate._contract_support(
                _signed(pairs, signs),
                self.leaf_qubits,
                _recovery_bra(self.secret, op),
                self.designee_axis,
            )
            leaf = self.leaves[path] = (bell, v_g1, aux, op, prob, min(fidelity, 1.0))
        return leaf

    def result(self, path: bytes, bits: bytes) -> TrialResult:
        bell, v_g1, aux, op, prob, fidelity = self._leaf(path, bits)
        return TrialResult(bell, _HelperBits(self.index, bits), v_g1, aux, op, prob, fidelity)

    def sample(self, draws) -> TrialResult:
        """The branch ``draws`` pick, one draw per measurement in plan order,
        Alice's first: ``qstate._sample_outcome`` for the Bell step and the
        contracted steps, and ``draw >= 0.5`` for each step of a run, which
        has probability 1/2 exactly."""
        # float.__le__ gives a bool for a list's floats and an ndarray's np.float64 alike.
        heads = bytes(map((0.5).__le__, draws))
        bell = self.nodes[b""]
        outcome, _, _ = qstate._sample_outcome(bell.__getitem__, len(bell), draws[0])
        path, bits = bytes((outcome,)), b""
        for bras, *place in self.segments:
            start = 1 + len(bits)
            if bras is None:
                run = heads[start : start + place[1]]
                outcome = run.count(1) & 1
            else:
                children = self._children(path)
                outcome, _, _ = qstate._sample_outcome(children.__getitem__, len(bras), draws[start])
                run = bytes((outcome,))
            path += bytes((outcome,))
            bits += run
        return self.result(path, bits)

    def branches(self):
        """Every possible branch, outcome 0 first at every step, so in
        ``itertools.product`` order.  The recursion is as deep as there are
        segments, at most three whatever m and n."""
        segments = self.segments

        def descend(path, bits, depth):
            if depth == len(segments):
                yield self.result(path, bits)
                return
            bras, *place = segments[depth]
            if bras is None:
                for run in map(bytes, itertools.product((0, 1), repeat=place[1])):
                    yield from descend(path + bytes((run.count(1) & 1,)), bits + run, depth + 1)
                return
            children = self._children(path)
            for outcome in range(len(bras)):
                if children[outcome][1] is not None:
                    step = bytes((outcome,))
                    yield from descend(path + step, bits + step, depth + 1)

        for outcome, (_, post) in enumerate(self.nodes[b""]):
            if post is not None:
                yield from descend(bytes((outcome,)), b"", 0)


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

    The designee and the branch limit are checked when the first branch is
    requested, so a failing enumeration raises before it yields anything.
    """
    check_designee(sizes, designee)
    # 4 * 2**helpers branches, checked before the table is built and without
    # building that number: 2**k > limit exactly when k >= limit.bit_length().
    exponent = 2 + _helper_count(sizes, designee)
    if exponent >= branch_limit.bit_length():
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

    A partial trace over the post-Bell support: the entries that differ only
    in the agent's bit make up one 2-vector of the agent's amplitudes, and
    the matrix is the sum of those vectors' outer products.
    """
    import numpy as np

    _check_role(sizes, agent)
    whole = _whole_support(sizes, secret)
    _, post = qstate._contract_support(
        whole, 1 + sizes.channel_qubits, qstate._BELL_BRAS[bell], _SECRET_QUBIT
    )
    shift = sizes.m + sizes.n - 1 - _agent_qubit(sizes, agent)
    vectors = {}
    for index, amp in post:
        vectors.setdefault(index & ~(1 << shift), np.zeros(2, complex))[index >> shift & 1] += amp
    return sum(np.outer(vec, vec.conj()) for vec in vectors.values())
