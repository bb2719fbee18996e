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

Both the exhaustive and the sampled runs are one depth-first walk over the
helpers' measurement tree.  Each tree node measures one helper, and that
helper's qubit leaves the register, as Alice's two qubits do in the Bell
measurement; so the register shrinks by one qubit per level, and every node
is computed once and shared by all the leaves below it.
``iter_branches`` (and ``enumerate_branches``, its list) descends into every
possible outcome, in the order ``itertools.product`` would list them;
``run_recovery`` descends into one outcome per level, drawn from a seeded rng.

The walk holds each state as its support, (basis index, amplitude) pairs
measured with ``qstate._contract_support``: 8 pairs once the secret joins
the channel's 4, and never more than 4 after the Bell measurement, so its
cost does not grow with the 2**(m+n) entries a dense register would have.
The dense ``qstate`` operations remain the reference the tests compare with.
"""

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import qstate
from .channel import (
    PartySizes,
    SecretState,
    _channel_support,
    compose_with_secret,
    make_channel,
)
from .qstate import (
    BellOutcome,
    MeasBasis,
    ResourceLimitError,
    bell_project,
    reduced_density,
)

DEFAULT_BRANCH_LIMIT = 2**20

_SECRET_QUBIT = 0
_ALICE_QUBIT = 1


class BranchLimitError(ResourceLimitError):
    pass


@dataclass(frozen=True)
class Role:
    """A protocol participant: alice, bob:i, or charlie:j (1-based indices)."""

    grade: str
    index: int = 0

    def __post_init__(self):
        if self.grade not in ("alice", "bob", "charlie"):
            raise ValueError(f"unknown grade {self.grade!r}")
        if self.grade == "alice":
            if self.index != 0:
                raise ValueError("alice takes no index")
        elif self.index < 1:
            raise ValueError(f"{self.grade} index must be >= 1, got {self.index}")

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


@dataclass(frozen=True)
class Designee:
    """The agent who ends up holding the secret, plus the assisting charlie*
    when that agent is a Bob."""

    role: Role
    charlie_star: int | None = None

    def __post_init__(self):
        if self.role.grade == "bob":
            if self.charlie_star is None:
                raise ValueError("a Bob designee needs a charlie-star index")
        elif self.role.grade == "charlie":
            if self.charlie_star is not None:
                raise ValueError("charlie-star only applies to Bob designees")
        else:
            raise ValueError("the designee must be a Bob or a Charlie")

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

    @property
    def matrix(self) -> np.ndarray:
        return _CORRECTION_MATRICES[self]


_CORRECTION_MATRICES = {
    CorrectionOp.I: qstate.I,
    CorrectionOp.X: qstate.X,
    CorrectionOp.IY: qstate.IY,
    CorrectionOp.Z: qstate.Z,
    CorrectionOp.H: qstate.H,
    CorrectionOp.XH: qstate.X @ qstate.H,
    CorrectionOp.IYH: qstate.IY @ qstate.H,
    CorrectionOp.ZH: qstate.Z @ qstate.H,
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


@dataclass(frozen=True)
class TrialResult:
    """Outcome record of one protocol execution branch."""

    bell: BellOutcome
    classical_bits: dict[Role, int]
    v_g1: int
    v_g2_or_charlie_star: int
    correction: CorrectionOp
    branch_probability: float
    fidelity: float


def encode_outcome(basis: MeasBasis, outcome) -> int:
    """Map a measurement outcome to its classical bit: |+>,|0> -> 0; |->,|1> -> 1."""
    if isinstance(outcome, str):
        symbols = {
            MeasBasis.COMPUTATIONAL: {"0": 0, "1": 1},
            MeasBasis.PLUS_MINUS: {"+": 0, "-": 1, "−": 1},
        }[basis]
        if outcome not in symbols:
            raise ValueError(f"{outcome!r} is not an outcome symbol for {basis}")
        return symbols[outcome]
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be a bit or symbol, got {outcome!r}")
    return int(outcome)


def outcome_symbol(basis: MeasBasis, bit: int) -> str:
    return ("0", "1")[bit] if basis is MeasBasis.COMPUTATIONAL else ("+", "-")[bit]


def parity(bits) -> int:
    """Modulo-2 sum of a bit collection; empty input gives 0."""
    total = 0
    for b in bits:
        total ^= b
    return total


def correction_for_bob(bell: BellOutcome, v_sum: int) -> CorrectionOp:
    return BOB_CORRECTIONS[(bell, v_sum)]


def correction_for_charlie(bell: BellOutcome, v_g1: int, v_g2: int) -> CorrectionOp:
    return CHARLIE_CORRECTIONS[(bell, v_g1, v_g2)]


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
) -> tuple[tuple[tuple[Role, int, tuple], ...], int]:
    """The measurement plan as walk steps, plus the designee's final axis.

    A step is (role, axis, bras): the helper's axis in the register that is
    left once the earlier steps dropped their qubits, and the bras of its
    outcomes 0 and 1.
    """
    register = list(range(sizes.m + sizes.n))
    steps = []
    for role, basis in _measurement_plan(sizes, designee):
        q = _agent_qubit(sizes, role)
        steps.append((role, register.index(q), qstate._BASIS_BRAS[basis]))
        register.remove(q)
    return tuple(steps), register.index(_agent_qubit(sizes, designee.role))


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
def _recovery_bra(secret: SecretState, op: CorrectionOp) -> tuple[complex, complex]:
    """<xi|G as a bra over the designee's qubit: G corrects, <xi| scores."""
    xi = np.array([secret.alpha, secret.beta], dtype=complex)
    return tuple(complex(c) for c in np.conj(xi) @ op.matrix)


def _bell_branch(whole, sizes: PartySizes, outcome: BellOutcome):
    """Alice's Bell measurement of (S, A) on the joined support, as
    ``(prob, post)`` with ``post`` the agents' support, or ``None``."""
    return qstate._contract_support(
        whole, 1 + sizes.channel_qubits, qstate._BELL_BRAS[outcome], _SECRET_QUBIT
    )


def _walk(
    pairs,
    num_qubits: int,
    steps,
    prob: float,
    rng: np.random.Generator | None = None,
    bits: tuple[int, ...] = (),
):
    """Depth first below one node: yields (support, qubits, probability, bits)
    per leaf.

    Without ``rng`` the walk descends into every possible child, outcome 0
    first; with one, into the single child ``rng`` draws, as ``measure`` would.
    """
    if len(bits) == len(steps):
        yield pairs, num_qubits, prob, bits
        return
    _, axis, bras = steps[len(bits)]

    def child(outcome):
        return qstate._contract_support(pairs, num_qubits, bras[outcome], axis)

    if rng is None:
        children = ((outcome, *child(outcome)) for outcome in (0, 1))
    else:
        children = (qstate._sample_outcome(child, rng),)
    for outcome, p, post in children:
        if post is not None:
            yield from _walk(post, num_qubits - 1, steps, prob * p, rng, bits + (outcome,))


def _branch_results(
    sizes: PartySizes,
    designee: Designee,
    secret: SecretState,
    bell: BellOutcome,
    bell_prob: float,
    post_bell,
    rng: np.random.Generator | None = None,
):
    """Score every leaf the walk reaches below one Bell outcome.

    The designee applies the table correction G, and the recovery fidelity
    is the sum over the values of the qubits still held of |<xi|G|u>|², u
    being the designee's 2-vector for that value: the probability of
    contracting ``_recovery_bra`` against the designee's qubit.
    """
    steps, designee_axis = _walk_steps(sizes, designee)
    roles = [role for role, _, _ in steps]
    star = None if designee.charlie_star is None else Role.charlie(designee.charlie_star)
    for pairs, num_qubits, joint_prob, outcomes in _walk(
        post_bell, sizes.m + sizes.n, steps, bell_prob, rng
    ):
        bits = dict(zip(roles, outcomes))
        v_g1 = parity(bits[r] for r in bits if r.grade == "bob")
        if star is not None:
            aux = bits[star]
            op = correction_for_bob(bell, v_g1 ^ aux)
        else:
            aux = parity(bits[r] for r in bits if r.grade == "charlie")
            op = correction_for_charlie(bell, v_g1, aux)
        fidelity, _ = qstate._contract_support(
            pairs, num_qubits, _recovery_bra(secret, op), designee_axis
        )
        yield TrialResult(
            bell=bell,
            classical_bits=bits,
            v_g1=v_g1,
            v_g2_or_charlie_star=aux,
            correction=op,
            branch_probability=joint_prob,
            fidelity=min(fidelity, 1.0),
        )


def _sample_bell(whole, sizes: PartySizes, rng: np.random.Generator):
    draw = rng.random()
    cumulative = 0.0
    last = None
    for outcome in BellOutcome:
        prob, post = _bell_branch(whole, sizes, outcome)
        if post is None:
            continue
        last = (outcome, prob, post)
        cumulative += prob
        if draw < cumulative:
            return last
    return last


def run_recovery(
    sizes: PartySizes, designee: Designee, secret: SecretState, rng: np.random.Generator
) -> TrialResult:
    """One sampled run: the Bell outcome and each helper's outcome are drawn
    from ``rng``, and the designee's grade picks the helpers and the table."""
    check_designee(sizes, designee)
    bell, bell_prob, post_bell = _sample_bell(_whole_support(sizes, secret), sizes, rng)
    (result,) = _branch_results(sizes, designee, secret, bell, bell_prob, post_bell, rng)
    return result


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
    steps, _ = _walk_steps(sizes, designee)
    total = 4 * 2 ** len(steps)
    if total > branch_limit:
        raise BranchLimitError(
            f"{total} branches exceed the limit of {branch_limit}"
        )
    whole = _whole_support(sizes, secret)
    for bell in BellOutcome:
        bell_prob, post_bell = _bell_branch(whole, sizes, bell)
        if post_bell is not None:
            yield from _branch_results(sizes, designee, secret, bell, bell_prob, post_bell)


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
) -> np.ndarray:
    """Single-qubit density matrix an agent holds right after Alice's broadcast."""
    _check_role(sizes, agent)
    whole = compose_with_secret(secret, make_channel(sizes))
    _, post = bell_project(whole, _SECRET_QUBIT, _ALICE_QUBIT, bell)
    return reduced_density(post, _agent_qubit(sizes, agent))
