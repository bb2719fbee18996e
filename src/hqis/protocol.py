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
``enumerate_branches`` descends into every possible outcome, in the order
``itertools.product`` would list them; the sampled runners descend into one
outcome per level, drawn from a seeded rng.
"""

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import qstate
from .channel import PartySizes, SecretState, compose_with_secret, make_channel
from .qstate import (
    BellOutcome,
    MeasBasis,
    ResourceLimitError,
    StateVector,
    apply_gate,
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
                raise ValueError("a Bob designee needs a charlie_star index")
        elif self.role.grade == "charlie":
            if self.charlie_star is not None:
                raise ValueError("charlie_star only applies to Bob designees")
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

# Bob designee lookup: (Bell outcome, v_sum) -> correction.
BOB_CORRECTIONS = {
    (BellOutcome.PHI_PLUS, 0): CorrectionOp.I,
    (BellOutcome.PHI_MINUS, 1): CorrectionOp.I,
    (BellOutcome.PHI_PLUS, 1): CorrectionOp.Z,
    (BellOutcome.PHI_MINUS, 0): CorrectionOp.Z,
    (BellOutcome.PSI_PLUS, 0): CorrectionOp.X,
    (BellOutcome.PSI_MINUS, 1): CorrectionOp.X,
    (BellOutcome.PSI_PLUS, 1): CorrectionOp.IY,
    (BellOutcome.PSI_MINUS, 0): CorrectionOp.IY,
}

# Charlie designee lookup: (Bell outcome, v_g1, v_g2) -> correction.
CHARLIE_CORRECTIONS = {
    (BellOutcome.PHI_PLUS, 0, 0): CorrectionOp.H,
    (BellOutcome.PHI_MINUS, 1, 0): CorrectionOp.H,
    (BellOutcome.PHI_PLUS, 1, 0): CorrectionOp.ZH,
    (BellOutcome.PHI_MINUS, 0, 0): CorrectionOp.ZH,
    (BellOutcome.PHI_PLUS, 0, 1): CorrectionOp.XH,
    (BellOutcome.PHI_MINUS, 1, 1): CorrectionOp.XH,
    (BellOutcome.PHI_PLUS, 1, 1): CorrectionOp.IYH,
    (BellOutcome.PHI_MINUS, 0, 1): CorrectionOp.IYH,
    (BellOutcome.PSI_PLUS, 0, 1): CorrectionOp.H,
    (BellOutcome.PSI_MINUS, 1, 1): CorrectionOp.H,
    (BellOutcome.PSI_PLUS, 1, 1): CorrectionOp.ZH,
    (BellOutcome.PSI_MINUS, 0, 1): CorrectionOp.ZH,
    (BellOutcome.PSI_PLUS, 0, 0): CorrectionOp.XH,
    (BellOutcome.PSI_MINUS, 1, 0): CorrectionOp.XH,
    (BellOutcome.PSI_PLUS, 1, 0): CorrectionOp.IYH,
    (BellOutcome.PSI_MINUS, 0, 0): CorrectionOp.IYH,
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


@functools.lru_cache(maxsize=64)
def _whole_state(sizes: PartySizes, secret: SecretState) -> StateVector:
    # Pure and immutable, so repeated trials can share one composition.
    return compose_with_secret(secret, make_channel(sizes))


def _validate_designee(sizes: PartySizes, designee: Designee) -> None:
    role = designee.role
    if role.grade == "bob":
        if role.index > sizes.m:
            raise ValueError(f"bob:{role.index} does not exist with m={sizes.m}")
        if designee.charlie_star > sizes.n:
            raise ValueError(f"charlie:{designee.charlie_star} does not exist with n={sizes.n}")
    else:
        if role.index > sizes.n:
            raise ValueError(f"charlie:{role.index} does not exist with n={sizes.n}")


def _agent_qubit(sizes: PartySizes, role: Role) -> int:
    """Qubit index of an agent after the Bell measurement dropped S and A."""
    if role.grade == "bob":
        return role.index - 1
    if role.grade == "charlie":
        return sizes.m + role.index - 1
    raise ValueError("alice holds no agent qubit")


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


def _walk_steps(
    sizes: PartySizes, designee: Designee
) -> tuple[list[tuple[Role, int, MeasBasis]], int]:
    """The measurement plan as walk steps, plus the designee's final axis.

    A step is (role, axis, basis), with the helper's axis in the register
    that is left once the earlier steps dropped their qubits.
    """
    register = list(range(sizes.m + sizes.n))
    steps = []
    for role, basis in _measurement_plan(sizes, designee):
        q = _agent_qubit(sizes, role)
        steps.append((role, register.index(q), basis))
        register.remove(q)
    return steps, register.index(_agent_qubit(sizes, designee.role))


def _walk(
    t: np.ndarray,
    steps,
    prob: float,
    rng: np.random.Generator | None = None,
    bits: tuple[int, ...] = (),
):
    """Depth first below one node: yields (register, probability, bits) per leaf.

    Without ``rng`` the walk descends into every possible child, outcome 0
    first; with one, into the single child ``rng`` draws, as ``measure`` would.
    """
    if len(bits) == len(steps):
        yield t, prob, bits
        return
    _, axis, basis = steps[len(bits)]

    def child(outcome):
        return qstate._measure_out(t, axis, basis, outcome)

    if rng is None:
        children = ((outcome, *child(outcome)) for outcome in (0, 1))
    else:
        children = (qstate._sample_outcome(child, rng),)
    for outcome, p, post in children:
        if post is not None:
            yield from _walk(post, steps, prob * p, rng, bits + (outcome,))


def _branch_results(
    designee: Designee,
    secret: SecretState,
    bell: BellOutcome,
    bell_prob: float,
    post_bell: StateVector,
    walk_steps,
    rng: np.random.Generator | None = None,
):
    """Score every leaf the walk reaches below one Bell outcome."""
    steps, designee_axis = walk_steps
    roles = [role for role, _, _ in steps]
    for t, joint_prob, bits in _walk(post_bell._tensor(), steps, bell_prob, rng):
        yield _score_branch(
            designee,
            secret,
            bell,
            StateVector(t.ndim, t.reshape(-1)),
            designee_axis,
            dict(zip(roles, bits)),
            joint_prob,
        )


def _score_branch(
    designee: Designee,
    secret: SecretState,
    bell: BellOutcome,
    state: StateVector,
    q: int,
    bits: dict[Role, int],
    joint_prob: float,
) -> TrialResult:
    """Apply the table correction to qubit ``q`` and measure recovery fidelity."""
    if designee.role.grade == "bob":
        v_g1 = parity(bits[r] for r in bits if r.grade == "bob")
        aux = bits[Role.charlie(designee.charlie_star)]
        op = correction_for_bob(bell, v_g1 ^ aux)
    else:
        v_g1 = parity(bits[r] for r in bits if r.grade == "bob")
        aux = parity(bits[r] for r in bits if r.grade == "charlie")
        op = correction_for_charlie(bell, v_g1, aux)
    state = apply_gate(state, q, op.matrix)
    rho = reduced_density(state, q)
    xi = np.array([secret.alpha, secret.beta], dtype=complex)
    fidelity = min(float(np.real(np.conj(xi) @ rho @ xi)), 1.0)
    return TrialResult(
        bell=bell,
        classical_bits=bits,
        v_g1=v_g1,
        v_g2_or_charlie_star=aux,
        correction=op,
        branch_probability=joint_prob,
        fidelity=fidelity,
    )


def _sample_bell(
    state: StateVector, rng: np.random.Generator
) -> tuple[BellOutcome, float, StateVector]:
    draw = rng.random()
    cumulative = 0.0
    last = None
    for outcome in BellOutcome:
        prob, post = bell_project(state, _SECRET_QUBIT, _ALICE_QUBIT, outcome)
        if post is None:
            continue
        last = (outcome, prob, post)
        cumulative += prob
        if draw < cumulative:
            return last
    return last


def _run_sampled(
    sizes: PartySizes, designee: Designee, secret: SecretState, rng: np.random.Generator
) -> TrialResult:
    _validate_designee(sizes, designee)
    walk_steps = _walk_steps(sizes, designee)
    bell, bell_prob, post_bell = _sample_bell(_whole_state(sizes, secret), rng)
    (result,) = _branch_results(designee, secret, bell, bell_prob, post_bell, walk_steps, rng)
    return result


def run_bob_recovery(
    sizes: PartySizes, designee: Designee, secret: SecretState, rng: np.random.Generator
) -> TrialResult:
    """One sampled run with a Bob designee assisted by the other Bobs and charlie*."""
    if designee.role.grade != "bob":
        raise ValueError("run_bob_recovery needs a Bob designee")
    return _run_sampled(sizes, designee, secret, rng)


def run_charlie_recovery(
    sizes: PartySizes, designee: Designee, secret: SecretState, rng: np.random.Generator
) -> TrialResult:
    """One sampled run with a Charlie designee assisted by all other agents."""
    if designee.role.grade != "charlie":
        raise ValueError("run_charlie_recovery needs a Charlie designee")
    return _run_sampled(sizes, designee, secret, rng)


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
    _validate_designee(sizes, designee)
    walk_steps = _walk_steps(sizes, designee)
    total = 4 * 2 ** len(walk_steps[0])
    if total > branch_limit:
        raise BranchLimitError(
            f"{total} branches exceed the limit of {branch_limit}"
        )
    whole = _whole_state(sizes, secret)
    results = []
    for bell in BellOutcome:
        bell_prob, post_bell = bell_project(whole, _SECRET_QUBIT, _ALICE_QUBIT, bell)
        if post_bell is not None:
            results.extend(
                _branch_results(designee, secret, bell, bell_prob, post_bell, walk_steps)
            )
    return results


def agent_marginal(
    sizes: PartySizes, secret: SecretState, bell: BellOutcome, agent: Role
) -> np.ndarray:
    """Single-qubit density matrix an agent holds right after Alice's broadcast."""
    if agent.grade == "alice":
        raise ValueError("alice keeps no agent qubit after her Bell measurement")
    if agent.grade == "bob" and agent.index > sizes.m:
        raise ValueError(f"bob:{agent.index} does not exist with m={sizes.m}")
    if agent.grade == "charlie" and agent.index > sizes.n:
        raise ValueError(f"charlie:{agent.index} does not exist with n={sizes.n}")
    whole = _whole_state(sizes, secret)
    _, post = bell_project(whole, _SECRET_QUBIT, _ALICE_QUBIT, bell)
    return reduced_density(post, _agent_qubit(sizes, agent))
