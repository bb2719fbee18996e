"""Dense state vectors: the oracle the support runtime is tested against,
and the library API, with ``agent_marginal`` and the ``TrialResult`` view of
a run (``run_recovery``, ``iter_branches``).  No CLI path imports this module.

A :class:`StateVector` holds all ``2**num_qubits`` amplitudes, qubit 0 at the
most significant bit of the index, so ``basis_state(3, "110")`` puts its one
nonzero amplitude at index ``0b110``.  States are immutable values: every
operation returns a fresh one.  The builders that allocate a register refuse
more qubits than ``qstate.register_cap()``.  ``qstate``, ``channel``,
``adversary`` and ``protocol`` serve the names that moved here from them.
"""

from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import protocol
from .adversary import Scenario, _check_scenario
from .channel import PartySizes, _channel_support, _fake_channel_support
from .qstate import (
    _BASIS_BRAS,
    _BELL_BRAS,
    _SQRT2_INV,
    _UNITARY_TOL,
    NORM_TOL,
    ZERO_BRANCH_TOL,
    BellOutcome,
    MeasBasis,
    RegisterCapError,
    SecretState,
    register_cap,
)

# Single-qubit gate constants.  IY is i*sigma_y written as a real matrix;
# the factor i only shifts global phase, which no fidelity can see.
I = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
IY = np.array([[0, 1], [-1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV

# The kets of qstate's bras: basis eigenvectors indexed by outcome bit,
# 0 -> |0> / |+>, 1 -> |1> / |->, and the Bell states.
_BASIS_VECTORS = {basis: tuple(map(np.conj, bras)) for basis, bras in _BASIS_BRAS.items()}
_BELL_VECTORS = {outcome: np.conj(bra) for outcome, bra in _BELL_BRAS.items()}


def _check_cap(num_qubits: int) -> None:
    cap = register_cap()
    if num_qubits > cap:
        raise RegisterCapError(
            f"register of {num_qubits} qubits exceeds the cap of {cap}; "
            f"raise HQIS_MAX_QUBITS to allow larger dense states"
        )


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitude vector over ``2**num_qubits`` basis states."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError(f"register needs at least one qubit, got {self.num_qubits}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes for {self.num_qubits} "
                f"qubits, got shape {amps.shape}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= NORM_TOL:  # NaN fails this comparison too
            raise ValueError(f"state is not normalized: sum |amp|^2 = {norm_sq!r}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def _tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.num_qubits)


def _check_qubit(state: StateVector, q: int) -> None:
    if not 0 <= q < state.num_qubits:
        raise ValueError(f"qubit {q} out of range for a {state.num_qubits}-qubit register")


def _check_unitary(gate: np.ndarray) -> np.ndarray:
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (2, 2):
        raise ValueError(f"expected a 2x2 gate, got shape {gate.shape}")
    if np.max(np.abs(gate @ gate.conj().T - I)) > _UNITARY_TOL:
        raise ValueError("gate is not unitary")
    return gate


def basis_state(num_qubits: int, bits: str) -> StateVector:
    """Computational basis state |bits>, e.g. ``basis_state(2, "10")``."""
    if len(bits) != num_qubits:
        raise ValueError(f"bit string {bits!r} does not match {num_qubits} qubits")
    if set(bits) - {"0", "1"}:
        raise ValueError(f"bit string may only contain 0 and 1, got {bits!r}")
    _check_cap(num_qubits)
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(num_qubits, amps)


def apply_gate(state: StateVector, q: int, gate: np.ndarray) -> StateVector:
    """Apply a single-qubit unitary to qubit ``q``."""
    _check_qubit(state, q)
    gate = _check_unitary(gate)
    t = np.tensordot(gate, state._tensor(), axes=([1], [q]))
    t = np.moveaxis(t, 0, q)
    return StateVector(state.num_qubits, t.reshape(-1))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker composition; a's qubits come first in the combined register."""
    _check_cap(a.num_qubits + b.num_qubits)
    return StateVector(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))


def permute_qubits(state: StateVector, perm: list[int]) -> StateVector:
    """Relabel qubits: input qubit ``i`` becomes output qubit ``perm[i]``."""
    if sorted(perm) != list(range(state.num_qubits)):
        raise ValueError(f"{perm!r} is not a permutation of 0..{state.num_qubits - 1}")
    t = np.moveaxis(state._tensor(), list(range(state.num_qubits)), perm)
    return StateVector(state.num_qubits, t.reshape(-1))


def _contract(
    t: np.ndarray, bra: np.ndarray, axes: tuple[int, ...]
) -> tuple[float, np.ndarray | None]:
    """Contract ``bra`` against ``axes`` of the amplitude tensor ``t``.

    The contracted axes leave the tensor; the rest keep their order.  Returns
    the probability and the renormalized remainder ``coeff/√p``, or ``None``
    in place of the remainder below ``ZERO_BRANCH_TOL``.
    """
    coeff = np.tensordot(bra, t, axes=(list(range(bra.ndim)), list(axes)))
    prob = float(np.sum(np.abs(coeff) ** 2))
    if prob < ZERO_BRANCH_TOL:
        return prob, None
    return prob, coeff / np.sqrt(prob)


def project(
    state: StateVector, q: int, basis: MeasBasis, outcome: int
) -> tuple[float, StateVector | None]:
    """Project qubit ``q`` onto the given basis outcome.

    Returns the branch probability and the renormalized post-measurement
    state (same register size, measured qubit left in its eigenstate).
    Branches with probability below ``ZERO_BRANCH_TOL`` return ``None``
    instead of a state, so exhaustive enumeration can skip them uniformly.
    """
    _check_qubit(state, q)
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
    vec = _BASIS_VECTORS[basis][outcome]
    prob, coeff = _contract(state._tensor(), np.conj(vec), (q,))
    if coeff is None:
        return prob, None
    collapsed = np.moveaxis(np.multiply.outer(vec, coeff), 0, q)
    return prob, StateVector(state.num_qubits, collapsed.reshape(-1))


def bell_project(
    state: StateVector, q1: int, q2: int, outcome: BellOutcome
) -> tuple[float, StateVector | None]:
    """Project qubits (q1, q2) onto a Bell state and drop them from the register.

    The collapsed state has ``num_qubits - 2`` qubits; the remaining qubits
    keep their relative order.  Zero-probability branches return ``None``
    as in :func:`project`.
    """
    _check_qubit(state, q1)
    _check_qubit(state, q2)
    if q1 == q2:
        raise ValueError("Bell projection needs two distinct qubits")
    if state.num_qubits < 3:
        raise ValueError("Bell projection would leave an empty register")
    bell = np.conj(outcome.vector).reshape(2, 2)
    prob, coeff = _contract(state._tensor(), bell, (q1, q2))
    if coeff is None:
        return prob, None
    return prob, StateVector(state.num_qubits - 2, coeff.reshape(-1))


def reduced_density(state: StateVector, q: int) -> np.ndarray:
    """Single-qubit density matrix of ``q`` (partial trace over the rest)."""
    _check_qubit(state, q)
    if state.num_qubits == 1:
        amps = state.amplitudes
        return np.outer(amps, amps.conj())
    t = np.moveaxis(state._tensor(), q, 0).reshape(2, -1)
    return t @ t.conj().T


def _dense(num_qubits: int, pairs) -> StateVector:
    _check_cap(num_qubits)
    amps = np.zeros(2**num_qubits, dtype=complex)
    for index, amp in pairs:
        amps[index] = amp
    return StateVector(num_qubits, amps)


def make_channel(sizes: PartySizes) -> StateVector:
    """The (1+m+n)-qubit channel shared by Alice, the Bobs, and the Charlies."""
    return _dense(sizes.channel_qubits, _channel_support(sizes))


def make_standard_form(sizes: PartySizes) -> StateVector:
    """The channel in graph product form, built from its sign expansion.

    Expanding the product (|0_A> + |1_A> Z_B1)(|0_B1> + |1_B1> Z_B2..Z_Bm Z_C1)
    (|0_B2>+|1_B2>)..(|0_C1> + |1_C1> Z_C2..Z_Cn).. gives one term per bit
    string, with sign -1 raised to the number of "both ends set" pairs along
    the edges A-B1, B1-Bi, B1-C1, and C1-Cj.  Equivalent to Hadamards on every
    qubit except B1 and C1 of :func:`make_channel`; deliberately not computed
    that way, so the equivalence stays a two-path check.
    """
    m, n = sizes.m, sizes.n
    total = sizes.channel_qubits
    _check_cap(total)
    a_q, b1_q, c1_q = 0, 1, 1 + m
    shifts = total - 1 - np.arange(total)
    bits = (np.arange(2**total)[:, None] >> shifts[None, :]) & 1
    other_bobs = bits[:, 2 : 1 + m].sum(axis=1)
    other_charlies = bits[:, 2 + m :].sum(axis=1)
    exponent = (
        bits[:, a_q] * bits[:, b1_q]
        + bits[:, b1_q] * (other_bobs + bits[:, c1_q])
        + bits[:, c1_q] * other_charlies
    )
    amps = np.where(exponent % 2 == 0, 1.0, -1.0).astype(complex)
    return StateVector(total, amps / 2 ** (total / 2))


def make_fake_channel(sizes: PartySizes) -> StateVector:
    """Eve's (m+n)-qubit substitute: the channel structure with no A qubit."""
    return _dense(sizes.m + sizes.n, _fake_channel_support(sizes))


def compose_with_secret(secret: SecretState, channel: StateVector) -> StateVector:
    """Prepend the secret qubit S to the channel register."""
    return tensor(secret.as_state(), channel)


def build_scenario_state(sizes: PartySizes, scenario: Scenario) -> StateVector:
    """Joint state of every qubit in play for the scenario.

    Honest: the channel itself.  Under attack: channel (Alice + Eve's
    captured block) tensored with the fake channel the agents receive.
    Raises RegisterCapError, before building anything, when the combined
    register exceeds the cap, and TypeError unless ``scenario`` is a
    :class:`hqis.adversary.Scenario`.  ``adversary.correlation_check`` and
    ``adversary.exact_detection_probability`` work on this state's support
    alone; the dense state is kept as the reference the tests compare with.
    """
    honest_only = _check_scenario(scenario) is Scenario.HONEST
    _check_cap(sizes.channel_qubits + (0 if honest_only else sizes.m + sizes.n))
    honest = make_channel(sizes)
    if honest_only:
        return honest
    return tensor(honest, make_fake_channel(sizes))


def agent_marginal(
    sizes: PartySizes, secret: SecretState, bell: BellOutcome, agent: protocol.Role
) -> np.ndarray:
    """Single-qubit density matrix an agent holds right after Alice's broadcast.

    A partial trace over the Bell child on the class register (a, c): the
    entries that differ only in the agent's class bit make up one 2-vector,
    and the matrix is the sum of those vectors' outer products.  A class with
    another member keeps its copy of the bit, so each vector is one entry.
    """
    protocol._check_role(sizes, agent)
    _, post = protocol._bell_children(secret)[protocol._BELL_OUTCOMES.index(bell)]
    shift, alone = (1, sizes.m == 1) if agent.grade == "bob" else (0, sizes.n == 1)
    keep = ~(alone << shift)  # the agent's bit leaves the key only with its last copy
    vectors = {}
    for index, amp in post:
        vectors.setdefault(index & keep, np.zeros(2, complex))[index >> shift & 1] += amp
    return sum(np.outer(vec, vec.conj()) for vec in vectors.values())


class _HelperBits(Mapping):
    """The helpers' reported bits, Role -> bit, in plan order: a view of one
    branch's outcomes, a byte per helper, through the plan's runs, which the
    branches share; a role is found in at most three ranges, and Roles are
    made only when iterated.  ``values()`` and ``items()`` are tuples."""

    __slots__ = ("_runs", "_bits")

    def __init__(self, runs: tuple, bits: bytes):
        self._runs = runs
        self._bits = bits

    def __getitem__(self, role):
        start = 0
        for grade, run in self._runs:
            # Any pair equal to a Role, as a dict keyed by Roles would find it.
            if isinstance(role, tuple) and len(role) == 2 and role[0] == grade and role[1] in run:
                return self._bits[start + run.index(role[1])]
            start += len(run)
        raise KeyError(role)

    def __iter__(self):
        return (protocol.Role(grade, index) for grade, indices in self._runs for index in indices)

    def __len__(self):
        return len(self._bits)

    def values(self):
        return tuple(self._bits)

    def items(self):
        return tuple(zip(self, self._bits))

    def __repr__(self):
        return repr(dict(self.items()))


class TrialResult(namedtuple("TrialResult", "bell classical_bits v_g1 v_g2_or_charlie_star"
                             " correction branch_probability fidelity")):
    """Outcome record of one protocol execution branch: a BellOutcome, the
    helpers' bits (a Mapping, Role -> bit), two bits, a CorrectionOp, two floats."""

    __slots__ = ()


def run_recovery(
    sizes: PartySizes,
    designee: protocol.Designee,
    secret: SecretState,
    rng: "qstate.Stream | np.random.Generator",
) -> TrialResult:
    """One sampled run: the Bell outcome and each helper's outcome are drawn
    from ``rng`` with one ``rng.random(1 + helpers)`` call, and the branch
    ``run_pick`` reads off the run's table is returned as a ``TrialResult``."""
    table = protocol._leaf_table(sizes, designee, secret)
    leaf, bits = protocol.run_pick(table, rng.random(1 + table.helpers))
    return TrialResult(leaf[0], _HelperBits(table.runs, bits), *leaf[1:])


def iter_branches(
    sizes: PartySizes,
    designee: protocol.Designee,
    secret: SecretState,
    branch_limit: int = protocol.DEFAULT_BRANCH_LIMIT,
):
    """Yield the branches of :func:`enumerate_branches` as the walk reaches them.

    The designee and the branch limit, an int, are checked when the first
    branch is requested, so a failing enumeration raises before it yields
    anything.
    """
    protocol._check_branch_limit(sizes, designee, branch_limit)
    table = protocol._leaf_table(sizes, designee, secret)
    for (leaf,), bits in table.walk(0):
        yield TrialResult(leaf[0], _HelperBits(table.runs, bits), *leaf[1:])


def enumerate_branches(
    sizes: PartySizes,
    designee: protocol.Designee,
    secret: SecretState,
    branch_limit: int = protocol.DEFAULT_BRANCH_LIMIT,
) -> list[TrialResult]:
    """Walk every (Bell outcome x agent outcomes) branch deterministically.

    Every branch is possible; the branch probabilities of the returned
    results sum to 1.
    """
    return list(iter_branches(sizes, designee, secret, branch_limit))
