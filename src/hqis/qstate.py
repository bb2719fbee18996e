"""Complex state core: a support-only contraction, plus dense state vectors.

The protocol's runs hold each state as its support, ``(basis index,
amplitude)`` pairs plus the qubit count, measured with
:func:`_contract_support` and sampled with :func:`_sample_outcome`.  The
dense :class:`StateVector` operations are the oracle those are tested
against, and the API the acceptance tests use.  Qubit 0 sits at the most
significant bit of the amplitude index, so ``basis_state(3, "110")`` puts
its single nonzero amplitude at index ``0b110``.  States are immutable
values: every operation returns a fresh :class:`StateVector`.
"""

import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

DEFAULT_MAX_QUBITS = 24
NORM_TOL = 1e-10
ZERO_BRANCH_TOL = 1e-14
_UNITARY_TOL = 1e-12

_SQRT2_INV = 1.0 / np.sqrt(2.0)

# Single-qubit gate constants.  IY is i*sigma_y written as a real matrix;
# the factor i only shifts global phase, which no fidelity can see.
I = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
IY = np.array([[0, 1], [-1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV


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


def _check_cap(num_qubits: int) -> None:
    cap = register_cap()
    if num_qubits > cap:
        raise RegisterCapError(
            f"register of {num_qubits} qubits exceeds the cap of {cap}; "
            f"raise HQIS_MAX_QUBITS to allow larger dense states"
        )


class MeasBasis(Enum):
    COMPUTATIONAL = "computational"
    PLUS_MINUS = "plus_minus"


# Basis eigenvectors indexed by outcome bit: 0 -> |0> / |+>, 1 -> |1> / |->.
_BASIS_VECTORS = {
    MeasBasis.COMPUTATIONAL: (
        np.array([1, 0], dtype=complex),
        np.array([0, 1], dtype=complex),
    ),
    MeasBasis.PLUS_MINUS: (
        np.array([1, 1], dtype=complex) * _SQRT2_INV,
        np.array([1, -1], dtype=complex) * _SQRT2_INV,
    ),
}


class BellOutcome(Enum):
    """The four Bell states of a qubit pair, (|00>±|11>)/√2 and (|01>±|10>)/√2."""

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"

    @property
    def is_phi(self) -> bool:
        return self in (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS)

    @property
    def sign_bit(self) -> int:
        """0 for the + states, 1 for the - states."""
        return 0 if self in (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS) else 1

    @property
    def vector(self) -> np.ndarray:
        return _BELL_VECTORS[self]


_BELL_VECTORS = {
    BellOutcome.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) * _SQRT2_INV,
    BellOutcome.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) * _SQRT2_INV,
    BellOutcome.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) * _SQRT2_INV,
    BellOutcome.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) * _SQRT2_INV,
}


def _as_bra(vec: np.ndarray) -> tuple[complex, ...]:
    return tuple(complex(c) for c in np.conj(vec))


# The same bras as plain tuples, as :func:`_contract_support` takes them.
_BASIS_BRAS = {basis: tuple(map(_as_bra, vecs)) for basis, vecs in _BASIS_VECTORS.items()}
_BELL_BRAS = {outcome: _as_bra(vec) for outcome, vec in _BELL_VECTORS.items()}


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


@dataclass(frozen=True)
class SecretState:
    """Normalized single-qubit amplitude pair (alpha, beta)."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        norm_sq = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm_sq - 1.0) <= NORM_TOL:  # NaN fails this comparison too
            raise ValueError(f"secret is not normalized: |a|^2+|b|^2 = {norm_sq!r}")

    def as_state(self) -> StateVector:
        return StateVector(1, np.array([self.alpha, self.beta], dtype=complex))

    @classmethod
    def haar_random(cls, rng: np.random.Generator) -> "SecretState":
        """Draw uniformly from the single-qubit pure-state distribution."""
        raw = rng.normal(size=4)
        vec = raw[:2] + 1j * raw[2:]
        vec /= np.linalg.norm(vec)
        return cls(complex(vec[0]), complex(vec[1]))


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


def _contract_support(
    pairs, num_qubits: int, bra: tuple[complex, ...], axis: int
) -> tuple[float, list[tuple[int, complex]] | None]:
    """:func:`_contract` on a state held as its support.

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
    prob = sum((c.real * c.real + c.imag * c.imag for c in coeffs.values()), 0.0)
    if prob < ZERO_BRANCH_TOL:
        return prob, None
    norm = math.sqrt(prob)
    return prob, [(key, c / norm) for key, c in coeffs.items()]


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


def _sample_outcome(branch, count: int, draw: float):
    """Pick one of the ``count`` outcomes of a measurement by a uniform
    ``draw`` in [0, 1), given ``branch(outcome)`` that returns
    ``(prob, post)``, ``post`` ``None`` for an impossible outcome.  Returns
    ``(outcome, prob, post)``.

    Walks the cumulative probability of the possible outcomes in order, and
    computes no branch past the one drawn; a draw past the last sum, which
    only rounding allows, takes the last possible outcome.
    """
    cumulative = 0.0
    drawn = None
    for outcome in range(count):
        prob, post = branch(outcome)
        if post is None:
            continue
        drawn = outcome, prob, post
        cumulative += prob
        if draw < cumulative:
            break
    return drawn


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
