"""Support-only state core: one contraction and one sampling rule.

The protocol's runs hold each state as its support, ``(basis index,
amplitude)`` pairs plus the qubit count, measured with
:func:`_contract_support` and sampled with :func:`_sample_outcome`.  Qubit 0
sits at the most significant bit of the index.  This module also owns the
register cap, the tolerances, the gate constants and the measurement bases.
The dense :class:`StateVector` layer, the oracle the support runtime is
tested against, lives in :mod:`hqis.dense`; the names that moved there from
here are still served, and load it the first time one of them is used.
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
class SecretState:
    """Normalized single-qubit amplitude pair (alpha, beta)."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        norm_sq = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm_sq - 1.0) <= NORM_TOL:  # NaN fails this comparison too
            raise ValueError(f"secret is not normalized: |a|^2+|b|^2 = {norm_sq!r}")

    def as_state(self):
        """The secret as a one-qubit dense :class:`hqis.dense.StateVector`."""
        from .dense import StateVector

        return StateVector(1, np.array([self.alpha, self.beta], dtype=complex))

    @classmethod
    def haar_random(cls, rng: np.random.Generator) -> "SecretState":
        """Draw uniformly from the single-qubit pure-state distribution."""
        raw = rng.normal(size=4)
        vec = raw[:2] + 1j * raw[2:]
        vec /= np.linalg.norm(vec)
        return cls(complex(vec[0]), complex(vec[1]))


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
    prob = sum((c.real * c.real + c.imag * c.imag for c in coeffs.values()), 0.0)
    if prob < ZERO_BRANCH_TOL:
        return prob, None
    norm = math.sqrt(prob)
    return prob, [(key, c / norm) for key, c in coeffs.items()]


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
})
