"""Shared test oracles, built with raw numpy or written out by hand so they
stay independent of the operations they check."""

import numpy as np

RT2 = np.sqrt(2.0)


def bits_index(bits) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx


def explicit_channel(m: int, n: int) -> np.ndarray:
    """The four-term channel amplitudes written out by hand."""
    amps = np.zeros(2 ** (1 + m + n), dtype=complex)
    amps[bits_index([0] + [0] * m + [0] * n)] = 0.5
    amps[bits_index([0] + [0] * m + [1] * n)] = 0.5
    amps[bits_index([1] + [1] * m + [0] * n)] = 0.5
    amps[bits_index([1] + [1] * m + [1] * n)] = -0.5
    return amps


def phi_components(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two orthonormal agent-block states the Bell measurement mixes:
    B-block all zeros with a +GHZ C-block, and B-block all ones with -GHZ."""
    dim = 2 ** (m + n)
    phi0 = np.zeros(dim, dtype=complex)
    phi0[bits_index([0] * m + [0] * n)] = 1 / RT2
    phi0[bits_index([0] * m + [1] * n)] = 1 / RT2
    phi1 = np.zeros(dim, dtype=complex)
    phi1[bits_index([1] * m + [0] * n)] = 1 / RT2
    phi1[bits_index([1] * m + [1] * n)] = -1 / RT2
    return phi0, phi1


def random_state(num_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return raw / np.linalg.norm(raw)


def random_secrets(count: int, seed: int):
    from hqis import SecretState

    rng = np.random.default_rng(seed)
    return [SecretState.haar_random(rng) for _ in range(count)]


def _reference_plan(sizes, designee):
    """Helper measurements in protocol order, written out independently."""
    from hqis.protocol import Role
    from hqis.qstate import MeasBasis

    plus_minus = MeasBasis.PLUS_MINUS
    bobs = [Role.bob(i) for i in range(1, sizes.m + 1) if Role.bob(i) != designee.role]
    if designee.role.grade == "bob":
        star = Role.charlie(designee.charlie_star)
        return [(r, plus_minus) for r in bobs] + [(star, MeasBasis.COMPUTATIONAL)]
    charlies = [Role.charlie(j) for j in range(1, sizes.n + 1) if Role.charlie(j) != designee.role]
    return [(r, plus_minus) for r in bobs + charlies]
