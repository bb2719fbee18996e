"""Shared test oracles, built with raw numpy or written out by hand so they
stay independent of the operations they check."""

import importlib

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


def _reference_qubit(sizes, role):
    # register order after the Bell projection dropped S and A: Bobs, then Charlies
    return role.index - 1 if role.grade == "bob" else sizes.m + role.index - 1


def _reference_whole_support(sizes, secret):
    """The secret qubit S joined to the channel's four terms, as (basis index,
    amplitude) pairs over (S, A, Bobs, Charlies) in index order, written out
    by hand."""
    m, n = sizes.m, sizes.n
    terms = ((0, 0, 0.5), (0, 1, 0.5), (1, 0, 0.5), (1, 1, -0.5))
    return [
        (bits_index([s_bit] + [a_bit] * (1 + m) + [c_bit] * n), complex(s_amp) * complex(amp))
        for s_bit, s_amp in enumerate((secret.alpha, secret.beta))
        for a_bit, c_bit, amp in terms
    ]


def _sample_outcome(children, draw: float):
    """Pick one outcome of a measurement by a uniform ``draw`` in [0, 1),
    given ``children``, its ``(prob, post)`` pairs in outcome order, ``post``
    ``None`` for an impossible outcome.  Returns ``(outcome, prob, post)``.

    Walks the cumulative probability of the possible outcomes in order and
    stops at the first sum past the draw; a draw past the last sum, which
    only rounding allows, takes the last possible outcome.  The sampling
    rule ``protocol.run_pick`` keeps with its stored sums.
    """
    cumulative = 0.0
    drawn = None
    for outcome, (prob, post) in enumerate(children):
        if post is None:
            continue
        drawn = outcome, prob, post
        cumulative += prob
        if draw < cumulative:
            break
    return drawn


# The modules whose attributes bench/worker.py searches for memo caches, and
# clears, before each in-process call, so that a call starts as cold as a CLI
# process.
CLEARED_MODULES = ("qstate", "channel", "protocol", "adversary", "cli")


def memo_caches(*modules: str) -> list:
    """The objects with a ``cache_clear`` among the attributes of the named
    ``hqis`` modules, each once: a cache imported by another module counts once."""
    found = {}
    for name in modules:
        for obj in vars(importlib.import_module(f"hqis.{name}")).values():
            if hasattr(obj, "cache_clear"):
                found[id(obj)] = obj
    return list(found.values())


def clear_memo_caches() -> None:
    """Start cold, as bench/worker.py does before each call."""
    for cache in memo_caches(*CLEARED_MODULES):
        cache.cache_clear()
