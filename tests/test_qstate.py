import numpy as np
import pytest
from conftest import _sample_outcome, explicit_channel, random_state
from hypothesis import given, settings
from hypothesis import strategies as st

from hqis import qstate
from hqis.qstate import (
    BellOutcome,
    MeasBasis,
    RegisterCapError,
    SecretState,
    StateVector,
    apply_gate,
    basis_state,
    bell_project,
    permute_qubits,
    project,
    reduced_density,
    tensor,
)

RT2 = np.sqrt(2.0)


def sv(amps) -> StateVector:
    amps = np.asarray(amps, dtype=complex)
    return StateVector(int(np.log2(amps.size)), amps)


# --- construction ---

def test_basis_state_single_qubit():
    np.testing.assert_allclose(basis_state(1, "0").amplitudes, [1, 0])


def test_basis_state_indexing():
    state = basis_state(2, "10")
    assert state.amplitudes[0b10] == 1
    assert np.count_nonzero(state.amplitudes) == 1


def test_basis_state_normalized():
    state = basis_state(3, "111")
    assert np.count_nonzero(state.amplitudes) == 1
    assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-12


def test_basis_state_rejects_mismatch():
    with pytest.raises(ValueError):
        basis_state(2, "101")
    with pytest.raises(ValueError):
        basis_state(1, "2")


def test_basis_state_respects_cap(monkeypatch):
    monkeypatch.setenv("HQIS_MAX_QUBITS", "3")
    with pytest.raises(RegisterCapError):
        basis_state(4, "0000")


def test_statevector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))


def test_statevector_amplitudes_readonly():
    state = basis_state(1, "0")
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0


# --- gates ---

def test_hadamard_on_zero():
    state = apply_gate(basis_state(1, "0"), 0, qstate.H)
    np.testing.assert_allclose(state.amplitudes, [1 / RT2, 1 / RT2])


def test_pauli_z_flips_relative_phase():
    plus = sv([1 / RT2, 1 / RT2])
    state = apply_gate(plus, 0, qstate.Z)
    np.testing.assert_allclose(state.amplitudes, [1 / RT2, -1 / RT2])


def test_hadamard_twice_is_identity():
    # oracle: the composed matrix itself
    np.testing.assert_allclose(qstate.H @ qstate.H, np.eye(2), atol=1e-15)
    state = sv(random_state(3, seed=11))
    for q in range(3):
        back = apply_gate(apply_gate(state, q, qstate.H), q, qstate.H)
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)


def test_apply_gate_rejects_bad_input():
    state = basis_state(2, "00")
    with pytest.raises(ValueError):
        apply_gate(state, 2, qstate.X)
    with pytest.raises(ValueError):
        apply_gate(state, 0, np.array([[1, 1], [0, 1]], dtype=complex))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_gates_preserve_norm(seed, n, data):
    q = data.draw(st.integers(0, n - 1))
    gate = data.draw(st.sampled_from([qstate.I, qstate.X, qstate.Y, qstate.Z, qstate.H, qstate.IY]))
    state = apply_gate(sv(random_state(n, seed)), q, gate)
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1) < 1e-10


# --- tensor ---

def test_tensor_basis_product():
    state = tensor(basis_state(1, "0"), basis_state(1, "1"))
    np.testing.assert_allclose(state.amplitudes, basis_state(2, "01").amplitudes)


def test_tensor_keeps_norm():
    a, b = sv(random_state(2, 1)), sv(random_state(3, 2))
    assert abs(np.linalg.norm(tensor(a, b).amplitudes) - 1) < 1e-12


def test_tensor_of_secret_prepends():
    secret = SecretState(0.6, 0.8)
    state = tensor(secret.as_state(), basis_state(1, "0"))
    np.testing.assert_allclose(state.amplitudes, [0.6, 0, 0.8, 0])


def test_tensor_respects_cap(monkeypatch):
    monkeypatch.setenv("HQIS_MAX_QUBITS", "4")
    with pytest.raises(RegisterCapError):
        tensor(sv(random_state(3, 1)), sv(random_state(2, 2)))


# --- projection ---

def test_project_eigenstate():
    prob, collapsed = project(basis_state(1, "0"), 0, MeasBasis.COMPUTATIONAL, 0)
    assert prob == pytest.approx(1.0)
    np.testing.assert_allclose(collapsed.amplitudes, [1, 0])


def test_project_bell_pair_collapse():
    pair = sv([1 / RT2, 0, 0, 1 / RT2])
    prob, collapsed = project(pair, 0, MeasBasis.COMPUTATIONAL, 1)
    assert prob == pytest.approx(0.5)
    np.testing.assert_allclose(collapsed.amplitudes, basis_state(2, "11").amplitudes, atol=1e-15)


def test_project_alice_qubit_of_channel():
    # oracle: the explicit 3-qubit amplitude table
    state = sv(explicit_channel(1, 1))
    prob, _ = project(state, 0, MeasBasis.COMPUTATIONAL, 0)
    assert prob == pytest.approx(0.5, abs=1e-12)


def test_project_zero_probability_flagged():
    prob, collapsed = project(basis_state(1, "0"), 0, MeasBasis.COMPUTATIONAL, 1)
    assert prob < 1e-14
    assert collapsed is None


def test_project_validates_arguments():
    state = basis_state(2, "00")
    with pytest.raises(ValueError):
        project(state, 5, MeasBasis.COMPUTATIONAL, 0)
    with pytest.raises(ValueError):
        project(state, 0, MeasBasis.COMPUTATIONAL, 2)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_projection_completeness(seed, n, data):
    q = data.draw(st.integers(0, n - 1))
    basis = data.draw(st.sampled_from(list(MeasBasis)))
    state = sv(random_state(n, seed))
    p0, _ = project(state, q, basis, 0)
    p1, _ = project(state, q, basis, 1)
    assert abs(p0 + p1 - 1) < 1e-12


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_plus_minus_equals_hadamard_then_computational(seed, n, data):
    q = data.draw(st.integers(0, n - 1))
    state = sv(random_state(n, seed))
    rotated = apply_gate(state, q, qstate.H)
    for outcome in (0, 1):
        p_pm, _ = project(state, q, MeasBasis.PLUS_MINUS, outcome)
        p_comp, _ = project(rotated, q, MeasBasis.COMPUTATIONAL, outcome)
        assert abs(p_pm - p_comp) < 1e-12


# --- sampling ---

def _sample(pairs, num_qubits, q, bras, rng):
    """One sampled measurement as the protocol's walk makes it:
    ``_sample_outcome`` over ``_contract_support`` branches, one per bra."""
    children = [qstate._contract_support(pairs, num_qubits, bra, q) for bra in bras]
    outcome, _, _ = _sample_outcome(children, rng.random())
    return outcome


_COMPUTATIONAL = qstate._BASIS_BRAS[MeasBasis.COMPUTATIONAL]
_PLUS_MINUS = qstate._BASIS_BRAS[MeasBasis.PLUS_MINUS]
_BELL = tuple(qstate._BELL_BRAS[outcome] for outcome in BellOutcome)

_ONE = [(1, 1 + 0j)]
_PLUS = [(0, 1 / RT2 + 0j), (1, 1 / RT2 + 0j)]
# A 2-qubit state whose Bell weights, in BellOutcome order, are unequal.
_BELL_WEIGHTS = (0.1, 0.2, 0.3, 0.4)
_BELL_MIX = list(
    enumerate(sum(np.sqrt(w) * o.vector for w, o in zip(_BELL_WEIGHTS, BellOutcome)))
)


def test_measure_deterministic_on_eigenstates():
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert _sample(_ONE, 1, 0, _COMPUTATIONAL, rng) == 1
        assert _sample(_PLUS, 1, 0, _PLUS_MINUS, rng) == 0


def test_measure_reproducible_for_seed():
    runs = [
        [
            _sample(_PLUS, 1, 0, _COMPUTATIONAL, np.random.default_rng(17))
            for _ in range(32)
        ]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_measure_frequencies_follow_born_rule():
    rng = np.random.default_rng(123)
    for pairs, num_qubits, bras, expected in [
        (_PLUS, 1, _COMPUTATIONAL, (0.5, 0.5)),
        (_BELL_MIX, 2, _BELL, _BELL_WEIGHTS),
    ]:
        counts = np.bincount(
            [_sample(pairs, num_qubits, 0, bras, rng) for _ in range(100_000)],
            minlength=len(bras),
        )
        for count, prob in zip(counts, expected):
            assert count / 100_000 == pytest.approx(prob, abs=0.01)


# --- Bell projection ---

def test_bell_project_on_bell_state_itself():
    pair = tensor(sv(BellOutcome.PHI_PLUS.vector), basis_state(1, "0"))
    prob, collapsed = bell_project(pair, 0, 1, BellOutcome.PHI_PLUS)
    assert prob == pytest.approx(1.0)
    assert collapsed.num_qubits == 1
    prob, collapsed = bell_project(pair, 0, 1, BellOutcome.PSI_MINUS)
    assert prob < 1e-14 and collapsed is None


def test_bell_project_removes_two_qubits():
    state = sv(random_state(4, 5))
    _, collapsed = bell_project(state, 0, 1, BellOutcome.PHI_MINUS)
    assert collapsed.num_qubits == 2


def test_bell_project_outcomes_complete():
    for seed in range(5):
        state = sv(random_state(4, seed))
        total = sum(bell_project(state, 0, 1, o)[0] for o in BellOutcome)
        assert abs(total - 1) < 1e-12


def test_bell_project_needs_distinct_qubits():
    state = sv(random_state(3, 0))
    with pytest.raises(ValueError):
        bell_project(state, 1, 1, BellOutcome.PHI_PLUS)


def test_bell_project_needs_a_leftover_register():
    with pytest.raises(ValueError):
        bell_project(sv(random_state(2, 0)), 0, 1, BellOutcome.PHI_PLUS)


def test_secret_state_must_be_normalized():
    with pytest.raises(ValueError):
        SecretState(1.0, 1.0)
    with pytest.raises(ValueError) as caught:
        SecretState(alpha=1.0, beta=0.5)
    assert str(caught.value) == "secret is not normalized: |a|^2+|b|^2 = 1.25"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
def test_non_finite_amplitudes_fail_the_norm_checks(bad):
    with pytest.raises(ValueError, match="not normalized"):
        SecretState(1, bad)
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, np.array([1, bad]))


# --- reduced density / fidelity ---

def test_reduced_density_product_state():
    state = basis_state(2, "01")
    np.testing.assert_allclose(reduced_density(state, 0), [[1, 0], [0, 0]], atol=1e-15)
    np.testing.assert_allclose(reduced_density(state, 1), [[0, 0], [0, 1]], atol=1e-15)


def test_reduced_density_maximally_entangled():
    pair = sv([1 / RT2, 0, 0, 1 / RT2])
    for q in (0, 1):
        np.testing.assert_allclose(reduced_density(pair, q), np.eye(2) / 2, atol=1e-15)


def test_reduced_density_is_valid_density_matrix():
    state = sv(random_state(4, 9))
    rho = reduced_density(state, 2)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert abs(np.trace(rho).real - 1) < 1e-12
    assert min(np.linalg.eigvalsh(rho)) > -1e-12


def test_reduced_density_of_product_is_pure():
    a, b = sv(random_state(1, 4)), sv(random_state(3, 6))
    rho = reduced_density(tensor(a, b), 0)
    assert abs(np.trace(rho @ rho).real - 1) < 1e-10


# --- permutation equivariance ---

@given(seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=40, deadline=None)
def test_permutation_equivariance(seed, data):
    n = data.draw(st.integers(2, 4))
    perm = data.draw(st.permutations(range(n)))
    q = data.draw(st.integers(0, n - 1))
    gate = data.draw(st.sampled_from([qstate.X, qstate.Z, qstate.H]))
    state = sv(random_state(n, seed))
    relabel_then_apply = apply_gate(permute_qubits(state, list(perm)), perm[q], gate)
    apply_then_relabel = permute_qubits(apply_gate(state, q, gate), list(perm))
    np.testing.assert_allclose(
        relabel_then_apply.amplitudes, apply_then_relabel.amplitudes, atol=1e-12
    )


def test_permute_rejects_non_permutation():
    with pytest.raises(ValueError):
        permute_qubits(sv(random_state(2, 0)), [0, 0])


# --- support contraction against the dense one ---

# Small exact values, so sums cancel exactly or stay far from the zero tolerance.
_AMPLITUDES = (1, -1, 1j, -1j, 0.5, -0.5 + 0.5j)
_BRA_COMPONENTS = (0, 1, -1, 1j, 0.5, 1 / RT2, -1 / RT2)
_KNOWN_BRAS = [*qstate._BASIS_BRAS[MeasBasis.COMPUTATIONAL],
               *qstate._BASIS_BRAS[MeasBasis.PLUS_MINUS], *qstate._BELL_BRAS.values()]


def _assert_support_matches_dense(pairs, num_qubits, bra, axis):
    width = len(bra).bit_length() - 1
    dense = np.zeros(2**num_qubits, dtype=complex)
    for index, amp in pairs:
        dense[index] = amp
    prob, coeff = qstate._contract(
        dense.reshape((2,) * num_qubits),
        np.array(bra, dtype=complex).reshape((2,) * width),
        tuple(range(axis, axis + width)),
    )
    got_prob, got = qstate._contract_support(pairs, num_qubits, bra, axis)
    assert abs(got_prob - prob) <= 1e-12
    if coeff is None:
        assert got is None
        return
    keys = [key for key, _ in got]
    assert len(set(keys)) == len(keys)
    rebuilt = np.zeros(2 ** (num_qubits - width), dtype=complex)
    for key, amp in got:
        rebuilt[key] = amp
    np.testing.assert_allclose(rebuilt, coeff.reshape(-1), rtol=0, atol=1e-12)


@given(num_qubits=st.integers(1, 5), data=st.data())
@settings(max_examples=300, deadline=None)
def test_support_contraction_matches_dense(num_qubits, data):
    width = data.draw(st.sampled_from((1, 2) if num_qubits > 1 else (1,)))
    axis = data.draw(st.integers(0, num_qubits - width))
    indices = data.draw(
        st.lists(st.integers(0, 2**num_qubits - 1), min_size=1, max_size=8, unique=True)
    )
    amps = data.draw(
        st.lists(st.sampled_from(_AMPLITUDES), min_size=len(indices), max_size=len(indices))
    )
    random_bra = st.lists(st.sampled_from(_BRA_COMPONENTS), min_size=2**width, max_size=2**width)
    known = [b for b in _KNOWN_BRAS if len(b) == 2**width]
    bra = data.draw(st.one_of(st.sampled_from(known), random_bra.map(tuple)))
    pairs = sorted((index, complex(amp)) for index, amp in zip(indices, amps))
    _assert_support_matches_dense(pairs, num_qubits, tuple(complex(c) for c in bra), axis)


@pytest.mark.parametrize(
    "pairs, num_qubits, bra, axis",
    [
        # <-| against (|0>+|1>)/√2: the whole branch cancels.
        ([(0, 1 / RT2 + 0j), (1, 1 / RT2 + 0j)], 1,
         qstate._BASIS_BRAS[MeasBasis.PLUS_MINUS][1], 0),
        # <+| on qubit 0 of a two-qubit state: one remainder entry cancels.
        ([(0, 0.5 + 0j), (1, 0.5 + 0j), (2, 0.5 + 0j), (3, -0.5 + 0j)], 2,
         qstate._BASIS_BRAS[MeasBasis.PLUS_MINUS][0], 0),
        # <psi-| on qubits 1, 2, against a symmetric state: the whole branch cancels.
        ([(0b001, 0.5 + 0j), (0b010, 0.5 + 0j), (0b100, 0.5 + 0j), (0b111, 0.5 + 0j)], 3,
         qstate._BELL_BRAS[BellOutcome.PSI_MINUS], 1),
    ],
)
def test_support_contraction_with_cancelling_amplitudes(pairs, num_qubits, bra, axis):
    _assert_support_matches_dense(pairs, num_qubits, bra, axis)
