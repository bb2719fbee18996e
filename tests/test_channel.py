import itertools

import numpy as np
import pytest
from conftest import bits_index, explicit_channel, phi_components, random_secrets

from hqis import qstate
from hqis.channel import (
    PartySizes,
    SecretState,
    compose_with_secret,
    make_channel,
    make_fake_channel,
    make_standard_form,
)
from hqis.qstate import (
    BellOutcome,
    RegisterCapError,
    apply_gate,
    bell_project,
    permute_qubits,
    reduced_density,
)

ALL_SIZES = list(itertools.product((1, 2, 3), repeat=2))


def test_party_sizes_validation():
    with pytest.raises(ValueError):
        PartySizes(0, 1)
    with pytest.raises(ValueError):
        PartySizes(1, -2)
    for m, n in ((0, 1), (1, -2), (0, 0)):
        with pytest.raises(ValueError) as caught:
            PartySizes(m=m, n=n)
        assert str(caught.value) == f"need at least one agent per grade, got m={m}, n={n}"


def test_party_sizes_respects_cap(monkeypatch):
    # The cap bounds the dense constructors, not the sizes: (1+m+n) channel
    # qubits pass a cap of 5 at m=n=2 and fail it at m=3, n=2.
    monkeypatch.setenv("HQIS_MAX_QUBITS", "5")
    PartySizes(1, 2)
    make_channel(PartySizes(2, 2))
    make_standard_form(PartySizes(2, 2))
    with pytest.raises(RegisterCapError):
        make_channel(PartySizes(3, 2))
    with pytest.raises(RegisterCapError):
        make_standard_form(PartySizes(3, 2))


def test_channel_m1_n1_explicit():
    state = make_channel(PartySizes(1, 1))
    expected = np.zeros(8, dtype=complex)
    expected[0b000] = 0.5
    expected[0b001] = 0.5
    expected[0b110] = 0.5
    expected[0b111] = -0.5
    np.testing.assert_allclose(state.amplitudes, expected)


def test_channel_support_structure():
    state = make_channel(PartySizes(2, 3))
    nonzero = np.flatnonzero(np.abs(state.amplitudes) > 1e-15)
    assert len(nonzero) == 4
    np.testing.assert_allclose(np.abs(state.amplitudes[nonzero]), 0.5)


@pytest.mark.parametrize("m,n", ALL_SIZES)
def test_channel_matches_handwritten_amplitudes(m, n):
    np.testing.assert_allclose(
        make_channel(PartySizes(m, n)).amplitudes, explicit_channel(m, n)
    )


@pytest.mark.parametrize("m,n", [(2, 2), (3, 1), (2, 3), (3, 3)])
def test_channel_block_permutation_invariance(m, n):
    state = make_channel(PartySizes(m, n))
    total = 1 + m + n
    for block in (range(1, 1 + m), range(1 + m, total)):
        block = list(block)
        for a, b in itertools.combinations(block, 2):
            perm = list(range(total))
            perm[a], perm[b] = perm[b], perm[a]
            swapped = permute_qubits(state, perm)
            np.testing.assert_allclose(swapped.amplitudes, state.amplitudes)


@pytest.mark.parametrize("m,n", ALL_SIZES)
def test_standard_form_equals_hadamard_path(m, n):
    sizes = PartySizes(m, n)
    transformed = make_channel(sizes)
    targets = [0] + list(range(2, 1 + m)) + list(range(2 + m, 1 + m + n))
    for q in targets:
        transformed = apply_gate(transformed, q, qstate.H)
    np.testing.assert_allclose(
        make_standard_form(sizes).amplitudes, transformed.amplitudes, atol=1e-12
    )


def test_standard_form_m1_n1_is_hadamard_on_alice_only():
    transformed = apply_gate(make_channel(PartySizes(1, 1)), 0, qstate.H)
    np.testing.assert_allclose(
        make_standard_form(PartySizes(1, 1)).amplitudes, transformed.amplitudes, atol=1e-12
    )


@pytest.mark.parametrize("m,n", ALL_SIZES)
def test_standard_form_unit_norm(m, n):
    amps = make_standard_form(PartySizes(m, n)).amplitudes
    assert abs(np.sum(np.abs(amps) ** 2) - 1) < 1e-12


def test_fake_channel_m1_n1_explicit():
    state = make_fake_channel(PartySizes(1, 1))
    np.testing.assert_allclose(state.amplitudes, [0.5, 0.5, 0.5, -0.5])


@pytest.mark.parametrize("m,n", ALL_SIZES)
def test_fake_channel_support(m, n):
    amps = make_fake_channel(PartySizes(m, n)).amplitudes
    expected = np.zeros(2 ** (m + n), dtype=complex)
    expected[bits_index([0] * m + [0] * n)] = 0.5
    expected[bits_index([0] * m + [1] * n)] = 0.5
    expected[bits_index([1] * m + [0] * n)] = 0.5
    expected[bits_index([1] * m + [1] * n)] = -0.5
    np.testing.assert_allclose(amps, expected)


def test_fake_channel_block_permutation_invariance():
    state = make_fake_channel(PartySizes(3, 2))
    perm = [1, 0, 2, 3, 4]  # swap two B qubits
    np.testing.assert_allclose(permute_qubits(state, perm).amplitudes, state.amplitudes)
    perm = [0, 1, 2, 4, 3]  # swap two C qubits
    np.testing.assert_allclose(permute_qubits(state, perm).amplitudes, state.amplitudes)


def test_compose_with_basis_secret():
    channel = make_channel(PartySizes(1, 1))
    whole = compose_with_secret(SecretState(1, 0), channel)
    np.testing.assert_allclose(whole.amplitudes[:8], channel.amplitudes)
    np.testing.assert_allclose(whole.amplitudes[8:], 0)


def test_compose_norm_for_random_secrets():
    channel = make_channel(PartySizes(2, 2))
    for secret in random_secrets(5, seed=99):
        whole = compose_with_secret(secret, channel)
        assert abs(np.sum(np.abs(whole.amplitudes) ** 2) - 1) < 1e-12


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 2)])
def test_bell_collapse_mixes_the_component_states(m, n):
    # oracle: explicitly constructed component vectors
    secret = SecretState(0.6, 0.8j)
    whole = compose_with_secret(secret, make_channel(PartySizes(m, n)))
    phi0, phi1 = phi_components(m, n)
    _, collapsed = bell_project(whole, 0, 1, BellOutcome.PHI_PLUS)
    expected = secret.alpha * phi0 + secret.beta * phi1
    overlap = abs(np.vdot(expected, collapsed.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_computational_support_has_ghz_correlations():
    for m, n in ALL_SIZES:
        state = make_channel(PartySizes(m, n))
        total = 1 + m + n
        for idx in np.flatnonzero(np.abs(state.amplitudes) > 1e-15):
            bits = [(int(idx) >> (total - 1 - q)) & 1 for q in range(total)]
            assert all(b == bits[0] for b in bits[1 : 1 + m])
            assert len(set(bits[1 + m :])) == 1


@pytest.mark.parametrize("m,n", ALL_SIZES)
def test_alice_marginal_is_maximally_mixed(m, n):
    rho = reduced_density(make_channel(PartySizes(m, n)), 0)
    np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)
