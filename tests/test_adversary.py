import itertools
import tracemalloc

import numpy as np
import pytest

from hqis.adversary import (
    CheckStats,
    Scenario,
    build_scenario_state,
    correlation_check,
    exact_detection_probability,
    missed_detection_probability,
)
from hqis.channel import PartySizes, make_channel, make_fake_channel
from hqis.qstate import MeasBasis, RegisterCapError, Stream, project

ALL_SIZES = list(itertools.product((1, 2, 3), repeat=2))


def _support_bits(state):
    total = state.num_qubits
    for idx in np.flatnonzero(np.abs(state.amplitudes) > 1e-15):
        yield [(int(idx) >> (total - 1 - q)) & 1 for q in range(total)]


def test_honest_state_is_the_channel():
    state = build_scenario_state(PartySizes(1, 1), Scenario.HONEST)
    assert state.num_qubits == 3
    expected = np.zeros(8, dtype=complex)
    expected[0b000] = expected[0b001] = expected[0b110] = 0.5
    expected[0b111] = -0.5
    np.testing.assert_allclose(state.amplitudes, expected)


def test_attack_state_is_channel_times_fake():
    state = build_scenario_state(PartySizes(1, 1), Scenario.INTERCEPT_RESEND)
    assert state.num_qubits == 5
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1) < 1e-12
    # sixteen nonzero amplitudes: four channel terms times four fake terms
    assert np.count_nonzero(np.abs(state.amplitudes) > 1e-15) == 16


def test_attack_state_cap_is_signaled(monkeypatch):
    monkeypatch.setenv("HQIS_MAX_QUBITS", "8")
    build_scenario_state(PartySizes(3, 2), Scenario.HONEST)
    with pytest.raises(RegisterCapError):
        build_scenario_state(PartySizes(3, 2), Scenario.INTERCEPT_RESEND)
    # the exact path must keep working at the same sizes
    assert exact_detection_probability(PartySizes(3, 2)) == pytest.approx(0.5, abs=1e-12)


def test_honest_support_has_perfect_correlations():
    for m, n in ALL_SIZES:
        state = build_scenario_state(PartySizes(m, n), Scenario.HONEST)
        for bits in _support_bits(state):
            assert all(b == bits[0] for b in bits[1 : 1 + m])
            assert len(set(bits[1 + m :])) == 1


def test_attack_support_keeps_intra_group_agreement():
    # delivered B bits still agree with each other, as do delivered C bits,
    # so only comparisons against Alice can expose the attack
    for m, n in [(2, 2), (3, 1), (1, 3)]:
        sizes = PartySizes(m, n)
        state = build_scenario_state(sizes, Scenario.INTERCEPT_RESEND)
        offset = 1 + m + n
        for bits in _support_bits(state):
            delivered_b = bits[offset : offset + m]
            delivered_c = bits[offset + m :]
            assert len(set(delivered_b)) == 1
            assert len(set(delivered_c)) == 1


@pytest.mark.parametrize("m,n", ALL_SIZES)
def test_exact_rates(m, n):
    sizes = PartySizes(m, n)
    assert exact_detection_probability(sizes) == pytest.approx(0.5, abs=1e-12)
    assert exact_detection_probability(sizes, Scenario.HONEST) == pytest.approx(0.0, abs=1e-12)


def test_extra_bobs_add_no_detection_power():
    rates = {exact_detection_probability(PartySizes(m, 2)) for m in (1, 2, 3)}
    assert all(abs(r - 0.5) < 1e-12 for r in rates)


def test_honest_check_is_exactly_clean():
    stats = correlation_check(PartySizes(2, 3), Scenario.HONEST, 500, np.random.default_rng(8))
    assert stats.alice_bob_match_rates == (1.0, 1.0)
    assert stats.charlie_group_consistent_rate == 1.0
    assert not stats.detected
    assert stats.rounds == 500


def test_attack_check_detects():
    stats = correlation_check(
        PartySizes(1, 1), Scenario.INTERCEPT_RESEND, 100_000, np.random.default_rng(9)
    )
    for rate in stats.alice_bob_match_rates:
        assert rate == pytest.approx(0.5, abs=0.01)
    assert stats.charlie_group_consistent_rate == 1.0
    assert stats.detected


def test_sampled_rate_converges_to_exact():
    rounds = 100_000
    for m, n in [(1, 1), (2, 2), (3, 3)]:
        sizes = PartySizes(m, n)
        stats = correlation_check(
            sizes, Scenario.INTERCEPT_RESEND, rounds, np.random.default_rng(1000 + m + 10 * n)
        )
        exact = exact_detection_probability(sizes)
        stderr = np.sqrt(exact * (1 - exact) / rounds)
        for rate in stats.alice_bob_match_rates:
            assert abs((1 - rate) - exact) <= 3 * stderr


def test_multi_round_miss_probability():
    sizes = PartySizes(2, 1)
    for rounds in (1, 8, 64):
        assert missed_detection_probability(sizes, rounds) == pytest.approx(
            0.5**rounds, rel=1e-12
        )
    assert missed_detection_probability(sizes, 64) <= 2.0**-64


def test_check_reproducible_for_seed():
    sizes = PartySizes(2, 2)
    a = correlation_check(sizes, Scenario.INTERCEPT_RESEND, 2000, np.random.default_rng(4))
    b = correlation_check(sizes, Scenario.INTERCEPT_RESEND, 2000, np.random.default_rng(4))
    assert a == b


def test_rounds_must_be_positive():
    for rounds in (-3, 0, 2**63):
        with pytest.raises(ValueError, match="rounds must be in 1.."):
            correlation_check(PartySizes(1, 1), Scenario.HONEST, rounds, np.random.default_rng(0))
        # The closed form takes the same bound, with the same message.
        with pytest.raises(ValueError, match=rf"^rounds must be in 1\.\.{2**63 - 1}, got {rounds}$"):
            missed_detection_probability(PartySizes(1, 1), rounds)


def test_a_fractional_round_count_is_refused():
    sizes = PartySizes(2, 2)
    with pytest.raises(TypeError):
        correlation_check(sizes, Scenario.INTERCEPT_RESEND, 2.5, Stream(0, 2))
    with pytest.raises(TypeError):
        missed_detection_probability(sizes, 2.5)


def test_a_numpy_round_count_gives_the_plain_int_result():
    sizes = PartySizes(2, 2)
    stats = correlation_check(sizes, Scenario.INTERCEPT_RESEND, np.int64(7), Stream(0, 2))
    assert stats == correlation_check(sizes, Scenario.INTERCEPT_RESEND, 7, Stream(0, 2))
    assert type(stats.rounds) is int
    for rate in (*stats.alice_bob_match_rates, stats.charlie_group_consistent_rate):
        assert type(rate) is float
    missed = missed_detection_probability(sizes, np.int64(7))
    assert type(missed) is float
    assert missed == missed_detection_probability(sizes, 7)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -0.1, 1.5])
def test_check_rejects_threshold_outside_unit_interval(threshold):
    with pytest.raises(ValueError, match=r"^threshold must be a number in \[0, 1\], got "):
        correlation_check(
            PartySizes(1, 1), Scenario.INTERCEPT_RESEND, 64, np.random.default_rng(0), threshold
        )


def _delivered_qubits(sizes, scenario):
    """(alice qubit, delivered Bob qubits, delivered Charlie qubits) in the
    joint register: the channel's agents when honest, the fake channel's
    under attack."""
    offset = 1 if scenario is Scenario.HONEST else 1 + sizes.m + sizes.n
    bobs = [offset + i for i in range(sizes.m)]
    charlies = [offset + sizes.m + j for j in range(sizes.n)]
    return 0, bobs, charlies


def _dense_correlation_check(sizes, scenario, rounds, rng, threshold=0.99):
    """Reference: one multinomial draw over every amplitude of the joint
    state, the tallies read off each basis index's count."""
    state = build_scenario_state(sizes, scenario)
    alice_q, bob_qs, charlie_qs = _delivered_qubits(sizes, scenario)

    probs = np.abs(state.amplitudes) ** 2
    probs /= probs.sum()
    counts = rng.multinomial(rounds, probs)

    total = state.num_qubits
    indices = np.arange(probs.size)

    def bit(q):
        return (indices >> (total - 1 - q)) & 1

    alice_bits = bit(alice_q)
    bob_matches = [int(counts[bit(q) == alice_bits].sum()) for q in bob_qs]
    charlie_bits = np.stack([bit(q) for q in charlie_qs])
    charlies_agree = int(counts[np.all(charlie_bits == charlie_bits[0], axis=0)].sum())

    match_rates = tuple(count / rounds for count in bob_matches)
    rule = f"flag when any Alice-vs-Bob computational match rate drops below {threshold}"
    return CheckStats(
        rounds=rounds,
        alice_bob_match_rates=match_rates,
        charlie_group_consistent_rate=charlies_agree / rounds,
        detected=any(rate < threshold for rate in match_rates),
        detection_rule=rule,
    )


@pytest.mark.parametrize("scenario", list(Scenario))
@pytest.mark.parametrize("m,n", ALL_SIZES)
def test_support_check_equals_dense_reference(m, n, scenario):
    sizes = PartySizes(m, n)
    for rounds in (1, 65535, 65536, 65537, 196625):
        seed = (rounds, m, n, int(scenario is Scenario.HONEST))
        expected = _dense_correlation_check(
            sizes, scenario, rounds, np.random.default_rng(seed), threshold=0.7
        )
        got = correlation_check(sizes, scenario, rounds, np.random.default_rng(seed), threshold=0.7)
        assert got == expected, (m, n, scenario, rounds)


def test_check_memory_does_not_grow_with_rounds():
    bound = 4 * 2**20
    # 2**63 - 1, the most rounds numpy's multinomial takes, costs what 10**5 does.
    for rounds in (10**5, 4 * 10**6, 2**63 - 1):
        tracemalloc.start()
        try:
            correlation_check(
                PartySizes(1, 1), Scenario.INTERCEPT_RESEND, rounds, np.random.default_rng(5)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (rounds, peak)


def test_check_cap_covers_the_joint_register(monkeypatch):
    # m=3, n=2 under attack: 1 + 2 * 5 = 11 joint qubits, past a cap of 10.
    # Only the dense joint state is held to the cap; the check builds none.
    monkeypatch.setenv("HQIS_MAX_QUBITS", "10")
    rng = np.random.default_rng(0)
    build_scenario_state(PartySizes(3, 2), Scenario.HONEST)
    with pytest.raises(RegisterCapError):
        build_scenario_state(PartySizes(3, 2), Scenario.INTERCEPT_RESEND)
    correlation_check(PartySizes(3, 2), Scenario.INTERCEPT_RESEND, 10, rng)
    monkeypatch.setenv("HQIS_MAX_QUBITS", "11")
    build_scenario_state(PartySizes(3, 2), Scenario.INTERCEPT_RESEND)


def test_honest_check_memory_does_not_grow_with_the_register():
    # The dense channel at m=n=10 alone is 2**21 amplitudes, 32 MiB.
    tracemalloc.start()
    try:
        stats = correlation_check(PartySizes(10, 10), Scenario.HONEST, 10, np.random.default_rng(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.alice_bob_match_rates == (1.0,) * 10
    assert peak < 2**20, peak


@pytest.mark.parametrize("scenario", list(Scenario))
def test_check_cost_does_not_grow_with_the_party_count(scenario):
    # Warm the per-scenario support, then check m=n=10**4: each support
    # index there would be a 20001-bit int, and the joint register 40001 qubits.
    correlation_check(PartySizes(1, 1), scenario, 10, np.random.default_rng(0))
    sizes = PartySizes(10**4, 10**4)
    tracemalloc.start()
    try:
        stats = correlation_check(sizes, scenario, 10, np.random.default_rng(3))
        exact = exact_detection_probability(sizes, scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(stats.alice_bob_match_rates) == 10**4
    assert exact == (0.5 if scenario is Scenario.INTERCEPT_RESEND else 0.0)
    assert peak < 2**19, peak


@pytest.mark.parametrize("scenario", ["honest", "intercept-resend", None, 1])
def test_a_scenario_must_be_a_scenario_member(scenario):
    sizes = PartySizes(2, 2)
    with pytest.raises(TypeError, match="scenario must be a Scenario"):
        exact_detection_probability(sizes, scenario)
    with pytest.raises(TypeError, match="scenario must be a Scenario"):
        correlation_check(sizes, scenario, 10, np.random.default_rng(0))
    with pytest.raises(TypeError, match="scenario must be a Scenario"):
        build_scenario_state(sizes, scenario)


# --- the exact rate against projection chains on the dense factors ---

def _chained_match_probability(state, first, rest, bit):
    """P(qubit `first` = bit and every qubit in `rest` = bit), by projection."""
    prob, conditioned = project(state, first, MeasBasis.COMPUTATIONAL, bit)
    if conditioned is None:
        return 0.0
    for q in rest:
        step, conditioned = project(conditioned, q, MeasBasis.COMPUTATIONAL, bit)
        if conditioned is None:
            return 0.0
        prob *= step
    return prob


def _dense_exact_detection_probability(sizes, scenario):
    """Reference: chain projections over the dense channel (and, under attack,
    the dense fake channel, which is independent of Alice's qubit)."""
    honest = make_channel(sizes)
    bob_qs = [1 + i for i in range(sizes.m)]
    match_prob = 0.0
    if scenario is Scenario.HONEST:
        for bit in (0, 1):
            match_prob += _chained_match_probability(honest, 0, bob_qs, bit)
    else:
        fake = make_fake_channel(sizes)
        fake_bob_qs = list(range(sizes.m))
        for bit in (0, 1):
            alice_prob, _ = project(honest, 0, MeasBasis.COMPUTATIONAL, bit)
            match_prob += alice_prob * _chained_match_probability(
                fake, fake_bob_qs[0], fake_bob_qs[1:], bit
            )
    return 1.0 - match_prob


@pytest.mark.parametrize("scenario", list(Scenario))
@pytest.mark.parametrize("m,n", list(itertools.product((1, 2, 3, 4), repeat=2)))
def test_exact_rate_equals_projection_chain(m, n, scenario):
    sizes = PartySizes(m, n)
    expected = _dense_exact_detection_probability(sizes, scenario)
    assert abs(exact_detection_probability(sizes, scenario) - expected) <= 1e-12
