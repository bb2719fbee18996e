import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import _reference_plan, _reference_qubit, bits_index, random_secrets
from hypothesis import given, settings
from hypothesis import strategies as st

from hqis import dense, protocol, qstate
from hqis.channel import (
    _CLASSES,
    PartySizes,
    SecretState,
    _channel_support,
    compose_with_secret,
    make_channel,
)
from hqis.protocol import (
    BOB_CORRECTIONS,
    CHARLIE_CORRECTIONS,
    BellOutcome,
    BranchLimitError,
    CorrectionOp,
    Designee,
    Role,
    _helper_count,
    _walk_steps,
    agent_marginal,
    enumerate_branches,
    iter_branches,
    parity,
    run_recovery,
)
from hqis.qstate import (
    MeasBasis,
    Stream,
    apply_gate,
    bell_project,
    project,
    reduced_density,
)

RT2 = np.sqrt(2.0)
ALL_SIZES = list(itertools.product((1, 2, 3), repeat=2))
SECRETS = [
    SecretState(1, 0),
    SecretState(0, 1),
    SecretState(1 / RT2, 1 / RT2),
    SecretState(0.6, 0.8j),
]


def all_designees(sizes: PartySizes):
    for b in range(1, sizes.m + 1):
        for c in range(1, sizes.n + 1):
            yield Designee.bob(b, c)
    for c in range(1, sizes.n + 1):
        yield Designee.charlie(c)


# --- classical pieces ---

def test_parity():
    assert parity([]) == 0
    assert parity([1, 1, 0]) == 0
    assert parity([1, 0, 0]) == 1


def test_bob_table_examples():
    assert BOB_CORRECTIONS[BellOutcome.PHI_PLUS, 1] is CorrectionOp.Z
    assert BOB_CORRECTIONS[BellOutcome.PHI_PLUS, 0] is CorrectionOp.I
    assert BOB_CORRECTIONS[BellOutcome.PSI_MINUS, 0] is CorrectionOp.IY


def test_charlie_table_examples():
    assert CHARLIE_CORRECTIONS[BellOutcome.PHI_PLUS, 0, 0] is CorrectionOp.H
    assert CHARLIE_CORRECTIONS[BellOutcome.PSI_PLUS, 0, 1] is CorrectionOp.H
    assert CHARLIE_CORRECTIONS[BellOutcome.PHI_MINUS, 0, 1] is CorrectionOp.IYH


def test_tables_are_total():
    assert set(BOB_CORRECTIONS) == {(b, v) for b in BellOutcome for v in (0, 1)}
    assert set(CHARLIE_CORRECTIONS) == {
        (b, v1, v2) for b in BellOutcome for v1 in (0, 1) for v2 in (0, 1)
    }
    assert set(BOB_CORRECTIONS.values()) == {
        CorrectionOp.I, CorrectionOp.X, CorrectionOp.IY, CorrectionOp.Z
    }
    assert set(CHARLIE_CORRECTIONS.values()) == {
        CorrectionOp.H, CorrectionOp.XH, CorrectionOp.IYH, CorrectionOp.ZH
    }


def test_composite_corrections_apply_hadamard_first():
    plus = SecretState(1 / RT2, 1 / RT2).as_state()
    fixed = apply_gate(plus, 0, CorrectionOp.ZH.matrix)
    # H sends |+> to |0>, then Z leaves it alone; the other order would not.
    np.testing.assert_allclose(fixed.amplitudes, [1, 0], atol=1e-12)


# --- sampled runs ---

@pytest.mark.parametrize("m,n", ALL_SIZES)
def test_bob_recovery_perfect_fidelity(m, n):
    sizes = PartySizes(m, n)
    secret = SecretState(0.6, 0.8)
    rng = np.random.default_rng(101)
    for b in range(1, m + 1):
        for c in range(1, n + 1):
            for _ in range(4):
                result = run_recovery(sizes, Designee.bob(b, c), secret, rng)
                assert result.fidelity == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("m,n", ALL_SIZES)
def test_charlie_recovery_perfect_fidelity(m, n):
    sizes = PartySizes(m, n)
    rng = np.random.default_rng(202)
    for secret in random_secrets(2, seed=77):
        for c in range(1, n + 1):
            result = run_recovery(sizes, Designee.charlie(c), secret, rng)
            assert result.fidelity == pytest.approx(1.0, abs=1e-10)


def test_basis_secret_recovers_exactly():
    rng = np.random.default_rng(7)
    for _ in range(8):
        result = run_recovery(
            PartySizes(2, 2), Designee.bob(1, 2), SecretState(1, 0), rng
        )
        assert result.fidelity == pytest.approx(1.0, abs=1e-12)


def test_run_grade_validation():
    sizes = PartySizes(2, 2)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        run_recovery(sizes, Designee.bob(3, 1), SECRETS[0], rng)
    with pytest.raises(ValueError):
        run_recovery(sizes, Designee.charlie(5), SECRETS[0], rng)


def test_designee_construction_rules():
    with pytest.raises(ValueError):
        Designee(Role.bob(1))  # missing charlie_star
    with pytest.raises(ValueError):
        Designee(Role.charlie(1), charlie_star=1)
    with pytest.raises(ValueError):
        Designee(Role.alice())
    for build, message in (
        (lambda: Designee(Role.bob(1)), "a Bob designee needs a charlie-star index"),
        (lambda: Designee(Role.charlie(1), 1), "charlie-star only applies to Bob designees"),
        (lambda: Designee(Role.alice()), "the designee must be a Bob or a Charlie"),
    ):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message


def test_role_construction_rules():
    assert Role.bob(2).label == "bob:2"
    assert Role.alice().label == "alice"
    with pytest.raises(ValueError):
        Role("alice", 2)
    with pytest.raises(ValueError):
        Role.bob(0)
    with pytest.raises(ValueError):
        Role("eve", 1)
    for build, message in (
        (lambda: Role("alice", 2), "alice takes no index"),
        (lambda: Role.bob(0), "bob index must be >= 1, got 0"),
        (lambda: Role("charlie", -1), "charlie index must be >= 1, got -1"),
        (lambda: Role("eve", 1), "unknown grade 'eve'"),
    ):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message


def test_trial_records_consistent_classical_data():
    sizes = PartySizes(3, 2)
    rng = np.random.default_rng(11)
    result = run_recovery(sizes, Designee.bob(2, 1), SECRETS[3], rng)
    bob_bits = [b for r, b in result.classical_bits.items() if r.grade == "bob"]
    assert len(bob_bits) == 2  # the other Bobs
    assert result.v_g1 == parity(bob_bits)
    star_bit = result.classical_bits[Role.charlie(1)]
    assert result.v_g2_or_charlie_star == star_bit
    assert result.correction is BOB_CORRECTIONS[result.bell, result.v_g1 ^ star_bit]
    assert 0 < result.branch_probability <= 1


def test_classical_bits_read_as_a_mapping_in_plan_order():
    result = run_recovery(PartySizes(3, 2), Designee.bob(2, 1), SECRETS[3], np.random.default_rng(5))
    bits = result.classical_bits
    plan = [Role.bob(1), Role.bob(3), Role.charlie(1)]
    assert list(bits) == plan and len(bits) == 3
    assert bits.values() == tuple(bits[role] for role in plan)
    assert bits.items() == tuple(zip(plan, bits.values()))
    assert all(type(bit) is int for bit in bits.values())
    assert bits == dict(bits.items()) and dict(bits.items()) == bits
    assert repr(bits) == repr(dict(bits.items()))
    assert Role.bob(2) not in bits
    with pytest.raises(TypeError):
        bits[Role.bob(1)] = 1


# --- exhaustive enumeration ---

def test_enumeration_smallest_bob_case():
    results = enumerate_branches(PartySizes(1, 1), Designee.bob(1, 1), SECRETS[3])
    assert len(results) == 8
    assert sum(r.branch_probability for r in results) == pytest.approx(1.0, abs=1e-10)
    assert all(r.fidelity == pytest.approx(1.0, abs=1e-10) for r in results)


@pytest.mark.parametrize("m,n", ALL_SIZES)
def test_enumeration_succeeds_everywhere(m, n):
    sizes = PartySizes(m, n)
    for designee in all_designees(sizes):
        for secret in SECRETS:
            results = enumerate_branches(sizes, designee, secret)
            assert sum(r.branch_probability for r in results) == pytest.approx(1.0, abs=1e-10)
            assert min(r.fidelity for r in results) >= 1 - 1e-10


def test_enumeration_branch_counts():
    sizes = PartySizes(3, 2)
    assert len(enumerate_branches(sizes, Designee.bob(1, 1), SECRETS[0])) == 4 * 2**3
    assert len(enumerate_branches(sizes, Designee.charlie(2), SECRETS[0])) == 4 * 2**4


def test_single_bob_uses_charlie_star_alone():
    # m=1 leaves no other Bobs; v_sum reduces to the charlie* bit
    results = enumerate_branches(PartySizes(1, 2), Designee.bob(1, 2), SECRETS[2])
    for r in results:
        assert r.v_g1 == 0
        assert r.correction is BOB_CORRECTIONS[r.bell, r.v_g2_or_charlie_star]
        assert r.fidelity == pytest.approx(1.0, abs=1e-10)


def test_single_charlie_designee_has_empty_group_parity():
    results = enumerate_branches(PartySizes(2, 1), Designee.charlie(1), SECRETS[3])
    for r in results:
        assert r.v_g2_or_charlie_star == 0
        assert r.fidelity == pytest.approx(1.0, abs=1e-10)


def test_bell_outcomes_equally_likely():
    for m, n in ALL_SIZES:
        for secret in SECRETS:
            results = enumerate_branches(PartySizes(m, n), Designee.charlie(1), secret)
            per_bell = Counter()
            for r in results:
                per_bell[r.bell] += r.branch_probability
            for bell in BellOutcome:
                assert per_bell[bell] == pytest.approx(0.25, abs=1e-12)


def test_branch_limit_enforced():
    with pytest.raises(BranchLimitError):
        enumerate_branches(PartySizes(3, 3), Designee.charlie(1), SECRETS[0], branch_limit=16)


def _branch_signature(results):
    return sorted(
        (round(r.branch_probability, 12), round(r.fidelity, 12)) for r in results
    )


def test_designee_symmetry_within_grades():
    sizes = PartySizes(3, 3)
    secret = SECRETS[3]
    bob_runs = [
        _branch_signature(enumerate_branches(sizes, Designee.bob(b, 1), secret))
        for b in range(1, 4)
    ]
    assert bob_runs[0] == bob_runs[1] == bob_runs[2]
    charlie_runs = [
        _branch_signature(enumerate_branches(sizes, Designee.charlie(c), secret))
        for c in range(1, 4)
    ]
    assert charlie_runs[0] == charlie_runs[1] == charlie_runs[2]


def test_charlie_star_choice_is_irrelevant():
    sizes = PartySizes(2, 3)
    secret = SECRETS[2]
    runs = [
        _branch_signature(enumerate_branches(sizes, Designee.bob(1, c), secret))
        for c in range(1, 4)
    ]
    assert runs[0] == runs[1] == runs[2]


# --- post-recovery register checks, re-derived with public primitives ---

def _force_bob_branch(sizes, designee, secret, bell, outcomes):
    """Independent pipeline: project every participant outcome, apply the
    table correction, and return the final register."""
    whole = compose_with_secret(secret, make_channel(sizes))
    _, state = bell_project(whole, 0, 1, bell)
    other_bobs = [i for i in range(1, sizes.m + 1) if i != designee.role.index]
    bob_bits = []
    for i, outcome in zip(other_bobs, outcomes[:-1]):
        _, state = project(state, i - 1, MeasBasis.PLUS_MINUS, outcome)
        bob_bits.append(outcome)
    star_bit = outcomes[-1]
    star_qubit = sizes.m + designee.charlie_star - 1
    _, state = project(state, star_qubit, MeasBasis.COMPUTATIONAL, star_bit)
    op = BOB_CORRECTIONS[bell, parity(bob_bits) ^ star_bit]
    return apply_gate(state, designee.role.index - 1, op.matrix), star_bit


def test_idle_charlies_end_in_a_shared_computational_state():
    sizes = PartySizes(2, 3)
    secret = SecretState(0.6, 0.8j)
    designee = Designee.bob(1, 2)
    idle = [j for j in range(1, 4) if j != 2]
    for bell in BellOutcome:
        for outcomes in itertools.product((0, 1), repeat=2):
            state, star_bit = _force_bob_branch(sizes, designee, secret, bell, outcomes)
            for j in idle:
                rho = reduced_density(state, sizes.m + j - 1)
                expected = np.zeros((2, 2))
                expected[star_bit, star_bit] = 1
                np.testing.assert_allclose(rho, expected, atol=1e-10)


def test_designee_qubit_ends_pure_and_correct():
    sizes = PartySizes(2, 3)
    secret = SecretState(0.6, 0.8j)
    designee = Designee.bob(2, 1)
    for bell in BellOutcome:
        for outcomes in itertools.product((0, 1), repeat=2):
            state, _ = _force_bob_branch(sizes, designee, secret, bell, outcomes)
            rho = reduced_density(state, designee.role.index - 1)
            assert abs(np.trace(rho @ rho).real - 1) < 1e-10
            xi = np.array([secret.alpha, secret.beta])
            assert np.real(np.conj(xi) @ rho @ xi) == pytest.approx(1.0, abs=1e-10)


def test_plus_secret_all_plus_outcomes_need_only_hadamard():
    # the branch where every helper reports "+" after a phi+ broadcast
    sizes = PartySizes(2, 2)
    secret = SecretState(1 / RT2, 1 / RT2)
    whole = compose_with_secret(secret, make_channel(sizes))
    _, state = bell_project(whole, 0, 1, BellOutcome.PHI_PLUS)
    for q in (0, 1, 3):  # both Bobs and the other Charlie
        _, state = project(state, q, MeasBasis.PLUS_MINUS, 0)
    op = CHARLIE_CORRECTIONS[BellOutcome.PHI_PLUS, 0, 0]
    assert op is CorrectionOp.H
    state = apply_gate(state, 2, op.matrix)
    rho = reduced_density(state, 2)
    xi = np.array([secret.alpha, secret.beta])
    assert np.real(np.conj(xi) @ rho @ xi) == pytest.approx(1.0, abs=1e-10)


# --- marginals ---

def test_bob_marginal_reveals_moduli():
    secret = SecretState(0.6, 0.8j)
    for m, n in [(1, 1), (2, 2), (3, 2)]:
        for b in range(1, m + 1):
            rho = agent_marginal(PartySizes(m, n), secret, BellOutcome.PHI_PLUS, Role.bob(b))
            np.testing.assert_allclose(rho, np.diag([0.36, 0.64]), atol=1e-12)
            rho = agent_marginal(PartySizes(m, n), secret, BellOutcome.PSI_MINUS, Role.bob(b))
            np.testing.assert_allclose(rho, np.diag([0.64, 0.36]), atol=1e-12)


def test_charlie_marginal_is_mixed_with_partner_charlies():
    for secret in random_secrets(3, seed=5):
        for n in (2, 3):
            for c in range(1, n + 1):
                for bell in BellOutcome:
                    rho = agent_marginal(PartySizes(2, n), secret, bell, Role.charlie(c))
                    np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_lone_charlie_marginal_is_diagonal_in_plus_minus():
    # with n=1 there is no partner to trace over, so the moduli leak into
    # the |+>/|-> basis instead of vanishing
    secret = SecretState(0.6, 0.8j)
    plus = np.array([1, 1]) / RT2
    minus = np.array([1, -1]) / RT2
    expected_phi = 0.36 * np.outer(plus, plus) + 0.64 * np.outer(minus, minus)
    expected_psi = 0.64 * np.outer(plus, plus) + 0.36 * np.outer(minus, minus)
    for m in (1, 2):
        rho = agent_marginal(PartySizes(m, 1), secret, BellOutcome.PHI_PLUS, Role.charlie(1))
        np.testing.assert_allclose(rho, expected_phi, atol=1e-12)
        rho = agent_marginal(PartySizes(m, 1), secret, BellOutcome.PSI_PLUS, Role.charlie(1))
        np.testing.assert_allclose(rho, expected_psi, atol=1e-12)


def test_charlie_computational_statistics_stay_secret_independent():
    # even at n=1 the computational diagonal carries no amplitude information
    for secret in random_secrets(4, seed=21):
        for bell in BellOutcome:
            rho = agent_marginal(PartySizes(2, 1), secret, bell, Role.charlie(1))
            np.testing.assert_allclose(np.diag(rho).real, [0.5, 0.5], atol=1e-12)


def test_agent_marginal_rejects_alice():
    with pytest.raises(ValueError):
        agent_marginal(PartySizes(1, 1), SECRETS[0], BellOutcome.PHI_PLUS, Role.alice())


def _dense_marginal(sizes, secret, bell, agent):
    """Oracle: the agent's reduced density matrix of the dense post-Bell register."""
    whole = compose_with_secret(secret, make_channel(sizes))
    _, post = bell_project(whole, 0, 1, bell)
    return reduced_density(post, _reference_qubit(sizes, agent))


@pytest.mark.parametrize("m,n", list(itertools.product(range(1, 5), repeat=2)))
def test_agent_marginal_matches_the_dense_chain(m, n):
    sizes = PartySizes(m, n)
    agents = [Role.bob(i) for i in range(1, m + 1)] + [Role.charlie(j) for j in range(1, n + 1)]
    for secret in SECRETS + random_secrets(3, seed=m * 10 + n):
        for bell in BellOutcome:
            for agent in agents:
                np.testing.assert_allclose(
                    agent_marginal(sizes, secret, bell, agent),
                    _dense_marginal(sizes, secret, bell, agent),
                    rtol=0,
                    atol=1e-12,
                )


def test_agent_marginal_memory_follows_the_support():
    # The dense post-Bell register at m=n=10 holds 2**20 amplitudes (16 MiB),
    # and the register with S and A attached four times as many.
    sizes = PartySizes(10, 10)
    secret = SecretState(0.6, 0.8j)
    tracemalloc.start()
    try:
        rho = agent_marginal(sizes, secret, BellOutcome.PSI_MINUS, Role.bob(4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(rho, np.diag([0.64, 0.36]), atol=1e-12)
    assert peak < 2**20, peak


# --- sampled runs agree with enumeration ---

def _branch_key(result):
    bits = tuple(sorted((role.label, bit) for role, bit in result.classical_bits.items()))
    return result.bell, bits


def test_sampled_branch_frequencies_match_enumeration():
    sizes = PartySizes(1, 1)
    secret = SecretState(0.6, 0.8j)
    designee = Designee.bob(1, 1)
    expected = {
        _branch_key(r): r.branch_probability
        for r in enumerate_branches(sizes, designee, secret)
    }
    trials = 100_000
    rng = np.random.default_rng(314159)
    counts = Counter(
        _branch_key(run_recovery(sizes, designee, secret, rng)) for _ in range(trials)
    )
    assert set(counts) <= set(expected)
    for key, prob in expected.items():
        stderr = np.sqrt(prob * (1 - prob) / trials)
        assert abs(counts[key] / trials - prob) <= 3 * stderr


# --- the prefix-sharing walk against the per-leaf reference ---

def _reference_score(sizes, designee, secret, bell, state, bits, prob):
    v_g1 = parity(bit for role, bit in bits.items() if role.grade == "bob")
    if designee.role.grade == "bob":
        aux = bits[Role.charlie(designee.charlie_star)]
        op = BOB_CORRECTIONS[bell, v_g1 ^ aux]
    else:
        aux = parity(bit for role, bit in bits.items() if role.grade == "charlie")
        op = CHARLIE_CORRECTIONS[bell, v_g1, aux]
    q = _reference_qubit(sizes, designee.role)
    rho = reduced_density(apply_gate(state, q, op.matrix), q)
    xi = np.array([secret.alpha, secret.beta])
    return bell, bits, v_g1, aux, op, prob, float(np.real(np.conj(xi) @ rho @ xi))


def _reference_enumeration(sizes, designee, secret):
    """The per-leaf algorithm: every branch re-projects its whole prefix on the
    full register with the public ``project``, which keeps measured qubits."""
    whole = compose_with_secret(secret, make_channel(sizes))
    plan = _reference_plan(sizes, designee)
    for bell in BellOutcome:
        bell_prob, post_bell = bell_project(whole, 0, 1, bell)
        if post_bell is None:
            continue
        for forced in itertools.product((0, 1), repeat=len(plan)):
            state, prob, bits = post_bell, bell_prob, {}
            for (role, basis), outcome in zip(plan, forced):
                p, state = project(state, _reference_qubit(sizes, role), basis, outcome)
                if state is None:
                    break
                prob *= p
                bits[role] = outcome
            else:
                yield _reference_score(sizes, designee, secret, bell, state, bits, prob)


def _reference_sample(sizes, designee, secret, rng):
    """One sampled run on the full register: one draw for the Bell outcome, then
    one per helper, made only when that helper's outcome 0 is possible."""
    whole = compose_with_secret(secret, make_channel(sizes))
    draw, cumulative = rng.random(), 0.0
    for bell in BellOutcome:
        bell_prob, post_bell = bell_project(whole, 0, 1, bell)
        if post_bell is None:
            continue
        chosen = bell, bell_prob, post_bell
        cumulative += bell_prob
        if draw < cumulative:
            break
    bell, prob, state = chosen
    bits = {}
    for role, basis in _reference_plan(sizes, designee):
        q = _reference_qubit(sizes, role)
        p0, post0 = project(state, q, basis, 0)
        if post0 is not None and rng.random() < p0:
            outcome, p, state = 0, p0, post0
        else:
            p1, post1 = project(state, q, basis, 1)
            outcome, p, state = (0, p0, post0) if post1 is None else (1, p1, post1)
        prob *= p
        bits[role] = outcome
    return _reference_score(sizes, designee, secret, bell, state, bits, prob)


def _assert_same_branch(result, expected):
    bell, bits, v_g1, aux, op, prob, fidelity = expected
    assert result.bell is bell
    assert list(result.classical_bits.items()) == list(bits.items())
    assert (result.v_g1, result.v_g2_or_charlie_star) == (v_g1, aux)
    assert result.correction is op
    assert abs(result.branch_probability - prob) <= 1e-12
    assert abs(result.fidelity - fidelity) <= 1e-12


@pytest.mark.parametrize("grade", ["bob", "charlie"])
@given(m=st.integers(1, 4), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=40, deadline=None)
def test_walk_matches_per_leaf_reference(grade, m, n, seed, data):
    sizes = PartySizes(m, n)
    (secret,) = random_secrets(1, seed)
    if grade == "bob":
        designee = Designee.bob(data.draw(st.integers(1, m)), data.draw(st.integers(1, n)))
    else:
        designee = Designee.charlie(data.draw(st.integers(1, n)))
    results = enumerate_branches(sizes, designee, secret)
    expected = list(_reference_enumeration(sizes, designee, secret))
    assert len(results) == len(expected)
    for result, branch in zip(results, expected):
        _assert_same_branch(result, branch)
    for k in range(8):
        _assert_same_branch(
            run_recovery(sizes, designee, secret, Stream(seed, 1, k)),
            _reference_sample(sizes, designee, secret, Stream(seed, 1, k)),
        )


def test_sampled_trial_memory_follows_the_support():
    # A dense post-Bell register at m=n=8 would hold 2**16 amplitudes (1 MiB).
    sizes = PartySizes(8, 8)
    secret = SecretState(0.6, 0.8j)
    tracemalloc.start()
    try:
        result = run_recovery(sizes, Designee.charlie(3), secret, Stream(3, 1, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.fidelity == pytest.approx(1.0, abs=1e-12)
    assert peak < 2**20, peak


@pytest.mark.parametrize("m, n", list(itertools.product((1, 2, 3, 4), repeat=2)))
def test_helper_count_is_the_walks(m, n):
    # iter_branches checks its limit on this count, before the walk exists.
    sizes = PartySizes(m, n)
    for designee in all_designees(sizes):
        axis, index = _walk_steps(sizes, designee)
        assert _helper_count(sizes, designee) == len(index)
        assert list(index) == [role for role, _ in _reference_plan(sizes, designee)]
        assert list(index.values()) == list(range(len(index)))
        # The one contracted helper: charlie* on c, or Bob m on a.
        if designee.charlie_star is not None:
            assert (axis, index[Role.charlie(designee.charlie_star)]) == (1, m - 1)
        else:
            assert (axis, index[Role.bob(m)]) == (0, m - 1)


def test_a_branch_limit_must_be_an_int():
    sizes, designee = PartySizes(2, 2), Designee.charlie(1)
    with pytest.raises(TypeError):
        enumerate_branches(sizes, designee, SECRETS[3], branch_limit=100.0)
    expected = enumerate_branches(sizes, designee, SECRETS[3], branch_limit=100)
    assert enumerate_branches(sizes, designee, SECRETS[3], branch_limit=np.int64(100)) == expected
    with pytest.raises(BranchLimitError, match="exceed the limit of 8$"):
        enumerate_branches(sizes, designee, SECRETS[3], branch_limit=np.int64(8))


def test_iter_branches_checks_before_the_first_branch():
    sizes = PartySizes(2, 3)
    branches = iter_branches(sizes, Designee.charlie(1), SECRETS[3], branch_limit=8)
    with pytest.raises(BranchLimitError):
        next(branches)
    branches = iter_branches(sizes, Designee.bob(3, 1), SECRETS[3])
    with pytest.raises(ValueError, match="bob:3"):
        next(branches)
    assert list(iter_branches(sizes, Designee.bob(1, 2), SECRETS[3])) == enumerate_branches(
        sizes, Designee.bob(1, 2), SECRETS[3]
    )


# --- no outcome is impossible ---

# |0>, |1>, |+> and |+i>: a probability at these four secrets fixes the
# Hermitian form M with probability <xi|M|xi> at every secret xi.
FORM_SECRETS = [
    SecretState(1, 0),
    SecretState(0, 1),
    SecretState(1 / RT2, 1 / RT2),
    SecretState(1 / RT2, 1j / RT2),
]


def _assert_form_is(probabilities, scale):
    """The Hermitian form of ``probabilities`` at ``FORM_SECRETS`` is
    ``scale`` times I, to within a few ulps of ``scale``."""
    p0, p1, p_plus, p_plus_i = probabilities
    mean = (p0 + p1) / 2
    # <+|M|+> = mean + Re M01 and <+i|M|+i> = mean - Im M01.
    off = (p_plus - mean) - 1j * (p_plus_i - mean)
    form = np.array([[p0, off], [np.conj(off), p1]])
    assert np.abs(form - scale * np.eye(2)).max() <= 4 * np.spacing(scale), form


@pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("grade", ["bob", "charlie"])
def test_no_bell_outcome_or_contracted_label_is_impossible(grade, m, n):
    """On the dense register, each Bell outcome has probability 1/4 and each
    outcome of the contracted helper (plan position m - 1), given the Bell
    outcome and any outcomes of the helpers before it, 1/2, at every secret:
    so the leaf table has no outcome to skip."""
    sizes = PartySizes(m, n)
    designee = Designee.bob(m, n) if grade == "bob" else Designee.charlie(n)
    *before, (contracted, basis) = _reference_plan(sizes, designee)[:m]
    wholes = [dense.compose_with_secret(s, dense.make_channel(sizes)) for s in FORM_SECRETS]
    for bell in BellOutcome:
        children = [dense.bell_project(whole, 0, 1, bell) for whole in wholes]
        _assert_form_is([p for p, _ in children], 0.25)
        for forced in itertools.product((0, 1), repeat=len(before)):
            states = [post for _, post in children]
            for (role, role_basis), outcome in zip(before, forced):
                q = _reference_qubit(sizes, role)
                states = [dense.project(state, q, role_basis, outcome)[1] for state in states]
            q = _reference_qubit(sizes, contracted)
            for outcome in (0, 1):
                probabilities = [dense.project(state, q, basis, outcome)[0] for state in states]
                _assert_form_is(probabilities, 0.5)


def test_no_outcome_is_impossible_exactly_at_every_size():
    """The certificate above in exact arithmetic, for every secret.  The run
    reads only the class register (S, A, a, c), one Bob's bit a and one
    Charlie's bit c standing for their classes, the same at every m and n.
    Per Bell outcome, with or without the relabel's Z on a: charlie*'s
    computational outcome on c (a Bob designee) and the last Bob's |+>/|->
    on a (a Charlie designee) each have probability 1/8 per label."""
    sympy = pytest.importorskip("sympy")
    re_a, im_a, re_b, im_b = sympy.symbols("re_a im_a re_b im_b", real=True)
    alpha, beta = re_a + sympy.I * im_a, re_b + sympy.I * im_b
    norm = re_a**2 + im_a**2 + re_b**2 + im_b**2  # |alpha|^2 + |beta|^2
    half, rt2 = sympy.Rational(1, 2), sympy.sqrt(2)

    def prob(amps):
        return sum(sympy.expand(amp * sympy.conjugate(amp)) for amp in amps)

    def exactly(value, expected):
        return sympy.expand(value - expected) == 0

    # The channel on (A, a, c): 1/2 sum over a, c of (-1)^(ac) |a a c>.
    channel = {(a, a, c): half * (-1) ** (a * c) for a in (0, 1) for c in (0, 1)}
    support = dict(_channel_support(_CLASSES))
    assert sorted(support) == sorted(bits_index(bits) for bits in channel)
    for bits, amp in channel.items():
        assert support[bits_index(bits)] == complex(amp)
    # The secret S before it: (alpha|0> + beta|1>) x channel, keyed (s, A, a, c).
    whole = {(s, *bits): s_amp * amp for s, s_amp in enumerate((alpha, beta))
             for bits, amp in channel.items()}
    # <Bell| on (S, A): (<00| +- <11|)/sqrt(2) and (<01| +- <10|)/sqrt(2).
    bells = [{(0, 0): 1, (1, 1): sign} for sign in (1, -1)]
    bells += [{(0, 1): 1, (1, 0): sign} for sign in (1, -1)]
    for bra in bells:
        post = {
            (a, c): sum(w * whole.get((*sa, a, c), 0) for sa, w in bra.items()) / rt2
            for a in (0, 1) for c in (0, 1)
        }
        assert exactly(prob(post.values()), norm / 4)
        for z in (0, 1):
            state = {(a, c): (-1) ** (z * a) * amp for (a, c), amp in post.items()}
            for label in (0, 1):
                on_c = [state[a, label] for a in (0, 1)]
                on_a = [(state[0, c] + (-1) ** label * state[1, c]) / rt2 for c in (0, 1)]
                assert exactly(prob(on_c), norm / 8)
                assert exactly(prob(on_a), norm / 8)


@pytest.mark.parametrize("qubits", [4, 2], ids=["bell", "label"])
def test_an_impossible_outcome_fails_the_build(monkeypatch, qubits):
    """An outcome of probability 0, which the certificate above rules out,
    raises when the table is built instead of being skipped: the Bell step
    contracts 4 qubits, a contracted label 2."""
    contract = qstate._contract_support

    def impossible(pairs, num_qubits, bra, axis):
        return (0.0, None) if num_qubits == qubits else contract(pairs, num_qubits, bra, axis)

    monkeypatch.setattr(qstate, "_contract_support", impossible)
    protocol._bell_children.cache_clear()
    protocol._leaf_table.cache_clear()
    try:
        for designee in (Designee.bob(1, 2), Designee.charlie(2)):
            with pytest.raises(ArithmeticError, match="probability 0.0"):
                run_recovery(PartySizes(2, 2), designee, SECRETS[3], Stream(0, 1, 0))
            with pytest.raises(ArithmeticError, match="probability 0.0"):
                enumerate_branches(PartySizes(2, 2), designee, SECRETS[3])
    finally:
        protocol._bell_children.cache_clear()
        protocol._leaf_table.cache_clear()
