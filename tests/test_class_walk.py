"""The class-keyed walk against the qubit-by-qubit support walk it replaced.

``_support_walk`` below is the protocol's earlier walk, kept as an oracle:
every helper is one contraction of the full (m+n)-qubit support with
``qstate._contract_support``, and a sampled run makes one scalar
``rng.random()`` call per step.  The class-keyed walk must give the same
branches in the same order, every non-float field equal and the
probability and fidelity within 1e-12 (a run of |+>/|-> steps is an exact
1/2 there, 0.49999999999999983 here).
"""

import itertools
import math

import numpy as np
import pytest
from conftest import (
    _reference_plan,
    _reference_qubit,
    _reference_whole_support,
    _sample_outcome,
    random_secrets,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from hqis import protocol, qstate
from hqis.channel import PartySizes, SecretState
from hqis.protocol import (
    BOB_CORRECTIONS,
    CHARLIE_CORRECTIONS,
    BellOutcome,
    Designee,
    Role,
    TrialResult,
    enumerate_branches,
    parity,
    run_recovery,
)
from hqis.qstate import Stream

BASIS_SECRETS = [SecretState(1, 0), SecretState(0, 1), SecretState(0, 1j)]


def _support_walk_steps(sizes, designee):
    """(role, qubits, axis, bras) per step, the Bell step first, plus the leaf
    register's size and the designee's axis in it; each step drops its qubit."""
    bell_bras = tuple(qstate._BELL_BRAS[outcome] for outcome in BellOutcome)
    steps = [(Role.alice(), 1 + sizes.channel_qubits, protocol._SECRET_QUBIT, bell_bras)]
    register = list(range(sizes.m + sizes.n))
    for role, basis in _reference_plan(sizes, designee):
        q = _reference_qubit(sizes, role)
        steps.append((role, len(register), register.index(q), qstate._BASIS_BRAS[basis]))
        register.remove(q)
    return steps, (len(register), register.index(_reference_qubit(sizes, designee.role)))


def _support_walk(pairs, steps, rng=None):
    """Depth first over the support, one contraction per child: yields
    (support, probability, outcomes) per leaf.  With ``rng``, one
    ``rng.random()`` call per step picks the child."""
    stack = [(pairs, 1.0, ())]
    while stack:
        pairs, prob, outcomes = stack.pop()
        if len(outcomes) == len(steps):
            yield pairs, prob, outcomes
            continue
        _, num_qubits, axis, bras = steps[len(outcomes)]

        contracted = [qstate._contract_support(pairs, num_qubits, bra, axis) for bra in bras]
        if rng is None:
            children = [(outcome, *contracted[outcome]) for outcome in reversed(range(len(bras)))]
        else:
            children = [_sample_outcome(contracted, rng.random())]
        stack.extend(
            (post, prob * p, outcomes + (outcome,))
            for outcome, p, post in children
            if post is not None
        )


def _support_branch_results(sizes, designee, secret, rng=None):
    """Every branch without ``rng``, one drawn branch with it, scored as the
    protocol scores a leaf."""
    protocol.check_designee(sizes, designee)
    steps, (leaf_qubits, designee_axis) = _support_walk_steps(sizes, designee)
    roles = [role for role, _, _, _ in steps[1:]]
    star = None if designee.charlie_star is None else Role.charlie(designee.charlie_star)
    whole = _reference_whole_support(sizes, secret)
    for pairs, prob, (bell_index, *outcomes) in _support_walk(whole, steps, rng):
        bell = tuple(BellOutcome)[bell_index]
        bits = dict(zip(roles, outcomes))
        v_g1 = parity(bits[r] for r in bits if r.grade == "bob")
        if star is not None:
            aux = bits[star]
            op = BOB_CORRECTIONS[bell, v_g1 ^ aux]
        else:
            aux = parity(bits[r] for r in bits if r.grade == "charlie")
            op = CHARLIE_CORRECTIONS[bell, v_g1, aux]
        fidelity, _ = qstate._contract_support(
            pairs, leaf_qubits, protocol._recovery_bra(secret, op), designee_axis
        )
        yield TrialResult(bell, bits, v_g1, aux, op, prob, min(fidelity, 1.0))


def _assert_same_branch(result, expected):
    assert result.bell is expected.bell
    assert list(result.classical_bits.items()) == list(expected.classical_bits.items())
    assert result.v_g1 == expected.v_g1
    assert result.v_g2_or_charlie_star == expected.v_g2_or_charlie_star
    assert result.correction is expected.correction
    assert abs(result.branch_probability - expected.branch_probability) <= 1e-12
    assert abs(result.fidelity - expected.fidelity) <= 1e-12


def _assert_walks_agree(sizes, designee, secret, seed):
    results = enumerate_branches(sizes, designee, secret)
    expected = list(_support_branch_results(sizes, designee, secret))
    assert len(results) == len(expected)
    for result, branch in zip(results, expected):
        _assert_same_branch(result, branch)
    for k in range(8):
        (branch,) = _support_branch_results(sizes, designee, secret, Stream(seed, 1, k))
        _assert_same_branch(run_recovery(sizes, designee, secret, Stream(seed, 1, k)), branch)


@pytest.mark.parametrize("grade", ["bob", "charlie"])
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    basis=st.sampled_from([None, *BASIS_SECRETS]),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_class_walk_matches_the_support_walk(grade, m, n, seed, basis, data):
    if grade == "bob":
        designee = Designee.bob(data.draw(st.integers(1, m)), data.draw(st.integers(1, n)))
    else:
        designee = Designee.charlie(data.draw(st.integers(1, n)))
    secret = basis or random_secrets(1, seed)[0]
    _assert_walks_agree(PartySizes(m, n), designee, secret, seed)


@pytest.mark.parametrize("secret", BASIS_SECRETS, ids=["0", "1", "i1"])
@pytest.mark.parametrize(
    "designee", [Designee.bob(2, 3), Designee.bob(1, 1), Designee.charlie(3), Designee.charlie(1)]
)
def test_class_walk_matches_the_support_walk_on_basis_secrets(secret, designee):
    _assert_walks_agree(PartySizes(3, 4), designee, secret, seed=11)


@pytest.mark.parametrize("size", [50, 500])
@pytest.mark.parametrize("designee", [Designee.bob(7, 3), Designee.charlie(5)])
def test_sampled_trials_match_the_support_walk_at_large_sizes(size, designee):
    sizes = PartySizes(size, size)
    secret = SecretState(0.6, 0.8j)
    for k in range(8):
        (branch,) = _support_branch_results(sizes, designee, secret, Stream(29, 1, k))
        _assert_same_branch(run_recovery(sizes, designee, secret, Stream(29, 1, k)), branch)


def _reference_pick(table, secret, bob, draws):
    """A trial's ``(leaf, bits)`` by ``_sample_outcome`` over the secret's Bell
    children, then over the contracted step's two labels, in reversed label
    order when the parity before the step relabels them."""
    heads = bytes(draw >= 0.5 for draw in draws)
    bell, _, _ = _sample_outcome(protocol._bell_children(secret), draws[0])
    at = 1 + table.contracted
    p = heads.count(1, 1, at) & 1
    relabel, sign = (0, p) if bob else (p, heads.count(1, at + 1) & 1)
    labels = [(passed.__self__, label) for label, passed in enumerate(table.passed[bell])]
    outcome, _, label = _sample_outcome(labels[::-1] if relabel else labels, draws[at])
    leaf = table.leaves[bell][label << 1 | sign]
    return leaf, heads[1:at] + bytes((outcome,)) + heads[at + 1 :]


def _edges(sums):
    """Draws on, just below and just above each sum, and past every sum."""
    return sorted({0.0, math.nextafter(1.0, 0.0), 1.0, *sums,
                   *(math.nextafter(c, 0.0) for c in sums), *(math.nextafter(c, 1.0) for c in sums)})


@pytest.mark.parametrize("designee", [Designee.bob(2, 1), Designee.charlie(2)])
@pytest.mark.parametrize(
    "secret", BASIS_SECRETS + [SecretState(0.6, 0.8j)], ids=["0", "1", "i1", "0.6,0.8i"]
)
def test_the_pick_keeps_the_sampling_rule_at_every_edge(designee, secret):
    # m = 3 and n = 2: a helper before the contracted one and one after it.
    table = protocol._leaf_table(PartySizes(3, 2), designee, secret)
    helpers = table.helpers
    at = 1 + table.contracted
    bob = designee.charlie_star is not None
    bells = protocol._bell_children(secret)
    for bell_draw in _edges(list(itertools.accumulate(p for p, _ in bells))):
        bell, _, _ = _sample_outcome(bells, bell_draw)
        for before, after in itertools.product((0.25, 0.75), repeat=2):
            draws = [bell_draw] + [before] * (at - 1) + [None] + [after] * (helpers - at)
            for label_draw in _edges([passed.__self__ for passed in table.passed[bell]]):
                draws[at] = label_draw
                expected = _reference_pick(table, secret, bob, draws)
                assert protocol.run_pick(table, draws) == expected, draws
    rng = np.random.default_rng(3)
    for draws in rng.random((2000, 1 + helpers)):
        expected = _reference_pick(table, secret, bob, draws.tolist())
        assert protocol.run_pick(table, draws) == expected


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (4, 2)])
def test_bell_children_equal_the_whole_register_bell_step(m, n):
    # The class register's Bell step makes the same sums in the same order,
    # so the probabilities, and the amplitudes of each (a, c) entry, are equal.
    sizes = PartySizes(m, n)
    for secret in BASIS_SECRETS + random_secrets(3, seed=m * 10 + n):
        whole = _reference_whole_support(sizes, secret)
        for outcome, (p, post) in zip(BellOutcome, protocol._bell_children(secret)):
            whole_p, whole_post = qstate._contract_support(
                whole, 2 + m + n, qstate._BELL_BRAS[outcome], 0
            )
            assert p == whole_p
            by_class = {(index >> (m + n - 1) & 1) << 1 | index & 1: amp for index, amp in whole_post}
            assert dict(post) == by_class


class _FixedDraws:
    """An rng stand-in whose every draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


def _labels(table):
    """The contracted step's label thresholds under every Bell outcome of a
    leaf table."""
    return [passed for pair in table.passed for passed in pair]


def _leaves(table):
    """The scored leaves of a leaf table, four per Bell outcome."""
    return [leaf for leaves in table.leaves for leaf in leaves]


@pytest.mark.parametrize("grade", ["bob", "charlie"])
def test_contractions_per_trial_do_not_grow_with_the_party_count(grade, monkeypatch):
    calls = []
    contract = qstate._contract_support

    def counting(*args):
        calls.append(args)
        return contract(*args)

    monkeypatch.setattr(qstate, "_contract_support", counting)
    secret = SecretState(0.6, 0.8j)
    designee = Designee.bob(2, 1) if grade == "bob" else Designee.charlie(2)
    built = {}
    for size in (3, 300):
        sizes = PartySizes(size, size)
        run_recovery(sizes, designee, secret, _FixedDraws(0.25))  # the Bell children cached
        protocol._leaf_table.cache_clear()
        calls.clear()
        table = protocol._leaf_table(sizes, designee, secret)
        built[size] = len(calls)
        assert built[size] == len(_labels(table)) + len(_leaves(table))
        assert len(_leaves(table)) == 4 * 2**2
        # A draw of 0.25 stops at outcome 0 of each contracted step, 0.75 goes on to 1.
        for value in (0.25, 0.75):
            run_recovery(sizes, designee, secret, _FixedDraws(value))
        rng = np.random.default_rng(5)
        for _ in range(10000):
            run_recovery(sizes, designee, secret, rng)
        assert len(calls) == built[size]
    # The build contracts each Bell outcome's two labels and scores each
    # label's two signs, 4 * (2 + 2 * 2) under either grade, at any m and n;
    # every trial after it reads the table.
    assert built[3] == built[300] == 24


@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (3, 3), (5, 6)])
@pytest.mark.parametrize("grade", ["bob", "charlie"])
def test_sampled_trials_equal_enumerated_branches_exactly(grade, m, n):
    sizes = PartySizes(m, n)
    designee = Designee.bob(m, 1) if grade == "bob" else Designee.charlie(n)
    for secret in random_secrets(1, seed=10 * m + n) + BASIS_SECRETS:
        branches = {
            (branch.bell, tuple(branch.classical_bits.values())): branch
            for branch in enumerate_branches(sizes, designee, secret)
        }
        # The trials read a table of their own, built whole before the first draw.
        protocol._leaf_table.cache_clear()
        for seed in range(200):
            result = run_recovery(sizes, designee, secret, Stream(seed, 1, 0))
            assert result == branches[result.bell, tuple(result.classical_bits.values())]
