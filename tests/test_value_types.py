"""The package's value types: each keeps its repr, its equality and hash
within the type, its immutability, its keyword construction and defaults,
and its validation, whatever class machinery builds it."""

import pickle

import numpy as np
import pytest

from hqis.adversary import CheckStats, Scenario
from hqis.channel import PartySizes
from hqis.cli import RunConfig
from hqis.protocol import CorrectionOp, Designee, Role, TrialResult, run_recovery
from hqis.qstate import BellOutcome, SecretState, Stream

# One value of each type, built by keyword, with its repr.
VALUES = [
    (PartySizes(m=2, n=3), "PartySizes(m=2, n=3)"),
    (SecretState(alpha=0.6, beta=0.8j), "SecretState(alpha=0.6, beta=0.8j)"),
    (Role(grade="alice"), "Role(grade='alice', index=0)"),
    (Role(grade="bob", index=2), "Role(grade='bob', index=2)"),
    (
        Designee(role=Role.bob(1), charlie_star=2),
        "Designee(role=Role(grade='bob', index=1), charlie_star=2)",
    ),
    (
        Designee(role=Role.charlie(3)),
        "Designee(role=Role(grade='charlie', index=3), charlie_star=None)",
    ),
    (
        TrialResult(
            bell=BellOutcome.PSI_MINUS,
            classical_bits={Role.bob(1): 1},
            v_g1=1,
            v_g2_or_charlie_star=0,
            correction=CorrectionOp.XH,
            branch_probability=0.125,
            fidelity=1.0,
        ),
        "TrialResult(bell=<BellOutcome.PSI_MINUS: 'psi-'>, classical_bits={Role(grade='bob',"
        " index=1): 1}, v_g1=1, v_g2_or_charlie_star=0, correction=<CorrectionOp.XH: 'XH'>,"
        " branch_probability=0.125, fidelity=1.0)",
    ),
    (
        CheckStats(
            rounds=64,
            alice_bob_match_rates=(0.5, 1.0),
            charlie_group_consistent_rate=1.0,
            detected=True,
            detection_rule="rule",
        ),
        "CheckStats(rounds=64, alice_bob_match_rates=(0.5, 1.0), charlie_group_consistent_rate=1.0,"
        " detected=True, detection_rule='rule')",
    ),
    (
        RunConfig(mode="tables"),
        "RunConfig(mode='tables', sizes=None, designee=None, secret=None, trials=1, seed=None,"
        " attack_scenario=None, rounds=None, threshold=None, output_path=None)",
    ),
    (
        RunConfig(mode="attack", sizes=PartySizes(1, 1), seed=4,
                  attack_scenario=Scenario.HONEST, rounds=8, threshold=0.5),
        "RunConfig(mode='attack', sizes=PartySizes(m=1, n=1), designee=None, secret=None,"
        " trials=1, seed=4, attack_scenario=<Scenario.HONEST: 'honest'>, rounds=8,"
        " threshold=0.5, output_path=None)",
    ),
]
IDS = [text.partition("(")[0] for _, text in VALUES]


def _hashable(value):
    """``value`` with a TrialResult's bits, a mapping and so unhashable, as a tuple."""
    if isinstance(value, TrialResult):
        return value._replace(classical_bits=tuple(value.classical_bits.items()))
    return value


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(value, text):
    twin = type(value)(*value)
    assert twin == value and twin is not value
    assert type(value)(**value._asdict()) == value
    value, twin = _hashable(value), _hashable(twin)
    assert hash(twin) == hash(value)
    assert {value: 1}[twin] == 1


def test_values_that_differ_in_a_field_are_unequal():
    values = [value for value, _ in VALUES]
    assert all(a != b for i, a in enumerate(values) for b in values[i + 1 :])
    assert PartySizes(2, 3) != PartySizes(3, 2)
    assert SecretState(1, 0) != SecretState(0, 1)
    assert Designee.bob(1, 2) != Designee.bob(1, 3)
    trial, stats = VALUES[6][0], VALUES[7][0]
    assert trial != trial._replace(fidelity=0.5)
    assert stats != stats._replace(detected=False)
    assert RunConfig("sample") != RunConfig("sample", trials=2)


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_values_are_immutable(value, text):
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert pickle.loads(pickle.dumps(value)) == value


def test_keyword_construction_and_defaults():
    assert Role("alice") == Role(grade="alice", index=0)
    assert Role.alice() == Role("alice", 0)
    assert Role.bob(2) == Role(index=2, grade="bob")
    assert Designee.charlie(3) == Designee(role=Role.charlie(3), charlie_star=None)
    assert Designee.bob(1, 2) == Designee(charlie_star=2, role=Role.bob(1))
    assert RunConfig("tables") == RunConfig(
        mode="tables", sizes=None, designee=None, secret=None, trials=1, seed=None,
        attack_scenario=None, rounds=None, threshold=None, output_path=None,
    )
    assert RunConfig("sample", trials=3).trials == 3
    for required in (PartySizes, SecretState, Role, Designee, TrialResult, CheckStats, RunConfig):
        with pytest.raises(TypeError):
            required()
    with pytest.raises(TypeError):
        PartySizes(1, 2, 3)
    with pytest.raises(TypeError):
        RunConfig("tables", no_such_field=1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PartySizes(1, 1)._replace(m=0), "need at least one agent per grade, got m=0, n=1"),
        (lambda: PartySizes._make((2, 0)), "need at least one agent per grade, got m=2, n=0"),
        (lambda: SecretState(1, 0)._replace(beta=1), "secret is not normalized: |a|^2+|b|^2 = 2"),
        (lambda: Role.bob(1)._replace(index=0), "bob index must be >= 1, got 0"),
        (lambda: Role.alice()._replace(grade="eve"), "unknown grade 'eve'"),
        (lambda: Designee.charlie(1)._replace(charlie_star=2),
         "charlie-star only applies to Bob designees"),
        (lambda: Designee.bob(1, 2)._replace(charlie_star=None),
         "a Bob designee needs a charlie-star index"),
    ],
)
def test_a_changed_copy_is_validated_like_a_new_value(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "build",
    [
        lambda: Role("bob", 1.5),
        lambda: Role.charlie(2.0),
        lambda: Role.bob(1)._replace(index=1.0),
        lambda: Designee.bob(1, 1.0),
        lambda: PartySizes(1.5, 2),
        lambda: PartySizes(2, 2)._replace(n=2.0),
    ],
    ids=["role", "role-helper", "role-replace", "charlie-star", "sizes", "sizes-replace"],
)
def test_a_fractional_size_or_index_is_refused_when_built(build):
    with pytest.raises(TypeError):
        build()


def test_a_fractional_designee_never_reaches_a_run():
    with pytest.raises(TypeError):
        run_recovery(
            PartySizes(3, 2), Designee(Role("bob", 1.5), 1), SecretState(1, 0), Stream(0, 1)
        )


def test_numpy_int_fields_come_back_as_int():
    sizes = PartySizes(np.int64(2), np.uint8(3))
    role = Role("charlie", np.int64(2))
    designee = Designee(Role.bob(np.int32(1)), np.int64(3))
    for field in (*sizes, role.index, designee.role.index, designee.charlie_star):
        assert type(field) is int
    assert (sizes, role, designee) == (PartySizes(2, 3), Role.charlie(2), Designee.bob(1, 3))
