import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import clear_memo_caches

from hqis.adversary import (
    Scenario,
    exact_detection_probability,
    missed_detection_probability,
)
from hqis.channel import PartySizes
from hqis import cli
from hqis.cli import (
    RunConfig,
    UsageError,
    _dumps,
    _run_records,
    execute,
    main,
    parse_args,
    resolve_secret,
)
from hqis import protocol, qstate
from hqis.protocol import (
    BellOutcome,
    Designee,
    Role,
    agent_marginal,
    enumerate_branches,
)
from hqis.qstate import SecretState, Stream, register_cap

# The Bob-designee correction table, expanded over both Bell signs.
GOLDEN_BOB_TABLE = {
    ("phi+", 0): "I",
    ("phi+", 1): "Z",
    ("phi-", 0): "Z",
    ("phi-", 1): "I",
    ("psi+", 0): "X",
    ("psi+", 1): "iY",
    ("psi-", 0): "iY",
    ("psi-", 1): "X",
}

# The Charlie-designee correction table, expanded over both Bell signs.
GOLDEN_CHARLIE_TABLE = {
    ("phi+", 0, 0): "H",
    ("phi+", 1, 0): "ZH",
    ("phi+", 0, 1): "XH",
    ("phi+", 1, 1): "iYH",
    ("phi-", 1, 0): "H",
    ("phi-", 0, 0): "ZH",
    ("phi-", 1, 1): "XH",
    ("phi-", 0, 1): "iYH",
    ("psi+", 0, 1): "H",
    ("psi+", 1, 1): "ZH",
    ("psi+", 0, 0): "XH",
    ("psi+", 1, 0): "iYH",
    ("psi-", 1, 1): "H",
    ("psi-", 0, 1): "ZH",
    ("psi-", 1, 0): "XH",
    ("psi-", 0, 0): "iYH",
}


def run_cli(argv, path):
    code = main(argv + ["--output", str(path)])
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return code, records


# --- parsing ---

def test_parse_full_run_invocation():
    config = parse_args(
        ["run", "--m", "2", "--n", "2", "--designee", "bob:1", "--charlie-star", "1",
         "--secret", "0.6,0,0.8,0", "--trials", "100", "--seed", "42"]
    )
    assert config == RunConfig(
        mode="sample",
        sizes=PartySizes(2, 2),
        designee=Designee.bob(1, charlie_star=1),
        secret=config.secret,
        trials=100,
        seed=42,
    )
    assert config.secret.alpha == pytest.approx(0.6)
    assert config.secret.beta == pytest.approx(0.8)


def test_parse_random_secret_resolves_from_seed():
    argv = ["run", "--m", "1", "--n", "1", "--designee", "charlie:1",
            "--secret", "random", "--seed", "7"]
    config = parse_args(argv)
    assert config.secret is None
    first, second = resolve_secret(config), resolve_secret(config)
    assert first == second
    other = resolve_secret(parse_args(argv[:-1] + ["8"]))
    assert other != first


def test_parse_rejects_out_of_range_designee():
    with pytest.raises(UsageError, match="out of range"):
        parse_args(["run", "--m", "2", "--n", "1", "--designee", "bob:3",
                    "--charlie-star", "1"])


def test_parse_rejects_missing_charlie_star():
    with pytest.raises(UsageError, match="charlie-star"):
        parse_args(["run", "--m", "2", "--n", "1", "--designee", "bob:1"])


def test_parse_rejects_charlie_star_for_charlie_designee():
    with pytest.raises(UsageError):
        parse_args(["run", "--m", "1", "--n", "2", "--designee", "charlie:1",
                    "--charlie-star", "2"])


def test_parse_rejects_unknown_flags():
    with pytest.raises(UsageError):
        parse_args(["run", "--m", "1", "--n", "1", "--designee", "bob:1",
                    "--charlie-star", "1", "--bogus", "3"])


def test_parse_rejects_malformed_secret():
    base = ["run", "--m", "1", "--n", "1", "--designee", "charlie:1", "--secret"]
    with pytest.raises(UsageError):
        parse_args(base + ["1,0,0"])
    with pytest.raises(UsageError, match="not normalized"):
        parse_args(base + ["1,0,1,0"])


@pytest.mark.parametrize("secret", ["-0.6,0,0,-0.8", "-0.6,0,0,0.8", "-1,0,0,0", "-0,1e0,0,0"])
def test_secret_may_start_with_a_minus(capsys, secret):
    base = ["run", "--m", "1", "--n", "1", "--designee", "charlie:1", "--seed", "3"]
    config = parse_args(base + ["--secret", secret])
    assert config == parse_args(base + [f"--secret={secret}"])
    re_a, im_a, re_b, im_b = map(float, secret.split(","))
    assert config.secret == SecretState(complex(re_a, im_a), complex(re_b, im_b))
    assert main(base + ["--secret", secret]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["secret"] == [re_a, im_a, re_b, im_b]
    assert captured.err == ""


def test_a_minus_token_that_is_not_four_numbers_stays_an_option():
    base = ["run", "--m", "1", "--n", "1", "--designee", "charlie:1"]
    for token in ("--seed", "-1,0,0", "-1,0,0,x"):
        with pytest.raises(UsageError, match="expected one argument"):
            parse_args(base + ["--secret", token, "3"])
    # Four numbers are the secret, and then rejected as one.
    with pytest.raises(UsageError, match="finite"):
        parse_args(base + ["--secret", "-inf,0,0,1"])


def test_parse_renormalizes_slightly_off_secret(capsys):
    config = parse_args(
        ["run", "--m", "1", "--n", "1", "--designee", "charlie:1",
         "--secret", "0.60000001,0,0.8,0"]
    )
    assert "renormalizing" in capsys.readouterr().err
    norm = abs(config.secret.alpha) ** 2 + abs(config.secret.beta) ** 2
    assert norm == pytest.approx(1.0, abs=1e-12)
    # The warning starts where SecretState's own tolerance, NORM_TOL, ends:
    # |a|^2+|b|^2 - 1 is 0.96e-10 for the first and 1.08e-10 for the second.
    for re_a, warns in (("0.60000000008", False), ("0.60000000009", True)):
        assert (abs(float(re_a) ** 2 + 0.8**2 - 1.0) > qstate.NORM_TOL) is warns
        parse_args(["run", "--m", "1", "--n", "1", "--designee", "charlie:1",
                    "--secret", f"{re_a},0,0.8,0"])
        assert ("renormalizing" in capsys.readouterr().err) is warns


def test_parse_rejects_bad_seed():
    with pytest.raises(UsageError):
        parse_args(["attack", "--m", "1", "--n", "1", "--seed", "-3"])
    with pytest.raises(UsageError):
        parse_args(["attack", "--m", "1", "--n", "1", "--seed", str(2**64)])


def test_help_exits_success(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_main_reports_usage_errors(capsys):
    assert main(["run", "--m", "2", "--n", "1", "--designee", "bob:3",
                 "--charlie-star", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


# --- execution ---

def test_sample_mode_emits_one_record_per_trial(tmp_path):
    code, records = run_cli(
        ["run", "--m", "2", "--n", "2", "--designee", "bob:1", "--charlie-star", "1",
         "--secret", "0.6,0,0.8,0", "--trials", "5", "--seed", "42"],
        tmp_path / "out.ndjson",
    )
    assert code == 0
    assert len(records) == 5
    for k, record in enumerate(records):
        assert record["record"] == "trial"
        assert record["trial"] == k
        assert {"mode", "m", "n", "seed"} <= set(record)
        assert record["fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert record["correction"] in {"I", "X", "iY", "Z"}


def test_enumerate_mode_summary(tmp_path):
    code, records = run_cli(
        ["run", "--m", "2", "--n", "2", "--designee", "bob:1", "--charlie-star", "2",
         "--secret", "0.6,0,0.8,0", "--mode", "enumerate", "--seed", "0"],
        tmp_path / "out.ndjson",
    )
    assert code == 0
    branches = [r for r in records if r["record"] == "branch"]
    summary = records[-1]
    assert summary["record"] == "summary"
    assert summary["branches"] == len(branches) == 16
    assert abs(summary["probability_sum"] - 1.0) < 1e-10
    assert summary["min_fidelity"] > 1 - 1e-10
    assert summary["max_fidelity"] <= 1.0


def test_attack_mode_honest_statistics(tmp_path):
    code, records = run_cli(
        ["attack", "--m", "2", "--n", "2", "--scenario", "honest", "--rounds", "200",
         "--seed", "3"],
        tmp_path / "out.ndjson",
    )
    assert code == 0
    (record,) = records
    assert record["alice_bob_match_rates"] == [1.0, 1.0]
    assert record["charlie_group_consistent_rate"] == 1.0
    assert record["detected"] is False
    assert record["exact_mismatch_probability"] == pytest.approx(0.0, abs=1e-12)


def test_attack_mode_intercept_resend(tmp_path):
    code, records = run_cli(
        ["attack", "--m", "1", "--n", "1", "--rounds", "5000", "--seed", "11"],
        tmp_path / "out.ndjson",
    )
    assert code == 0
    (record,) = records
    assert record["scenario"] == "intercept-resend"
    assert record["detected"] is True
    assert record["exact_mismatch_probability"] == pytest.approx(0.5, abs=1e-12)
    assert record["missed_detection_probability"] == pytest.approx(0.5**5000, abs=1e-300)


@pytest.mark.parametrize("scenario", list(Scenario))
def test_attack_missed_probability_is_the_intercept_resend_figure(tmp_path, scenario):
    sizes = PartySizes(2, 3)
    code, records = run_cli(
        ["attack", "--m", "2", "--n", "3", "--scenario", scenario.value, "--rounds", "7"],
        tmp_path / "out.ndjson",
    )
    assert code == 0
    (record,) = records
    assert record["exact_mismatch_probability"] == exact_detection_probability(sizes, scenario)
    assert record["missed_detection_probability"] == missed_detection_probability(sizes, 7)


def test_tables_mode_matches_golden_rows(tmp_path):
    code, records = run_cli(["tables"], tmp_path / "tables.ndjson")
    assert code == 0
    bob_rows = [r for r in records if r["table"] == "bob"]
    charlie_rows = [r for r in records if r["table"] == "charlie"]
    assert len(bob_rows) == 8 and len(charlie_rows) == 16
    assert {(r["bell"], r["v_sum"]): r["operation"] for r in bob_rows} == GOLDEN_BOB_TABLE
    assert {
        (r["bell"], r["v_g1"], r["v_g2"]): r["operation"] for r in charlie_rows
    } == GOLDEN_CHARLIE_TABLE
    # the worked example: phi+ with v_sum 1 calls for the phase flip
    assert GOLDEN_BOB_TABLE[("phi+", 1)] == "Z"


def test_tables_rows_come_in_bell_then_bits_order(tmp_path):
    code, records = run_cli(["tables"], tmp_path / "tables.ndjson")
    assert code == 0
    assert [r["table"] for r in records] == ["bob"] * 8 + ["charlie"] * 16
    assert [(r["bell"], r["v_sum"]) for r in records[:8]] == [
        (bell.value, v_sum) for bell in BellOutcome for v_sum in (0, 1)
    ]
    assert [(r["bell"], r["v_g1"], r["v_g2"]) for r in records[8:]] == [
        (bell.value, v_g1, v_g2)
        for bell in BellOutcome
        for v_g1 in (0, 1)
        for v_g2 in (0, 1)
    ]


def test_records_are_self_describing(tmp_path):
    for argv in (
        ["run", "--m", "1", "--n", "2", "--designee", "charlie:2", "--mode", "enumerate"],
        ["attack", "--m", "1", "--n", "1", "--rounds", "10"],
        ["tables"],
    ):
        _, records = run_cli(argv, tmp_path / "records.ndjson")
        for record in records:
            assert {"record", "mode", "m", "n", "seed"} <= set(record)


def test_identical_config_gives_identical_bytes(tmp_path):
    argv = ["run", "--m", "2", "--n", "2", "--designee", "bob:2", "--charlie-star", "1",
            "--secret", "random", "--trials", "20", "--seed", "99"]
    main(argv + ["--output", str(tmp_path / "a.ndjson")])
    main(argv + ["--output", str(tmp_path / "b.ndjson")])
    assert (tmp_path / "a.ndjson").read_bytes() == (tmp_path / "b.ndjson").read_bytes()


def test_different_seeds_give_different_output(tmp_path):
    base = ["run", "--m", "1", "--n", "1", "--designee", "bob:1", "--charlie-star", "1",
            "--secret", "random", "--trials", "10"]
    main(base + ["--seed", "1", "--output", str(tmp_path / "a.ndjson")])
    main(base + ["--seed", "2", "--output", str(tmp_path / "b.ndjson")])
    assert (tmp_path / "a.ndjson").read_bytes() != (tmp_path / "b.ndjson").read_bytes()


def test_trials_reproducible_in_isolation():
    # one stream per trial index, so trial k can be replayed on its own
    a = Stream(42, 1, 3).random(4)
    b = Stream(42, 1, 3).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, Stream(42, 1, 4).random(4))


@pytest.mark.parametrize("seed,k", [(0, 0), (42, 3), (2**64 - 1, 999)])
def test_one_bulk_draw_is_the_stream_of_scalar_draws(seed, k):
    # A sampled trial draws its steps with one rng.random(1 + helpers) call.
    for count in (1, 6, 1200):
        scalar = Stream(seed, 1, k)
        assert list(Stream(seed, 1, k).random(count)) == [
            scalar.random() for _ in range(count)
        ]


def test_register_cap_violation_exits_2(monkeypatch, capsys):
    # No subcommand builds a dense register, so the cap refuses none of them;
    # exit 2 stays the code of a resource limit, here the branch limit
    # (m=n=10 with a Charlie designee: 4 * 2**19 branches).
    monkeypatch.setenv("HQIS_MAX_QUBITS", "8")
    assert main(["attack", "--m", "3", "--n", "2", "--rounds", "10"]) == 0
    capsys.readouterr()
    code = main(["run", "--m", "10", "--n", "10", "--designee", "charlie:1", "--mode", "enumerate"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_stdout_output_defaults(capsys):
    assert main(["tables"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 24
    assert all(json.loads(line) for line in lines)


def test_attack_scenario_enum_round_trip():
    config = parse_args(["attack", "--m", "1", "--n", "1", "--scenario", "honest"])
    assert config.attack_scenario is Scenario.HONEST
    assert config.rounds == 64
    assert config.threshold == pytest.approx(0.99)


def test_execute_writes_records_for_a_parsed_config(tmp_path):
    out = tmp_path / "direct.ndjson"
    config = parse_args(
        ["run", "--m", "1", "--n", "1", "--designee", "bob:1", "--charlie-star", "1",
         "--secret", "0.6,0,0.8,0", "--mode", "enumerate", "--seed", "5",
         "--output", str(out)]
    )
    assert execute(config) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records[-1]["record"] == "summary"
    assert records[-1]["branches"] == 8


def test_failed_run_leaves_no_output_file(tmp_path, capsys):
    out = tmp_path / "records.ndjson"
    # m=n=12 with a Charlie designee: 4 * 2**23 branches, past the limit.
    argv = ["run", "--m", "12", "--n", "12", "--designee", "charlie:1", "--mode", "enumerate",
            "--output", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []
    out.write_text("earlier run\n")
    assert main(argv) == 2
    assert out.read_text() == "earlier run\n"
    assert list(tmp_path.iterdir()) == [out]
    assert capsys.readouterr().err.count("error:") == 2


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_register_cap_must_be_a_positive_integer(monkeypatch, capsys, value):
    monkeypatch.setenv("HQIS_MAX_QUBITS", value)
    with pytest.raises(ValueError, match="HQIS_MAX_QUBITS"):
        register_cap()
    code = main(["run", "--m", "1", "--n", "1", "--designee", "bob:1", "--charlie-star", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: HQIS_MAX_QUBITS must be a positive integer, got {value!r}"
    ]


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_tables_also_rejects_a_bad_register_cap(monkeypatch, capsys, tmp_path, value):
    monkeypatch.setenv("HQIS_MAX_QUBITS", value)
    out = tmp_path / "tables.ndjson"
    assert main(["tables"]) == 1
    assert main(["tables", "--output", str(out)]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: HQIS_MAX_QUBITS must be a positive integer, got {value!r}"
    ] * 2


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "-0.1", "1.5"])
def test_attack_rejects_threshold_outside_unit_interval(capsys, threshold):
    code = main(["attack", "--m", "1", "--n", "1", "--rounds", "10", f"--threshold={threshold}"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: threshold")


def test_rejected_threshold_leaves_no_output_file(tmp_path, capsys):
    out = tmp_path / "records.ndjson"
    argv = ["attack", "--m", "1", "--n", "1", "--threshold", "nan", "--output", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    (error,) = capsys.readouterr().err.splitlines()
    assert error == "error: threshold must be a number in [0, 1], got nan"


@pytest.mark.parametrize("rounds", ["0", str(2**63), "100000000000000000000"])
def test_attack_rejects_rounds_outside_int64(tmp_path, capsys, rounds):
    out = tmp_path / "records.ndjson"
    argv = ["attack", "--m", "1", "--n", "1", "--rounds", rounds, "--output", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    (error,) = captured.err.splitlines()
    assert error.startswith("error: rounds must be in 1..")


def test_attack_accepts_the_largest_round_count():
    config = parse_args(["attack", "--m", "1", "--n", "1", "--rounds", str(2**63 - 1)])
    assert config.rounds == 2**63 - 1


# The full check record at a fixed seed, so that a change to the rule that
# draws the rounds fails here instead of only staying self-consistent.
GOLDEN_ATTACK_RECORDS = {
    "intercept-resend": {
        "alice_bob_match_rates": [0.4915, 0.4915],
        "charlie_group_consistent_rate": 1.0,
        "detected": True,
        "exact_mismatch_probability": 0.5,
        "missed_detection_probability": 0.0,
    },
    "honest": {
        "alice_bob_match_rates": [1.0, 1.0],
        "charlie_group_consistent_rate": 1.0,
        "detected": False,
        "exact_mismatch_probability": 0.0,
        "missed_detection_probability": 0.0,
    },
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN_ATTACK_RECORDS))
def test_attack_record_matches_golden(tmp_path, scenario):
    out = tmp_path / "records.ndjson"
    argv = ["attack", "--m", "2", "--n", "2", "--rounds", "2000", "--seed", "77",
            "--scenario", scenario, "--output", str(out)]
    assert main(argv) == 0
    (record,) = [json.loads(line) for line in out.read_text().splitlines()]
    assert record == GOLDEN_ATTACK_RECORDS[scenario] | {
        "record": "check",
        "mode": "attack",
        "m": 2,
        "n": 2,
        "seed": 77,
        "scenario": scenario,
        "rounds": 2000,
        "threshold": 0.99,
        "detection_rule": "flag when any Alice-vs-Bob computational match rate drops below 0.99",
    }


# Full run records at --m 2 --n 2 --seed 77, so that a change to the walk or
# to the rule that draws its outcomes fails here: the same seed must give the
# same branch.  Each entry is (argv tail, fields shared by every record, rows
# of _GOLDEN_RUN_FIELDS, summary fields or None); the secret is the seed's.
_GOLDEN_SECRET = [0.04994855933282003, -0.35624015858768165, 0.7882306606846595, 0.49929001230409586]
_GOLDEN_RUN_FIELDS = (
    "bell", "bits", "v_g1", "v_g2_or_charlie_star", "correction", "branch_probability", "fidelity"
)
_BOB_CONTEXT = {"designee": "bob:1", "charlie_star": 2}
GOLDEN_RUN_RECORDS = {
    "sample-charlie": (
        ["--designee", "charlie:1", "--trials", "3"],
        {"mode": "sample", "designee": "charlie:1", "charlie_star": None},
        [
            ("psi-", {"bob:1": 1, "bob:2": 1, "charlie:2": 0}, 0, 0, "iYH", 0.03124999999999997, 1.0),
            ("psi-", {"bob:1": 1, "bob:2": 1, "charlie:2": 0}, 0, 0, "iYH", 0.03124999999999997, 1.0),
            ("psi+", {"bob:1": 1, "bob:2": 0, "charlie:2": 0}, 1, 0, "iYH", 0.03124999999999997, 1.0),
        ],
        None,
    ),
    "sample-bob": (
        ["--designee", "bob:1", "--charlie-star", "2", "--trials", "3"],
        {"mode": "sample"} | _BOB_CONTEXT,
        [
            ("psi-", {"bob:2": 1, "charlie:2": 1}, 1, 1, "iY", 0.062499999999999986, 0.9999999999999998),
            ("psi-", {"bob:2": 1, "charlie:2": 1}, 1, 1, "iY", 0.062499999999999986, 0.9999999999999998),
            ("psi+", {"bob:2": 1, "charlie:2": 0}, 1, 0, "iY", 0.062499999999999986, 0.9999999999999998),
        ],
        None,
    ),
    "enumerate-bob": (
        ["--designee", "bob:1", "--charlie-star", "2", "--mode", "enumerate"],
        {"mode": "enumerate"} | _BOB_CONTEXT,
        [
            (bell, {"bob:2": b, "charlie:2": c}, b, c, op, 0.062499999999999986, 0.9999999999999998)
            for bell, ops in [
                ("phi+", ["I", "Z", "Z", "I"]),
                ("phi-", ["Z", "I", "I", "Z"]),
                ("psi+", ["X", "iY", "iY", "X"]),
                ("psi-", ["iY", "X", "X", "iY"]),
            ]
            for (b, c), op in zip([(0, 0), (0, 1), (1, 0), (1, 1)], ops)
        ],
        {
            "branches": 16,
            "probability_sum": 0.9999999999999999,
            "min_fidelity": 0.9999999999999998,
            "max_fidelity": 0.9999999999999998,
        },
    ),
}


def _assert_matches(got, want):
    """Every non-float field equal, every float within 1e-12."""
    assert type(got) is type(want)
    if isinstance(want, float):
        assert got == pytest.approx(want, abs=1e-12)
    elif isinstance(want, (dict, list)):
        assert len(got) == len(want)
        keys = want.keys() if isinstance(want, dict) else range(len(want))
        for key in keys:
            _assert_matches(got[key], want[key])
    else:
        assert got == want


@pytest.mark.parametrize("name", sorted(GOLDEN_RUN_RECORDS))
def test_run_records_match_golden(tmp_path, name):
    argv_tail, context, rows, summary = GOLDEN_RUN_RECORDS[name]
    out = tmp_path / "records.ndjson"
    argv = ["run", "--m", "2", "--n", "2", "--seed", "77", *argv_tail, "--output", str(out)]
    assert main(argv) == 0
    shared = {"m": 2, "n": 2, "seed": 77, "secret": _GOLDEN_SECRET} | context
    kind = "trial" if context["mode"] == "sample" else "branch"
    want = [
        shared | {"record": kind, kind: k} | dict(zip(_GOLDEN_RUN_FIELDS, row))
        for k, row in enumerate(rows)
    ]
    if summary is not None:
        want.append(shared | {"record": "summary"} | summary)
    _assert_matches([json.loads(line) for line in out.read_text().splitlines()], want)


def test_run_walks_deeper_than_the_recursion_limit(tmp_path):
    # m=n=600 with a Charlie designee: 1199 helpers.
    out = tmp_path / "records.ndjson"
    argv = ["run", "--m", "600", "--n", "600", "--designee", "charlie:1", "--trials", "1",
            "--output", str(out)]
    assert main(argv) == 0
    (record,) = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(record["bits"]) == 1199
    assert record["fidelity"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("size", [12, 500])
def test_runs_and_attacks_pass_the_dense_register_cap(monkeypatch, tmp_path, size):
    # 2 + 2 * size qubits with the secret attached, past the default cap of 24.
    monkeypatch.delenv("HQIS_MAX_QUBITS", raising=False)
    out = tmp_path / "records.ndjson"
    sizes = ["--m", str(size), "--n", str(size)]
    for designee in (["--designee", "bob:1", "--charlie-star", "1"], ["--designee", "charlie:2"]):
        assert main(["run", *sizes, *designee, "--trials", "3", "--output", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 3
        for record in records:
            assert len(record["bits"]) == (size if designee[1] == "bob:1" else 2 * size - 1)
            assert record["fidelity"] == pytest.approx(1.0, abs=1e-9)
    for scenario in ("honest", "intercept-resend"):
        argv = ["attack", *sizes, "--scenario", scenario, "--rounds", "1000", "--output", str(out)]
        assert main(argv) == 0
        (record,) = [json.loads(line) for line in out.read_text().splitlines()]
        expected = 0.0 if scenario == "honest" else 0.5
        assert record["exact_mismatch_probability"] == pytest.approx(expected, abs=1e-12)


def test_enumeration_passes_the_dense_register_cap(monkeypatch, tmp_path):
    # m=n=12 with a Bob designee: 11 Bobs and charlie*, 4 * 2**12 branches.
    monkeypatch.delenv("HQIS_MAX_QUBITS", raising=False)
    out = tmp_path / "records.ndjson"
    argv = ["run", "--m", "12", "--n", "12", "--designee", "bob:1", "--charlie-star", "1",
            "--mode", "enumerate", "--output", str(out)]
    assert main(argv) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    summary = records[-1]
    assert summary["branches"] == len(records) - 1 == 4 * 2**12
    assert summary["probability_sum"] == pytest.approx(1.0, abs=1e-9)
    assert summary["min_fidelity"] == pytest.approx(1.0, abs=1e-9)


def test_nothing_at_run_time_builds_a_dense_register(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("a runtime path built a dense StateVector")

    monkeypatch.setattr(qstate.StateVector, "__post_init__", refuse)
    argvs = [
        ["run", "--m", "5", "--n", "6", "--designee", "charlie:3", "--trials", "20"],
        ["run", "--m", "2", "--n", "3", "--designee", "bob:2", "--charlie-star", "1",
         "--mode", "enumerate"],
        ["attack", "--m", "5", "--n", "6", "--scenario", "honest"],
        ["attack", "--m", "5", "--n", "6", "--scenario", "intercept-resend"],
        ["tables"],
    ]
    for argv in argvs:
        assert main(argv) == 0, argv
    capsys.readouterr()
    secret = SecretState(0.6, 0.8j)
    for agent in (Role.bob(2), Role.charlie(3)):
        rho = agent_marginal(PartySizes(5, 6), secret, BellOutcome.PHI_MINUS, agent)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_emitted_json_is_strict():
    with pytest.raises(ValueError):
        _dumps({"rate": float("nan")})


@pytest.mark.parametrize("secret", ["1,0,0,nan", "nan,0,0,0", "1,0,inf,0", "0,-inf,1,0"])
def test_non_finite_secret_is_rejected(tmp_path, capsys, secret):
    base = ["run", "--m", "1", "--n", "1", "--designee", "charlie:1", "--secret", secret]
    with pytest.raises(UsageError, match="finite"):
        parse_args(base)
    out = tmp_path / "records.ndjson"
    assert main(base + ["--output", str(out)]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: secret components must be finite")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("designee", ["bob:²", "charlie:١", "bob:1²"])
def test_designee_index_must_be_ascii_digits(capsys, designee):
    argv = ["run", "--m", "2", "--n", "2", "--designee", designee, "--charlie-star", "1"]
    with pytest.raises(UsageError, match="designee must look like"):
        parse_args(argv)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: designee must look like")


def test_branch_limit_failure_leaves_no_output_file(tmp_path, capsys):
    # m=n=10, Charlie designee: 4 * 2**19 branches, past the 2**20 limit.
    out = tmp_path / "records.ndjson"
    argv = ["run", "--m", "10", "--n", "10", "--designee", "charlie:1", "--mode", "enumerate",
            "--output", str(out)]
    assert main(argv) == 2
    assert list(tmp_path.iterdir()) == []
    assert "branches exceed the limit" in capsys.readouterr().err


def test_oversized_enumeration_exits_2_before_building_anything(monkeypatch, capsys):
    # 4 * 2**20000 branches: a number past int-to-str's 4300 digits, and a
    # plan whose build would be O(m).  Neither is built before the refusal.
    def unbuilt(*args):
        raise AssertionError("built before the branch limit was checked")

    monkeypatch.setattr(protocol, "_leaf_table", unbuilt)
    monkeypatch.setattr(protocol, "_walk_steps", unbuilt)
    argv = ["run", "--mode", "enumerate", "--m", "20000", "--n", "1", "--designee", "charlie:1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 2**20002 branches exceed the limit of 1048576\n"


ENUMERATE_ARGV = ["run", "--m", "2", "--n", "3", "--designee", "bob:2", "--charlie-star", "3",
                  "--secret", "random", "--mode", "enumerate", "--seed", "11"]


def test_enumerate_streams_one_record_per_branch(monkeypatch):
    # The walk yields blocks of branches; a block's records stream one at a
    # time, and none is written before the walk has produced its block.
    produced = []
    walk = protocol._LeafTable.walk

    def counting_walk(table, width):
        for block in walk(table, width):
            produced.append(block)
            yield block

    monkeypatch.setattr(protocol._LeafTable, "walk", counting_walk)
    lines = _run_records(parse_args(ENUMERATE_ARGV))
    for k in range(16):
        assert json.loads(next(lines))["branch"] == k
        assert sum(len(leaves) for leaves, _ in produced[:-1]) <= k < sum(
            len(leaves) for leaves, _ in produced
        )
    assert len(produced) == 4  # 16 branches in blocks of 4


def test_a_sampled_run_makes_one_public_protocol_run_call_per_trial(monkeypatch, capsys):
    # Span tracing times each public ``protocol.run_*`` call as one trial.
    calls = []
    for name, fn in list(vars(protocol).items()):
        if name.startswith("run_") and inspect.isfunction(fn):
            monkeypatch.setattr(
                protocol, name, lambda *args, name=name, fn=fn: calls.append(name) or fn(*args)
            )
    for designee in (["bob:2", "--charlie-star", "1"], ["charlie:1"]):
        calls.clear()
        assert main(["run", "--m", "3", "--n", "2", "--designee", *designee, "--trials", "7"]) == 0
        assert len(calls) == 7, calls
    assert len(capsys.readouterr().out.splitlines()) == 14


# The bench's sample and enumerate argvs at its seed, 17, and other runs that
# differ in mode, grade, size or secret.
COLD_RUN_ARGVS = [
    ["run", "--mode", "sample", "--m", "3", "--n", "3", "--designee", "charlie:2",
     "--secret", "random", "--trials", "1000", "--seed", "17"],
    ["run", "--mode", "enumerate", "--m", "5", "--n", "6", "--designee", "charlie:3",
     "--secret", "random", "--seed", "17"],
    ["run", "--mode", "enumerate", "--m", "2", "--n", "3", "--designee", "bob:2",
     "--charlie-star", "1"],
    ["run", "--mode", "enumerate", "--m", "2", "--n", "3", "--designee", "charlie:2"],
    ["run", "--m", "300", "--n", "300", "--designee", "charlie:1", "--trials", "50"],
    ["run", "--mode", "enumerate", "--m", "1", "--n", "1", "--designee", "charlie:1",
     "--secret", "1,0,0,0"],
]


@pytest.mark.parametrize(
    "argv,contractions",
    [(argv, {4: 4, 2: 8, 1: 16}) for argv in COLD_RUN_ARGVS]
    + [(["attack", "--scenario", "intercept-resend", "--m", "5", "--n", "6",
         "--rounds", "3000000", "--seed", "17"], {})],
    ids=["bench-sample", "bench-enumerate", "bob", "charlie", "wide", "basis", "bench-attack"],
)
def test_a_cold_cli_run_contracts_a_fixed_number_of_times(argv, contractions, monkeypatch, capsys):
    # Keyed by the register's qubit count: the Bell step contracts (S, A, a, c),
    # a label (a, c) and a leaf the designee's qubit.  A run builds its table
    # whole when it starts, so the counts hold at any size, mode and secret;
    # the attack reads the class register's support and contracts nothing.
    clear_memo_caches()
    counts = Counter()
    contract = qstate._contract_support

    def counting(pairs, num_qubits, bra, axis):
        counts[num_qubits] += 1
        return contract(pairs, num_qubits, bra, axis)

    monkeypatch.setattr(qstate, "_contract_support", counting)
    assert main(argv) == 0
    assert capsys.readouterr().out
    assert counts == contractions


def test_streamed_enumeration_matches_the_branch_list():
    config = parse_args(ENUMERATE_ARGV)
    results = enumerate_branches(
        PartySizes(2, 3), Designee.bob(2, 3), resolve_secret(config)
    )
    records = [json.loads(line) for line in _run_records(config)]
    assert [r["branch_probability"] for r in records[:-1]] == [
        r.branch_probability for r in results
    ]
    assert [r["fidelity"] for r in records[:-1]] == [r.fidelity for r in results]
    running_sum = 0.0
    for r in results:
        running_sum += r.branch_probability
    summary = records[-1]
    assert summary["branches"] == len(results) == 16
    assert summary["probability_sum"] == running_sum
    assert summary["min_fidelity"] == min(r.fidelity for r in results)
    assert summary["max_fidelity"] == max(r.fidelity for r in results)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--m", "2", "--n", "2", "--designee", "bob:1", "--charlie-star", "3"],
        ["run", "--m", "2", "--n", "2", "--designee", "bob:1", "--charlie-star", "0"],
        ["run", "--m", "2", "--n", "2", "--designee", "bob:0", "--charlie-star", "1"],
        ["run", "--m", "2", "--n", "2", "--designee", "alice:1"],
        ["run", "--m", "0", "--n", "2", "--designee", "charlie:1"],
        ["attack", "--m", "0", "--n", "2"],
        # Options are spelled in full.
        ["run", "--m", "1", "--n", "1", "--designee", "charlie:1", "--secr", "0.6,0,0,-0.8"],
        ["run", "--m", "1", "--n", "1", "--designee", "charlie:1", "--secr", "-0.6,0,0,-0.8"],
        ["run", "--m", "1", "--n", "1", "--designee", "charlie:1", "--tri", "2"],
    ],
)
def test_bad_sizes_and_designees_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "records.ndjson"
    assert main(argv) == 1
    assert main(argv + ["--output", str(out)]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 2 and all(line.startswith("error:") for line in errors)


@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_unopenable_output_is_an_error(tmp_path, capsys, target):
    path = tmp_path if target == "directory" else tmp_path / "missing" / "records.ndjson"
    assert main(["tables", "--output", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (error,) = captured.err.splitlines()
    assert error.startswith("error:") and str(path) in error


@pytest.mark.parametrize("argv", [
    ["run", "--m", "1", "--n", "1", "--designee", "charlie:1"],
    ["attack", "--m", "1", "--n", "1"],
    ["tables"],
])
def test_an_empty_output_path_is_an_error_not_stdout(monkeypatch, tmp_path, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--output", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (error,) = captured.err.splitlines()
    assert error.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_closed_stdout_ends_with_one_error_line():
    # 20000 records are far more than a pipe buffers, so writing outlives the reader.
    argv = ["run", "--m", "2", "--n", "2", "--designee", "charlie:1", "--trials", "20000"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    with subprocess.Popen(
        [sys.executable, "-m", "hqis.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        try:
            assert json.loads(proc.stdout.readline())["record"] == "trial"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
    assert err.splitlines() == ["error: [Errno 32] Broken pipe"], err
