import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    _emit,
    _run_records,
    derived_rng,
    execute,
    main,
    parse_args,
    resolve_secret,
)
from hqis.protocol import BellOutcome, Designee, enumerate_branches, iter_branches
from hqis.qstate import register_cap

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


def test_parse_renormalizes_slightly_off_secret(capsys):
    config = parse_args(
        ["run", "--m", "1", "--n", "1", "--designee", "charlie:1",
         "--secret", "0.60000001,0,0.8,0"]
    )
    assert "renormalizing" in capsys.readouterr().err
    norm = abs(config.secret.alpha) ** 2 + abs(config.secret.beta) ** 2
    assert norm == pytest.approx(1.0, abs=1e-12)


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
    a = derived_rng(42, 1, 3).random(4)
    b = derived_rng(42, 1, 3).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, derived_rng(42, 1, 4).random(4))


def test_register_cap_violation_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("HQIS_MAX_QUBITS", "8")
    code = main(["attack", "--m", "3", "--n", "2", "--rounds", "10"])
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
    argv = ["run", "--m", "12", "--n", "12", "--designee", "bob:1", "--charlie-star", "1",
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


def test_emitted_json_is_strict():
    with pytest.raises(ValueError):
        _emit([{"rate": float("nan")}], io.StringIO())


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


ENUMERATE_ARGV = ["run", "--m", "2", "--n", "3", "--designee", "bob:2", "--charlie-star", "3",
                  "--secret", "random", "--mode", "enumerate", "--seed", "11"]


def test_enumerate_streams_one_record_per_branch(monkeypatch):
    produced = []

    def counting_branches(*args):
        for result in iter_branches(*args):
            produced.append(result)
            yield result

    monkeypatch.setattr(cli, "iter_branches", counting_branches)
    records = _run_records(parse_args(ENUMERATE_ARGV))
    assert next(records)["branch"] == 0
    assert len(produced) == 1
    assert next(records)["branch"] == 1
    assert len(produced) == 2


def test_streamed_enumeration_matches_the_branch_list():
    config = parse_args(ENUMERATE_ARGV)
    results = enumerate_branches(
        PartySizes(2, 3), Designee.bob(2, 3), resolve_secret(config)
    )
    records = list(_run_records(config))
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


def test_closed_stdout_ends_with_one_error_line():
    # 20000 records are far more than a pipe buffers, so writing outlives the reader.
    argv = ["run", "--m", "2", "--n", "2", "--designee", "charlie:1", "--trials", "20000"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "hqis.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert json.loads(proc.stdout.readline())["record"] == "trial"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait()
    assert err.splitlines() == ["error: [Errno 32] Broken pipe"], err
