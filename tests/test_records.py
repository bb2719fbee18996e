"""The encoding of run records, against the dicts they encode.

``_oracle_record`` builds a trial or branch record as a dict, and each line
the CLI emits must equal ``json.dumps`` of that dict with the records'
settings, byte for byte.  The CLI builds the dict once per distinct leaf,
with slots for the helpers' bits and the counter, and encodes it with
``cli._dumps``; a record only fills in those two slots.
"""

import hashlib
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hqis import cli, lanes, protocol, qstate
from hqis.cli import _run_records, main, parse_args, resolve_secret
from hqis.qstate import Stream
from hqis.protocol import TrialResult, enumerate_branches, iter_branches, run_recovery

MAX_SEED = 2**64 - 1


def _json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _oracle_context(config, secret, record: str) -> dict:
    """The fields every record of a run shares."""
    sizes, designee = config.sizes, config.designee
    return {
        "record": record,
        "mode": config.mode,
        "m": sizes.m,
        "n": sizes.n,
        "seed": config.seed,
        "designee": designee.role.label,
        "charlie_star": designee.charlie_star,
        "secret": [secret.alpha.real, secret.alpha.imag, secret.beta.real, secret.beta.imag],
    }


def _oracle_record(config, secret, counter: str, k: int, result) -> dict:
    return _oracle_context(config, secret, counter) | {
        counter: k,
        "bell": result.bell.value,
        "bits": {role.label: bit for role, bit in result.classical_bits.items()},
        "v_g1": result.v_g1,
        "v_g2_or_charlie_star": result.v_g2_or_charlie_star,
        "correction": result.correction.value,
        "branch_probability": result.branch_probability,
        "fidelity": result.fidelity,
    }


def _oracle_lines(config) -> list[str]:
    """A run's lines as the dicts of its records, each through json.dumps."""
    sizes, designee, secret = config.sizes, config.designee, resolve_secret(config)
    if config.mode == "sample":
        return [
            _json(_oracle_record(config, secret, "trial", k, run_recovery(
                sizes, designee, secret, Stream(config.seed, cli._STREAM_TRIAL, k)
            )))
            for k in range(config.trials)
        ]
    results = enumerate_branches(sizes, designee, secret)
    probability_sum = 0
    for result in results:
        probability_sum += result.branch_probability
    summary = _oracle_context(config, secret, "summary") | {
        "branches": len(results),
        "probability_sum": probability_sum,
        "min_fidelity": min(r.fidelity for r in results),
        "max_fidelity": max(r.fidelity for r in results),
    }
    lines = [_json(_oracle_record(config, secret, "branch", k, r)) for k, r in enumerate(results)]
    return lines + [_json(summary)]


_SECRETS = st.one_of(
    st.just("random"),
    st.sampled_from(["0,-1,0,0", "1,0,0,0", "-0.6,0,0,-0.8", "0,0.6,-0.8,0"]),
    st.tuples(*[st.floats(-1, 1)] * 4)
    .filter(lambda c: math.hypot(*c) > 0.1)
    .map(lambda c: ",".join(repr(x / math.hypot(*c)) for x in c)),
)


@st.composite
def _run_argvs(draw):
    mode = draw(st.sampled_from(["sample", "enumerate"]))
    # Enumerations stay at m + n <= 8 (at most 512 branches); samples reach
    # m, n >= 10, where bob:10 sorts before bob:2.
    largest = 13 if mode == "sample" else 4
    m, n = draw(st.integers(1, largest)), draw(st.integers(1, largest))
    if draw(st.booleans()):
        designee = [f"bob:{draw(st.integers(1, m))}", "--charlie-star", str(draw(st.integers(1, n)))]
    else:
        designee = [f"charlie:{draw(st.integers(1, n))}"]
    seed = draw(st.sampled_from([0, MAX_SEED]) | st.integers(0, MAX_SEED))
    argv = ["run", "--mode", mode, "--m", str(m), "--n", str(n), "--designee", *designee,
            f"--secret={draw(_SECRETS)}", "--seed", str(seed)]
    if mode == "sample":
        argv += ["--trials", str(draw(st.integers(1, 4)))]
    return argv


def _argv(text: str) -> list[str]:
    return text.split()


@settings(max_examples=60, deadline=None)
@given(argv=_run_argvs())
@example(argv=_argv(f"run --mode sample --m 12 --n 3 --designee bob:11 --charlie-star 2 "
                    f"--secret=random --seed {MAX_SEED} --trials 4"))
@example(argv=_argv("run --mode sample --m 2 --n 11 --designee charlie:4 "
                    "--secret=0,-1,0,0 --seed 0 --trials 4"))
@example(argv=_argv("run --mode enumerate --m 10 --n 1 --designee bob:1 --charlie-star 1 "
                    "--secret=-0.6,0,0,-0.8 --seed 0"))
@example(argv=_argv(f"run --mode enumerate --m 2 --n 3 --designee charlie:2 "
                    f"--secret=random --seed {MAX_SEED}"))
def test_run_lines_equal_json_dumps_of_the_record_dicts(argv):
    config = parse_args(argv)
    assert list(_run_records(config)) == _oracle_lines(config)


# stdout of the bench argvs at seed 17 and of the README commands, byte for
# byte as the dict-encoding CLI wrote them, and of an honest and a wide
# attack, as the qubit-indexed check wrote them.  The runs with no helper
# before or after the contracted one (m=1 under either grade, n=1 under a
# Charlie designee), a Bob-designee enumeration, a basis secret and an m
# past float underflow are as the walk wrote them that kept one tree level
# per run of |+>/|-> steps.  The enumerations whose bits sort in another
# order than the plan's (bob:10 before bob:3), whose contracted helper comes
# first (m=1), at a basis secret, at m=n=1 and at m=12 are as the records
# were written from one TrialResult per branch.  The sampled runs at m=n=1
# under either grade (no helper before or after the contracted one), with
# bob:11 (bits sorted in another order than the plan's), with charlie:9, and
# the 3000 trials at seed 2**64 - 1 are as they were written from one
# TrialResult and one seeded Stream per trial.  The last four enumerations
# are as they were written a record at a time from the walk's (leaf, bits):
# the final plan positions cross the charlie:9/charlie:10 sort boundary; a
# Bob designee at m=10 whose last six helpers, charlie* among them, sort next
# to each other; one at m=11 whose last two, bob:11 and charlie:2, do not
# (bob:11 sorts second); and a run whose six helpers sort in plan order.
PINNED_STDOUT_SHA256 = {
    "run --mode sample --m 3 --n 3 --designee charlie:2 --secret random --trials 1000 --seed 17":
        "e28ec3a16f7a662d37c8e511c8d2f60b3bd0338f50cc9bfc5b05304aa8660813",
    "run --mode enumerate --m 5 --n 6 --designee charlie:3 --secret random --seed 17":
        "d5346b7c3129538998864377e828feb6ae1cff268203fc6aacda2a2ef5ae18dd",
    "attack --scenario intercept-resend --m 5 --n 6 --rounds 3000000 --seed 17":
        "3a96ebabd97642dfe41679dac56eefdd2c142b283eabd4b5cda5fa7390c25e19",
    "run --m 2 --n 2 --designee bob:1 --charlie-star 1 --secret 0.6,0,0.8,0 --trials 100 --seed 42":
        "f23c13c538d7d58f06b686b066c9cfcd01b727b32cbdb409ce51bd7c58d0ea29",
    "run --m 2 --n 2 --designee charlie:2 --secret random --mode enumerate --seed 7":
        "4f210fcf3dbb1cd7083890bdd148b6af7b40b93615ecd8d9eac8ca623c8f470d",
    "attack --m 1 --n 1 --scenario intercept-resend --rounds 100000 --seed 5":
        "f347403592ca4b89da08a5778e57d9f061cec3d908e0ba49906b29af04393759",
    "attack --scenario honest --m 5 --n 6 --rounds 3000000 --seed 17":
        "c647a5ee2df22cf998011aaf1d878ffba9b76a311646c2642cd25c5caea0a220",
    "attack --scenario intercept-resend --m 2000 --n 3000 --rounds 65537 --seed 9":
        "8f1c4708b59582d5c05ffd02ab57dfd1fcba76cf6702c44bba5cc9695a97307b",
    "tables":
        "a726f8ed4fe97a5d06e4b319d755b7e84afc8c0b4c79bc806c36753d250439ee",
    "run --m 1 --n 3 --designee bob:1 --charlie-star 2 --secret random --trials 200 --seed 3":
        "961be804d30e6558e0476add95a89c7550f796e49583ddaab092ee76ff5659fb",
    "run --m 1 --n 3 --designee charlie:2 --secret random --trials 200 --seed 3":
        "5d913533342de06348653ee5533abe6c5cdd7f5cf94b3ad4d275f48a201ee575",
    "run --m 3 --n 1 --designee charlie:1 --secret random --trials 200 --seed 3":
        "c6c0b4d9e5c86dc7f9ecaa6dab36c1b02694c5c854252e05483e34570fb6b972",
    "run --mode enumerate --m 4 --n 2 --designee bob:3 --charlie-star 1 --secret random --seed 11":
        "8c52fc2875d775e18496b8e24d7a354f6bddeea57d140e47e1e4ad70e98b497a",
    "run --m 2 --n 3 --designee charlie:1 --secret 1,0,0,0 --trials 200 --seed 5":
        "fa52231b7d8a7ee4b107f9bfa6f7dff71c81fccc1f4ca74531da5570363c5774",
    "run --m 2 --n 3 --designee bob:2 --charlie-star 3 --secret 1,0,0,0 --trials 200 --seed 5":
        "96bc00f3c48df5e060c76454773ef81518cf63fcca905a65972fc2458aea18fc",
    "run --m 3000 --n 2 --designee charlie:2 --secret random --trials 20 --seed 13":
        "5891bddf9ed6e137340c4535ec102b47cd1f962503601ed710a2b2d5eaddd3c9",
    "run --mode enumerate --m 11 --n 1 --designee bob:2 --charlie-star 1 --secret random --seed 21":
        "d717cf783dabad084de68c68b5554ee1ab49ec47e8067279d46630b8d63ac486",
    "run --mode enumerate --m 1 --n 9 --designee charlie:5 --secret random --seed 21":
        "33978d7afe67679ab1e7a966a7eee4800f41f059b49672a079af10e4219296ee",
    "run --mode enumerate --m 3 --n 2 --designee charlie:1 --secret 0,0,1,0 --seed 4":
        "ced9e17ad55dca7ded0f827ca8642736cec715a00e2b32887bdbed0685c3f2ff",
    "run --mode enumerate --m 1 --n 1 --designee bob:1 --charlie-star 1 --secret 1,0,0,0 --seed 0":
        "b81bc2a4d7406657e4c4a10b2c9e6e6ce0a3c6533d31170bd7c8a41d12771636",
    "run --mode enumerate --m 12 --n 1 --designee charlie:1 --secret random --seed 8":
        "c5ecad92724fc4475aa4a82c979d4fff7069091a46a03d8faa0d0538bf7fb1d3",
    "run --m 1 --n 1 --designee bob:1 --charlie-star 1 --secret random --trials 300 --seed 6":
        "c62488854aed6f4cf29419df4f93846d4ff1565420b8e247bc2a84dadf03ce55",
    "run --m 1 --n 1 --designee charlie:1 --secret random --trials 300 --seed 6":
        "46b8b6d6fb060463314c992462811cb2dc9fe448217ce0ce244c7b3a9376af8c",
    "run --m 12 --n 3 --designee bob:11 --charlie-star 2 --secret random --trials 300 --seed 12":
        "1ef1bf5bfd85c1f69377da46a610cdbb843e409396ea59799d3d2881f3a0bf32",
    "run --m 4 --n 9 --designee charlie:9 --secret random --trials 300 --seed 9":
        "48ea221ccf9a19498044d893ff6861fcee6a9453cd1b204dd3b8332d7d9dda49",
    "run --m 3 --n 3 --designee charlie:2 --secret random --trials 3000"
    " --seed 18446744073709551615":
        "cf0a0c8c1b5c42d1683cb3354f470939fc404b6c49f4699949a7f3389dd62279",
    "run --mode enumerate --m 2 --n 11 --designee charlie:4 --secret random --seed 23":
        "882c1beae6645342104e1a72ad3c6654fde066a6873ab62511914ff7fdf9c09b",
    "run --mode enumerate --m 10 --n 3 --designee bob:10 --charlie-star 2 --secret random"
    " --seed 19":
        "46db5378c6ee222ee14f15c07b4d122be0be90ae04d884bda7cee68970f80fac",
    "run --mode enumerate --m 11 --n 2 --designee bob:1 --charlie-star 2 --secret random"
    " --seed 29":
        "1e0ebed36b7e8d190824929bb9387eda8207d27b5ab2374e484c39d757a341d8",
    "run --mode enumerate --m 3 --n 4 --designee charlie:2 --secret 0,0.6,-0.8,0 --seed 3":
        "7234684fc96477fc5fdea8cc3b24b3702771a57c0f45e100f19c6c24ae1b1e14",
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT_SHA256))
def test_stdout_keeps_its_pinned_bytes(capsys, command):
    assert main(command.split()) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == PINNED_STDOUT_SHA256[command]


def test_dumps_encodes_each_distinct_leaf_once(monkeypatch, capsys):
    calls = []

    def counting_dumps(value):
        calls.append(value)
        return dumps(value)

    dumps = cli._dumps
    monkeypatch.setattr(cli, "_dumps", counting_dumps)
    # The bench's sample and enumerate argvs.
    for counter, argv, count in (
        ("trial", "run --mode sample --m 3 --n 3 --designee charlie:2 --trials 1000 --seed 17",
         1000),
        ("branch", "run --mode enumerate --m 5 --n 6 --designee charlie:3 --seed 17", 4097),
    ):
        calls.clear()
        assert main(argv.split()) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == count
        fields = ("bell", "v_g1", "v_g2_or_charlie_star", "correction", "branch_probability",
                  "fidelity")
        leaves = {tuple(r[field] for field in fields) for r in records if counter in r}
        leaf_dicts = [value for value in calls if isinstance(value, dict) and "fidelity" in value]
        assert len(leaf_dicts) == len(leaves) > 1
        # No call encodes a whole record: each leaf dict holds a slot, not a
        # value, for the helpers' bits and for the counter.
        assert all(leaf["bits"] == leaf[counter] == "\0" for leaf in leaf_dicts)


@pytest.mark.parametrize("counter, argv", [
    ("trial", "run --mode sample --m 3 --n 3 --designee charlie:2 --secret random --trials 1000"
     " --seed 1"),
    ("branch", "run --mode enumerate --m 5 --n 6 --designee charlie:3 --secret random --seed 1"),
])
def test_each_leaf_is_encoded_once_when_its_first_record_is_reached(monkeypatch, counter, argv):
    # The bench's sample and enumerate argvs, drained a record at a time:
    # after each record, the leaves encoded are the distinct leaves reached.
    encoded = []

    def counting_dumps(value):
        if isinstance(value, dict) and value.get("bits") == "\0":
            encoded.append(value)
        return dumps(value)

    dumps = cli._dumps
    monkeypatch.setattr(cli, "_dumps", counting_dumps)
    reached = set()
    for line in _run_records(parse_args(argv.split())):
        record = json.loads(line)
        if counter in record:
            reached.add(tuple(record[field] for field in LEAF_FIELDS))
        assert len(encoded) == len(reached)
    assert len(reached) > 1


BENCH_SAMPLE_ARGV = ("run --mode sample --m 3 --n 3 --designee charlie:2 --secret random"
                     " --trials 1000 --seed 1")


def _helpers_argv(helpers: int) -> str:
    """A sampled run of 1000 trials with ``helpers`` helpers."""
    return f"run --m {helpers} --n 2 --designee bob:1 --charlie-star 2 --trials 1000 --seed 3"


@pytest.mark.parametrize("argv", [
    BENCH_SAMPLE_ARGV, _helpers_argv(cli._BLOCK_WIDTH), _helpers_argv(cli._BLOCK_WIDTH + 1),
])
def test_sampled_rows_equal_json_dumps_of_the_record_dicts(argv):
    # 1000 trials, so that most records reuse a row made for an earlier one,
    # in runs that keep their rows and in one just too wide to keep them.
    config = parse_args(argv.split())
    assert list(_run_records(config)) == _oracle_lines(config)


def test_a_sampled_run_makes_each_distinct_row_once_up_to_the_block_width(monkeypatch):
    made = []

    def counting_make(rows, row):
        made.append(row)
        return make(rows, row)

    make = cli._Rows.make
    monkeypatch.setattr(cli._Rows, "make", counting_make)
    records = [json.loads(line) for line in _run_records(parse_args(BENCH_SAMPLE_ARGV.split()))]
    rows = {(tuple(r[field] for field in LEAF_FIELDS), tuple(r["bits"].items())) for r in records}
    assert len(made) == len(rows) < len(records)
    # One helper more, and the run keeps no row: it makes one per record.
    made.clear()
    records = list(_run_records(parse_args(_helpers_argv(cli._BLOCK_WIDTH + 1).split())))
    assert len(made) == len(records) == 1000


SAMPLE_ARGV = ["run", "--m", "2", "--n", "2", "--designee", "charlie:1", "--trials", "5"]
SAMPLE_ARGV_10 = SAMPLE_ARGV[:-1] + ["10"]
ENUMERATE_ARGV = ["run", "--m", "2", "--n", "2", "--designee", "bob:1", "--charlie-star", "2",
                  "--mode", "enumerate"]


# A leaf of the run's table holds a TrialResult's fields but the bits.
LEAF_FIELDS = tuple(field for field in TrialResult._fields if field != "classical_bits")


def _break_result_at(monkeypatch, name: str, at: int, **fields):
    """Give result number ``at`` of a run with ``fields`` replaced.

    For ``run_recovery``, the leaf of call ``at`` of ``protocol.run_pick``,
    which ``run_recovery`` calls per trial and the CLI per trial drawn alone,
    as every trial of a run of fewer than ``lanes.MIN_LANES`` trials is.
    For ``iter_branches``, the leaf of branch ``at`` in the blocks of
    ``_LeafTable.walk``, which both ``iter_branches`` and the CLI's
    enumeration read.
    """
    count = itertools.count()

    if name == "run_recovery":
        pick = protocol.run_pick

        def broken_pick(table, draws):
            leaf, bits = pick(table, draws)
            if next(count) == at:
                leaf = tuple(fields.get(key, value) for key, value in zip(LEAF_FIELDS, leaf))
            return leaf, bits

        monkeypatch.setattr(protocol, "run_pick", broken_pick)
        return
    walk = protocol._LeafTable.walk

    def broken_walk(table, width):
        start = 0
        for leaves, prefix in walk(table, width):
            if 0 <= at - start < len(leaves):
                leaf = leaves[at - start]
                leaf = tuple(fields.get(key, value) for key, value in zip(LEAF_FIELDS, leaf))
                leaves = leaves[: at - start] + (leaf,) + leaves[at - start + 1 :]
            start += len(leaves)
            yield leaves, prefix

    monkeypatch.setattr(protocol._LeafTable, "walk", broken_walk)


def test_the_runs_that_patch_run_pick_draw_each_trial_alone():
    # The CLI calls protocol.run_pick once per trial only below MIN_LANES trials.
    trials = [int(SAMPLE_ARGV[-1]), int(SAMPLE_ARGV_10[-1]), 7]
    assert max(trials) < lanes.MIN_LANES, (
        "_break_result_at, test_a_signal_while_writing_leaves_no_output_file,"
        " test_signal_handlers_are_set_only_while_records_go_to_a_path and"
        " tests/test_cli.py::test_a_sampled_run_makes_one_public_protocol_run_call_per_trial"
        f" patch protocol.run_pick and count on {trials} trials each being drawn alone"
    )


@pytest.mark.parametrize("field", ["fidelity", "branch_probability"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name, argv", [("run_recovery", SAMPLE_ARGV_10), ("iter_branches", ENUMERATE_ARGV)]
)
def test_non_finite_float_raises_json_error(
    monkeypatch, capsys, tmp_path, name, argv, field, value
):
    with pytest.raises(ValueError) as strict:
        _json({field: value})
    # Record 5 comes after the encoder has cached the leaves of the records before it.
    for at in (0, 5):
        with monkeypatch.context() as patch:
            _break_result_at(patch, name, at, **{field: value})
            records = _run_records(parse_args(argv))
            assert len(list(itertools.islice(records, at))) == at
            with pytest.raises(ValueError) as caught:
                next(records)
        assert str(caught.value) == str(strict.value)
        with monkeypatch.context() as patch:
            _break_result_at(patch, name, at, **{field: value})
            assert main(argv) == 1
        with monkeypatch.context() as patch:
            _break_result_at(patch, name, at, **{field: value})
            assert main(argv + ["--output", str(tmp_path / "records.ndjson")]) == 1
        assert list(tmp_path.iterdir()) == []
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == at
        assert captured.err.splitlines() == [f"error: {strict.value}"] * 2
    config = parse_args(argv)
    secret = resolve_secret(config)
    with monkeypatch.context() as patch:
        _break_result_at(patch, name, 5, **{field: value})
        if name == "iter_branches":
            # The library's branches read the same walk.
            results = list(iter_branches(config.sizes, config.designee, secret))
        else:
            # The library's sampled runs make the same pick.
            results = [
                run_recovery(config.sizes, config.designee, secret,
                             Stream(config.seed, cli._STREAM_TRIAL, k))
                for k in range(config.trials)
            ]
    assert getattr(results[5], field) is value
    assert all(math.isfinite(getattr(r, field)) for r in results[:5] + results[6:])


def test_failure_after_the_first_record_leaves_no_output_file(monkeypatch, tmp_path, capsys):
    _break_result_at(monkeypatch, "run_recovery", 3, fidelity=math.nan)
    out = tmp_path / "records.ndjson"
    assert main(SAMPLE_ARGV + ["--output", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []
    (error,) = capsys.readouterr().err.splitlines()
    assert error.startswith("error: Out of range float values")


def test_failure_at_the_first_record_leaves_an_existing_file_alone(monkeypatch, tmp_path):
    _break_result_at(monkeypatch, "run_recovery", 0, fidelity=math.nan)
    out = tmp_path / "records.ndjson"
    out.write_text("kept\n")
    assert main(SAMPLE_ARGV + ["--output", str(out)]) == 1
    assert out.read_text() == "kept\n"


def test_failure_keeps_a_fifo_target(monkeypatch, tmp_path):
    _break_result_at(monkeypatch, "run_recovery", 3, fidelity=math.nan)
    fifo = tmp_path / "records.fifo"
    os.mkfifo(fifo)
    received = []

    def read():
        with open(fifo) as handle:
            received.extend(handle)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    assert main(SAMPLE_ARGV + ["--output", str(fifo)]) == 1
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert fifo.is_fifo()
    assert [json.loads(line)["trial"] for line in received] == [0, 1, 2]


def test_failure_keeps_a_symlink_and_its_target(monkeypatch, tmp_path):
    # The path names a link, not the file written: nothing is unlinked
    # through it, as /dev/stdout must never be.  The target it reaches, which
    # opening it emptied, is emptied of this run's records.
    _break_result_at(monkeypatch, "run_recovery", 3, fidelity=math.nan)
    target = tmp_path / "records.ndjson"
    link = tmp_path / "link.ndjson"
    link.symlink_to(target)
    assert main(SAMPLE_ARGV + ["--output", str(link)]) == 1
    assert link.is_symlink() and target.is_file()
    assert target.read_text() == ""


# A CLI process whose fifth trial waits, after the output file is open and
# records 0-3 are written to it, until a signal stops it.
_WAITING_RUN = """\
import sys, time
from hqis import cli, protocol

real, calls = protocol.run_pick, []

def waiting(*args):
    calls.append(args)
    if len(calls) == 5:
        print("writing", file=sys.stderr, flush=True)
        time.sleep(120)
    return real(*args)

protocol.run_pick = waiting
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("name", ["SIGTERM", "SIGHUP"])
def test_a_signal_while_writing_leaves_no_output_file(tmp_path, name):
    signum = getattr(signal, name)
    out = tmp_path / "records.ndjson"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-c", _WAITING_RUN, *SAMPLE_ARGV_10, "--output", str(out)]
    with subprocess.Popen(argv, stderr=subprocess.PIPE, env=env, text=True) as proc:
        try:
            assert proc.stderr.readline() == "writing\n"
            assert out.is_file()
            proc.send_signal(signum)
            assert proc.wait(timeout=60) == 128 + signum
            assert proc.stderr.read() == ""
        finally:
            proc.kill()
    assert list(tmp_path.iterdir()) == []


def test_signal_handlers_are_set_only_while_records_go_to_a_path(monkeypatch, tmp_path, capsys):
    seen = []
    real = protocol.run_pick

    def watching(*args):
        seen.append((signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGHUP)))
        return real(*args)

    monkeypatch.setattr(protocol, "run_pick", watching)
    # SIGHUP ignored, as under nohup, stays ignored.
    kept = (signal.signal(signal.SIGTERM, signal.SIG_DFL),
            signal.signal(signal.SIGHUP, signal.SIG_IGN))
    try:
        assert main(SAMPLE_ARGV + ["--output", str(tmp_path / "records.ndjson")]) == 0
        assert main(SAMPLE_ARGV) == 0
        after = signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGHUP)
    finally:
        signal.signal(signal.SIGTERM, kept[0])
        signal.signal(signal.SIGHUP, kept[1])
    assert len(capsys.readouterr().out.splitlines()) == 5
    # Trial 0 is drawn before the file is opened, trials 1-4 while it is written.
    terms, hups = zip(*seen)
    assert terms[0] is signal.SIG_DFL and all(callable(h) for h in terms[1:5])
    assert terms[5:] == (signal.SIG_DFL,) * 5
    assert hups == (signal.SIG_IGN,) * 10
    assert after == (signal.SIG_DFL, signal.SIG_IGN)


def test_a_run_in_another_thread_still_writes_its_output_file(tmp_path):
    # Only the main thread may set a signal handler; another thread's run
    # writes its file without one.
    out = tmp_path / "records.ndjson"
    statuses = []
    worker = threading.Thread(
        target=lambda: statuses.append(main(SAMPLE_ARGV + ["--output", str(out)]))
    )
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert statuses == [0]
    assert [json.loads(line)["trial"] for line in out.read_text().splitlines()] == list(range(5))


def _drained_peak(argv: str) -> int:
    """The tracemalloc peak of a run's records, drained to a sink."""
    config = parse_args(argv.split())
    tracemalloc.start()
    try:
        for _ in _run_records(config):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_enumeration_memory_does_not_grow_with_the_branch_count():
    # 2**12 and 2**16 branches, each after a warm-up run, so that neither
    # pays for an import or for building its leaf table.
    small = "run --mode enumerate --m 5 --n 6 --designee charlie:3 --seed 17"
    large = "run --mode enumerate --m 7 --n 8 --designee charlie:3 --seed 17"
    peaks = [(_drained_peak(argv), _drained_peak(argv))[1] for argv in (small, large)]
    assert abs(peaks[1] - peaks[0]) <= 2**12, peaks


def test_enumeration_memory_stays_flat_to_2_18_branches():
    # 2**12 and 2**18 branches, each after a warm-up run.  A walk block has
    # at most 2**6 branches, and the run keeps its suffixes' texts once: a
    # bits text shared by every branch, with no cap, peaked at 44 MiB here.
    small = "run --mode enumerate --m 5 --n 6 --designee charlie:3 --seed 17"
    large = "run --mode enumerate --m 8 --n 9 --designee charlie:3 --seed 17"
    peaks = [(_drained_peak(argv), _drained_peak(argv))[1] for argv in (small, large)]
    assert abs(peaks[1] - peaks[0]) <= 2**12, peaks


def test_sampled_memory_does_not_grow_with_the_trial_count():
    # 2**10 and 2**14 trials, each after a warm-up run, so that neither pays
    # for an import or for building its leaf table and seeder.
    small = "run --m 3 --n 3 --designee charlie:2 --trials 1024 --seed 17"
    large = "run --m 3 --n 3 --designee charlie:2 --trials 16384 --seed 17"
    peaks = [(_drained_peak(argv), _drained_peak(argv))[1] for argv in (small, large)]
    assert abs(peaks[1] - peaks[0]) <= 2**12, peaks


def test_sampled_memory_does_not_grow_with_the_trial_count_when_rows_are_not_kept():
    # m = n = 12 has 23 helpers, too many to keep its rows: each record
    # makes its own, and nothing it makes may outlive the record.
    small = "run --m 12 --n 12 --designee charlie:2 --trials 1024 --seed 17"
    large = "run --m 12 --n 12 --designee charlie:2 --trials 16384 --seed 17"
    peaks = [(_drained_peak(argv), _drained_peak(argv))[1] for argv in (small, large)]
    assert abs(peaks[1] - peaks[0]) <= 2**12, peaks


def _scalar_trial_picks(table, seed_path, start, stop):
    size = 1 + table.helpers
    return (protocol.run_pick(table, qstate._uniforms(*seed_path(k), size)[0])
            for k in range(start, stop))


# Both grades, at trial counts either side of the fallback to drawing trial by
# trial and past whole blocks, then wider trials.
BLOCK_ARGVS = [
    f"run --m 3 --n 4 --designee {designee} --trials {trials} --seed 17"
    for designee in ("bob:2 --charlie-star 3", "charlie:2")
    for trials in (1, lanes.MIN_LANES - 1, lanes.MIN_LANES, lanes.LANES + 1, 3 * lanes.LANES + 7)
] + [
    # 100 draws a trial: blocks of 40 trials, then a short one.
    "run --m 60 --n 40 --designee charlie:7 --trials 90 --seed 2",
    # More draws a trial than a block's cells.
    f"run --m {lanes.LANE_CELLS} --n 1 --designee charlie:1 --trials 3 --seed 2",
]


@pytest.mark.parametrize("argv", BLOCK_ARGVS)
def test_trials_drawn_in_blocks_write_what_trials_drawn_alone_write(monkeypatch, capsys, argv):
    assert main(argv.split()) == 0
    blocks = capsys.readouterr()
    monkeypatch.setattr(lanes, "trial_picks", _scalar_trial_picks)
    assert main(argv.split()) == 0
    assert capsys.readouterr() == blocks
