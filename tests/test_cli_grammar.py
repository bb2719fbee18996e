"""The CLI over argv drawn from its documented grammar, valid or not.

Every invocation exits 0, 1 or 2 and raises nothing.  On exit 0 every
record line is strict JSON with its keys sorted and compact separators.
On any other exit stderr holds exactly one ``error:`` line, and no new or
partial ``--output`` file is left: a new path does not exist, an existing
file is untouched or removed, a symlink stays and its target is untouched
or emptied, and a FIFO stays a FIFO.

The argv reader that skips argparse agrees with argparse: on what it reads,
with argparse's values; and on every argv, ``parse_args`` gives with it what
it gives through argparse alone.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from hqis import cli, usage
from hqis.cli import main
from test_cli import PARSER_ARGVS

KEPT = "kept\n"
SEEDS = st.one_of(st.sampled_from(["0", str(2**64 - 1)]), st.integers(0, 2**64 - 1).map(str))
COMPONENTS = st.sampled_from(
    ["0", "-0", "1", "-1", "0.6", "-0.6", "0.8", "-0.8", "nan", "inf", "-inf", "1e-9", "x"]
)
# Values that break an option.
BAD = {
    "--m": ["0", "-1", "x"],
    "--n": ["0", "-1", "x"],
    "--designee": ["alice", "bob:0", "bob:9", "charlie:9", "charlie:²", "carol:1"],
    "--charlie-star": ["0", "9", "x"],
    "--mode": ["both"],
    "--trials": ["0", "-2", "x"],
    "--seed": [str(2**64), "-1", "x"],
    "--scenario": ["none"],
    "--rounds": [str(2**63), "0", "-1"],
    "--threshold": ["1.5", "-0.1", "nan", "inf"],
    "--bogus": ["3"],
}
# Secrets that are unnormalized, non-finite, malformed or of the wrong length.
BAD_SECRETS = st.lists(COMPONENTS, min_size=1, max_size=5).map(",".join)


@st.composite
def secrets(draw) -> str:
    """'random', or four signed components of a normalized secret."""
    if draw(st.booleans()):
        return "random"
    raw = draw(st.lists(st.floats(-1, 1), min_size=4, max_size=4))
    norm = math.sqrt(sum(x * x for x in raw))
    if norm < 1e-3:
        raw, norm = [-1.0, 0.0, 0.0, 0.0], 1.0
    return ",".join(repr(x / norm) for x in raw)


@st.composite
def argvs(draw) -> list[str]:
    """A valid invocation, or one with a single option broken or added."""
    command = draw(st.sampled_from(["run", "run", "attack", "tables"]))
    # At 40 parties an enumeration passes the branch limit (exit 2).
    m, n = draw(st.sampled_from([1, 2, 3, 40])), draw(st.sampled_from([1, 2, 3, 40]))
    options, optional = {}, {}
    if command == "run":
        grade = draw(st.sampled_from(["bob", "charlie"]))
        index = draw(st.integers(1, m if grade == "bob" else n))
        options = {"--m": str(m), "--n": str(n), "--designee": f"{grade}:{index}"}
        if grade == "bob":
            options["--charlie-star"] = str(draw(st.integers(1, n)))
        optional = {
            "--secret": secrets(),
            "--mode": st.sampled_from(["sample", "enumerate"]),
            "--trials": st.sampled_from(["1", "3"]),
            "--seed": SEEDS,
        }
    elif command == "attack":
        options = {"--m": str(m), "--n": str(n)}
        optional = {
            "--scenario": st.sampled_from(["honest", "intercept-resend"]),
            "--rounds": st.sampled_from(["1", "64", "100000", str(2**63 - 1)]),
            "--threshold": st.sampled_from(["0", "0.5", "0.99", "1"]),
            "--seed": SEEDS,
        }
    options |= {flag: draw(value) for flag, value in optional.items() if draw(st.booleans())}
    if draw(st.booleans()):
        broken = draw(st.sampled_from(["command", "--bogus", *options]))
        if broken == "command":
            command = "bogus"
        elif broken == "--secret":
            options[broken] = draw(BAD_SECRETS)
        else:
            options[broken] = draw(st.sampled_from(BAD[broken]))
    pairs = draw(st.permutations(list(options.items())))
    return [command] + [word for pair in pairs for word in pair]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _drained(fifo: Path):
    """A reader on ``fifo``, so that opening it to write does not block,
    draining it into the yielded list until the block ends."""
    read_fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    keep_fd = os.open(fifo, os.O_WRONLY)  # no end of file before the block ends
    os.set_blocking(read_fd, True)
    chunks = []

    def drain():
        while chunk := os.read(read_fd, 1 << 16):
            chunks.append(chunk)

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    try:
        yield chunks
    finally:
        os.close(keep_fd)
        reader.join(timeout=30)
        os.close(read_fd)
    assert not reader.is_alive()


def _assert_strict_lines(text: str) -> None:
    assert text.endswith("\n")
    for line in text.splitlines():
        record = json.loads(line, parse_constant=_reject_constant)
        assert line == json.dumps(record, sort_keys=True, separators=(",", ":"))


def _reject_constant(name: str):
    raise AssertionError(f"non-standard JSON constant {name}")


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(argv=argvs(), target=st.sampled_from(["stdout", "new", "existing", "symlink", "fifo",
                                             "no-such-dir"]))
def test_every_invocation_ends_cleanly(argv, target):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / ("missing/records.ndjson" if target == "no-such-dir" else "records.ndjson")
        linked = tmp / "target.ndjson"
        if target == "existing":
            path.write_text(KEPT)
        elif target == "symlink":
            linked.write_text(KEPT)
            path.symlink_to(linked)
        elif target == "fifo":
            os.mkfifo(path)
        if target != "stdout":
            argv = argv + ["--output", str(path)]

        fifo = _drained(path) if target == "fifo" else contextlib.nullcontext([])
        with fifo as chunks:
            status, out, err = _run(argv)
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert all(line.startswith(("error:", "warning:")) for line in err.splitlines()), err
        assert status in (0, 1, 2), (status, err)
        event(f"exit {status}")
        if status == 0:
            assert errors == [] and target != "no-such-dir"
            assert target == "stdout" or out == ""
            if target == "stdout":
                text = out
            elif target == "fifo":
                text = b"".join(chunks).decode()
            else:
                text = (linked if target == "symlink" else path).read_text()
            _assert_strict_lines(text)
            return
        assert len(errors) == 1, err
        if target in ("new", "no-such-dir"):
            assert not path.exists()
        elif target == "existing":
            assert not path.exists() or path.read_text() == KEPT
        elif target == "symlink":
            assert path.is_symlink() and linked.read_text() in (KEPT, "")
        elif target == "fifo":
            assert path.is_fifo()


FLAGS = sorted({flag for _, options in cli._COMMANDS.values() for flag in options})
# Words in a flag's place that are not a subcommand's flag spelled in full.
ODD_FLAGS = ["--help", "-h", "--", "--bogus", "--secr", "--tri", "--de", "-m", "--M", "run", ""]
VALUES = st.one_of(
    st.sampled_from(["1", "3", "bob:1", "charlie:1", "sample", "enumerate", "honest",
                     "intercept-resend", "random", "0.6,0,0.8,0", "0.5", "64", "records.ndjson"]),
    st.sampled_from(sorted({value for values in BAD.values() for value in values})),
    # Empty, or read differently by argparse's tokenisers, or by int() alone.
    st.sampled_from(["", "-", "--", "-h", "--help", "-0.6,0,0,-0.8", "-1", "-1.5", "-x", "-1e3",
                     " 1", " -1", "1_0", "+1", "=1", "a=b", "run", "--m", "NaN", "١"]),
)


@st.composite
def parser_argvs(draw) -> list[str]:
    """An argv of ``argvs()``, with each option written ``--flag value`` or
    ``--flag=value``, or twice; or, messed up, maybe with another first word
    or none, with extra options, and with an option's flag alone."""
    argv = draw(argvs())
    options = list(zip(argv[1::2], argv[2::2]))
    spellings = ["pair"] * 4 + ["equals"] * 2 + ["twice"]
    if draw(st.booleans()):
        argv[0] = draw(st.sampled_from([argv[0]] * 4 + ["--help", "-h", "--", "Run", None]))
        extra = draw(st.lists(st.tuples(st.sampled_from(FLAGS + ODD_FLAGS), VALUES), max_size=2))
        for option in extra:
            options.insert(draw(st.integers(0, len(options))), option)
        spellings.append("flag")
    words = [] if argv[0] is None else [argv[0]]
    for flag, value in options:
        spelling = draw(st.sampled_from(spellings))
        if spelling == "twice":
            words += [flag, draw(st.sampled_from(["1", "3", "0.5", "bob:1", "honest", "sample"]))]
        words += [f"{flag}={value}"] if spelling == "equals" else [flag] if spelling == "flag" \
            else [flag, value]
    return words


def _parsed(argv: list[str], fast: bool) -> tuple:
    """What ``parse_args(argv)`` returns or raises, and what it prints, with
    or without its argparse-free reader, under an 80-column terminal."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ, {"COLUMNS": "80"}))
        if not fast:
            stack.enter_context(mock.patch.object(cli, "_read_argv", lambda argv: None))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            answer = "parsed", cli.parse_args(argv)
        except cli.UsageError as exc:
            answer = "usage error", str(exc)
        except SystemExit as exc:
            answer = "exit", exc.code
    return answer, out.getvalue(), err.getvalue()


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(argv=parser_argvs())
def test_the_argv_reader_agrees_with_argparse(argv):
    values = cli._read_argv(argv)
    event("read" if values is not None else "left to argparse")
    if values is not None:
        assert values == vars(usage.build_parser(cli, argv[0]).parse_args(argv))
    assert _parsed(argv, fast=True) == _parsed(argv, fast=False)


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_every_parser_argv_parses_as_argparse_alone_parses_it(argv):
    assert cli._read_argv(argv) is None
    assert _parsed(argv, fast=True) == _parsed(argv, fast=False)
