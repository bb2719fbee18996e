"""Command-line front end emitting newline-delimited JSON records.

Subcommands: ``run`` (sampled trials or exhaustive enumeration), ``attack``
(correlation-check sessions plus the exact detection rate), and ``tables``
(the correction lookup tables as records).  Identical arguments and seed
produce byte-identical output; every record carries mode, m, n, and seed.

Every line is one JSON object with its keys sorted, compact separators and
strict JSON: a NaN or an infinity fails the run instead of being written.
``_dumps`` owns that format and writes every line: a run record's once per
distinct leaf of the run's table, with slots for the helpers' bits and the
counter (``_LeafLines``), and an attack check's match rate once for its m
equal copies.  One function, ``_run_records``, writes both modes' records,
and an enumeration's summary, from the table's leaves and bits.
A sampled run draws its trials from a seeder built once per run, a block of
trials at a time (:mod:`hqis.lanes`): a helper's coin as one bit per trial,
floats only for the Bell and the contracted steps, and the block's trials
picked column by column (``protocol.run_block``).  A record is its counter
joined into its row's text, kept up to ``_BLOCK_WIDTH`` helpers (``_Rows``).
An enumeration joins each record of a walk block, up to 64, from texts made
before it: the bits of each block suffix once per run, and the block
prefix's once.  A run that fails after its first record, or that a
SIGTERM or SIGHUP stops, removes its ``--output`` file, if that path names a
regular file, and empties the regular file a symlinked path reaches.

A well-formed argv, a subcommand and its own options each with a value, is
read from the one table of options (``_COMMANDS``) without argparse, which
is not even loaded.  argparse, built from the same table with the one
subparser the first argument names, in :mod:`hqis.usage`, serves only help
and usage errors, and whatever else a well-formed argv is not.
"""

import functools
import itertools
import json
import math
import operator
import os
import stat
import sys
from collections import namedtuple

from .channel import PartySizes, Scenario, SecretState
from .qstate import NORM_TOL, ResourceLimitError, Stream, _seeder, register_cap

# Only the functions that use hqis.protocol or hqis.adversary import them:
# ``attack`` never loads the one, ``run`` and ``tables`` never the other.

SECRET_NORM_SLACK = 1e-6

# Purpose tags for derived rng streams, so each consumer is reproducible
# in isolation from the single run seed.
_STREAM_SECRET = 0
_STREAM_TRIAL = 1
_STREAM_ATTACK = 2
# At most 2**6 records per enumeration block, and rows kept only up to 6
# helpers (``_Rows``): what a run keeps, its bits texts among it, stays small.
_BLOCK_WIDTH = 6


class UsageError(Exception):
    pass


class RunConfig(namedtuple(
    "RunConfig",
    "mode sizes designee secret trials seed attack_scenario rounds threshold output_path",
    defaults=(None, None, None, 1, None, None, None, None, None),
)):
    """Fully validated invocation settings."""

    __slots__ = ()


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise UsageError(f"seed must be an integer, got {text!r}") from None
    if not 0 <= seed < 2**64:
        raise UsageError("seed must fit in an unsigned 64-bit integer")
    return seed


def _four_numbers(text: str) -> list[float] | None:
    """The four comma-separated numbers ``text`` spells, or None."""
    parts = text.split(",")
    try:
        return [float(part) for part in parts] if len(parts) == 4 else None
    except ValueError:
        return None


def _parse_secret(text: str) -> SecretState | None:
    """Parse 'random' or four comma-separated reals Re(a),Im(a),Re(b),Im(b)."""
    if text == "random":
        return None
    components = _four_numbers(text)
    if components is None:
        raise UsageError(f"secret must be 'random' or four comma-separated reals, got {text!r}")
    if not all(math.isfinite(c) for c in components):
        raise UsageError(f"secret components must be finite, got {text!r}")
    re_a, im_a, re_b, im_b = components
    alpha, beta = complex(re_a, im_a), complex(re_b, im_b)
    norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm_sq - 1.0) > SECRET_NORM_SLACK:
        raise UsageError(f"secret is not normalized: |a|^2+|b|^2 = {norm_sq!r}")
    if abs(norm_sq - 1.0) > NORM_TOL:
        print(
            f"warning: renormalizing secret (|a|^2+|b|^2 = {norm_sq!r})",
            file=sys.stderr,
        )
    scale = 1.0 / math.sqrt(norm_sq)
    return SecretState(alpha * scale, beta * scale)


def _parse_designee(text: str) -> "Role":
    from .protocol import Role

    grade, sep, index_text = text.partition(":")
    # isdigit alone admits digits such as "²" that int() rejects.
    ascii_digits = index_text.isascii() and index_text.isdigit()
    if not sep or grade not in ("bob", "charlie") or not ascii_digits:
        raise UsageError(f"designee must look like bob:1 or charlie:2, got {text!r}")
    return Role(grade, int(index_text))


# Each subcommand's help line and options: a flag and the keywords argparse's
# ``add_argument`` takes for it.  ``_read_argv`` reads a well-formed argv from
# this table, and ``usage.build_parser`` builds argparse's parser from it.  No
# default is a string with a type, which argparse would convert.
_COMMANDS = {
    "run": ("execute protocol trials or enumerate branches", {
        "--m": {"type": int, "required": True, "help": "number of Bobs"},
        "--n": {"type": int, "required": True, "help": "number of Charlies"},
        "--designee": {"required": True, "help": "bob:i or charlie:j"},
        "--charlie-star": {"type": int, "help": "assisting Charlie for a Bob designee"},
        "--secret": {"default": "random", "help": "'random' or Re(a),Im(a),Re(b),Im(b)"},
        "--mode": {"choices": ("sample", "enumerate"), "default": "sample"},
        "--trials": {"type": int, "default": 1},
        "--seed": {"default": "0"},
        "--output": {"help": "write records to this file instead of stdout"},
    }),
    "attack": ("run eavesdropping correlation checks", {
        "--m": {"type": int, "required": True},
        "--n": {"type": int, "required": True},
        "--scenario": {
            "choices": tuple(s.value for s in Scenario),
            "default": Scenario.INTERCEPT_RESEND.value,
        },
        "--rounds": {"type": int, "default": 64},
        "--threshold": {"type": float, "default": 0.99},
        "--seed": {"default": "0"},
        "--output": {},
    }),
    "tables": ("dump the correction lookup tables", {"--output": {}}),
}


def _dest(flag: str) -> str:
    """The attribute argparse stores ``flag``'s value under."""
    return flag[2:].replace("-", "_")


def _read_argv(argv: list[str]) -> dict | None:
    """What argparse parses a well-formed ``argv`` to, as ``vars`` of its
    namespace, else None.

    Well-formed is a subcommand, then ``--flag value`` or ``--flag=value``
    pairs of that subcommand's flags spelled in full, with no value that
    starts with "-", each value converting by its type and among its
    choices, and every required flag given.  The last of a repeated flag
    wins.  Anything else, ``--help`` among it, is for argparse to parse or
    refuse: argparse reads a value that starts with "-" differently from one
    Python version to the next.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][1]
    args = {_dest(flag): keywords.get("default") for flag, keywords in options.items()}
    args["command"] = argv[0]
    missing = {flag for flag, keywords in options.items() if keywords.get("required")}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, equals, value = token.partition("=")
        if not equals:
            value = next(tokens, None)
        keywords = options.get(flag)
        if keywords is None or value is None or value.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        choices = keywords.get("choices")
        if choices is not None and value not in choices:
            return None
        args[_dest(flag)] = value
        missing.discard(flag)
    return None if missing else args


def parse_args(argv: list[str]) -> RunConfig:
    """Validate argv into a RunConfig; raises UsageError on any bad input.

    A well-formed argv is read without argparse (``_read_argv``); argparse
    parses the rest, and writes every help text and usage error.  Sizes and
    designees are validated by ``PartySizes``, ``Designee`` and
    ``check_designee``.  No subcommand builds a dense register, so the
    register cap bounds no size here.
    """
    args = _read_argv(argv)
    if args is None:
        from .usage import parse

        # This module as it runs: under python -m, __main__, not hqis.cli.
        args = parse(sys.modules[__name__], argv)

    if args["command"] == "tables":
        return RunConfig(mode="tables", output_path=args["output"])

    seed = _parse_seed(args["seed"])
    try:
        if args["command"] == "attack":
            return RunConfig(
                mode="attack",
                sizes=PartySizes(args["m"], args["n"]),
                seed=seed,
                attack_scenario=Scenario(args["scenario"]),
                rounds=args["rounds"],
                threshold=args["threshold"],
                output_path=args["output"],
            )

        from .protocol import Designee, check_designee

        role = _parse_designee(args["designee"])
        if args["trials"] < 1:
            raise UsageError(f"trials must be >= 1, got {args['trials']}")
        secret = _parse_secret(args["secret"])
        sizes = PartySizes(args["m"], args["n"])
        designee = Designee(role, args["charlie_star"])
        check_designee(sizes, designee)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return RunConfig(
        mode=args["mode"],
        sizes=sizes,
        designee=designee,
        secret=secret,
        trials=args["trials"],
        seed=seed,
        output_path=args["output"],
    )


def resolve_secret(config: RunConfig) -> SecretState:
    """The run's secret; 'random' draws one uniformly from the seed stream."""
    if config.secret is not None:
        return config.secret
    return SecretState.haar_random(Stream(config.seed, _STREAM_SECRET))


def _dumps(value) -> str:
    """The records' one JSON format: keys sorted, compact separators, and
    strict, so a NaN or an infinity raises ValueError."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


# _dumps escapes a NUL, so only a slot, the string "\0", encodes to this.
_SLOT = _dumps("\0")


def _base_record(config: RunConfig, record: str) -> dict:
    sizes = config.sizes
    return {
        "record": record,
        "mode": config.mode,
        "m": sizes.m if sizes else None,
        "n": sizes.n if sizes else None,
        "seed": config.seed,
    }


def _bits_template(labels: tuple[str, ...]) -> str:
    """The ``_dumps`` of a run's bits, a dict from its helpers' ``labels``
    (at least one) to their bits, with ``%d`` for each bit.

    It is the sorted labels' list, encoded once, with each label's colon and
    slot spliced in: the same text as ``_dumps(dict.fromkeys(labels, 0))``
    with its bits as slots, at a fifth of the time at a million helpers.  A
    label holds no quote, so ``","`` in the list only separates two labels.
    """
    return "{" + _dumps(sorted(labels))[1:-1].replace('","', '":%d,"') + ':%d}'


class _LeafLines(dict):
    """A run's record line for each leaf of its table that a record reaches,
    kept split around the line's two slots, its bits and its counter ("bits"
    sorts before both counters).

    ``record`` is the fields every record of the run shares, the slots among
    them.  A leaf's line is encoded on its first lookup, so a run has at
    most 16 encoded; ``_dumps`` rejects a non-finite float before the leaf
    is kept.  A probability is never -0.0, the one float that equals another
    with a different repr.
    """

    __slots__ = ("record",)

    def __init__(self, record: dict):
        self.record = record

    def __missing__(self, leaf) -> list[str]:
        bell, v_g1, aux, op, p, f = leaf
        self[leaf] = parts = (_dumps(self.record | {
            "bell": bell.value,
            "v_g1": v_g1,
            "v_g2_or_charlie_star": aux,
            "correction": op.value,
            "branch_probability": p,
            "fidelity": f,
        }) + "\n").split(_SLOT)
        return parts


class _Rows(dict):
    """A sampled run's line for each distinct row that a record reaches, a
    leaf and its bits, split at the counter and made, its leaf's line with
    it, on the row's first lookup.  A leaf is set by its Bell outcome and
    bits, so a run of at most ``_BLOCK_WIDTH`` helpers keeps its rows, at
    most ``4 << _BLOCK_WIDTH``; a wider run makes each record's row with
    ``make`` and keeps none."""

    __slots__ = ("leaves", "template", "pick")

    def __init__(self, leaves: _LeafLines, template: str, pick):
        self.leaves, self.template, self.pick = leaves, template, pick

    def __missing__(self, row) -> tuple[str, str]:
        self[row] = made = self.make(row)
        return made

    def make(self, row) -> tuple[str, str]:
        leaf, bits = row
        head, middle, tail = self.leaves[leaf]
        # Joined, not %-formatted: the % writer over-allocates the line, then
        # shrinks it, which fragments the heap (+0.1 MiB RSS at 4096 records).
        return "".join((head, self.template % self.pick(bits), middle)), tail


def _run_records(config: RunConfig):
    """The lines of a ``run``: record ``k``, a trial or a branch, is its
    leaf's line (``_LeafLines``) with the helpers' bits and ``k`` joined in,
    and an enumeration ends with a summary record."""
    from . import protocol

    sizes, designee = config.sizes, config.designee
    secret = resolve_secret(config)
    counter = "trial" if config.mode == "sample" else "branch"
    if config.mode == "enumerate":
        # What fails a run, the branch limit, raises before the table is built.
        protocol._check_branch_limit(sizes, designee, protocol.DEFAULT_BRANCH_LIMIT)
    table = protocol._leaf_table(sizes, designee, secret)
    context = {
        "designee": designee.role.label,
        "charlie_star": designee.charlie_star,
        "secret": [secret.alpha.real, secret.alpha.imag, secret.beta.real, secret.beta.imag],
    }
    leaves = _LeafLines(_base_record(config, counter) | context | {"bits": "\0", counter: "\0"})
    labels = tuple(protocol._label(grade, i) for grade, indices in table.runs for i in indices)
    # The bits in sort_keys order, so bob:10 comes before bob:2.
    order = sorted(range(len(labels)), key=labels.__getitem__)
    template = _bits_template(labels)
    # One helper makes ``pick`` return a bare int, which % takes as its one value.
    pick = operator.itemgetter(*order)
    if config.mode == "sample":
        # Trial k draws as Stream(seed, _STREAM_TRIAL, k).random(1 + helpers),
        # and a block of trials is drawn and picked a column at a time.
        from .lanes import trial_picks

        picks = trial_picks(table, _seeder(config.seed, _STREAM_TRIAL), 0, config.trials)
        rows = _Rows(leaves, template, pick)
        row = rows.__getitem__ if len(order) <= _BLOCK_WIDTH else rows.make
        # Record k is "".join((head, repr(k), tail)), that is repr(k).join((head, tail)).
        yield from map(str.join, map(repr, itertools.count()), map(row, picks))
        return
    # A walk block's records differ in three places only: in the bits of its
    # last helpers, at most _BLOCK_WIDTH whose slots sit next to each other in
    # sort_keys order, a character each; in their counter; and in their tail
    # ("bell" and "bits" sort before "branch", and every other field after it).
    pieces = template.split("%d")
    for width in range(min(len(order), _BLOCK_WIDTH), 0, -1):
        ranks = sorted(map(order.index, range(len(order) - width, len(order))))
        if ranks[-1] - ranks[0] < width:
            break
    at, end = (len("0".join(pieces[: rank + 1])) for rank in (ranks[0], ranks[-1]))
    zeros, pad = (0,) * (len(order) - width), bytes(width)
    texts = [
        (template % pick(zeros + bits))[at : end + 1]
        for bits in itertools.product((0, 1), repeat=width)
    ]
    # A Bell outcome's blocks are at most four tuples, whose tails are kept,
    # by identity, while the walk is on that outcome: an entry keeps its
    # block alive, so no other block takes its id.
    seen, bell, k, probability_sum = {}, None, 0, 0
    for block, prefix in table.walk(width):
        if block[0][0] is not bell:
            bell, seen = block[0][0], {}
        head, middle, _ = leaves[block[0]]
        entry = seen.get(id(block))
        # A new block's leaves are encoded as its records reach them: a leaf
        # that _dumps refuses fails after the records before it.
        tails = entry[1] if entry else map(
            operator.itemgetter(2), map(leaves.__getitem__, block)
        )
        bits = template % pick(prefix + pad)
        yield from map("".join, zip(
            itertools.repeat(head + bits[:at]), texts,
            itertools.repeat(bits[end + 1 :] + middle), map(repr, itertools.count(k)), tails,
        ))
        if entry is None:
            seen[id(block)] = block, tuple(map(operator.itemgetter(2), map(leaves.__getitem__, block)))
        # Added in record order, with +.
        probability_sum = functools.reduce(
            operator.add, map(operator.itemgetter(4), block), probability_sum
        )
        k += len(block)
    # Every leaf encoded is a record's, in the order records first reach
    # them: min() and max() pick the fidelities they would over records.
    fidelities = list(map(operator.itemgetter(5), leaves))
    yield _dumps(_base_record(config, "summary") | context | {
        "branches": k,
        "probability_sum": probability_sum,
        "min_fidelity": min(fidelities),
        "max_fidelity": max(fidelities),
    }) + "\n"


def _attack_records(config: RunConfig):
    from .adversary import (correlation_check, exact_detection_probability,
                            missed_detection_probability)

    sizes = config.sizes
    stats = correlation_check(
        sizes,
        config.attack_scenario,
        config.rounds,
        Stream(config.seed, _STREAM_ATTACK),
        threshold=config.threshold,
    )
    check = _base_record(config, "check") | {
        "scenario": config.attack_scenario.value,
        "rounds": stats.rounds,
        "threshold": config.threshold,
        "alice_bob_match_rates": "\0",
        "charlie_group_consistent_rate": stats.charlie_group_consistent_rate,
        "detected": stats.detected,
        "detection_rule": stats.detection_rule,
        "exact_mismatch_probability": exact_detection_probability(sizes, config.attack_scenario),
        "missed_detection_probability": missed_detection_probability(sizes, config.rounds),
    }
    # The rates are m copies of one rate: its text is written once and
    # repeated in the list's slot, the bytes _dumps writes for the list.
    rates = stats.alice_bob_match_rates
    head, tail = _dumps(check).split(_SLOT)
    yield "".join((head, "[", ",".join([_dumps(rates[0])] * len(rates)), "]", tail, "\n"))


def _table_records(config: RunConfig):
    from .protocol import BOB_CORRECTIONS, CHARLIE_CORRECTIONS

    # The tables' own order: Bell outcomes as declared, then bit values.
    rows = [
        {"table": "bob", "bell": bell.value, "v_sum": v_sum, "operation": op.value}
        for (bell, v_sum), op in BOB_CORRECTIONS.items()
    ] + [
        {"table": "charlie", "bell": bell.value, "v_g1": v_g1, "v_g2": v_g2, "operation": op.value}
        for (bell, v_g1, v_g2), op in CHARLIE_CORRECTIONS.items()
    ]
    for row in rows:
        yield _dumps(_base_record(config, "table_row") | row) + "\n"


def execute(config: RunConfig) -> int:
    """Emit all records for the config; returns the process exit status."""
    register_cap()  # validates HQIS_MAX_QUBITS in every mode, tables included
    if config.mode in ("sample", "enumerate"):
        lines = _run_records(config)
    elif config.mode == "attack":
        lines = _attack_records(config)
    else:
        lines = _table_records(config)

    # A failing run (rounds, threshold, branch limit) raises before its
    # first record, so drawing that record first opens no file on failure.
    lines = itertools.chain([next(lines)], lines)
    if config.output_path is not None:
        import signal
        import threading

        # A SIGTERM or SIGHUP exits with status 128 + its number by raising
        # SystemExit where the records are written, so the clean-up below
        # runs.  Only the main thread may set a handler, and a signal the
        # caller ignores, as nohup does SIGHUP, stays ignored.
        main_thread = threading.current_thread() is threading.main_thread()
        with open(config.output_path, "w") as handle:
            previous = {
                sig: signal.signal(sig, lambda signum, _: sys.exit(128 + signum))
                for sig in (signal.SIGTERM, signal.SIGHUP)
                if main_thread and signal.getsignal(sig) is signal.SIG_DFL
            }
            try:
                handle.writelines(lines)
            except BaseException:
                # A run that fails later leaves no partial file.  A path that
                # names the regular file written goes.  A regular file reached
                # through a symlink, such as /dev/stdout, is emptied instead:
                # opening it emptied it, so only this run's records go.  A
                # FIFO, a pipe or a terminal is left alone.
                written = os.fstat(handle.fileno())
                if stat.S_ISREG(written.st_mode):
                    if os.path.samestat(written, os.lstat(config.output_path)):
                        os.unlink(config.output_path)
                    else:
                        handle.truncate(0)  # flushes the buffer first
                raise
            finally:
                for sig, handler in previous.items():
                    signal.signal(sig, handler)
        return 0
    try:
        sys.stdout.writelines(lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Python flushes stdout again at exit;
        # pointing it at devnull keeps that flush from failing a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        return execute(parse_args(argv))
    except (ResourceLimitError, MemoryError) as exc:
        # A MemoryError often carries no message.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
