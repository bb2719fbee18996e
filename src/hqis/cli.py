"""Command-line front end emitting newline-delimited JSON records.

Subcommands: ``run`` (sampled trials or exhaustive enumeration), ``attack``
(correlation-check sessions plus the exact detection rate), and ``tables``
(the correction lookup tables as records).  Identical arguments and seed
produce byte-identical output; every record carries mode, m, n, and seed.
"""

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .adversary import (
    CheckStats,
    Scenario,
    correlation_check,
    exact_detection_probability,
    missed_detection_probability,
)
from .channel import PartySizes, SecretState
from .protocol import (
    BOB_CORRECTIONS,
    CHARLIE_CORRECTIONS,
    Designee,
    Role,
    TrialResult,
    check_designee,
    iter_branches,
    run_recovery,
)
from .qstate import ResourceLimitError, register_cap

SECRET_NORM_SLACK = 1e-6

# Purpose tags for derived rng streams, so each consumer is reproducible
# in isolation from the single run seed.
_STREAM_SECRET = 0
_STREAM_TRIAL = 1
_STREAM_ATTACK = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Fully validated invocation settings."""

    mode: str
    sizes: PartySizes | None = None
    designee: Designee | None = None
    secret: SecretState | None = None
    trials: int = 1
    seed: int | None = None
    attack_scenario: Scenario | None = None
    rounds: int | None = None
    threshold: float | None = None
    output_path: str | None = None


def derived_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent stream for (seed, purpose path): SeedSequence spawn keys."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=path))


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise UsageError(f"seed must be an integer, got {text!r}") from None
    if not 0 <= seed < 2**64:
        raise UsageError("seed must fit in an unsigned 64-bit integer")
    return seed


def _parse_secret(text: str) -> SecretState | None:
    """Parse 'random' or four comma-separated reals Re(a),Im(a),Re(b),Im(b)."""
    if text == "random":
        return None
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(
            f"secret must be 'random' or four comma-separated reals, got {text!r}"
        )
    try:
        components = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"secret components must be numbers, got {text!r}") from None
    if not all(math.isfinite(c) for c in components):
        raise UsageError(f"secret components must be finite, got {text!r}")
    re_a, im_a, re_b, im_b = components
    alpha, beta = complex(re_a, im_a), complex(re_b, im_b)
    norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm_sq - 1.0) > SECRET_NORM_SLACK:
        raise UsageError(f"secret is not normalized: |a|^2+|b|^2 = {norm_sq!r}")
    if abs(norm_sq - 1.0) > 1e-10:
        print(
            f"warning: renormalizing secret (|a|^2+|b|^2 = {norm_sq!r})",
            file=sys.stderr,
        )
    scale = 1.0 / np.sqrt(norm_sq)
    return SecretState(alpha * scale, beta * scale)


def _parse_designee(text: str) -> Role:
    grade, sep, index_text = text.partition(":")
    # isdigit alone admits digits such as "²" that int() rejects.
    ascii_digits = index_text.isascii() and index_text.isdigit()
    if not sep or grade not in ("bob", "charlie") or not ascii_digits:
        raise UsageError(f"designee must look like bob:1 or charlie:2, got {text!r}")
    return Role(grade, int(index_text))


def _build_parser() -> _Parser:
    parser = _Parser(prog="hqis", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute protocol trials or enumerate branches")
    run.add_argument("--m", type=int, required=True, help="number of Bobs")
    run.add_argument("--n", type=int, required=True, help="number of Charlies")
    run.add_argument("--designee", required=True, help="bob:i or charlie:j")
    run.add_argument("--charlie-star", type=int, help="assisting Charlie for a Bob designee")
    run.add_argument("--secret", default="random", help="'random' or Re(a),Im(a),Re(b),Im(b)")
    run.add_argument("--mode", choices=("sample", "enumerate"), default="sample")
    run.add_argument("--trials", type=int, default=1)
    run.add_argument("--seed", default="0")
    run.add_argument("--output", help="write records to this file instead of stdout")

    attack = sub.add_parser("attack", help="run eavesdropping correlation checks")
    attack.add_argument("--m", type=int, required=True)
    attack.add_argument("--n", type=int, required=True)
    attack.add_argument(
        "--scenario",
        choices=tuple(s.value for s in Scenario),
        default=Scenario.INTERCEPT_RESEND.value,
    )
    attack.add_argument("--rounds", type=int, default=64)
    attack.add_argument("--threshold", type=float, default=0.99)
    attack.add_argument("--seed", default="0")
    attack.add_argument("--output")

    tables = sub.add_parser("tables", help="dump the correction lookup tables")
    tables.add_argument("--output")
    return parser


def parse_args(argv: list[str]) -> RunConfig:
    """Validate argv into a RunConfig; raises UsageError on any bad input.

    Sizes and designees are validated by ``PartySizes``, ``Designee`` and
    ``check_designee``; past the register cap this raises RegisterCapError.
    """
    args = _build_parser().parse_args(argv)

    if args.command == "tables":
        return RunConfig(mode="tables", output_path=args.output)

    seed = _parse_seed(args.seed)
    try:
        if args.command == "attack":
            if args.rounds < 1:
                raise UsageError(f"rounds must be >= 1, got {args.rounds}")
            if not 0.0 <= args.threshold <= 1.0:  # NaN fails this comparison too
                raise UsageError(f"threshold must be a number in [0, 1], got {args.threshold!r}")
            return RunConfig(
                mode="attack",
                sizes=PartySizes(args.m, args.n),
                seed=seed,
                attack_scenario=Scenario(args.scenario),
                rounds=args.rounds,
                threshold=args.threshold,
                output_path=args.output,
            )

        role = _parse_designee(args.designee)
        if args.trials < 1:
            raise UsageError(f"trials must be >= 1, got {args.trials}")
        secret = _parse_secret(args.secret)
        sizes = PartySizes(args.m, args.n)
        designee = Designee(role, args.charlie_star)
        check_designee(sizes, designee)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return RunConfig(
        mode=args.mode,
        sizes=sizes,
        designee=designee,
        secret=secret,
        trials=args.trials,
        seed=seed,
        output_path=args.output,
    )


def resolve_secret(config: RunConfig) -> SecretState:
    """The run's secret; 'random' draws one uniformly from the seed stream."""
    if config.secret is not None:
        return config.secret
    return SecretState.haar_random(derived_rng(config.seed, _STREAM_SECRET))


def _base_record(config: RunConfig, record: str) -> dict:
    sizes = config.sizes
    return {
        "record": record,
        "mode": config.mode,
        "m": sizes.m if sizes else None,
        "n": sizes.n if sizes else None,
        "seed": config.seed,
    }


def _secret_fields(secret: SecretState) -> list[float]:
    return [secret.alpha.real, secret.alpha.imag, secret.beta.real, secret.beta.imag]


def _result_fields(result: TrialResult) -> dict:
    return {
        "bell": result.bell.value,
        "bits": {role.label: bit for role, bit in result.classical_bits.items()},
        "v_g1": result.v_g1,
        "v_g2_or_charlie_star": result.v_g2_or_charlie_star,
        "correction": result.correction.value,
        "branch_probability": result.branch_probability,
        "fidelity": result.fidelity,
    }


def _run_records(config: RunConfig):
    sizes, designee = config.sizes, config.designee
    secret = resolve_secret(config)
    context = {
        "designee": designee.role.label,
        "charlie_star": designee.charlie_star,
        "secret": _secret_fields(secret),
    }
    if config.mode == "sample":
        for k in range(config.trials):
            rng = derived_rng(config.seed, _STREAM_TRIAL, k)
            result = run_recovery(sizes, designee, secret, rng)
            yield _base_record(config, "trial") | context | {"trial": k} | _result_fields(result)
        return
    # Records stream as the walk reaches each branch; the summary is
    # accumulated on the way, in the order the branches come.
    branches, probability_sum = 0, 0
    min_fidelity, max_fidelity = math.inf, -math.inf
    for result in iter_branches(sizes, designee, secret):
        record = _base_record(config, "branch") | context | {"branch": branches}
        yield record | _result_fields(result)
        branches += 1
        probability_sum += result.branch_probability
        min_fidelity = min(min_fidelity, result.fidelity)
        max_fidelity = max(max_fidelity, result.fidelity)
    yield _base_record(config, "summary") | context | {
        "branches": branches,
        "probability_sum": probability_sum,
        "min_fidelity": min_fidelity,
        "max_fidelity": max_fidelity,
    }


def _attack_records(config: RunConfig):
    sizes = config.sizes
    stats: CheckStats = correlation_check(
        sizes,
        config.attack_scenario,
        config.rounds,
        derived_rng(config.seed, _STREAM_ATTACK),
        threshold=config.threshold,
    )
    yield _base_record(config, "check") | {
        "scenario": config.attack_scenario.value,
        "rounds": stats.rounds,
        "threshold": config.threshold,
        "alice_bob_match_rates": list(stats.alice_bob_match_rates),
        "charlie_group_consistent_rate": stats.charlie_group_consistent_rate,
        "detected": stats.detected,
        "detection_rule": stats.detection_rule,
        "exact_mismatch_probability": exact_detection_probability(sizes, config.attack_scenario),
        "missed_detection_probability": missed_detection_probability(sizes, config.rounds),
    }


def _table_records(config: RunConfig):
    # The tables' own order: Bell outcomes as declared, then bit values.
    for (bell, v_sum), op in BOB_CORRECTIONS.items():
        yield _base_record(config, "table_row") | {
            "table": "bob",
            "bell": bell.value,
            "v_sum": v_sum,
            "operation": op.value,
        }
    for (bell, v_g1, v_g2), op in CHARLIE_CORRECTIONS.items():
        yield _base_record(config, "table_row") | {
            "table": "charlie",
            "bell": bell.value,
            "v_g1": v_g1,
            "v_g2": v_g2,
            "operation": op.value,
        }


def execute(config: RunConfig) -> int:
    """Emit all records for the config; returns the process exit status."""
    register_cap()  # validates HQIS_MAX_QUBITS in every mode, tables included
    if config.mode in ("sample", "enumerate"):
        records = _run_records(config)
    elif config.mode == "attack":
        records = _attack_records(config)
    else:
        records = _table_records(config)

    # A failing run (register cap, designee, branch limit) raises before its
    # first record, so drawing that record first opens no file on failure.
    records = itertools.chain([next(records)], records)
    if config.output_path:
        with open(config.output_path, "w") as handle:
            _emit(records, handle)
        return 0
    try:
        _emit(records, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Python flushes stdout again at exit;
        # pointing it at devnull keeps that flush from failing a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise
    return 0


def _emit(records, handle) -> None:
    for record in records:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False)
        handle.write(line + "\n")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        return execute(parse_args(argv))
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
