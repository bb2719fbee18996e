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
import sys
from dataclasses import dataclass

import numpy as np

from .adversary import (
    CheckStats,
    Scenario,
    correlation_check,
    exact_detection_probability,
)
from .channel import PartySizes, SecretState
from .protocol import (
    BOB_CORRECTIONS,
    CHARLIE_CORRECTIONS,
    BellOutcome,
    Designee,
    TrialResult,
    iter_branches,
    run_bob_recovery,
    run_charlie_recovery,
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
    m: int | None = None
    n: int | None = None
    designee: str | None = None
    charlie_star: int | None = None
    secret: SecretState | None = None
    secret_spec: str | None = None
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


def _parse_designee(text: str, m: int, n: int) -> tuple[str, int]:
    grade, sep, index_text = text.partition(":")
    # isdigit alone admits digits such as "²" that int() rejects.
    ascii_digits = index_text.isascii() and index_text.isdigit()
    if not sep or grade not in ("bob", "charlie") or not ascii_digits:
        raise UsageError(f"designee must look like bob:1 or charlie:2, got {text!r}")
    index = int(index_text)
    limit = m if grade == "bob" else n
    if not 1 <= index <= limit:
        raise UsageError(f"{grade} index {index} out of range 1..{limit}")
    return grade, index


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
    """Validate argv into a RunConfig; raises UsageError on any bad input."""
    args = _build_parser().parse_args(argv)

    if args.command == "tables":
        return RunConfig(mode="tables", output_path=args.output)

    if args.m < 1 or args.n < 1:
        raise UsageError(f"need at least one agent per grade, got m={args.m}, n={args.n}")
    seed = _parse_seed(args.seed)

    if args.command == "attack":
        if args.rounds < 1:
            raise UsageError(f"rounds must be >= 1, got {args.rounds}")
        if not 0.0 <= args.threshold <= 1.0:  # NaN fails this comparison too
            raise UsageError(f"threshold must be a number in [0, 1], got {args.threshold!r}")
        return RunConfig(
            mode="attack",
            m=args.m,
            n=args.n,
            seed=seed,
            attack_scenario=Scenario(args.scenario),
            rounds=args.rounds,
            threshold=args.threshold,
            output_path=args.output,
        )

    grade, index = _parse_designee(args.designee, args.m, args.n)
    charlie_star = args.charlie_star
    if grade == "bob":
        if charlie_star is None:
            raise UsageError("a Bob designee needs --charlie-star")
        if not 1 <= charlie_star <= args.n:
            raise UsageError(f"charlie-star {charlie_star} out of range 1..{args.n}")
    elif charlie_star is not None:
        raise UsageError("--charlie-star only applies to Bob designees")
    if args.trials < 1:
        raise UsageError(f"trials must be >= 1, got {args.trials}")
    return RunConfig(
        mode=args.mode,
        m=args.m,
        n=args.n,
        designee=f"{grade}:{index}",
        charlie_star=charlie_star,
        secret=_parse_secret(args.secret),
        secret_spec=args.secret,
        trials=args.trials,
        seed=seed,
        output_path=args.output,
    )


def resolve_secret(config: RunConfig) -> SecretState:
    """The run's secret; 'random' draws one uniformly from the seed stream."""
    if config.secret is not None:
        return config.secret
    return SecretState.haar_random(derived_rng(config.seed, _STREAM_SECRET))


def _designee_of(config: RunConfig) -> Designee:
    grade, index = config.designee.split(":")
    if grade == "bob":
        return Designee.bob(int(index), config.charlie_star)
    return Designee.charlie(int(index))


def _base_record(config: RunConfig, record: str) -> dict:
    return {
        "record": record,
        "mode": config.mode,
        "m": config.m,
        "n": config.n,
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
    designee = _designee_of(config)
    secret = resolve_secret(config)
    sizes = PartySizes(config.m, config.n)
    context = {
        "designee": config.designee,
        "charlie_star": config.charlie_star,
        "secret": _secret_fields(secret),
    }
    if config.mode == "sample":
        runner = run_bob_recovery if designee.role.grade == "bob" else run_charlie_recovery
        for k in range(config.trials):
            result = runner(sizes, designee, secret, derived_rng(config.seed, _STREAM_TRIAL, k))
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
    sizes = PartySizes(config.m, config.n)
    stats: CheckStats = correlation_check(
        sizes,
        config.attack_scenario,
        config.rounds,
        derived_rng(config.seed, _STREAM_ATTACK),
        threshold=config.threshold,
    )
    # The missed-detection figure is the intercept-resend one in either
    # scenario (as missed_detection_probability computes it), so that rate
    # is computed once and serves both fields.
    attack_rate = exact_detection_probability(sizes)
    if config.attack_scenario is Scenario.INTERCEPT_RESEND:
        exact_rate = attack_rate
    else:
        exact_rate = exact_detection_probability(sizes, config.attack_scenario)
    yield _base_record(config, "check") | {
        "scenario": config.attack_scenario.value,
        "rounds": stats.rounds,
        "threshold": config.threshold,
        "alice_bob_match_rates": list(stats.alice_bob_match_rates),
        "charlie_group_consistent_rate": stats.charlie_group_consistent_rate,
        "detected": stats.detected,
        "detection_rule": stats.detection_rule,
        "exact_mismatch_probability": exact_rate,
        "missed_detection_probability": (1.0 - attack_rate) ** config.rounds,
    }


def _table_records(config: RunConfig):
    # Fixed expansion order: Bell outcomes as declared, then bit values.
    for bell in BellOutcome:
        for v_sum in (0, 1):
            yield _base_record(config, "table_row") | {
                "table": "bob",
                "bell": bell.value,
                "v_sum": v_sum,
                "operation": BOB_CORRECTIONS[(bell, v_sum)].value,
            }
    for bell in BellOutcome:
        for v_g1 in (0, 1):
            for v_g2 in (0, 1):
                yield _base_record(config, "table_row") | {
                    "table": "charlie",
                    "bell": bell.value,
                    "v_g1": v_g1,
                    "v_g2": v_g2,
                    "operation": CHARLIE_CORRECTIONS[(bell, v_g1, v_g2)].value,
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
    else:
        _emit(records, sys.stdout)
    return 0


def _emit(records, handle) -> None:
    for record in records:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False)
        handle.write(line + "\n")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return execute(config)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
