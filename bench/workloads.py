"""The benchmark's workloads: the `hqis` argv each one runs, the ops one run
counts, and the check its output must pass.

Every workload is a closed loop of single-threaded CLI processes run back to
back by one client. The bench seed becomes the CLI's `--seed`, so the same
seed gives the same inputs, and every repeat inside one bench run must give
byte-identical output.
"""

import json
import math
from dataclasses import dataclass
from typing import Callable

FIDELITY_FLOOR = 1 - 1e-9

SAMPLE_TRIALS = 1000
ENUMERATE_BRANCHES = 4096
ATTACK_ROUNDS = 3_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base_argv: tuple[str, ...]
    ops: int
    check: Callable[[list[dict]], list[str]]

    def argv(self, seed: int) -> list[str]:
        return [*self.base_argv, "--seed", str(seed % 2**64)]


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def parse_records(text: str) -> list[dict]:
    """Parse newline-delimited JSON strictly: NaN and Infinity are errors."""
    return [json.loads(line, parse_constant=_reject_constant) for line in text.splitlines()]


def _check_sample(records: list[dict]) -> list[str]:
    errors = []
    if len(records) != SAMPLE_TRIALS:
        errors.append(f"{len(records)} records for {SAMPLE_TRIALS} trials")
    for k, rec in enumerate(records):
        if rec.get("record") != "trial" or rec.get("trial") != k:
            errors.append(f"record {k} is not trial {k}")
            break
        if not rec["fidelity"] >= FIDELITY_FLOOR:
            errors.append(f"trial {k} fidelity {rec['fidelity']!r}")
            break
    return errors


def _check_enumerate(records: list[dict]) -> list[str]:
    branches = [r for r in records if r.get("record") == "branch"]
    summaries = [r for r in records if r.get("record") == "summary"]
    errors = []
    if len(branches) != ENUMERATE_BRANCHES:
        errors.append(f"{len(branches)} branch records, expected {ENUMERATE_BRANCHES}")
    if len(summaries) != 1 or records[-1] is not summaries[0]:
        return errors + ["no single summary record at the end"]
    summary = summaries[0]
    if not abs(summary["probability_sum"] - 1.0) <= 1e-9:
        errors.append(f"probability_sum {summary['probability_sum']!r}")
    if not summary["min_fidelity"] >= FIDELITY_FLOOR:
        errors.append(f"min_fidelity {summary['min_fidelity']!r}")
    if summary["branches"] != len(branches):
        errors.append(f"summary counts {summary['branches']} branches")
    return errors


def _check_attack(records: list[dict]) -> list[str]:
    if len(records) != 1 or records[0].get("record") != "check":
        return [f"expected one check record, got {len(records)} records"]
    rec = records[0]
    errors = []
    if rec["rounds"] != ATTACK_ROUNDS:
        errors.append(f"rounds {rec['rounds']!r}")
    if not abs(rec["exact_mismatch_probability"] - 0.5) <= 1e-12:
        errors.append(f"exact_mismatch_probability {rec['exact_mismatch_probability']!r}")
    five_sigma = 5 * math.sqrt(0.25 / ATTACK_ROUNDS)
    for i, rate in enumerate(rec["alice_bob_match_rates"]):
        if not abs(rate - 0.5) <= five_sigma:
            errors.append(f"bob {i + 1} match rate {rate!r} is beyond 5 sigma of 0.5")
    if rec["charlie_group_consistent_rate"] != 1.0:
        errors.append(f"charlie_group_consistent_rate {rec['charlie_group_consistent_rate']!r}")
    if rec["detected"] is not True:
        errors.append("the attack was not detected")
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sample",
            "1000 sampled trials on a 64-amplitude post-Bell register: per-call "
            "overhead dominates, support size and prefix sharing should not matter",
            ("run", "--mode", "sample", "--m", "3", "--n", "3",
             "--designee", "charlie:2", "--secret", "random", "--trials", str(SAMPLE_TRIALS)),
            SAMPLE_TRIALS,
            _check_sample,
        ),
        Workload(
            "enumerate",
            "4096 branches over a 2048-amplitude register, each re-projecting its "
            "prefix: where support size and prefix sharing show, plus 1.9 MB of JSON",
            ("run", "--mode", "enumerate", "--m", "5", "--n", "6",
             "--designee", "charlie:3", "--secret", "random"),
            ENUMERATE_BRANCHES,
            _check_enumerate,
        ),
        Workload(
            "attack",
            "3M check rounds drawn from one 23-qubit joint register: few calls on "
            "huge arrays, peak memory grows with the round count",
            ("attack", "--scenario", "intercept-resend", "--m", "5", "--n", "6",
             "--rounds", str(ATTACK_ROUNDS)),
            ATTACK_ROUNDS,
            _check_attack,
        ),
    )
}


def check_output(workload: Workload, text: str) -> list[str]:
    """Every problem with one run's stdout; an empty list means it passed."""
    try:
        records = parse_records(text)
    except ValueError as exc:
        return [f"output is not strict JSON lines: {exc}"]
    try:
        return workload.check(records)
    except (KeyError, TypeError) as exc:
        return [f"record lacks an expected field: {exc!r}"]
