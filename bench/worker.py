"""Child process of run.py: runs one workload inside this interpreter.

    PYTHONPATH=src python3 bench/worker.py --workload NAME --seed N --seconds S [--trace]

Untraced, it makes one warm-up call of `hqis.cli.main(argv)` and then one
timed call for each line run.py writes to its stdin, so that run.py can
interleave these calls with whole CLI processes. Traced, it alternates an
untraced call with a traced repetition (the workload call, then the layer
sweep) until the time is up, reports the per-layer metrics and writes every
span to bench/out/. Each call starts with the package's memo caches cleared,
as a fresh CLI process does, and its output is captured in memory and
checked. The last line printed is one JSON object.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS, check_output

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
MIN_REPS = 2

# Small fixed CLI calls that reach every layer, so each layer has a measured
# time on every workload. Their counts are kept apart from the workload's.
SWEEP = (
    ["run", "--mode", "sample", "--m", "2", "--n", "2", "--designee", "bob:1",
     "--charlie-star", "1", "--secret", "0.6,0,0.8,0", "--trials", "16"],
    ["run", "--mode", "sample", "--m", "2", "--n", "2", "--designee", "charlie:1",
     "--secret", "0.6,0,0.8,0", "--trials", "16"],
    ["run", "--mode", "enumerate", "--m", "2", "--n", "2", "--designee", "charlie:1",
     "--secret", "0.6,0,0.8,0"],
    ["attack", "--scenario", "intercept-resend", "--m", "2", "--n", "2", "--rounds", "1000"],
)

# Per-layer values that must repeat exactly from one traced repetition to the
# next; the rest are times or allocator peaks, reported as medians.
EXACT_SUFFIXES = (".calls", ".amps_in", "peak_support", "qubits", "null_frac", "per_op")


def _import_hqis():
    import hqis
    import hqis.cli

    src = (ROOT / "src").resolve()
    if src not in Path(hqis.__file__).resolve().parents:
        sys.exit(f"error: imported hqis from {hqis.__file__}, not from {src}")
    return hqis


def _clear_caches(hqis) -> None:
    for layer in spans.LAYERS:
        for obj in vars(getattr(hqis, layer)).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def call_cli(hqis, argv, tracer=None):
    """One in-process CLI call: (exit status, seconds, stdout text)."""
    _clear_caches(hqis)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        if tracer is None:
            status = hqis.cli.main(argv)
        else:
            status = tracer.call("workload", hqis.cli.main, argv)
        seconds = time.perf_counter() - start
    return status, seconds, sink.getvalue()


class Ledger:
    """Attempted and failed ops, the first output's digest, and what went wrong."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.errors: list[str] = []

    def record(self, label: str, status: int, text: str) -> None:
        self.attempted += self.workload.ops
        problems = [f"exit status {status}"] if status != 0 else check_output(self.workload, text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("output differs from the first call with the same seed")
        if problems:
            self.failed += self.workload.ops
            self.errors.append(f"{label}: {'; '.join(problems[:3])}")

    def tallies(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors, "digest": self.digest}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: v for k, v in os.environ.items()
                             if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))},
        "hqis_max_qubits": os.environ.get("HQIS_MAX_QUBITS"),
    }


def serve(hqis, workload, argv) -> dict:
    """Make one warm-up call, then one timed call per line read from stdin.

    Each timed call is answered at once with a line giving its wall and CPU
    seconds; at the end of input the caller gets the tallies of every call.
    """
    ledger = Ledger(workload)
    status, _, text = call_cli(hqis, argv)
    ledger.record("warm-up call", status, text)
    print(json.dumps({"ready": True}), flush=True)
    calls = 0
    for _ in sys.stdin:
        cpu_start = time.process_time()
        status, secs, text = call_cli(hqis, argv)
        cpu_s = time.process_time() - cpu_start
        ledger.record(f"call {calls}", status, text)
        calls += 1
        print(json.dumps({"seconds": secs, "cpu_seconds": cpu_s}), flush=True)
    return ledger.tallies()


def traced(hqis, workload, argv, seconds: float, seed: int) -> dict:
    ledger = Ledger(workload)
    status, _, text = call_cli(hqis, argv)
    ledger.record("warm-up call", status, text)
    tracer = spans.Tracer()
    reps, untraced_s, traced_s = [], [], []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        status, secs, text = call_cli(hqis, argv)
        ledger.record(f"untraced call {len(reps)}", status, text)
        untraced_s.append(secs)

        patches = spans.install(tracer, hqis)
        try:
            tracer.counts = counts = Counter()
            lo = len(tracer)
            status, secs, text = call_cli(hqis, argv, tracer)
            mid = len(tracer)
            tracer.counts = sweep_counts = Counter()
            for sweep_argv in SWEEP:
                sweep_status, _, _ = call_cli(hqis, sweep_argv, tracer)
                if sweep_status != 0:
                    ledger.errors.append(f"sweep {sweep_argv[:3]} exit status {sweep_status}")
        finally:
            spans.uninstall(patches)
        ledger.record(f"traced call {len(reps)}", status, text)
        traced_s.append(secs)
        reps.append(spans.Rep(range(lo, mid), range(lo, len(tracer)), counts,
                              sweep_counts, workload.ops, len(text)))

    selfs = spans.self_times(tracer.starts, tracer.ends, tracer.posts, tracer.parents)
    per_rep = [spans.rep_metrics(tracer, selfs, rep) for rep in reps]
    metrics = {}
    for key in per_rep[0]:
        values = [m[key] for m in per_rep]
        if not key.endswith(EXACT_SUFFIXES):
            metrics[key] = statistics.median(values)
            continue
        if len(set(values)) != 1:
            ledger.errors.append(f"{key} differs between traced repetitions: {values}")
        metrics[key] = values[0]
    metrics.update(spans.pooled_latency_metrics(tracer, reps))
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"spans-{workload.name}.json", "w") as handle:
        json.dump({"workload": workload.name, "seed": seed, "reps": len(reps),
                   **spans.dump(tracer)}, handle, separators=(",", ":"))
    return {**ledger.tallies(), "reps": len(reps), "metrics": metrics}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0, help="traced run length")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    hqis = _import_hqis()
    workload = WORKLOADS[args.workload]
    argv = workload.argv(args.seed)
    if args.trace:
        result = traced(hqis, workload, argv, args.seconds, args.seed)
    else:
        result = serve(hqis, workload, argv)
    result["env"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
