"""The hqis benchmark: the CLI end to end, and a traced run layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S]

The first form measures one workload (see workloads.py) and prints, as its
last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`. The second runs every workload in both modes and prints every
metric by name with its unit; it exits 1 if any output check failed.

--trace 0, the end-to-end run, is a closed loop with one client. Until the
time is up (and at least MIN_ROUNDS times) it runs, one after another:
  * one `python -m hqis.cli <argv>` process; wall_s (spawn to exit, stdout
    drained), cpu_s (user + sys) and peak_rss_mb (from wait4) are medians
    over these processes;
  * one call of hqis.cli.main(argv) inside worker.py, which made a warm-up
    call first; ops_per_s is the ops of one call over the median CPU time of
    a call, so that time the virtual CPU spends descheduled (steal) does not
    count; the wall time of each call is in the detail line;
  * SETUP_PROBES_PER_ROUND set-up probes, child interpreters that import
    hqis.cli, parse the workload's argv and exit; setup_s is the median
    spawn-to-exit time.
Interleaving them spreads each metric's samples over the whole run. After
each round two fixed reference loops are timed, one in the interpreter
and one in the kernel's page handling, and the medians are scaled to the
speed at which those loops take their reference times (see Pace), because a
shared machine's speed drifts far more than a median over one run can
absorb. The unscaled medians and the loops' times are in the detail line.
--trace 1, the per-layer run: set-up probes give the import split, and
  worker.py --trace gives the layer counts and self times (see spans.py).

Every CLI output is parsed as strict JSON and checked; a nonzero exit, a
failed check, or output that differs from the first with the same seed
counts every op of that call as failed. Children run with the checkout's
src/ on PYTHONPATH, BLAS pinned to one thread and HQIS_MAX_QUBITS unset, on
one CPU with the benchmark; the timed ones are started through launch.py,
which times them and reads their rusage from wait4.
Lines before the last give per-sample detail and the environment. Per-layer
times are not scaled; the reference loops' times beside them are in the
detail line.
"""

import argparse
import hashlib
import json
import mmap
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, check_output

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
MIN_ROUNDS = 3
SETUP_PROBES_PER_ROUND = 2
REFERENCE_LOOPS_PER_TICK = 3
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "ops_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import hqis.cli
t2 = time.perf_counter()
hqis.cli.parse_args(sys.argv[1:])
print(t1 - t0, t2 - t1, hqis.__file__)
"""


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HQIS_MAX_QUBITS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def git_sha() -> str | None:
    """The commit checked out, read from .git; None where there is no repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_identity() -> dict:
    """Which sources ran, on how many CPUs, and on which one the runs were pinned."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": git_sha(), "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "pinned_cpus": sorted(os.sched_getaffinity(0)), "blas_threads_pinned": BLAS_THREAD_VARS}


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summary(values) -> dict:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "values": list(values)}
    if n >= 20:
        p = int(1000 * (1 - 10 / n)) / 10
        out[f"p{p:g}"] = percentile(values, p)
    return out


def _timed(fn) -> tuple[float, float]:
    wall, cpu = time.perf_counter(), time.process_time()
    fn()
    return time.perf_counter() - wall, time.process_time() - cpu


def interpreter_loop() -> None:
    total = 0
    for i in range(200_000):
        total += i * i


def page_fault_loop() -> None:
    """Touch 32 MiB of fresh pages once each: kernel page-fault and zeroing work.

    It maps 4 MiB at a time, to keep the benchmark's own peak RSS small.
    """
    for _ in range(8):
        area = mmap.mmap(-1, 4 << 20)
        for offset in range(0, len(area), mmap.PAGESIZE):
            area[offset] = 1
        area.close()


# Fixed reference loops and their median times on the machine the first
# baseline was taken on (2 vCPUs, Python 3.11). The workloads spend their
# time in the interpreter and, for large arrays and new processes, in the
# kernel's page handling; the two loops stand for those two.
REFERENCE_LOOPS = {"interpreter": (interpreter_loop, 0.020), "page_faults": (page_fault_loop, 0.032)}


class Pace:
    """Reference-loop times taken before a run and after each of its rounds.

    A shared machine's speed drifts, by half or more over minutes, and more
    than a median over one run can absorb. A run's medians are scaled by the
    geometric mean, over the reference loops, of the loop's reference time
    over its mean time in that run: times at one fixed machine speed. It is
    the mean because a sample's time adds up the machine's speed over the
    whole sample, while a median jumps between the speeds a shared core
    switches between within seconds. A change to hqis still shows in full,
    because the loops run no hqis code.
    """

    def __init__(self):
        self.times = {name: [] for name in REFERENCE_LOOPS}
        self.tick()

    def tick(self) -> None:
        for _ in range(REFERENCE_LOOPS_PER_TICK):
            for name, (loop, _) in REFERENCE_LOOPS.items():
                self.times[name].append(_timed(loop))

    def _scale(self, clock: int) -> float:
        return statistics.geometric_mean(
            reference / statistics.fmean(t[clock] for t in self.times[name])
            for name, (_, reference) in REFERENCE_LOOPS.items()
        )

    def wall_scale(self) -> float:
        return self._scale(0)

    def cpu_scale(self) -> float:
        return self._scale(1)

    def detail(self) -> dict:
        return {name: {"reference_s": REFERENCE_LOOPS[name][1],
                       "wall": summary([wall for wall, _ in times]),
                       "cpu": summary([cpu for _, cpu in times])}
                for name, times in self.times.items()}


class Process:
    """One child, started through launch.py: exit status, stdout, stderr,
    spawn-to-exit wall time, CPU time and peak RSS."""

    def __init__(self, cmd: list[str], env: dict):
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "launch.py"), *cmd], cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        stderr = []
        reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
        reader.start()
        try:
            self.stdout = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            reader.join()
            proc.stdout.close()
            proc.stderr.close()
        text = stderr[0].decode(errors="replace") if stderr else ""
        self.stderr, _, report = text.rpartition("\nlaunch ")
        if proc.returncode == -signal.SIGKILL:
            raise HarnessError(f"{cmd[:4]} ran past {CHILD_TIMEOUT_S} s and was killed")
        if proc.returncode != 0 or not report:
            raise HarnessError(f"launcher failed ({proc.returncode}): {text.strip()[-500:]}")
        status, wall_s, cpu_s, maxrss_kib = report.split()
        self.status = int(status)
        self.wall_s = float(wall_s)
        self.cpu_s = float(cpu_s)
        self.rss_mib = int(maxrss_kib) / 1024


def setup_probe(argv: list[str], env: dict) -> tuple[float, float, float]:
    """(spawn-to-exit seconds, numpy import seconds, hqis import seconds)."""
    proc = Process([sys.executable, "-c", SETUP_CODE, *argv], env)
    if proc.status != 0:
        raise HarnessError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    t_numpy, t_hqis, location = proc.stdout.decode().split(maxsplit=2)
    src = (ROOT / "src").resolve()
    if src not in Path(location.strip()).resolve().parents:
        raise HarnessError(f"hqis was imported from {location.strip()}, not from {src}")
    return proc.wall_s, float(t_numpy), float(t_hqis)


def _worker_cmd(workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), *extra]


def run_worker(workload: str, seed: int, seconds: float, env: dict) -> dict:
    """A traced worker run, start to end."""
    proc = Process(_worker_cmd(workload, seed, "--trace", "--seconds", str(seconds)), env)
    if proc.status != 0:
        raise HarnessError(f"worker failed ({proc.status}): {proc.stderr.strip()[-1000:]}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


class InProcessCalls:
    """worker.py serving one timed in-process CLI call per request."""

    def __init__(self, workload: str, seed: int, env: dict):
        self.proc = subprocess.Popen(
            _worker_cmd(workload, seed), cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self._watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._watchdog.start()
        self._stderr = []
        self._reader = threading.Thread(target=lambda: self._stderr.append(self.proc.stderr.read()))
        self._reader.start()
        self._reply()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise HarnessError(f"worker failed: {''.join(self._stderr).strip()[-1000:]}")
        return json.loads(line)

    def call(self) -> tuple[float, float]:
        """(wall seconds, CPU seconds) of one call."""
        self.proc.stdin.write("call\n")
        self.proc.stdin.flush()
        reply = self._reply()
        return reply["seconds"], reply["cpu_seconds"]

    def finish(self) -> dict:
        self.proc.stdin.close()
        return self._reply()

    def close(self) -> None:
        if self.proc.poll() is None and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._watchdog.cancel()
        self._reader.join()
        self.proc.stdout.close()
        self.proc.stderr.close()


def end_to_end(workload, seed: int, seconds: float, env: dict) -> tuple[dict, dict]:
    argv = workload.argv(seed)
    cli = [sys.executable, "-m", "hqis.cli", *argv]
    errors, digests, procs, calls, setups = [], set(), [], [], []
    attempted = failed = 0
    worker = InProcessCalls(workload.name, seed, env)
    try:
        pace = Pace()
        deadline = time.perf_counter() + seconds
        while len(procs) < MIN_ROUNDS or time.perf_counter() < deadline:
            proc = Process(cli, env)
            procs.append(proc)
            attempted += workload.ops
            problems = (
                [f"exit status {proc.status}: {proc.stderr.strip()[-300:]}"] if proc.status
                else check_output(workload, proc.stdout.decode(errors="replace"))
            )
            digests.add(hashlib.sha256(proc.stdout).hexdigest())
            if len(digests) > 1:
                problems.append("output differs from the first process with the same seed")
            if problems:
                failed += workload.ops
                errors.append(f"process {len(procs) - 1}: {'; '.join(problems[:3])}")
            calls.append(worker.call())
            setups += [setup_probe(argv, env) for _ in range(SETUP_PROBES_PER_ROUND)]
            pace.tick()
        inproc = worker.finish()
    finally:
        worker.close()
    attempted += inproc["attempted"]
    failed += inproc["failed"]
    errors += inproc["errors"]
    if inproc["digest"] not in digests:
        failed += inproc["attempted"] - inproc["failed"]
        errors.append("in-process output differs from the CLI processes' output")

    walls = [p.wall_s for p in procs]
    cpus = [p.cpu_s for p in procs]
    rss = [p.rss_mib for p in procs]
    setup_s = [probe[0] for probe in setups]
    call_cpu_s = [cpu for _, cpu in calls]
    unscaled = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_s),
        "ops_per_s": workload.ops / statistics.median(call_cpu_s),
        "cpu_s": statistics.median(cpus),
    }
    metrics = {
        "wall_s": unscaled["wall_s"] * pace.wall_scale(),
        "setup_s": unscaled["setup_s"] * pace.wall_scale(),
        "ops_per_s": unscaled["ops_per_s"] / pace.cpu_scale(),
        "cpu_s": unscaled["cpu_s"] * pace.cpu_scale(),
        "peak_rss_mb": statistics.median(rss),
    }
    detail = {
        "unscaled": unscaled,
        "reference_loop_s": pace.detail(),
        "samples": {
            "wall_s": summary(walls),
            "cpu_s": summary(cpus),
            "peak_rss_mb": summary(rss),
            "setup_s": summary(setup_s),
            "inproc_call_s": summary([wall for wall, _ in calls]),
            "inproc_call_cpu_s": summary(call_cpu_s),
        },
        "fail_frac": failed / attempted,
        "env": inproc["env"],
    }
    return _result(attempted, failed, errors, metrics, END_TO_END_UNITS), detail


def per_layer(workload, seed: int, seconds: float, env: dict) -> tuple[dict, dict]:
    probes = [setup_probe(workload.argv(seed), env) for _ in range(MIN_ROUNDS)]
    pace = Pace()
    traced = run_worker(workload.name, seed, seconds, env)
    pace.tick()
    metrics = dict(traced["metrics"])
    metrics["cli.import_numpy_s"] = statistics.median(p[1] for p in probes)
    metrics["cli.import_hqis_s"] = statistics.median(p[2] for p in probes)
    units = {key: layer_unit(key) for key in metrics}
    detail = {"reps": traced["reps"], "env": traced["env"], "reference_loop_s": pace.detail(),
              "fail_frac": traced["failed"] / traced["attempted"]}
    return _result(traced["attempted"], traced["failed"], traced["errors"], metrics, units), detail


def layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if ".ms." in key or key.endswith("_ms"):
        return "ms"
    if key.endswith("_mb"):
        return "MiB"
    if key.endswith("bytes_per_op"):
        return "B/op"
    if key.endswith("_per_op"):
        return "count/op"
    if key.endswith("qubits"):
        return "qubits"
    if key.endswith("_frac"):
        return "fraction"
    return "count"


def _result(attempted, failed, errors, metrics, units) -> dict:
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if not (ROOT / "src" / "hqis" / "cli.py").is_file():
        raise HarnessError(f"no hqis sources under {ROOT / 'src'}")
    workload = WORKLOADS[name]
    env = child_env()
    # The benchmark and every child it starts share one CPU, so that the
    # reference loops run where the samples they scale ran.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    phase = per_layer if trace else end_to_end
    result, detail = phase(workload, seed, seconds, env)
    detail = {"workload": name, "seed": seed, "trace": int(trace),
              "argv": workload.argv(seed), "errors": result.pop("errors"), **detail}
    detail["env"] = {**host_identity(), **detail["env"]}
    return result, detail


def report(seed: int, seconds: float) -> int:
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result, detail = measure(name, seed, seconds, trace)
            ok = ok and result["correct"]
            mode = "per-layer" if trace else "end-to-end"
            print(f"== {name} {mode}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"fail_frac={detail['fail_frac']:.6g}")
            for error in detail["errors"]:
                print(f"   ! {error}")
            for key, metric in result["metrics"].items():
                print(f"   {key:<45} {metric['value']:>16.6g} {metric['unit']}")
            if not trace:
                for key, stats in detail["samples"].items():
                    stats = {k: v for k, v in stats.items() if k != "values"}
                    print(f"   {key + ' samples':<45} {json.dumps(stats)}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if args.workload is None:
            return report(args.seed, args.seconds)
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
