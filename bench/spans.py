"""Span tracing of the calls into `hqis`, done from outside the package.

`install` wraps every public function of the hqis modules, plus
`StateVector.__post_init__`, in a wrapper that records a span: name, start,
end and parent, kept in memory. It replaces each function under every name
that refers to it, so the names callers bound with `from .qstate import ...`
are traced too. A few wrappers also run a counting hook after the call
returns; the time a hook takes is charged to no span's self time.

Span names are `<layer>.<function>`, where the layer is the module name:
qstate, channel, protocol, adversary or cli.
"""

import functools
import inspect
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import numpy as np

LAYERS = ("qstate", "channel", "protocol", "adversary", "cli")

_KERNELS = ("project", "bell_project", "apply_gate", "tensor", "reduced_density")


class Tracer:
    """Spans in parallel lists, plus the counters the hooks fill."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        # When the span's wrapper finished its bookkeeping; a parent's self
        # time excludes its children up to this point, not just to `ends`.
        self.posts: list[float] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.posts.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        now = time.perf_counter()
        if not self.ends[sid]:
            self.ends[sid] = now
        self.posts[sid] = now
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run `fn` inside a span called `name`."""
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    def peak(self, key: str, value) -> None:
        self.counts[key] = max(self.counts[key], int(value))


def self_times(starts, ends, posts, parents) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    A child covers [start, post]: its own run plus its wrapper's bookkeeping.
    Spans must be listed in the order they opened, so parents come first.
    """
    covers: list[list[tuple[float, float]]] = [[] for _ in starts]
    for sid, parent in enumerate(parents):
        if parent >= 0:
            covers[parent].append((starts[sid], posts[sid]))
    result = []
    for sid, intervals in enumerate(covers):
        lo, hi = starts[sid], ends[sid]
        covered, reach = 0.0, lo
        for a, b in sorted(intervals):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        result.append((hi - lo) - covered)
    return result


def _support(state) -> int:
    return int(np.count_nonzero(state.amplitudes))


def _kernel_hook(name):
    def hook(tracer, args, result):
        registers = [a.num_qubits for a in args if hasattr(a, "num_qubits")]
        if name in ("project", "bell_project"):
            tracer.counts[f"qstate.{name}.amps_in"] += 2 ** args[0].num_qubits
            result = result[1]
            if result is None:
                tracer.counts[f"qstate.{name}.nulls"] += 1
        if hasattr(result, "amplitudes"):
            registers.append(result.num_qubits)
            tracer.peak("qstate.peak_support", _support(result))
        tracer.peak("qstate.peak_register_qubits", max(registers, default=0))

    return hook


def _branches_hook(tracer, args, result):
    tracer.counts["protocol.branches"] += len(result)


def _scenario_hook(tracer, args, result):
    tracer.peak("adversary.register_qubits", result.num_qubits)


_HOOKS = {
    **{f"qstate.{k}": _kernel_hook(k) for k in _KERNELS},
    "protocol.enumerate_branches": _branches_hook,
    "adversary.build_scenario_state": _scenario_hook,
}


def _traced(tracer: Tracer, name: str, fn):
    hook = _HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            tracer.ends[sid] = time.perf_counter()
            if hook is not None:
                hook(tracer, args, result)
            return result
        finally:
            tracer.close(sid)

    return wrapper


def _alloc_measured(tracer: Tracer, name: str, fn):
    """Run `fn` under tracemalloc and keep the largest peak seen, in bytes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.peak(f"{name}.peak_alloc_bytes", peak)

    return wrapper


_ALLOC_MEASURED = ("adversary.correlation_check",)


def _public_functions(module):
    for attr, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
            yield attr, obj


def install(tracer: Tracer, package) -> list:
    """Wrap the public functions of every layer; returns what `uninstall` undoes."""
    modules = [getattr(package, layer) for layer in LAYERS]
    wrapped = {}
    for module in modules:
        layer = module.__name__.rsplit(".", 1)[-1]
        for attr, fn in _public_functions(module):
            name = f"{layer}.{attr}"
            wrapper = _traced(tracer, name, fn)
            if name in _ALLOC_MEASURED:
                wrapper = _alloc_measured(tracer, name, wrapper)
            wrapped[id(fn)] = (fn, wrapper)

    patches = []
    for module in [package, *modules]:
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                patches.append((module, attr, obj))
                setattr(module, attr, hit[1])

    state_cls = package.qstate.StateVector
    init = state_cls.__dict__.get("__post_init__")
    if init is not None:
        patches.append((state_cls, "__post_init__", init))
        state_cls.__post_init__ = _traced(tracer, "qstate.statevector_init", init)
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


@dataclass
class Rep:
    """One traced repetition: the workload call, then the fixed layer sweep.

    Counts and sizes come from the workload call alone; times cover the
    sweep as well, so that every layer has a measured time on every
    workload, even one whose CLI call never reaches it.
    """

    workload_spans: range
    all_spans: range
    counts: Counter
    sweep_counts: Counter
    ops: int
    output_chars: int


def rep_metrics(tracer: Tracer, selfs: list[float], rep: Rep) -> dict[str, float]:
    """Per-layer counts and self times of one traced repetition."""
    names = tracer.names
    calls = Counter(names[sid] for sid in rep.workload_spans)
    self_s = Counter()
    for sid in rep.all_spans:
        self_s[names[sid]] += selfs[sid]

    in_protocol = {}
    protocol_calls = Counter()
    for sid in rep.workload_spans:
        parent = tracer.parents[sid]
        inside = in_protocol.get(parent, False)
        in_protocol[sid] = inside or names[sid].startswith("protocol.")
        if inside:
            protocol_calls[names[sid]] += 1
    protocol_ops = (
        sum(n for name, n in calls.items() if name.startswith("protocol.run_"))
        + rep.counts["protocol.branches"]
    )

    def per_op(count):
        return count / protocol_ops if protocol_ops else 0.0

    c = rep.counts
    out = {}
    for k in (*_KERNELS, "statevector_init"):
        out[f"qstate.{k}.calls"] = calls[f"qstate.{k}"]
        out[f"qstate.{k}.self_s"] = self_s[f"qstate.{k}"]
    for k in ("project", "bell_project"):
        out[f"qstate.{k}.amps_in"] = c[f"qstate.{k}.amps_in"]
    out["qstate.peak_support"] = c["qstate.peak_support"]
    out["qstate.peak_register_qubits"] = c["qstate.peak_register_qubits"]
    projects = calls["qstate.project"]
    out["qstate.project.null_frac"] = c["qstate.project.nulls"] / projects if projects else 0.0
    for k in ("make_channel", "make_fake_channel", "compose_with_secret"):
        out[f"channel.{k}.self_s"] = self_s[f"channel.{k}"]
    out["protocol.projections_per_op"] = per_op(protocol_calls["qstate.project"])
    out["protocol.bell_projections_per_op"] = per_op(protocol_calls["qstate.bell_project"])
    out["protocol.self_s"] = sum(v for k, v in self_s.items() if k.startswith("protocol."))
    for k in ("correlation_check", "build_scenario_state", "exact_detection_probability"):
        out[f"adversary.{k}.self_s"] = self_s[f"adversary.{k}"]
    out["adversary.register_qubits"] = c["adversary.register_qubits"]
    out["adversary.correlation_check.peak_alloc_mb"] = (
        c["adversary.correlation_check.peak_alloc_bytes"] / 2**20
    )
    out["cli.execute.self_s"] = self_s["cli.execute"]
    out["cli.bytes_per_op"] = rep.output_chars / rep.ops
    return out


def pooled_latency_metrics(tracer: Tracer, reps: list[Rep]) -> dict[str, float]:
    """Per-trial and per-branch protocol latency, pooled over every rep."""
    names, starts, ends = tracer.names, tracer.starts, tracer.ends
    trial_ms, enum_s, branches = [], 0.0, 0
    for rep in reps:
        for sid in rep.all_spans:
            name = names[sid]
            if name.startswith("protocol.run_"):
                trial_ms.append((ends[sid] - starts[sid]) * 1e3)
            elif name == "protocol.enumerate_branches":
                enum_s += ends[sid] - starts[sid]
        branches += rep.counts["protocol.branches"] + rep.sweep_counts["protocol.branches"]
    return {
        "protocol.run.ms.p50": float(np.percentile(trial_ms, 50)),
        "protocol.run.ms.p99": float(np.percentile(trial_ms, 99)),
        "protocol.per_branch_ms": enum_s * 1e3 / branches if branches else 0.0,
    }


def dump(tracer: Tracer) -> dict:
    """Spans as compact JSON: a name table and [name, parent, start_ns, end_ns] rows."""
    table = sorted(set(tracer.names))
    index = {name: i for i, name in enumerate(table)}
    t0 = tracer.starts[0] if tracer.starts else 0.0
    rows = [
        [index[name], parent, round((start - t0) * 1e9), round((end - t0) * 1e9)]
        for name, parent, start, end in zip(tracer.names, tracer.parents, tracer.starts, tracer.ends)
    ]
    return {"names": table, "fields": ["name", "parent", "start_ns", "end_ns"], "spans": rows}
