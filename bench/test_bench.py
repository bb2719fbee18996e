"""Tests of the benchmark itself: PYTHONPATH=src python3 -m pytest -q bench"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import hqis  # noqa: E402
import hqis.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Workload, check_output, parse_records  # noqa: E402

SMALL_SAMPLE = ["run", "--mode", "sample", "--m", "2", "--n", "2", "--designee", "charlie:1",
                "--secret", "random", "--trials", "40", "--seed", "5"]
SMALL_ENUMERATE = ["run", "--mode", "enumerate", "--m", "2", "--n", "3", "--designee", "bob:2",
                   "--charlie-star", "1", "--secret", "random", "--seed", "5"]


def test_self_time_subtracts_the_union_of_direct_children():
    # root [0,10] holds A [1,4] (bookkeeping to 4.5), B [5,8] and C [7,9],
    # which overlap; A holds A1 [2,3].
    starts = [0.0, 1.0, 2.0, 5.0, 7.0]
    ends = [10.0, 4.0, 3.0, 8.0, 9.0]
    posts = [10.0, 4.5, 3.0, 8.0, 9.0]
    parents = [-1, 0, 1, 0, 0]
    assert spans.self_times(starts, ends, posts, parents) == pytest.approx(
        [10 - 3.5 - 4.0, 3 - 1, 1, 3, 2]
    )


def test_self_time_clips_children_to_the_parent():
    assert spans.self_times([0.0, 1.0], [2.0, 2.0], [2.0, 3.0], [-1, 0]) == pytest.approx([1.0, 1.0])


def test_pace_scales_by_the_geometric_mean_of_reference_speeds():
    pace = run.Pace()
    # The interpreter loop ran at half speed on the wall clock; the page-fault
    # loop ran at reference speed. Both ran at reference speed on CPU time.
    pace.times = {
        "interpreter": [(2 * run.REFERENCE_LOOPS["interpreter"][1],
                         run.REFERENCE_LOOPS["interpreter"][1])],
        "page_faults": [(run.REFERENCE_LOOPS["page_faults"][1],
                         run.REFERENCE_LOOPS["page_faults"][1])],
    }
    assert pace.wall_scale() == pytest.approx(0.5 ** 0.5)
    assert pace.cpu_scale() == pytest.approx(1.0)


def _traced_call(argv):
    tracer = spans.Tracer()
    patches = spans.install(tracer, hqis)
    try:
        status, _, text = worker.call_cli(hqis, argv, tracer)
    finally:
        spans.uninstall(patches)
    assert status == 0
    selfs = spans.self_times(tracer.starts, tracer.ends, tracer.posts, tracer.parents)
    everything = range(len(tracer))
    rep = spans.Rep(everything, everything, tracer.counts, Counter(), 1, len(text))
    return text, spans.rep_metrics(tracer, selfs, rep)


@pytest.mark.parametrize("argv", [SMALL_SAMPLE, SMALL_ENUMERATE])
def test_tracing_leaves_stdout_byte_identical(argv):
    status, _, plain = worker.call_cli(hqis, argv)
    assert status == 0
    traced, _ = _traced_call(argv)
    assert traced == plain
    assert worker.call_cli(hqis, argv)[2] == plain


def test_uninstall_restores_every_patched_name():
    originals = (hqis.qstate.project, hqis.protocol.bell_project, hqis.cli.execute,
                 hqis.qstate.StateVector.__post_init__)
    _traced_call(SMALL_SAMPLE)
    assert (hqis.qstate.project, hqis.protocol.bell_project, hqis.cli.execute,
            hqis.qstate.StateVector.__post_init__) == originals


def test_traced_counts_repeat_exactly():
    _, first = _traced_call(SMALL_SAMPLE)
    _, second = _traced_call(SMALL_SAMPLE)
    keys = [k for k in first
            if k.endswith((".calls", ".amps_in", "peak_support", "projections_per_op"))]
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}
    # bell_project is reached only through the name protocol imported.
    assert first["qstate.bell_project.calls"] > 0
    assert first["qstate.project.calls"] > 0
    assert first["protocol.projections_per_op"] > 0


def test_enumerate_counts_one_projection_per_prefix_step():
    _, metrics = _traced_call(SMALL_ENUMERATE)
    # m=2, n=3, Bob designee: the other Bob and charlie* measure, so each of
    # the 4 Bell outcomes x 2**2 leaves re-projects a 2-step prefix.
    assert metrics["qstate.bell_project.calls"] == 4
    assert metrics["qstate.project.calls"] == 4 * 2**2 * 2
    assert metrics["qstate.peak_register_qubits"] == 7


def test_parse_records_rejects_non_standard_constants():
    with pytest.raises(ValueError):
        parse_records('{"fidelity": NaN}')
    with pytest.raises(ValueError):
        parse_records('{"fidelity": -Infinity}')


def test_attack_check_flags_each_broken_field():
    good = {"record": "check", "rounds": 3_000_000, "exact_mismatch_probability": 0.5,
            "alice_bob_match_rates": [0.5, 0.5001], "charlie_group_consistent_rate": 1.0,
            "detected": True}
    workload = WORKLOADS["attack"]
    assert workload.check([good]) == []
    for field, bad in [("exact_mismatch_probability", 0.5 + 1e-9),
                       ("alice_bob_match_rates", [0.51]),
                       ("charlie_group_consistent_rate", 0.999),
                       ("detected", False)]:
        assert workload.check([good | {field: bad}]), field


def test_sample_check_needs_every_trial():
    status, _, text = worker.call_cli(hqis, SMALL_SAMPLE)
    assert status == 0
    # The sample workload runs 1000 trials; a 40-trial output is short.
    assert any("records for" in e for e in check_output(WORKLOADS["sample"], text))


def test_benchmark_json_names_what_the_runs_print():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    tiny = Workload("tiny", "", tuple(SMALL_SAMPLE[:-2]), 40, lambda records: [])
    result = worker.traced(hqis, tiny, tiny.argv(5), 0.0, 5)
    assert result["errors"] == [] and result["reps"] == worker.MIN_REPS
    printed = {**result["metrics"], "cli.import_numpy_s": 0, "cli.import_hqis_s": 0}
    assert {name: run.layer_unit(name) for name in printed} == {
        m["name"]: m["unit"] for m in doc["per_layer"]
    }
