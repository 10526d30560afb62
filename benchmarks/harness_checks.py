"""Checks of the benchmark's own code: span arithmetic, wrappers and gates.

Kept out of the repository's test suite on purpose (the file name does not
match ``test_*.py``).  Run from the repository root with

    python3 -m pytest -q benchmarks/harness_checks.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import self_times, union_length  # noqa: E402


def span(name, start, end, parent=-1, op=1):
    return [name, start, end, parent, op]


# --- span arithmetic -------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("grandchild", 2.0, 3.0, parent=1),
        span("b", 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlap_once_and_clips_to_the_parent():
    spans = [
        span("root", 0.0, 10.0),
        span("c1", 1.0, 5.0, parent=0),
        span("c2", 3.0, 7.0, parent=0),  # overlaps c1 on [3, 5]
        span("c3", 8.0, 12.0, parent=0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_union_length_ignores_empty_intervals():
    assert union_length([(0, 1), (0.5, 2), (3, 3), (4, 5)]) == pytest.approx(3.0)
    assert union_length([]) == 0.0


def test_round_metrics_average_over_the_ops_of_a_round():
    spans = [
        span("certify.sample_level_set", 0.0, 4.0, op=1),
        span("lyapunov.evaluate", 1.0, 2.0, parent=0, op=1),
        span("lyapunov.evaluate", 2.0, 3.0, parent=0, op=1),
        span("lyapunov.evaluate", 4.5, 5.0, op=2),  # not under sampling
    ]
    counters = {1: {"samples_drawn": 2, "samples_returned": 1}, 2: {"bytes_read": 100}}
    per_round = tracing.round_layer_metrics(spans, counters, {1: 5.0, 2: 5.0}, ops_per_round=2)
    m = per_round[0]
    assert m["lyapunov.evaluate.calls"] == pytest.approx(1.5)
    assert m["certify.sample_level_set.self_s"] == pytest.approx(1.0)
    assert m["certify.evals_per_sample"] == pytest.approx(1.0)
    assert m["certify.accept_ratio"] == pytest.approx(0.5)
    assert m["fileio.bytes_read"] == pytest.approx(50.0)
    assert m["trace.coverage"] == pytest.approx(4.5 / 10.0)


# --- wrappers ----------------------------------------------------------------


def test_wrappers_cover_every_binding_and_are_removed():
    import qstab
    import qstab.certify
    import qstab.lyapunov
    import qstab.operators

    original = qstab.lyapunov.evaluate
    init = qstab.operators.QuantumState.__init__
    qubit = workloads.CertifyQubit(seed=3, samples=2)
    qubit.setup()
    recorder = tracing.Recorder()
    recorder.install()
    try:
        assert qstab.certify.evaluate is qstab.lyapunov.evaluate is qstab.evaluate
        assert qstab.certify.evaluate is not original
        state = qstab.operators.QuantumState.maximally_mixed(2)
        assert isinstance(state, qstab.operators.QuantumState)
        qubit.op(0)
    finally:
        recorder.uninstall()
    assert qstab.certify.evaluate is original and qstab.lyapunov.evaluate is original
    assert qstab.operators.QuantumState.__init__ is init

    names = [s[0] for s in recorder.spans]
    assert "operators.QuantumState" in names
    sampled = [s for s in recorder.spans
               if s[0] == "lyapunov.evaluate" and s[3] >= 0
               and recorder.spans[s[3]][0] == "certify.sample_level_set"]
    assert sampled
    assert recorder.counters[0]["samples_drawn"] == 4  # two passes of two samples


# --- gates -------------------------------------------------------------------


@pytest.fixture(scope="module")
def qubit():
    wl = workloads.CertifyQubit(seed=11, samples=8)
    wl.setup()
    return wl, wl.op(0)


def test_qubit_gate_accepts_the_real_answer(qubit):
    wl, result = qubit
    assert wl.check(result) == []


@pytest.mark.parametrize("mutate", [
    lambda r: dataclasses.replace(r, estimate=dataclasses.replace(r.estimate, rate=0.25)),
    lambda r: dataclasses.replace(r, recheck=r.recheck + 1e-6),
    lambda r: dataclasses.replace(r, recheck=0.0),
    lambda r: dataclasses.replace(r, cert=dataclasses.replace(r.cert, verdict="pass")),
    lambda r: dataclasses.replace(r, cert=dataclasses.replace(r.cert, violated_condition="other")),
])
def test_qubit_gate_rejects_wrong_answers(qubit, mutate):
    wl, result = qubit
    assert wl.check(mutate(result))


@pytest.fixture(scope="module")
def dense():
    wl = workloads.CertifyDense(seed=11, samples=4)
    wl.setup()
    return wl, wl.op(0)


def test_dense_gate_accepts_the_real_answer(dense):
    wl, result = dense
    assert wl.check(result) == []


@pytest.mark.parametrize("mutate", [
    lambda r: dataclasses.replace(r, estimate=dataclasses.replace(r.estimate, rate=r.estimate.rate + 1e-5)),
    lambda r: dataclasses.replace(r, estimate=dataclasses.replace(r.estimate, support_mismatch=True)),
    lambda r: dataclasses.replace(r, cert=dataclasses.replace(r.cert, verdict="fail")),
    lambda r: dataclasses.replace(r, cert=dataclasses.replace(r.cert, sample_count_used=3)),
])
def test_dense_gate_rejects_wrong_answers(dense, mutate):
    wl, result = dense
    assert wl.check(mutate(result))


def test_dense_inputs_follow_the_seed():
    a, b, c = (workloads.CertifyDense(seed=s) for s in (5, 5, 6))
    for wl in (a, b, c):
        wl.setup()
    assert np.array_equal(a.model.coupling, b.model.coupling)
    assert not np.array_equal(a.model.coupling, c.model.coupling)
    assert workloads.level_seed(5, 1) != workloads.level_seed(5, 2) != workloads.level_seed(6, 1)


@pytest.fixture(scope="module")
def trajectory():
    wl = workloads.Trajectory(seed=1)
    wl.setup()
    return wl, wl.op(0)


def test_trajectory_gate_accepts_the_real_answer(trajectory):
    wl, result = trajectory
    assert wl.check(result) == []


def _bump(traj, delta, at):
    v = traj.v_expect.copy()
    v[at] += delta
    return dataclasses.replace(traj, v_expect=v)


@pytest.mark.parametrize("mutate", [
    lambda r: dataclasses.replace(r, master_long=_bump(r.master_long, 1e-8, 100)),
    lambda r: dataclasses.replace(r, collision=_bump(r.collision, 1e-2, 3)),
    lambda r: dataclasses.replace(r, drift_check=dataclasses.replace(r.drift_check, order_ok=False)),
])
def test_trajectory_gate_rejects_wrong_answers(trajectory, mutate):
    wl, result = trajectory
    assert wl.check(mutate(result))


def test_rerun_gate_rejects_a_flipped_csv_byte(trajectory):
    _, result = trajectory
    flipped = bytearray(result.output)
    flipped[40] ^= 0x01
    assert workloads.same_output(result.output, result.output) == []
    problems = workloads.same_output(result.output, bytes(flipped))
    assert problems and "byte 40" in problems[0]


def test_cli_gate_rejects_exit_codes_and_changed_output(tmp_path):
    wl = workloads.CliCold(seed=1, workdir=tmp_path)
    assert wl.check(workloads.CliResult("certify", 0, b"cert v1")) == []
    assert wl.check(workloads.CliResult("certify", 0, b"cert v1")) == []
    assert wl.check(workloads.CliResult("certify", 0, b"cert v2"))
    assert wl.check(workloads.CliResult("validate", 1, b""))


def test_cli_op_runs_a_fresh_process(tmp_path):
    wl = workloads.CliCold(seed=1, workdir=tmp_path)
    wl.setup()
    result = wl.run(0)
    assert result.command == "validate" and result.returncode == 0
    assert b"model ok" in result.output
    assert wl.peak_rss_mb() > 0


# --- the benchmark definition ------------------------------------------------


def test_benchmark_json_matches_what_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: run.UNITS[k] for k in run.END_TO_END}
    layer_names = [f"{n}.{k}" for n in tracing.SPAN_NAMES for k in tracing.PER_OP_SUMS] + list(run.DERIVED_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.layer_unit(n) for n in layer_names}
