"""Tests of the benchmark's own code.

Run from the repository root: ``python -m pytest perfbench/tests``.
The smoke tests run every workload at a tiny budget through the same
fresh-process path the benchmark uses (about a minute in all, most of
it the cold workload profiles).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from metrics import END_TO_END, PER_LAYER, account, layer_metrics  # noqa: E402
from spans import Span, SpanRecorder, chrome_trace, layer_self_times, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# ----------------------------------------------------------------------
# self times
# ----------------------------------------------------------------------
def _tree():
    # run [0, 10]
    #   setup [0, 3]  -> imports [0, 1], workloads.profile [1, 2.5]
    #   explore [3, 9] -> fit.round [3, 8] -> backend.evaluate [3, 4],
    #                                         kernels.epoch [4, 6], [6.5, 7.5]
    return [
        Span("run", 0.0, 10.0, -1),
        Span("setup", 0.0, 3.0, 0),
        Span("imports", 0.0, 1.0, 1),
        Span("workloads.profile", 1.0, 2.5, 1),
        Span("explore", 3.0, 9.0, 0),
        Span("fit.round", 3.0, 8.0, 4, count=1),
        Span("backend.evaluate", 3.0, 4.0, 5, count=50),
        Span("kernels.epoch", 4.0, 6.0, 5, count=10),
        Span("kernels.epoch", 6.5, 7.5, 5, count=10),
    ]


def test_self_time_is_duration_minus_children():
    own = self_times(_tree())
    assert own == pytest.approx([1.0, 0.5, 1.0, 1.5, 1.0, 1.0, 1.0, 2.0, 1.0])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        Span("run", 0.0, 10.0, -1),
        Span("a.x", 1.0, 4.0, 0),
        Span("a.y", 3.0, 5.0, 0),  # overlaps a.x by 1
        Span("a.z", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_self_times_partition_the_root():
    spans = _tree()
    per_layer = layer_self_times(spans)
    assert sum(per_layer.values()) == pytest.approx(spans[0].duration)
    assert per_layer[None] == pytest.approx(2.5)  # run + setup + explore
    assert per_layer["kernels"] == pytest.approx(3.0)
    assert per_layer["fit"] == pytest.approx(1.0)


def test_layer_metrics_from_a_hand_built_tree():
    spans = _tree()
    worker = [Span("kernels.epoch", 0.0, 2.0, -1, count=1, pid=99)]
    metrics = layer_metrics(spans, worker, points=1000)
    assert metrics["fit.s"] == pytest.approx(4.0)  # fit.round minus evaluate
    assert metrics["fit.overhead_s"] == pytest.approx(1.0)
    assert metrics["fit.share"] == pytest.approx(4.0 / 6.0)
    assert metrics["fit.folds_quarantined"] == 1
    assert metrics["backend.evaluations"] == 50
    assert metrics["backend.us_per_eval"] == pytest.approx(1e6 / 50)
    assert metrics["kernels.epoch_calls"] == 3
    assert metrics["kernels.member_epochs"] == 21
    assert metrics["kernels.epoch_s"] == pytest.approx(5.0)
    assert metrics["kernels.worker_frac"] == pytest.approx(2.0 / 5.0)
    assert metrics["self.kernels_s"] == pytest.approx(3.0)
    assert metrics["self.unattributed_s"] == pytest.approx(2.5)
    assert metrics["trace.run_s"] == pytest.approx(10.0)
    # no predict span: a zero rate, not a division error
    assert metrics["predict.points_per_s"] == 0.0
    names = {m.name for m in PER_LAYER}
    assert set(metrics) <= names


def test_recorder_nests_instrumented_calls_and_restores_them():
    class Layer:
        def work(self, items):
            with recorder.span("inner.step"):
                return len(items)

    recorder = SpanRecorder()
    original = Layer.__dict__["work"]
    restore = recorder.instrument(
        Layer, "work", "outer.work", lambda args, result: result
    )
    with recorder.span("run"):
        assert Layer().work([1, 2, 3]) == 3
    restore()
    assert Layer.__dict__["work"] is original
    names = [(s.name, s.parent, s.count) for s in recorder.spans]
    assert names == [("run", -1, 0.0), ("outer.work", 0, 3), ("inner.step", 1, 0.0)]
    trace = chrome_trace(recorder.spans)
    assert [e["name"] for e in trace["traceEvents"]] == ["run", "outer.work", "inner.step"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in trace["traceEvents"])


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------
def _result(nan=0, quarantined=0, failed_check=False):
    return {
        "simulations": 100,
        "nan_simulations": nan,
        "folds_trained": 20,
        "folds_quarantined": quarantined,
        "checks": {"budget_spent": True, "predictions_finite": not failed_check},
    }


def test_failed_frac_counts_nan_simulations_quarantined_folds_and_checks():
    clean = account([_result(), _result()], {"trace_repeats_outputs": True})
    assert clean == (2 * (100 + 20 + 2) + 1, 0)
    assert clean.failed_frac == 0.0
    dirty = account(
        [_result(nan=3), _result(quarantined=2, failed_check=True)],
        {"trace_repeats_outputs": False},
    )
    assert dirty.attempted == clean.attempted
    assert dirty.failed == 3 + 2 + 1 + 1
    assert dirty.failed_frac == pytest.approx(7 / clean.attempted)


# ----------------------------------------------------------------------
# declarations against BENCHMARK.json
# ----------------------------------------------------------------------
#: the benchmark contract's limits on metric names and counts
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_units_and_caps():
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    names = [m.name for m in (*END_TO_END, *PER_LAYER)]
    assert len(names) == len(set(names))
    for metric in (*END_TO_END, *PER_LAYER):
        assert NAME_RE.fullmatch(metric.name), metric.name
        assert UNIT_RE.fullmatch(metric.unit), metric.unit
        assert metric.better in ("lower", "higher")
    for metric in END_TO_END:
        assert 0 < metric.bound <= 0.25
    setup = [m for m in END_TO_END if m.name == "setup_s"]
    assert setup and setup[0].unit == "s" and setup[0].better == "lower"
    assert setup[0].bound == max(m.bound for m in END_TO_END)


def test_benchmark_json_matches_the_declarations():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert 0 < len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert spec["end_to_end"] == [m._asdict() for m in END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    # 4 + 22 runs per workload, each with its set-up, fit in 3420 s
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 5) < 3420


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "memsys-mcf-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def _smoke_bench(tmp_path):
    bench = run.Bench(
        ROOT, out=tmp_path / "out",
        child_args=["--budget", "20", "--batch-size", "10"],
    )
    bench.prepare()
    return bench


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke_run(tmp_path, workload):
    bench = _smoke_bench(tmp_path)
    record = run.run_workload(bench, workload, seed=3, seconds=0, traced=True)
    assert record["correct"], record["checks"]
    assert record["checks"]["trace_repeats_outputs"]
    assert record["checks"]["self_times_add_up"]
    untraced, traced = record["repetitions"]
    assert not untraced["traced"] and traced["traced"]
    assert all(all(r["checks"].values()) for r in record["repetitions"])
    metrics = record["metrics"]
    assert metrics["backend.evaluations"] == 20
    assert metrics["fit.rounds"] == 2
    assert metrics["kernels.epoch_calls"] > 0
    if WORKLOADS[workload].n_jobs > 1:
        assert metrics["kernels.worker_frac"] == 1.0
    line = json.loads(run.summary_line(record, PER_LAYER))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m.name for m in PER_LAYER}
    trace = json.loads(
        (tmp_path / "out" / "traces" / f"{workload}-seed3.json").read_text()
    )
    assert any(e["name"] == "explore" for e in trace["traceEvents"])


def test_untraced_smoke_run_reports_every_end_to_end_metric(tmp_path):
    bench = _smoke_bench(tmp_path)
    record = run.run_workload(
        bench, "cachepolicy-osc-ckpt", seed=4, seconds=0, traced=False
    )
    assert record["correct"]
    assert len(record["repetitions"]) == run.MIN_REPS
    line = json.loads(run.summary_line(record, END_TO_END))
    assert set(line["metrics"]) == {m.name for m in END_TO_END}
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert line["failed"] == 0 and line["attempted"] > 0
