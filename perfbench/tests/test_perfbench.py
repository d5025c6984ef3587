"""Tests of the benchmark's own machinery: span arithmetic, wrapper removal,
and a tiny-size run of every workload, traced and untraced."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import layers, speed  # noqa: E402
from perfbench.bench import END_TO_END, check_quality, load_references, measure  # noqa: E402
from perfbench.spans import Span, Tracer, covered, self_time  # noqa: E402
from perfbench.workloads import WORKLOADS, Ledger, Scale  # noqa: E402

TINY = Scale(tasks=4, pairs_per_task=6, pretext_epochs=1, align_steps=4, baseline_steps=3)


@pytest.fixture
def short_intervals(monkeypatch):
    """Untraced runs at the TINY scale time intervals of about 0.1 s, in
    which the speed probe makes only some 20 units; at the reference scale
    the shortest interval is about 0.7 s and 100 units. Accept any unit
    count here, so the probe still scales every TINY timing."""
    monkeypatch.setattr(speed, "MIN_UNITS", 1)


def span(start, end, parent=None, name="s"):
    return Span(name, start, end, parent, "run")


def test_self_time_subtracts_disjoint_children():
    parent = span(0.0, 10.0)
    assert self_time(parent, [span(1.0, 3.0, 0), span(5.0, 6.0, 0)]) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    parent = span(0.0, 10.0)
    children = [span(1.0, 4.0, 0), span(2.0, 5.0, 0), span(4.5, 6.0, 0), span(8.0, 9.0, 0)]
    # union of children is [1, 6] plus [8, 9]
    assert self_time(parent, children) == pytest.approx(4.0)


def test_self_time_of_nested_spans_uses_direct_children_only():
    outer, middle, inner = span(0.0, 10.0), span(2.0, 8.0, 0), span(3.0, 4.0, 1)
    assert self_time(outer, [middle]) == pytest.approx(4.0)
    assert self_time(middle, [inner]) == pytest.approx(5.0)
    assert self_time(inner, []) == pytest.approx(1.0)


def test_covered_clips_children_to_the_parent_interval():
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_tracer_links_nested_spans_to_their_parent():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0), ("inner", 0)]
    outer = tracer.spans[0]
    assert self_time(outer, tracer.spans[1:]) <= outer.duration


def _bindings() -> dict:
    """Every attribute of every hralign module, and of the classes whose
    methods the traced run wraps, by identity."""
    from hralign.rng import RngState
    from hralign.tensor import Tensor
    from hralign.trainer import ModelCheckpoint

    owners = [m for n, m in sys.modules.items() if n == "hralign" or n.startswith("hralign.")]
    owners += [Tensor, RngState, ModelCheckpoint]
    return {
        (id(owner), attr): value
        for owner in owners
        if isinstance(owner, (types.ModuleType, type))
        for attr, value in vars(owner).items()
    }


def _assert_same_bindings(before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert not changed, f"{len(changed)} attributes not restored"


def test_install_wraps_then_restore_puts_every_original_back():
    import hralign.trainer as trainer
    from hralign.tensor import Tensor

    before = _bindings()
    tracer = Tracer()
    patcher, _ = layers.install(tracer)
    try:
        assert trainer.encode_batch is not before[(id(trainer), "encode_batch")]
        assert Tensor.__dict__["backward"] is not before[(id(Tensor), "backward")]
    finally:
        patcher.restore()
    _assert_same_bindings(before, _bindings())


def test_speed_probe_scales_cpu_time_and_stops():
    allowed = os.sched_getaffinity(0)
    with speed.probe():
        assert len(os.sched_getaffinity(0)) == 1
        a = speed.stamp()
        while time.process_time() - a.cpu < 0.3:
            pass
        b = speed.stamp()
        rate = speed.speed(a, b)
        assert rate > 0
        assert speed.seconds(a, b) == pytest.approx((b.cpu - a.cpu) * rate / speed.REFERENCE_SPEED)
    with pytest.raises(ChildProcessError):  # the probe has been waited for
        os.waitpid(-1, os.WNOHANG)
    assert os.sched_getaffinity(0) == allowed
    assert speed.speed(a, b) is None
    assert speed.seconds(a, b) == b.cpu - a.cpu


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_untraced_run_reports_every_end_to_end_metric(workload, tmp_path, short_intervals):
    record = measure(workload, 7, 0.0, False, str(tmp_path), scale=TINY, setup_repeats=2)
    assert record["failures"] == []
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    assert list(record["metrics"]) == list(END_TO_END)
    assert all(math.isfinite(v) and v > 0 for v in record["metrics"].values())
    assert record["metrics"]["pass_frac"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric_and_unwraps(workload, tmp_path):
    before = _bindings()
    record = measure(workload, 7, 0.0, True, str(tmp_path), scale=TINY)
    _assert_same_bindings(before, _bindings())
    assert record["failures"] == []
    assert record["correct"] and record["failed"] == 0
    metrics = record["metrics"]
    assert list(metrics) == list(layers.LAYER_METRICS)
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["optim.adam_step.scalars"] > 0
    assert metrics["trainer.checkpoint.bytes"] > 0
    if workload == "align_L":
        assert metrics["tensor.conv2d.calls_per_step"] == 11
        assert metrics["adapter.adapter_forward.calls_per_step"] == 1
    if workload == "align_EML":
        assert metrics["tensor.conv2d.calls_per_step"] == 17
        assert metrics["adapter.adapter_forward.calls_per_step"] == 4
    if workload == "finetune":
        assert metrics["encoder.pretext_loss.ms_per_step"] > 0
        assert metrics["alignment.hr_align_loss.ms_per_step"] == 0
    else:
        assert metrics["evaluation.eval_downstream.s"] > 0


def test_quality_check_allows_tolerance_and_fails_beyond_it():
    reference = {"final_loss": 1.5, "r2h_recall1": 0.40625, "probe_accuracy": 0.640625}
    ledger = Ledger()
    check_quality(ledger, {"final_loss": 1.51, "r2h_recall1": 0.390625, "probe_accuracy": 0.7},
                  reference)
    assert ledger.failed == 0 and ledger.attempted == 3
    check_quality(ledger, {"final_loss": 1.52, "r2h_recall1": 0.375, "probe_accuracy": 0.7},
                  reference)
    assert [line.split(":")[0] for line in ledger.failures] == [
        "FAIL quality_reference.final_loss", "FAIL quality_reference.r2h_recall1"
    ]
    check_quality(ledger, {"final_loss": 9.0}, None)
    assert ledger.attempted == 6


def test_recorded_quality_at_seed_7_is_the_readme_reference():
    table = load_references()
    align_l = table["align_L"]["7"]
    assert round(align_l["final_loss"], 6) == 1.501880
    assert round(align_l["r2h_recall1"], 3) == 0.406
    assert round(align_l["probe_accuracy"], 3) == 0.641
    assert round(table["align_EML"]["7"]["r2h_recall1"], 3) == 0.453
    assert round(table["finetune"]["7"]["cls_accuracy"], 3) == 0.203


def test_untraced_run_fails_a_quality_below_its_reference(tmp_path, short_intervals):
    clean = measure("finetune", 7, 0.0, False, str(tmp_path), scale=TINY, setup_repeats=1)
    accuracy = clean["quality"]["cls_accuracy"]
    references = {"finetune": {"7": {"cls_accuracy": accuracy + 0.05}}}
    record = measure("finetune", 7, 0.0, False, str(tmp_path), scale=TINY, setup_repeats=1,
                     references=references)
    assert not record["correct"]
    assert [line.split(":")[0] for line in record["failures"]] == ["FAIL quality_reference.cls_accuracy"]
    assert record["metrics"]["pass_frac"] < 1.0


def test_benchmark_json_lists_the_metrics_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.LAYER_METRICS


def test_run_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "finetune", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
