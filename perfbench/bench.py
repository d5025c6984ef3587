"""Runs one workload untraced (end-to-end metrics) or traced (per-layer
metrics), checks its outputs, and reports the result with provenance."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time

import numpy as np

from . import layers, speed
from .spans import Tracer
from .workloads import REFERENCE, Ledger, OperationFailed, Scale, build_setup, run_rep

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference_quality.json")

# Quality values held to the seed code's, per workload and seed, at the
# reference scale: name -> (better, tolerance). A loss may rise by 1 % of
# its reference value; a held-out ratio may fall by 0.02, about one of the
# 64 held-out pairs or clips.
QUALITY_CHECKS = {
    "final_loss": ("lower", 0.01),
    "r2h_recall1": ("higher", 0.02),
    "probe_accuracy": ("higher", 0.02),
    "cls_accuracy": ("higher", 0.02),
}

# End-to-end metrics, in BENCHMARK.json order. Times, set-up time included,
# are CPU seconds of the process scaled to the reference speed (see speed).
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "train_steps_per_cpu_s": "steps/s",
    "eval_cpu_s": "s",
    "peak_rss_mb": "MB",
    "final_loss": "nats",
    "pass_frac": "ratio",
}


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: str,
    scale: Scale = REFERENCE,
    setup_repeats: int = 3,
    references: dict | None = None,
) -> dict:
    """Run one workload and return its result record.

    The record holds ``correct``, ``attempted``, ``failed``, ``metrics``
    (name -> value: end-to-end untraced, per-layer traced), plus quality
    values, the reference they were checked against, output digests, config
    hashes and, when traced, the tracer. ``references`` (workload -> seed ->
    values) defaults to ``REFERENCE_FILE`` at the reference scale and to
    none at any other.
    """
    if references is None:
        references = load_references() if scale == REFERENCE else {}
    ledger = Ledger()
    record: dict = {
        "metrics": {}, "quality": {}, "digests": {}, "config_hashes": {}, "reps": [],
        "quality_reference": references.get(workload, {}).get(str(seed)),
    }
    try:
        if trace:
            _traced(workload, seed, workdir, scale, ledger, record)
        else:
            with speed.probe():
                _untraced(workload, seed, seconds, workdir, scale, setup_repeats, ledger, record)
    except OperationFailed:
        pass
    record.update(
        correct=ledger.failed == 0 and bool(record["metrics"]),
        attempted=ledger.attempted,
        failed=ledger.failed,
        failures=ledger.failures,
    )
    return record


def load_references(path: str = REFERENCE_FILE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def quality_values(rep) -> dict:
    """The values ``QUALITY_CHECKS`` names, as one repetition produced them."""
    values = {"final_loss": rep.final_loss, **rep.quality}
    return {name: values[name] for name in QUALITY_CHECKS if name in values}


def check_quality(ledger: Ledger, values: dict, reference: dict | None) -> None:
    """Each value no worse than its reference by more than its tolerance."""
    if reference is None:
        return
    for name, (better, tolerance) in QUALITY_CHECKS.items():
        if name not in reference:
            continue
        value, ref = values[name], reference[name]
        ok = value <= ref + tolerance * abs(ref) if better == "lower" else value >= ref - tolerance
        ledger.check(f"quality_reference.{name}", ok, f"{value!r} against the seed code's {ref!r}")


def _check_same(ledger: Ledger, name: str, digests: list[dict]) -> None:
    for key in digests[0]:
        values = {d[key] for d in digests}
        ledger.check(f"{name}.{key}", len(values) == 1, f"{len(values)} different digests")


def _untraced(workload, seed, seconds, workdir, scale, setup_repeats, ledger, record) -> None:
    setup, setup_s, setup_digests = None, [], []
    for _ in range(setup_repeats):
        setup = None  # free the previous set-up so peak memory counts one
        setup = build_setup(workload, seed, scale, ledger)
        setup_s.append(setup.seconds)
        setup_digests.append({"setup": setup.digest})
    _check_same(ledger, "setup_deterministic", setup_digests)
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(run_rep(workload, setup, seed, scale, workdir, ledger))
        elapsed = time.perf_counter() - start
        # whole repetitions only: stop when the next one would overrun
        if elapsed + elapsed / len(reps) > seconds:
            break
    _check_same(ledger, "repetitions_identical", [r.digests for r in reps])
    record["reps"] = [
        {"cpu_s": r.cpu_s, "train_cpu_s": r.train_cpu_s, "steps": r.steps,
         "eval_cpu_s": r.eval_cpu_s, "wall_s": r.wall_s, "raw_cpu_s": r.raw_cpu_s,
         "probe_speed": r.probe_speed}
        for r in reps
    ]
    record["setup_s"] = setup_s
    check_quality(ledger, quality_values(reps[0]), record["quality_reference"])
    _describe(record, setup, reps[0])
    metrics = {
        "setup_s": statistics.median(setup_s),
        "cpu_s": statistics.median(r.cpu_s for r in reps),
        "train_steps_per_cpu_s": statistics.median(r.steps / r.train_cpu_s for r in reps),
        "eval_cpu_s": statistics.median(r.eval_cpu_s for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_loss": reps[0].final_loss,
    }
    metrics["pass_frac"] = 1.0 - ledger.failed / ledger.attempted
    record["metrics"] = metrics


def _traced(workload, seed, workdir, scale, ledger, record) -> None:
    setup = build_setup(workload, seed, scale, ledger)
    plain = run_rep(workload, setup, seed, scale, workdir, ledger)
    tracer = Tracer(run=f"{workload}-seed{seed}")
    patcher, frames = layers.install(tracer)
    saved = patcher.saved
    try:
        with tracer.span(layers.SETUP_SPAN):
            traced_setup = build_setup(workload, seed, scale, ledger)
        traced = run_rep(workload, traced_setup, seed, scale, workdir, ledger,
                         timed_span=tracer.span(layers.TIMED_SPAN))
    finally:
        patcher.restore()
    ledger.check("wrappers_removed",
                 all(owner.__dict__[attr] is original for owner, attr, original in saved),
                 "a traced wrapper is still bound after the traced run")
    _check_same(ledger, "traced_matches_untraced",
                [{"setup": setup.digest, **plain.digests}, {"setup": traced_setup.digest, **traced.digests}])
    record["reps"] = [{"untraced_cpu_s": plain.cpu_s, "traced_cpu_s": traced.cpu_s,
                       "untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s}]
    record["tracer"] = tracer
    check_quality(ledger, quality_values(plain), record["quality_reference"])
    _describe(record, setup, plain)
    record["metrics"] = layers.per_layer(tracer.spans, frames, traced.cpu_s, plain.cpu_s)


def _describe(record, setup, rep) -> None:
    record["quality"] = rep.quality
    record["digests"] = {"setup": setup.digest, **rep.digests}
    record["config_hashes"] = rep.config_hashes


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, *ref.split("/"))
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _src_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "hralign")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def provenance(root: str, workload: str, seed: int, blas_threads: int, config_hashes: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "config_hashes": config_hashes,
    }


def run_benchmark(workload, seed, seconds, trace, out_dir, root, blas_threads, setup_repeats) -> int:
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        record = measure(workload, seed, seconds, trace, workdir, setup_repeats=setup_repeats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = layers.LAYER_METRICS if trace else END_TO_END
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.write(os.path.join(out_dir, f"spans-{tag}.json"))
    record["provenance"] = provenance(root, workload, seed, blas_threads, record["config_hashes"])
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print("quality " + json.dumps(record["quality"], sort_keys=True))
    print("quality_reference " + json.dumps(record["quality_reference"], sort_keys=True))
    print("digests " + json.dumps(record["digests"], sort_keys=True))
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in units.items()
            if name in record["metrics"]
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if record["correct"] else 1
