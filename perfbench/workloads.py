"""The three benchmark workloads: set-up, one timed repetition, output checks.

Every hralign call goes through its module attribute at call time
(``trainer.train_hr_align``, not a name imported once), so the traced run's
wrappers see the benchmark's own calls too.

Timings are CPU seconds of this process (user + system, all threads),
scaled to a reference machine speed while ``speed.probe`` runs (see
``speed``): on a shared host, neither time spent waiting for a CPU nor the
CPU's drifting speed should count as the program's work. Wall times are
kept beside them.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from hralign import dataset, encoder, evaluation, trainer
from hralign.rng import RngState

from . import speed

WORKLOADS = ("align_L", "align_EML", "finetune")
ALIGN_POSITIONS = {"align_L": "L", "align_EML": "EML"}


# Settings of the README reference run that no scale changes.
GAP = 0.7
HELDOUT_FRAC = 0.25
PRETEXT_LR = 3e-6
BASELINE_LR = 3e-4
# finetune's final_loss averages this many last steps of one baseline: a
# single 16-clip batch's loss swings by a quarter from seed to seed
LAST_STEPS = 20
# finetune's evaluation, classification_accuracy on 64 held-out pairs, takes
# about 0.05 s; it runs this many times per repetition, timed together, and
# eval_cpu_s is their mean
EVAL_REPEATS = 10


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``REFERENCE`` is the README reference run."""

    tasks: int = 8
    pairs_per_task: int = 32
    pretext_epochs: int = 20
    align_steps: int = 300
    baseline_steps: int = 120


REFERENCE = Scale()


class OperationFailed(RuntimeError):
    """An hralign call raised; the repetition cannot go on."""


@dataclass
class Ledger:
    """Attempted operations and output checks, and which of them failed."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def call(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self._fail(name, f"raised {type(exc).__name__}: {exc}")
            traceback.print_exc()
            raise OperationFailed(name) from exc

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self._fail(name, detail)
        return ok

    def _fail(self, name: str, detail: str) -> None:
        self.failed += 1
        line = f"FAIL {name}: {detail}"
        self.failures.append(line)
        print(line, flush=True)


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def backbone_digest(backbone) -> str:
    params = backbone.named_parameters()
    return sha256(*(name.encode() + params[name].data.tobytes() for name in sorted(params)))


@dataclass
class Setup:
    pairs: list
    train: list
    heldout: list
    backbone: object | None
    seconds: float  # scaled CPU seconds
    digest: str


def build_setup(workload: str, seed: int, scale: Scale, ledger: Ledger) -> Setup:
    """Dataset generation, plus pretext pre-training for the align workloads."""
    t0 = speed.stamp()
    pairs = ledger.call(
        "generate_paired_set",
        dataset.generate_paired_set,
        RngState(seed), scale.tasks, scale.pairs_per_task, GAP,
    )
    train, heldout = ledger.call("split_pairs", dataset.split_pairs, pairs, HELDOUT_FRAC)
    backbone = None
    if workload in ALIGN_POSITIONS:
        backbone, _ = ledger.call(
            "pretext_pretrain",
            encoder.pretext_pretrain,
            RngState(seed), [p.human for p in train], epochs=scale.pretext_epochs, lr=PRETEXT_LR,
        )
    seconds = speed.seconds(t0, speed.stamp())
    # hashed clip by clip: holding every frame's bytes at once would add
    # tens of MB to the peak memory the benchmark reports
    h = hashlib.sha256()
    for p in pairs:
        h.update(p.human.frames.tobytes())
        h.update(p.robot.frames.tobytes())
    h.update(repr([p.pair_id for p in heldout]).encode())
    h.update((backbone_digest(backbone) if backbone is not None else "").encode())
    return Setup(pairs, train, heldout, backbone, seconds, h.hexdigest())


@dataclass
class Rep:
    """One timed repetition: scaled CPU times, quality values and output digests."""

    cpu_s: float  # the whole timed part
    train_cpu_s: float  # the training calls
    steps: int  # optimizer steps of the training calls
    eval_cpu_s: float  # one evaluation pass
    wall_s: float  # the whole timed part, wall clock
    raw_cpu_s: float  # the whole timed part, unscaled
    probe_speed: float | None  # over the whole timed part
    final_loss: float
    quality: dict
    digests: dict
    config_hashes: dict


def run_rep(workload: str, setup: Setup, seed: int, scale: Scale, workdir: str,
            ledger: Ledger, timed_span=None) -> Rep:
    """One timed repetition; ``timed_span`` is a context manager around the
    timed part (the traced run passes one that opens a span)."""
    fn = _align_rep if workload in ALIGN_POSITIONS else _finetune_rep
    return fn(workload, setup, seed, scale, workdir, ledger, timed_span or nullcontext())


def _save_load(ckpt, workdir: str, ledger: Ledger):
    """Timed save and load; returns (path, loaded)."""
    path = os.path.join(workdir, "model.ckpt")
    ledger.call("checkpoint.save", ckpt.save, path)
    loaded = ledger.call("checkpoint.load", trainer.ModelCheckpoint.load, path)
    return path, loaded


def _check_round_trip(path: str, loaded, workdir: str, ledger: Ledger) -> str:
    """save -> load -> save must reproduce the file bitwise; returns its digest."""
    again = os.path.join(workdir, "model.resaved.ckpt")
    ledger.call("checkpoint.resave", loaded.save, again)
    with open(path, "rb") as fh:
        first = fh.read()
    with open(again, "rb") as fh:
        second = fh.read()
    ledger.check("checkpoint_round_trip", first == second,
                 f"{len(first)} vs {len(second)} bytes, contents differ")
    return sha256(first)


def _check_log(name: str, log, steps: int, ledger: Ledger) -> None:
    ledger.check(f"{name}_rows", len(log.rows) == steps, f"{len(log.rows)} rows for {steps} steps")
    ledger.check(f"{name}_finite", all(math.isfinite(x) for x in log.losses), "non-finite loss")


def _align_rep(workload, setup, seed, scale, workdir, ledger, timed_span) -> Rep:
    config = trainer.TrainConfig(
        adapter_positions=ALIGN_POSITIONS[workload],
        steps=scale.align_steps,
        seed=seed,
        out_dir=workdir,
    )
    robot = [p.robot for p in setup.pairs]
    backbone_before = backbone_digest(setup.backbone)
    with timed_span:
        t0 = speed.stamp()
        ckpt, log = ledger.call("train_hr_align", trainer.train_hr_align, config, setup.train, setup.backbone)
        t1 = speed.stamp()
        reports = {}
        for tag, adapted in (("adapted", True), ("frozen", False)):
            reports[tag] = (
                ledger.call(f"eval_retrieval.{tag}", evaluation.eval_retrieval, ckpt, setup.heldout, adapted=adapted),
                ledger.call(f"eval_downstream.{tag}", evaluation.eval_downstream, ckpt, robot, adapted=adapted),
            )
        t2 = speed.stamp()
        path, loaded = _save_load(ckpt, workdir, ledger)
        t3 = speed.stamp()

    _check_log("metrics", log, scale.align_steps, ledger)
    ckpt_digest = _check_round_trip(path, loaded, workdir, ledger)
    ledger.check("backbone_unchanged", backbone_digest(setup.backbone) == backbone_before,
                 "alignment changed frozen backbone weights")
    r2h = {tag: reports[tag][0].r2h_recall1 for tag in reports}
    if workload == "align_L":
        ledger.check("adapted_beats_frozen_r2h", r2h["adapted"] > r2h["frozen"],
                     f"adapted r2h@1 {r2h['adapted']} <= frozen {r2h['frozen']}")
    quality = {
        "r2h_recall1": r2h["adapted"],
        "probe_accuracy": reports["adapted"][1].probe_accuracy,
        "frozen_r2h_recall1": r2h["frozen"],
        "frozen_probe_accuracy": reports["frozen"][1].probe_accuracy,
        "bc_mse": reports["adapted"][1].bc_mse,
    }
    return Rep(
        cpu_s=speed.seconds(t0, t3),
        train_cpu_s=speed.seconds(t0, t1),
        steps=scale.align_steps,
        eval_cpu_s=speed.seconds(t1, t2),
        wall_s=t3.wall - t0.wall,
        raw_cpu_s=t3.cpu - t0.cpu,
        probe_speed=speed.speed(t0, t3),
        final_loss=log.losses[-1],
        quality=quality,
        digests={
            "metrics": sha256(log.deterministic_text().encode()),
            "checkpoint": ckpt_digest,
            "quality": sha256(repr(sorted(quality.items())).encode()),
        },
        config_hashes={"train_hr_align": config.config_hash()},
    )


def _finetune_rep(workload, setup, seed, scale, workdir, ledger, timed_span) -> Rep:
    base = trainer.TrainConfig(
        steps=scale.baseline_steps, seed=seed, learning_rate=BASELINE_LR, out_dir=workdir
    )
    pret_config = replace(base, method="pret_baseline")
    cls_config = replace(base, method="cls_baseline")
    humans = [p.human for p in setup.train]
    # pretext_pretrain takes one step per full batch of 16 clips per epoch
    pretext_steps = scale.pretext_epochs * (len(humans) // min(16, len(humans)))
    with timed_span:
        t0 = speed.stamp()
        backbone, history = ledger.call(
            "pretext_pretrain", encoder.pretext_pretrain,
            RngState(seed), humans, epochs=scale.pretext_epochs, lr=PRETEXT_LR,
        )
        _, pret_log = ledger.call(
            "train_baseline_pret", trainer.train_baseline_pret,
            pret_config, setup.train, backbone.copy().unfreeze(),
        )
        cls_ckpt, cls_log = ledger.call(
            "train_baseline_cls", trainer.train_baseline_cls,
            cls_config, setup.train, backbone.copy().unfreeze(),
        )
        t2 = speed.stamp()
        accuracies = [
            ledger.call(
                "classification_accuracy", trainer.classification_accuracy, cls_ckpt, setup.heldout
            )
            for _ in range(EVAL_REPEATS)
        ]
        t3 = speed.stamp()
        path, loaded = _save_load(cls_ckpt, workdir, ledger)
        t4 = speed.stamp()

    _check_log("pret_metrics", pret_log, scale.baseline_steps, ledger)
    _check_log("cls_metrics", cls_log, scale.baseline_steps, ledger)
    ledger.check("pretext_history_finite", all(math.isfinite(x) for x in history), "non-finite loss")
    ledger.check("classification_repeatable", len(set(accuracies)) == 1,
                 f"{len(set(accuracies))} different accuracies over {EVAL_REPEATS} calls")
    ckpt_digest = _check_round_trip(path, loaded, workdir, ledger)
    quality = {
        "cls_accuracy": accuracies[0],
        "pretext_loss": history[-1],
        "cls_baseline_loss": statistics.fmean(cls_log.losses[-LAST_STEPS:]),
    }
    return Rep(
        cpu_s=speed.seconds(t0, t4),
        train_cpu_s=speed.seconds(t0, t2),
        steps=pretext_steps + 2 * scale.baseline_steps,
        eval_cpu_s=speed.seconds(t2, t3) / EVAL_REPEATS,
        wall_s=t4.wall - t0.wall,
        raw_cpu_s=t4.cpu - t0.cpu,
        probe_speed=speed.speed(t0, t4),
        # the pretext loss stays at chance (ln 17) at lr 3e-6 and the
        # classification baseline's at or above chance (ln 8); the pretext baseline's
        # falls from 2.83 to about 1.35, so a stalled optimizer shows in it
        final_loss=statistics.fmean(pret_log.losses[-LAST_STEPS:]),
        quality=quality,
        digests={
            "metrics": sha256(
                repr(history).encode(),
                pret_log.deterministic_text().encode(),
                cls_log.deterministic_text().encode(),
            ),
            "checkpoint": ckpt_digest,
            "quality": sha256(repr(sorted(quality.items())).encode()),
        },
        config_hashes={
            "train_baseline_pret": pret_config.config_hash(),
            "train_baseline_cls": cls_config.config_hash(),
        },
    )
