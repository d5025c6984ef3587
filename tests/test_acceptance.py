"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single PASS line (visible under ``pytest -s``); the
shared reference run comes from session fixtures in conftest.py
(8 tasks x 32 pairs, gap 0.7, seed 7, batch 16, 300 steps).
"""

import math
import os
import time
from pathlib import Path

import numpy as np

from helpers import (
    check_grad_against_fd,
    learnable_parameters,
    naive_hr_align_loss,
    rel_err,
    sum_param_sizes,
)
from hralign import tensor as T
from hralign.adapter import AdapterBlock, AdapterStack, adapter_forward, count_learnable
from hralign.alignment import AlignmentBatchFeatures, hr_align_loss, pool_many
from hralign.dataset import generate_paired_set, load_manifest, save_manifest, split_pairs
from hralign.encoder import Backbone, encode_batch
from hralign.rng import RngState
from hralign.tensor import Tensor
from hralign.trainer import ModelCheckpoint, TrainConfig, classification_accuracy, train_hr_align

AUDIT_SEEDS = 20


def _unit_rows(rng, m, c):
    x = rng.normal((m, c))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_criterion_1_gradient_audit():
    """Every differentiable op and the full alignment loss pass central
    finite differences at rel err < 1e-6, 20 seeds each, in under a minute."""
    started = time.perf_counter()

    def audits_for(seed):
        # every probe constant is drawn once up front: the audited function
        # must be identical across repeated finite-difference evaluations
        rng = RngState(seed)
        other = Tensor(rng.normal((3, 4)))
        other22 = Tensor(rng.normal((2, 2)))
        conv_w = rng.normal((2, 2, 3, 3))
        conv_x = rng.normal((1, 2, 4, 4))
        pool_vals = rng.normal((1, 5, 4))
        pool_probe = Tensor(rng.normal((1, 4)))
        human = _unit_rows(rng, 3, 4)
        frozen = _unit_rows(rng, 3, 4)
        sum_probe = Tensor(rng.normal((1, 4)))
        mean_probe = Tensor(rng.normal(3))
        matmul_rhs = Tensor(rng.normal((4, 2)))
        transpose_probe = Tensor(rng.normal((4, 3)))
        reshape_probe = Tensor(rng.normal((2, 6)))
        concat_probe = Tensor(rng.normal((3, 8)))
        conv_x_probe = Tensor(rng.normal((1, 2, 4, 4)))
        conv_w_probe = Tensor(rng.normal((1, 2, 2, 2)))
        relu_in = rng.normal((3, 4))
        relu_in += np.sign(relu_in) * 0.2
        mlp_rng = rng.derive("mlp_mse")  # its own stream: the draws above stay put
        mlp_x, mlp_y = Tensor(mlp_rng.normal((5, 3))), Tensor(mlp_rng.normal((5, 2)))
        mlp = {k: mlp_rng.normal(shape) for k, shape in (("w1", (3, 4)), ("b1", 4), ("w2", (4, 2)), ("b2", 2))}

        def mlp_mse_of(name):
            return lambda p: T.mlp_mse(
                mlp_x, **{k: p if k == name else Tensor(v) for k, v in mlp.items()}, y=mlp_y
            )

        yield "add", lambda x: T.tsum(T.mul(T.add(x, other), other)), rng.normal((3, 4))
        yield "mul", lambda x: T.tsum(T.mul(x, other)), rng.normal((3, 4))
        yield "relu", lambda x: T.tsum(T.mul(T.relu(x), other)), relu_in
        yield "power", lambda x: T.tsum(T.power(x, -0.5)), rng.uniform((2, 3), 0.5, 2.0)
        yield "sum", lambda x: T.tsum(T.mul(T.tsum(x, axis=0, keepdims=True), sum_probe)), rng.normal((3, 4))
        yield "mean", lambda x: T.tsum(T.mul(T.tmean(x, axis=(0, 2)), mean_probe)), rng.normal((2, 3, 2))
        yield "matmul", lambda x: T.tsum(T.mul(T.matmul(x, matmul_rhs), other22)), rng.normal((2, 4))
        yield "transpose", lambda x: T.tsum(T.mul(T.transpose(x, (1, 0)), transpose_probe)), rng.normal((3, 4))
        yield "reshape", lambda x: T.tsum(T.mul(T.reshape(x, (2, 6)), reshape_probe)), rng.normal((3, 4))
        yield "concat", lambda x: T.tsum(T.mul(T.concat([x, x], axis=1), concat_probe)), rng.normal((3, 4))
        yield "softmax", lambda x: T.tsum(T.mul(T.softmax(x, axis=1), other)), rng.normal((3, 4))
        yield "logsumexp", lambda x: T.tsum(T.logsumexp(x, axis=1)), rng.normal((3, 4))
        yield "l2_normalize", lambda x: T.tsum(T.mul(T.l2_normalize(x, axis=1), other)), rng.normal((3, 4))
        yield "conv2d_x", lambda x: T.tsum(T.mul(T.conv2d(x, Tensor(conv_w), stride=1, padding=1), conv_x_probe)), conv_x
        yield "conv2d_w", lambda w: T.tsum(T.mul(T.conv2d(Tensor(conv_x), w, stride=2, padding=1), conv_w_probe)), conv_w
        yield "pool", lambda q: T.tsum(T.mul(pool_many(Tensor(pool_vals), T.reshape(q, (1, 4)), normalize=True), pool_probe)), rng.normal(4)
        yield "hr_align_loss", lambda a: hr_align_loss(
            AlignmentBatchFeatures(Tensor(human), Tensor(frozen), a)
        ), _unit_rows(rng, 3, 4)
        for name, x0 in mlp.items():
            yield f"mlp_mse_{name}", mlp_mse_of(name), x0

    checked = 0
    for seed in range(AUDIT_SEEDS):
        for name, build, x0 in audits_for(1000 + seed):
            check_grad_against_fd(build, x0, tol=1e-6)
            checked += 1
    # the loss audited through the full encode/adapt/pool pipeline
    for seed in range(AUDIT_SEEDS):
        rng = RngState(2000 + seed)
        backbone = Backbone.create(rng, channels=(3, 4, 4), strides=(2, 1)).freeze()
        stack = AdapterStack.for_positions("L", backbone, 2, rng)
        frames = rng.uniform((2, 2, 8, 8, 3))  # two clips of two frames
        texts_bags = Tensor(rng.normal((2, 4)))
        human_feat = encode_batch(backbone, rng.uniform((4, 8, 8, 3)))
        up0 = stack.blocks[backbone.n_blocks]
        up0.up_w.data = rng.normal(up0.up_w.shape) * 0.2

        def pipeline(up_w):
            live = AdapterBlock(
                down_w=Tensor(up0.down_w.data),
                down_b=Tensor(up0.down_b.data),
                up_w=up_w,
                up_b=Tensor(up0.up_b.data),
                channels=up0.channels,
                bottleneck=up0.bottleneck,
            )
            adapted = encode_batch(
                backbone, frames.reshape(4, 8, 8, 3), {backbone.n_blocks: live}
            )
            n, h, w, c = adapted.shape
            adapted_pooled = pool_many(
                T.reshape(adapted, (2, 2 * h * w, c)), texts_bags, normalize=True
            )
            hn, hh, hw, hc = human_feat.shape
            human_pooled = pool_many(
                T.reshape(human_feat, (2, 2 * hh * hw, hc)), texts_bags.detach(), normalize=True
            ).detach()
            return hr_align_loss(
                AlignmentBatchFeatures(human_pooled, human_pooled, adapted_pooled)
            )

        check_grad_against_fd(pipeline, up0.up_w.data.copy(), tol=1e-6)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"gradient audit took {elapsed:.1f}s"
    print(
        f"PASS criterion 1: gradient audit, {checked} checks over {AUDIT_SEEDS} seeds, "
        f"rel err < 1e-6, {elapsed:.1f}s"
    )


def test_criterion_2_closed_form_loss_anchor():
    worst = 0.0
    for seed in range(10):
        rng = RngState(300 + seed)
        human = _unit_rows(rng, 1, 16)
        frozen = _unit_rows(rng, 1, 16)
        batch = AlignmentBatchFeatures(
            Tensor(human), Tensor(frozen), Tensor(frozen.copy(), requires_grad=True)
        )
        worst = max(worst, abs(hr_align_loss(batch).item() - math.log(2.0)))
    assert worst < 1e-9
    print(f"PASS criterion 2: M=1 identity-adapter loss = ln 2, max err {worst:.2e}")


def test_criterion_3_identity_at_init():
    backbone = Backbone.create(RngState(77)).freeze()
    positions = ("E", "M", "L", "EML")
    rng = RngState(78)
    for i in range(100):
        stack = AdapterStack.for_positions(positions[i % 4], backbone, 4, rng)
        frames = rng.uniform((3, 16, 16, 3))
        frozen = encode_batch(backbone, frames)
        adapted = encode_batch(backbone, frames, stack.blocks)
        assert np.array_equal(adapted.data, frozen.data), f"clip {i}"
    print("PASS criterion 3: zero up-projection == frozen stream, bitwise, 100 clips")


def test_criterion_4_frozen_backbone_and_learnable_set(reference_run):
    checkpoint, _, snapshot = reference_run
    for name, tensor in checkpoint.backbone.named_parameters().items():
        assert np.array_equal(tensor.data, snapshot[name]), name
    learnable = set(learnable_parameters(checkpoint))
    expected = set(checkpoint.stack.named_parameters()) | set(
        checkpoint.embedder.named_parameters()
    )
    assert learnable == expected
    assert all(n.startswith(("adapter.", "query.")) for n in learnable)
    print(
        f"PASS criterion 4: reference run left backbone bitwise frozen; "
        f"learnable set = adapters + query projection ({len(learnable)} tensors)"
    )


def test_criterion_5_alignment_improvement(reference_arms):
    adapted, frozen = reference_arms["L"].retrieval, reference_arms["frozen"].retrieval
    metrics = reference_arms["L"].metrics
    assert (adapted.tag, frozen.tag) == ("adapted", "frozen")
    margin = adapted.r2h_recall1 - frozen.r2h_recall1
    assert margin >= 0.2, f"recall@1 margin {margin:.3f} < 0.2"
    assert metrics.losses[-1] < metrics.losses[0]
    print(
        f"PASS criterion 5: adapted r2h recall@1 {adapted.r2h_recall1:.3f} vs frozen "
        f"{frozen.r2h_recall1:.3f} (margin {margin:.3f} >= 0.2); "
        f"loss {metrics.losses[0]:.3f} -> {metrics.losses[-1]:.3f}"
    )


def test_criterion_6_downstream_ordinal(reference_arms):
    adapted, frozen = reference_arms["L"].downstream, reference_arms["frozen"].downstream
    assert (adapted.tag, frozen.tag) == ("adapted", "frozen")
    assert adapted.probe_accuracy >= frozen.probe_accuracy
    assert adapted.bc_mse <= frozen.bc_mse
    print(
        f"PASS criterion 6: probe {adapted.probe_accuracy:.3f} >= {frozen.probe_accuracy:.3f}; "
        f"bc mse {adapted.bc_mse:.5f} <= {frozen.bc_mse:.5f}"
    )


def test_criterion_7_baseline_structure(reference_split, reference_backbone, reference_arms):
    train, _ = reference_split
    pret, cls = reference_arms["pret_ft"], reference_arms["cls_ft"]
    backbone_size = sum_param_sizes(reference_backbone.named_parameters())
    for run in (pret, cls):
        assert len(run.metrics.rows) == 120  # ran to completion
        # the optimizer moments record exactly what trained
        trained_backbone = sum(
            v.size for n, v in run.checkpoint.adam.m.items() if n.startswith("backbone.")
        )
        assert trained_backbone == backbone_size
    assert pret.metrics.losses[-1] < pret.metrics.losses[0]
    acc = classification_accuracy(cls.checkpoint, train)
    assert acc > 1.0 / 8.0, f"cls training accuracy {acc:.3f} not above chance"

    checkpoint = reference_arms["L"].checkpoint
    counts = count_learnable(checkpoint.stack, checkpoint.embedder)
    ratio = counts.adapter / sum_param_sizes(checkpoint.backbone.named_parameters())
    assert ratio < 0.10, f"adaptation footprint {ratio:.3f} >= 10%"
    print(
        f"PASS criterion 7: baselines complete with full-backbone counts "
        f"({backbone_size} params, cls acc {acc:.3f} > chance); adapter footprint "
        f"{counts.adapter}/{backbone_size} = {ratio:.3%} < 10% "
        f"(total learnable incl. projection: {counts.adapter + counts.projection})"
    )


def test_criterion_8_ablation_grid(reference_grid, reference_backbone):
    runs, _ = reference_grid
    ablation_runs = [run for run in runs if run.checkpoint.stack is not None]
    assert len(ablation_runs) == 5
    names = [run.name for run in ablation_runs]
    assert names == ["E", "M", "L", "EML", "L_nolang"]
    # independent size-sum oracle for the counts, then strict ordering
    oracle = {
        run.name: sum_param_sizes(run.checkpoint.stack.named_parameters())
        for run in ablation_runs
    }
    for run in ablation_runs:
        assert run.row["adapter_params"] == oracle[run.name]
    assert oracle["E"] < oracle["L"] < oracle["M"] < oracle["EML"]
    by_name = {run.name: run for run in ablation_runs}
    lang = by_name["L"].row["r2h_recall1"]
    nolang = by_name["L_nolang"].row["r2h_recall1"]
    assert nolang <= lang, f"no-language {nolang:.3f} > language {lang:.3f}"
    reference = {n: t.data for n, t in reference_backbone.named_parameters().items()}
    for run in ablation_runs:
        for name, tensor in run.checkpoint.backbone.named_parameters().items():
            assert np.array_equal(tensor.data, reference[name])
    print(
        f"PASS criterion 8: 5 runs; counts E {oracle['E']} < L {oracle['L']} < "
        f"M {oracle['M']} < EML {oracle['EML']}; no-language recall@1 {nolang:.3f} "
        f"<= language {lang:.3f}; backbones bitwise frozen"
    )


def test_criterion_9_determinism_and_persistence(
    reference_split, reference_backbone, tmp_path
):
    train, _ = reference_split
    config = TrainConfig(steps=12)
    ckpt_a, metrics_a = train_hr_align(config, train, reference_backbone)
    ckpt_b, metrics_b = train_hr_align(config, train, reference_backbone)
    assert metrics_a.deterministic_text() == metrics_b.deterministic_text()
    path_a, path_b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    ckpt_a.save(path_a)
    ckpt_b.save(path_b)
    assert Path(path_a).read_bytes() == Path(path_b).read_bytes()

    part, _ = train_hr_align(TrainConfig(steps=7), train, reference_backbone)
    part_path = str(tmp_path / "part.ckpt")
    part.save(part_path)
    resumed, _ = train_hr_align(
        TrainConfig(steps=12), train, reference_backbone, resume=ModelCheckpoint.load(part_path)
    )
    resumed_path = str(tmp_path / "resumed.ckpt")
    resumed.save(resumed_path)
    assert Path(path_a).read_bytes() == Path(resumed_path).read_bytes()

    pairs = generate_paired_set(RngState(7), 3, 4, 0.7)
    m1 = str(tmp_path / "ds1" / "manifest.json")
    m2 = str(tmp_path / "ds2" / "manifest.json")
    os.makedirs(os.path.dirname(m1)), os.makedirs(os.path.dirname(m2))
    save_manifest(pairs, m1)
    loaded = load_manifest(m1)
    for a, b in zip(pairs, loaded):
        assert np.array_equal(a.human.frames, b.human.frames)
        assert np.array_equal(a.robot.frames, b.robot.frames)
    save_manifest(loaded, m2)
    assert Path(m1).read_bytes() == Path(m2).read_bytes()
    for entry in sorted(os.listdir(os.path.join(os.path.dirname(m1), "clips"))):
        b1 = Path(os.path.dirname(m1), "clips", entry).read_bytes()
        b2 = Path(os.path.dirname(m2), "clips", entry).read_bytes()
        assert b1 == b2
    print(
        "PASS criterion 9: metrics + checkpoints bitwise reproducible; resume == "
        "uninterrupted; manifest round-trip bitwise"
    )


def test_criterion_10_oracle_equivalence():
    worst = 0.0
    for seed in range(100):
        rng = RngState(5000 + seed)
        m = 1 + rng.randint(4)
        c = 4 + rng.randint(5)
        scale = float(rng.uniform(1, 0.2, 1.0)[0])  # feature norms <= 1
        human = _unit_rows(rng, m, c) * scale
        frozen = _unit_rows(rng, m, c) * scale
        adapted = _unit_rows(rng, m, c) * scale
        ours = hr_align_loss(
            AlignmentBatchFeatures(Tensor(human), Tensor(frozen), Tensor(adapted))
        ).item()
        reference = naive_hr_align_loss(human, frozen, adapted, 0.1)
        worst = max(worst, abs(ours - reference))
    assert worst < 1e-9
    print(f"PASS criterion 10: log-space vs naive oracle, 100 batches, max err {worst:.2e}")
