import csv
import os

import numpy as np
import pytest

from helpers import fail_writes_partway, mean_within_task_distance, task_compactness_ratio
from hralign import evaluation
from hralign.dataset import generate_paired_set, split_pairs
from hralign.encoder import Backbone, pretext_pretrain
from hralign.evaluation import (
    RetrievalReport,
    dump_embeddings,
    embed_pairs,
    eval_downstream,
    eval_retrieval,
    train_linear_probe,
)
from hralign.rng import RngState
from hralign.trainer import ModelCheckpoint, TrainConfig, train_hr_align


@pytest.fixture(scope="module")
def small_ckpt():
    pairs = generate_paired_set(RngState(41), 3, 8, 0.6)
    train, heldout = split_pairs(pairs, 0.25)
    backbone, _ = pretext_pretrain(RngState(41), [p.human for p in train], epochs=2, lr=3e-6)
    checkpoint, _ = train_hr_align(
        TrainConfig(steps=10, batch_size=4, seed=41), train, backbone
    )
    return pairs, train, heldout, checkpoint


def test_report_validates_ranges():
    with pytest.raises(ValueError):
        RetrievalReport("x", 1.2, 1.0, 0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        RetrievalReport("x", 0.8, 0.5, 0.5, 0.5, 0.5, 0.5)  # recall@5 < recall@1


def test_recall5_at_least_recall1(small_ckpt):
    _, _, heldout, checkpoint = small_ckpt
    for adapted in (True, False):
        report = eval_retrieval(checkpoint, heldout, adapted=adapted)
        assert report.r2h_recall5 >= report.r2h_recall1
        assert report.h2r_recall5 >= report.h2r_recall1
        assert 0.0 <= report.r2h_mrr <= 1.0


def test_retrieval_requires_two_pairs(small_ckpt):
    _, _, heldout, checkpoint = small_ckpt
    with pytest.raises(ValueError):
        eval_retrieval(checkpoint, heldout[:1])


def test_gap_zero_perfect_recall():
    pairs = generate_paired_set(RngState(43), 3, 4, 0.0)
    backbone = Backbone.create(RngState(43)).freeze()
    checkpoint = ModelCheckpoint(config=TrainConfig(steps=0), backbone=backbone)
    for adapted in (False, True):
        report = eval_retrieval(checkpoint, pairs, adapted=adapted)
        assert report.r2h_recall1 == 1.0
        assert report.h2r_recall1 == 1.0


def test_identity_adapter_matches_frozen_embeddings(small_ckpt):
    pairs, train, _, _ = small_ckpt
    backbone = Backbone.create(RngState(44)).freeze()
    fresh, _ = train_hr_align(TrainConfig(steps=0, batch_size=4, seed=44), train, backbone)
    human_a, robot_a = embed_pairs(fresh, train[:4], adapted=False)
    assert np.isfinite(human_a).all() and np.isfinite(robot_a).all()


def test_permutation_null_recall_near_chance():
    """Signal-free features: recall@1 must sit at the 1/N level."""
    from hralign.evaluation import _retrieval_stats

    n = 64
    hits = []
    for seed in range(20):
        rng = RngState(1000 + seed)
        human = rng.normal((n, 32))
        robot = rng.normal((n, 32))  # independent of human: pairing is arbitrary
        recall1, _, _ = _retrieval_stats(robot @ human.T)
        hits.append(recall1)
    mean_recall = float(np.mean(hits))
    # chance is 1/64 ~ 0.0156; 20x64 trials keep the estimate tight
    assert abs(mean_recall - 1.0 / n) < 3.0 / n


def test_downstream_probe_oracle_features():
    """One-hot label features must be perfectly separable."""
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2])
    feats = np.eye(3)[labels]
    acc = train_linear_probe(feats[:9], labels[:9], feats[9:], labels[9:], 3)
    assert acc == 1.0


def test_downstream_probe_shuffled_labels_near_chance():
    rng = RngState(45)
    feats = rng.normal((120, 16))
    labels = np.array([i % 3 for i in range(120)])
    shuffled = labels[rng.permutation(120)]
    acc = train_linear_probe(feats[:90], shuffled[:90], feats[90:], shuffled[90:], 3)
    assert acc < 0.65  # chance is 1/3; random features stay near it


def test_eval_downstream_reports(small_ckpt):
    pairs, _, _, checkpoint = small_ckpt
    robot = [p.robot for p in pairs]
    report = eval_downstream(checkpoint, robot, adapted=True)
    assert 0.0 <= report.probe_accuracy <= 1.0
    assert report.bc_mse >= 0.0
    assert 0.0 <= report.success_rate <= 1.0
    assert report.n_train_clips + report.n_heldout_clips == len(robot)


def test_eval_downstream_holds_out_the_robot_clips_of_split_pairs(small_ckpt, monkeypatch):
    """The probe scores exactly the robot clips of split_pairs' held-out
    pairs, whatever order the clips arrive in, and each clip is encoded once."""
    pairs, _, heldout, checkpoint = small_ckpt
    probe, frame_features = evaluation.train_linear_probe, evaluation._frame_features
    scored, encoded = {}, []

    def spy_probe(train_x, train_y, test_x, test_y, n_classes):
        scored["x"], scored["y"] = test_x, test_y
        return probe(train_x, train_y, test_x, test_y, n_classes)

    def spy_features(ckpt, clip, adapted):
        encoded.append(clip.pair_id)
        return frame_features(ckpt, clip, adapted)

    monkeypatch.setattr(evaluation, "train_linear_probe", spy_probe)
    monkeypatch.setattr(evaluation, "_frame_features", spy_features)
    robot = [p.robot for p in reversed(pairs)]
    report = eval_downstream(checkpoint, robot, adapted=True)
    assert sorted(encoded) == sorted(p.pair_id for p in pairs)
    assert report.n_heldout_clips == len(heldout)
    expected = [frame_features(checkpoint, p.robot, True).mean(axis=0) for p in heldout]
    assert np.array_equal(scored["x"], np.stack(expected))
    assert scored["y"].tolist() == [p.task_id for p in heldout]  # tasks 0..2 are classes 0..2


def test_eval_downstream_rejects_human_clips(small_ckpt):
    pairs, _, _, checkpoint = small_ckpt
    with pytest.raises(ValueError, match="robot"):
        eval_downstream(checkpoint, [pairs[0].human])


def test_eval_downstream_requires_latents(small_ckpt):
    pairs, _, _, checkpoint = small_ckpt
    robot = [p.robot for p in pairs]
    stripped = []
    import dataclasses

    for clip in robot:
        stripped.append(dataclasses.replace(clip, positions=None, gripper=None))
    with pytest.raises(ValueError, match="latent"):
        eval_downstream(checkpoint, stripped)


def test_eval_does_not_mutate_checkpoint_file(small_ckpt, tmp_path):
    pairs, _, heldout, checkpoint = small_ckpt
    path = str(tmp_path / "model.ckpt")
    checkpoint.save(path)
    before = open(path, "rb").read()
    reloaded = ModelCheckpoint.load(path)
    eval_retrieval(reloaded, heldout, adapted=True)
    eval_downstream(reloaded, [p.robot for p in pairs], adapted=True)
    reloaded.save(path)
    assert open(path, "rb").read() == before


def test_dump_embeddings_schema(small_ckpt, tmp_path):
    pairs, _, _, checkpoint = small_ckpt
    clips = [p.human for p in pairs[:3]] + [p.robot for p in pairs[:3]]
    descriptions = {p.pair_id: p.description.text for p in pairs[:3]}
    path = str(tmp_path / "emb.csv")
    dump_embeddings(checkpoint, clips, path, descriptions=descriptions, adapted=True)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    width = checkpoint.backbone.out_channels
    assert rows[0] == ["clip_id", "task_id", "domain", "adapted"] + [f"f{i}" for i in range(width)]
    assert len(rows) == 1 + len(clips)
    assert rows[1][0].endswith("_human")
    values = np.array([float(v) for v in rows[1][4:]])
    assert np.isfinite(values).all()


def test_dump_embeddings_failing_partway_keeps_previous_file(small_ckpt, tmp_path, monkeypatch):
    pairs, _, _, checkpoint = small_ckpt
    path = str(tmp_path / "emb.csv")
    dump_embeddings(checkpoint, [pairs[0].human], path)
    before = open(path, "rb").read()
    fail_writes_partway(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        dump_embeddings(checkpoint, [p.robot for p in pairs[:3]], path)
    monkeypatch.undo()
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["emb.csv"]


def test_dump_embeddings_empty(small_ckpt, tmp_path):
    _, _, _, checkpoint = small_ckpt
    path = str(tmp_path / "empty.csv")
    dump_embeddings(checkpoint, [], path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1  # header only


def test_mean_within_task_distance():
    emb = np.array([[0.0, 0.0], [0.0, 2.0], [5.0, 0.0], [9.0, 0.0]])
    tasks = np.array([0, 0, 1, 1])
    assert mean_within_task_distance(emb, tasks) == pytest.approx(3.0)


def test_task_compactness_ratio_ordering():
    tight = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.1, 0.0]])
    loose = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
    tasks = np.array([0, 0, 1, 1])
    assert task_compactness_ratio(tight, tasks) < task_compactness_ratio(loose, tasks)


def test_reference_adapted_features_cluster_by_task(reference_run, reference_split):
    """The adapted embedding cloud groups by task much more tightly than
    the frozen one (the embedding-dump compactness check)."""
    from hralign.evaluation import embed_clip

    checkpoint, _, _ = reference_run
    _, heldout = reference_split
    clips = [p.robot for p in heldout]
    descs = {p.pair_id: p.description.text for p in heldout}
    adapted = np.stack(
        [embed_clip(checkpoint, c, descs[c.pair_id], adapted=True) for c in clips]
    )
    frozen = np.stack(
        [embed_clip(checkpoint, c, descs[c.pair_id], adapted=False) for c in clips]
    )
    tids = np.array([c.task_id for c in clips])
    assert task_compactness_ratio(adapted, tids) <= task_compactness_ratio(frozen, tids)
