import csv
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    clip_embedding,
    composite_bc_head,
    fail_writes_partway,
    frame_features,
    mean_within_task_distance,
    small_checkpoint,
    task_compactness_ratio,
)
from hralign import encoder, evaluation
from hralign.alignment import pool_many
from hralign.dataset import FRAMES_PER_CLIP, generate_paired_set, split_pairs
from hralign.encoder import CLIP_CHUNK, Backbone, encode_batch, pretext_pretrain
from hralign.evaluation import (
    RetrievalReport,
    dump_embeddings,
    eval_downstream,
    eval_retrieval,
    train_linear_probe,
)
from hralign.optim import fit
from hralign.rng import RngState
from hralign.tensor import NumericError
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
    checkpoint = ModelCheckpoint.start(evaluation.arm_config(TrainConfig(), "frozen"), backbone)
    for adapted in (False, True):
        report = eval_retrieval(checkpoint, pairs, adapted=adapted)
        assert report.r2h_recall1 == 1.0
        assert report.h2r_recall1 == 1.0


def test_all_zero_embeddings_rank_every_true_match_behind_its_ties(small_ckpt):
    """A tie is not a hit. A last-block bias of -1000 makes the ReLU output
    zero, so every clip embeds as the zero vector and every score ties: each
    true match ranks behind all n - 1 other candidates."""
    _, _, heldout, _ = small_ckpt
    backbone = Backbone.create(RngState(45)).freeze()
    last = backbone.blocks[-1].b
    last.data = np.full_like(last.data, -1000.0)
    checkpoint = ModelCheckpoint.start(evaluation.arm_config(TrainConfig(), "frozen"), backbone)
    assert not clip_embedding(checkpoint, heldout[0].robot, "", adapted=False).any()
    n = len(heldout)
    assert n > 5
    report = eval_retrieval(checkpoint, heldout, adapted=False)
    assert (report.r2h_recall1, report.r2h_recall5, report.h2r_recall1, report.h2r_recall5) == (
        0.0, 0.0, 0.0, 0.0
    )
    assert report.r2h_mrr == pytest.approx(1 / n) and report.h2r_mrr == pytest.approx(1 / n)


def test_retrieval_rejects_a_nan_score():
    scores = np.eye(3)
    scores[1, 2] = np.nan
    with pytest.raises(NumericError, match="NaN score"):
        evaluation._retrieval_stats(scores)


# Score matrices for the metamorphic properties: coarse values make ties
# (which rank against the true match), and no finite value comes near
# underflow, so a power-of-two scale moves no comparison.
_SCORES = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.lists(
        st.one_of(
            st.integers(min_value=-8, max_value=8).map(lambda v: v / 8),
            st.floats(min_value=-10, max_value=10).filter(lambda v: v == 0 or abs(v) > 1e-100),
        ),
        min_size=n * n,
        max_size=n * n,
    ).map(lambda values: np.array(values).reshape(n, n))
)


@settings(deadline=None, max_examples=60)
@given(_SCORES, st.randoms(use_true_random=False))
def test_retrieval_stats_ignore_the_order_of_the_pairs(scores, random):
    """Permuting the pairs permutes rows and columns together: each pair
    keeps its rank, so the recalls are bitwise equal and MRR, a mean in
    another order, equal to within rounding."""
    order = list(range(len(scores)))
    random.shuffle(order)
    before, after = (evaluation._retrieval_stats(m) for m in (scores, scores[np.ix_(order, order)]))
    assert after[:2] == before[:2]
    assert abs(after[2] - before[2]) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(_SCORES, st.lists(st.floats(min_value=-20, max_value=20), min_size=9, max_size=9))
def test_retrieval_stats_never_rise_for_a_decoy_candidate(scores, decoy):
    """A candidate column no row is matched to can only tie or outscore
    a true match, never lower its rank."""
    column = np.array(decoy[: len(scores)])[:, None]
    before = evaluation._retrieval_stats(scores)
    after = evaluation._retrieval_stats(np.concatenate([scores, column], axis=1))
    assert all(a <= b for a, b in zip(after, before))


@settings(deadline=None, max_examples=60)
@given(_SCORES, st.integers(min_value=-40, max_value=40))
def test_retrieval_stats_ignore_a_power_of_two_scale(scores, exponent):
    """Scaling by 2**k is exact here, so every comparison and every number
    stays bitwise the same."""
    assert evaluation._retrieval_stats(scores * 2.0**exponent) == evaluation._retrieval_stats(scores)


# The least gap between a true match's score and any other score in its
# row or column that the orthogonal-map property admits: far above the
# ~1e-13 a map moves a score of these sizes by in rounding, so no
# comparison can flip.
_ORTHOGONAL_MARGIN = 1e-9


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 9), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_retrieval_stats_ignore_one_orthogonal_map_of_both_streams(n, dim, seed):
    """Rotating or reflecting the robot and the human embeddings alike keeps
    every dot product up to rounding, so on scores whose gaps exceed the
    margin each true match keeps its rank: the recalls are equal and MRR is
    equal to within 1e-12."""
    rng = RngState(seed)
    robot, human = rng.normal((n, dim)), rng.normal((n, dim))
    scores = robot @ human.T
    diag, off = np.diag(scores), ~np.eye(n, dtype=bool)
    gaps = np.concatenate([(scores - diag[:, None])[off], (scores - diag[None, :])[off]])
    assume(np.abs(gaps).min() > _ORTHOGONAL_MARGIN)
    q, _ = np.linalg.qr(rng.derive("map").normal((dim, dim)))
    mapped = (robot @ q) @ (human @ q).T
    for before, after in ((scores, mapped), (scores.T, mapped.T)):
        want, got = evaluation._retrieval_stats(before), evaluation._retrieval_stats(after)
        assert got[:2] == want[:2]
        assert abs(got[2] - want[2]) <= 1e-12


def _dumped(checkpoint, pairs, adapted, path) -> np.ndarray:
    """The f-columns ``dump_embeddings`` writes for the pairs' human then
    robot clips; ``repr`` round-trips each float exactly."""
    clips = [p.human for p in pairs] + [p.robot for p in pairs]
    descriptions = {p.pair_id: p.description.text for p in pairs}
    dump_embeddings(checkpoint, clips, str(path), descriptions, adapted=adapted)
    with open(path, newline="") as fh:
        return np.array([[float(v) for v in row[4:]] for row in list(csv.reader(fh))[1:]])


def test_identity_adapter_matches_frozen_embeddings(small_ckpt, tmp_path):
    pairs, train, _, _ = small_ckpt
    backbone = Backbone.create(RngState(44)).freeze()
    config = TrainConfig(steps=0, batch_size=4, seed=44, use_language=False)
    fresh, _ = train_hr_align(config, train, backbone)
    frozen = _dumped(fresh, train[:4], False, tmp_path / "frozen.csv")
    assert frozen.shape == (8, backbone.out_channels) and np.isfinite(frozen).all()
    # no query projection: uniform pooling, so only the identity adapters differ
    assert np.array_equal(_dumped(fresh, train[:4], True, tmp_path / "adapted.csv"), frozen)


# the distinct (adapter_positions, use_language) pairs of the arms, in ARMS order
ARM_PARTS = list(dict.fromkeys((s["adapter_positions"], s["use_language"]) for s in evaluation.ARMS.values()))


@pytest.mark.parametrize("adapted", [True, False], ids=["adapted", "frozen"])
@pytest.mark.parametrize("positions, language", ARM_PARTS)
def test_chunked_encode_equals_one_call_per_clip(small_pairs, tmp_path, monkeypatch, positions, language, adapted):
    """Retrieval, the dump and downstream encode at most CLIP_CHUNK clips
    per encode_batch call, each clip once, bitwise equal to one call per
    clip, for the parts of every arm and for clip counts that are not a
    multiple of the chunk (7 pairs, 14 dumped clips, 18 robot clips)."""
    checkpoint = small_checkpoint(positions, language, seed=5)
    pairs = small_pairs[:7]
    calls, pooled = [], []

    def spy(backbone, frames, *args, **kwargs):
        calls.append(frames)
        return encode_batch(backbone, frames, *args, **kwargs)

    def spy_pool(*args, **kwargs):
        out = pool_many(*args, **kwargs)
        pooled.append(out.data)
        return out

    human, robot = (
        np.stack([clip_embedding(checkpoint, getattr(p, side), p.description.text, adapted) for p in pairs])
        for side in ("human", "robot")
    )
    robot_clips = [p.robot for p in small_pairs]
    train, held = split_pairs(robot_clips)
    ordered = train + held
    expected = [frame_features(checkpoint, clip, adapted) for clip in ordered]
    monkeypatch.setattr(encoder, "encode_batch", spy)
    dumped = _dumped(checkpoint, pairs, adapted, tmp_path / "emb.csv")
    assert np.array_equal(dumped, np.concatenate([human, robot]))
    assert [len(frames) // FRAMES_PER_CLIP for frames in calls] == [4, 4, 4, 2]
    assert all(len(frames) % FRAMES_PER_CLIP == 0 for frames in calls)

    report = eval_retrieval(checkpoint, pairs, adapted=adapted)
    scores = robot @ human.T
    r2h, h2r = evaluation._retrieval_stats(scores), evaluation._retrieval_stats(scores.T)
    assert (report.r2h_recall1, report.r2h_recall5, report.r2h_mrr) == r2h
    assert (report.h2r_recall1, report.h2r_recall5, report.h2r_mrr) == h2r

    # downstream: one call per chunk of whole clips in split order, each
    # clip's map pooled per frame on its own
    monkeypatch.setattr(evaluation, "train_linear_probe", lambda *a, **k: 0.0)
    monkeypatch.setattr(evaluation, "train_bc_head", lambda x, y, seed: lambda f: np.zeros((len(f), 2)))
    monkeypatch.setattr(evaluation, "pool_many", spy_pool)
    calls.clear()
    eval_downstream(checkpoint, robot_clips, adapted=adapted)
    assert len(calls) == math.ceil(len(robot_clips) / CLIP_CHUNK) == 5
    chunks = [ordered[i : i + CLIP_CHUNK] for i in range(0, len(ordered), CLIP_CHUNK)]
    assert all(np.array_equal(f, np.concatenate([c.frames for c in chunk])) for f, chunk in zip(calls, chunks))
    assert len(pooled) == len(expected)
    assert all(np.array_equal(out, e) for out, e in zip(pooled, expected))


def test_run_arms_saves_each_arm_as_its_row_names_it(small_pairs, tmp_path, monkeypatch):
    """Every arm trains through ``train`` and its saved checkpoint's header
    names the parts its row does; the frozen arm's once claimed the base
    config's L adapters and query projection. The frozen arm encodes
    bitwise as the backbone it was given."""
    monkeypatch.setattr(evaluation, "train_linear_probe", lambda *a, **k: 0.0)
    monkeypatch.setattr(evaluation, "train_bc_head", lambda x, y, seed: lambda f: np.zeros((len(f), 2)))
    train, heldout = split_pairs(small_pairs)
    backbone = Backbone.create(RngState(6)).freeze()
    base = TrainConfig(steps=2, batch_size=4, out_dir=str(tmp_path / "arms"))
    runs = evaluation.run_arms(base, train, heldout, backbone)
    assert [run.name for run in runs] == list(evaluation.ARMS)
    for run in runs:
        checkpoint = ModelCheckpoint.load(str(tmp_path / "arms" / run.name / "model.ckpt"))
        config = checkpoint.config
        assert (config.adapter_positions, config.use_language) == (
            run.row["adapter_positions"], run.row["use_language"]
        ), run.name
        assert bool(checkpoint.blocks) == (config.adapter_positions != "none"), run.name
        assert bool(checkpoint.query) == config.use_language, run.name
    frozen = ModelCheckpoint.load(str(tmp_path / "arms" / "frozen" / "model.ckpt"))
    assert (frozen.step, frozen.adam.m, frozen.blocks, frozen.query) == (0, {}, {}, {})
    given = ModelCheckpoint.start(frozen.config, backbone)
    assert np.array_equal(
        _dumped(frozen, heldout, True, tmp_path / "frozen.csv"),
        _dumped(given, heldout, False, tmp_path / "given.csv"),
    )


@pytest.mark.parametrize(
    "positions, language, tags, unadapted",
    [
        ("L", False, ("adapted", "adapted"), "frozen"),
        ("none", True, ("adapted", "frozen"), "frozen"),
        ("none", False, ("fine-tuned", "fine-tuned"), "fine-tuned"),  # a cls_baseline checkpoint
    ],
)
def test_reports_tag_what_took_part_in_the_encode(small_pairs, positions, language, tags, unadapted):
    """Retrieval is adapted when adapter blocks or the query projection
    encode; downstream never pools by query, so only adapter blocks count.
    Otherwise a backbone a baseline trained is fine-tuned, else frozen."""
    checkpoint = small_checkpoint(positions, language, seed=5)
    pairs = small_pairs[:4]
    robot = [p.robot for p in pairs]
    for adapted, want in ((True, tags), (False, (unadapted, unadapted))):
        retrieval = eval_retrieval(checkpoint, pairs, adapted)
        assert (retrieval.tag, eval_downstream(checkpoint, robot, adapted).tag) == want


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
    assert report.n_train_clips + report.n_heldout_clips == len(robot)


# (probe_accuracy, bc_mse) of every reference arm as float.hex, recorded when
# the open-loop "success" column and its tube loop left eval_downstream: the
# two numbers downstream keeps are bitwise those of the report that had it.
REFERENCE_DOWNSTREAM = {
    "E": ("0x1.2800000000000p-1", "0x1.60e6e218f51d8p-8"),
    "M": ("0x1.3800000000000p-1", "0x1.45cb5ccd0b18ep-8"),
    "L": ("0x1.4800000000000p-1", "0x1.505ea49ba6338p-8"),
    "EML": ("0x1.3800000000000p-1", "0x1.74aed21fe599ap-8"),
    "L_nolang": ("0x1.3000000000000p-1", "0x1.797cef80ff9e1p-8"),
    "frozen": ("0x1.2800000000000p-1", "0x1.7a48bdf2fec4fp-8"),
    "pret_ft": ("0x1.8000000000000p-1", "0x1.4ca5e34e3d79ap-8"),
    "cls_ft": ("0x1.5000000000000p-1", "0x1.40aa365650228p-8"),
    "Q": ("0x1.2800000000000p-1", "0x1.7a48bdf2fec4fp-8"),
}


def test_reference_downstream_numbers_are_pinned(reference_arms):
    assert {
        arm: (run.downstream.probe_accuracy.hex(), run.downstream.bc_mse.hex())
        for arm, run in reference_arms.items()
    } == REFERENCE_DOWNSTREAM


def test_eval_downstream_holds_out_the_robot_clips_of_split_pairs(small_ckpt, monkeypatch):
    """The probe scores exactly the robot clips of split_pairs' held-out
    pairs, whatever order the clips arrive in, and each clip is encoded once."""
    pairs, _, heldout, checkpoint = small_ckpt
    probe = evaluation.train_linear_probe
    scored, encoded = {}, []

    def spy_probe(train_x, train_y, test_x, test_y, n_classes):
        scored["x"], scored["y"] = test_x, test_y
        return probe(train_x, train_y, test_x, test_y, n_classes)

    def spy_encode(backbone, frames, *args, **kwargs):
        encoded.append(frames)
        return encode_batch(backbone, frames, *args, **kwargs)

    monkeypatch.setattr(evaluation, "train_linear_probe", spy_probe)
    monkeypatch.setattr(encoder, "encode_batch", spy_encode)
    robot = [p.robot for p in reversed(pairs)]
    report = eval_downstream(checkpoint, robot, adapted=True)
    train, held = split_pairs(robot)
    assert np.array_equal(np.concatenate(encoded), np.concatenate([c.frames for c in train + held]))
    assert sorted(c.pair_id for c in train + held) == sorted(p.pair_id for p in pairs)
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


def test_eval_downstream_checks_every_latent_before_encoding(small_ckpt, monkeypatch):
    """A manifest may leave out latents; downstream finds the clip that
    does (here the last held-out one) before it encodes anything."""
    import dataclasses

    pairs, _, _, checkpoint = small_ckpt
    robot = [p.robot for p in pairs]
    last = split_pairs(robot)[1][-1]
    robot = [dataclasses.replace(c, positions=None) if c is last else c for c in robot]
    calls = []
    monkeypatch.setattr(encoder, "encode_batch", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=f"clip pair {last.pair_id} carries no latent trajectory"):
        eval_downstream(checkpoint, robot)
    assert calls == []


def test_downstream_encode_peaks_at_one_chunk_not_the_whole_set(monkeypatch):
    # each clip's map (4 KiB a frame at reference size) is pooled as it
    # arrives; holding every map would grow the peak with the set
    monkeypatch.setattr(evaluation, "train_linear_probe", lambda *a, **k: 0.0)
    monkeypatch.setattr(evaluation, "train_bc_head", lambda x, y, seed: lambda f: np.zeros((len(f), 2)))
    clips = [p.robot for p in generate_paired_set(RngState(41), 4, 16, 0.5)]
    config = evaluation.arm_config(TrainConfig(), "L")
    checkpoint = ModelCheckpoint.start(config, Backbone.create(RngState(41)).freeze())

    def peak_bytes(n: int) -> int:
        tracemalloc.start()
        try:
            eval_downstream(checkpoint, clips[:n])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak_bytes(16), peak_bytes(64)
    assert large <= 1.5 * small, f"{small / 2**20:.1f} MB at 16 clips, {large / 2**20:.1f} at 64"


def _fused_bc_head(monkeypatch, train_x, train_y, seed):
    """``train_bc_head``'s per-step losses and trained arrays, read off
    its one ``fit`` call."""
    seen = {}

    def spy(params, adam, steps, step_fn):
        seen["params"] = params
        seen["rows"] = fit(params, adam, steps, step_fn)
        return seen["rows"]

    monkeypatch.setattr(evaluation, "fit", spy)
    evaluation.train_bc_head(train_x, train_y, seed)
    return [loss for loss, _, _ in seen["rows"]], {n: p.data for n, p in seen["params"].items()}


def _assert_bitwise(fused, oracle):
    assert fused[0] == oracle[0]
    for name, want in oracle[1].items():
        got = fused[1][name]
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), name


@pytest.mark.parametrize("seed", [412, 0, 1, 2])
def test_bc_head_is_bitwise_the_composite_graph_at_the_reference_shape(monkeypatch, seed):
    """The fused mlp_mse head trains to the composite graph's weights and
    losses, bit for bit, on the reference run's 2,928 x 32 -> 2 samples."""
    rng = RngState(900 + seed)
    x = rng.normal((2928, 32))
    y = np.tanh(x[:, :2] + 0.5 * x[:, 2:4]) * 0.4 + 0.5 + 0.01 * rng.normal((2928, 2))
    _assert_bitwise(_fused_bc_head(monkeypatch, x, y, seed), composite_bc_head(x, y, seed))


@pytest.mark.parametrize("seed", [412, 0, 1, 2])
def test_bc_head_is_bitwise_the_composite_graph_with_dead_units(monkeypatch, seed):
    """Rank-one inputs leave hidden units that no sample activates from the
    first step on; their gradients are signed zeros, which the composite
    graph turns to +0.0, so those units keep their initial weights and a
    +0.0 bias."""
    rng = RngState(950 + seed)
    x = np.outer(rng.uniform(200, 0.5, 2.0), rng.normal(8))
    y = rng.uniform((200, 2))
    fused = _fused_bc_head(monkeypatch, x, y, seed)
    _assert_bitwise(fused, composite_bc_head(x, y, seed))
    w1_init = RngState(seed).normal((8, 32)) * np.sqrt(2.0 / 8)  # train_bc_head's first draw
    dead = (x @ w1_init <= 0.0).all(axis=0)
    assert 0 < dead.sum() < 32
    w1, b1 = fused[1]["w1"], fused[1]["b1"]
    assert np.array_equal(w1[:, dead], w1_init[:, dead])
    assert (b1[dead] == 0.0).all() and not np.signbit(b1[dead]).any()


def test_eval_does_not_mutate_checkpoint_file(small_ckpt, tmp_path):
    pairs, _, heldout, checkpoint = small_ckpt
    path = str(tmp_path / "model.ckpt")
    checkpoint.save(path)
    before = Path(path).read_bytes()
    reloaded = ModelCheckpoint.load(path)
    eval_retrieval(reloaded, heldout, adapted=True)
    eval_downstream(reloaded, [p.robot for p in pairs], adapted=True)
    reloaded.save(path)
    assert Path(path).read_bytes() == before


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
    descriptions = {p.pair_id: p.description.text for p in pairs[:3]}
    dump_embeddings(checkpoint, [pairs[0].human], path, descriptions)
    before = Path(path).read_bytes()
    fail_writes_partway(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        dump_embeddings(checkpoint, [p.robot for p in pairs[:3]], path, descriptions)
    monkeypatch.undo()
    assert Path(path).read_bytes() == before
    assert os.listdir(tmp_path) == ["emb.csv"]


def test_dump_embeddings_empty(small_ckpt, tmp_path):
    _, _, _, checkpoint = small_ckpt
    path = str(tmp_path / "empty.csv")
    dump_embeddings(checkpoint, [], path, {})
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


def test_reference_adapted_features_cluster_by_task(reference_run, reference_split, tmp_path):
    """The adapted embedding cloud groups by task much more tightly than
    the frozen one (the embedding-dump compactness check)."""
    checkpoint, _, _ = reference_run
    _, heldout = reference_split
    n = len(heldout)
    adapted, frozen = (  # the robot rows follow the human ones
        _dumped(checkpoint, heldout, flag, tmp_path / f"{flag}.csv")[n:] for flag in (True, False)
    )
    tids = np.array([p.task_id for p in heldout])
    assert task_compactness_ratio(adapted, tids) <= task_compactness_ratio(frozen, tids)
