"""Representation quality checks for adapted vs frozen encoders.

Evaluation encodes a set of clips once, by ``encoder.encode_clips``, and
pools the maps per protocol with ``alignment.pool_many``, the pooling the
alignment loss trains. Retrieval asks whether paired human/robot clips embed
closest to each other among all held-out candidates, each stream's maps
pooled in one call. The downstream report freezes the encoder (adapters
included) and trains small heads on robot features, each clip's map
mean-pooled per frame as it arrives: a linear task probe and a two-layer
regressor predicting the next latent effector position, so every robot
clip needs at least 2 frames. ``_encode_parts`` picks the adapted encoder
(the checkpoint's adapter blocks and query projection) or the frozen one
(neither). An arm's row counts its parameters as summed tensor sizes.

``ARMS`` is the one list of experiments, each a complete config that
``arm_config`` lays over a caller's base config. ``run_arms``, the runner
of ``hralign ablate`` and the reference script, trains every arm through
``train`` and scores it with both reports, once ``check_arms_data``
accepts the data; ``hralign train --arm`` builds its one arm's config by
``arm_config`` too.

Nothing here is a knob: retrieval's frame seed, the downstream split, head
sizes, step counts, step sizes and BC seed are fixed in the code, as the
docstrings of ``eval_retrieval``, ``eval_downstream``,
``train_linear_probe`` and ``train_bc_head`` state. Each report's tag says
what its encode used: ``adapted`` only when adapter blocks or a query
projection took part, ``fine-tuned`` for a backbone a baseline trained,
else ``frozen``.

The behavior-cloning head trains through ``tensor.mlp_mse``, one graph node
for its whole loss, since the 400 steps of a ten-node graph were most of
an evaluation's time. That op runs the composite graph's numpy operations
in the same order, so the trained head and every reported number are
bitwise unchanged; ``tests/helpers.composite_bc_head`` keeps the composite
as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .adapter import adapter_parameters
from .dataset import FRAMES_PER_CLIP, PairedDemo, VideoClip, _atomic_write_csv, sample_frames, split_pairs
from .alignment import pool_many
from .encoder import Backbone, check_pretext_clips, encode_clips
from .optim import AdamState, fit
from .rng import RngState
from .task_query import embed_texts
from .tensor import Tensor
from .trainer import (
    MetricsLog,
    ModelCheckpoint,
    TrainConfig,
    _class_index,
    save_run,
    standard_stats,
    task_classes,
    train,
)


@dataclass
class RetrievalReport:
    tag: str
    r2h_recall1: float
    r2h_recall5: float
    h2r_recall1: float
    h2r_recall5: float
    r2h_mrr: float
    h2r_mrr: float

    def __post_init__(self):
        for name in ("r2h_recall1", "r2h_recall5", "h2r_recall1", "h2r_recall5"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range: {value}")
        if self.r2h_recall5 < self.r2h_recall1 or self.h2r_recall5 < self.h2r_recall1:
            raise ValueError("recall@5 cannot be below recall@1")

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def to_text(self) -> str:
        return (
            f"retrieval [{self.tag}]\n"
            f"  robot->human  recall@1 {self.r2h_recall1:.4f}  "
            f"recall@5 {self.r2h_recall5:.4f}  mrr {self.r2h_mrr:.4f}\n"
            f"  human->robot  recall@1 {self.h2r_recall1:.4f}  "
            f"recall@5 {self.h2r_recall5:.4f}  mrr {self.h2r_mrr:.4f}\n"
        )


@dataclass
class DownstreamReport:
    tag: str
    probe_accuracy: float
    bc_mse: float
    n_train_clips: int
    n_heldout_clips: int

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def to_text(self) -> str:
        return (
            f"downstream [{self.tag}] ({self.n_train_clips} train / "
            f"{self.n_heldout_clips} held-out clips)\n"
            f"  probe accuracy {self.probe_accuracy:.4f}\n"
            f"  behavior-clone mse {self.bc_mse:.6f}\n"
        )


# ---------------------------------------------------------------------------
# embedding extraction

def _encode_parts(checkpoint: ModelCheckpoint, adapted: bool) -> tuple[dict, dict]:
    """The adapter blocks and query projection an evaluator encodes with:
    the checkpoint's, or neither (the frozen model) when ``adapted`` is false."""
    return (checkpoint.blocks, checkpoint.query) if adapted else ({}, {})


def _clip_embeddings(
    checkpoint: ModelCheckpoint, clips: list[VideoClip], texts: list[str], adapted: bool
) -> np.ndarray:
    """(len(clips), C) pooled embeddings, clip i described by ``texts[i]``:
    frames from seed 311's ``eval-frames`` stream of the pair id (so both
    clips of a pair sample the same), pooled by task query when adapted with
    a query projection, else uniformly, all in one call. Each query is
    projected alone: one batched projection moves the last bits."""
    blocks, query = _encode_parts(checkpoint, adapted)
    width = checkpoint.backbone.out_channels
    if not clips:
        return np.empty((0, width))
    stacks = (
        sample_frames([c], FRAMES_PER_CLIP, RngState(311).derive("eval-frames", c.pair_id)) for c in clips
    )
    maps = np.stack(list(encode_clips(checkpoint.backbone, stacks, blocks)))
    queries = Tensor(np.concatenate([embed_texts(query, [text]).data for text in texts])) if query else None
    return pool_many(Tensor(maps.reshape(len(clips), -1, width)), queries).data


def _tag(checkpoint: ModelCheckpoint, blocks: dict, query: dict) -> str:
    """A report's tag, whatever was asked for: ``adapted`` when adapter
    blocks or a query projection took part in its encode; else
    ``fine-tuned`` when a baseline method trained the checkpoint's
    backbone, which every encode of it then uses; else ``frozen``."""
    if blocks or query:
        return "adapted"
    return "frozen" if checkpoint.config.method == "hr_align" else "fine-tuned"


def _retrieval_stats(scores: np.ndarray) -> tuple[float, float, float]:
    """recall@1, recall@5, MRR when the true match of row i is column i,
    ranked 1 + the number of other candidates scoring at least as high."""
    if np.isnan(scores).any():
        raise T.NumericError("retrieval: NaN score")
    n = scores.shape[0]
    diag = scores[np.arange(n), np.arange(n)]
    ranks = (scores >= diag[:, None]).sum(axis=1)  # the true match counts itself once
    recall1 = float((ranks == 1).mean())
    recall5 = float((ranks <= 5).mean())
    mrr = float((1.0 / ranks).mean())
    return recall1, recall5, mrr


def eval_retrieval(
    checkpoint: ModelCheckpoint,
    heldout_pairs: list[PairedDemo],
    adapted: bool = True,
) -> RetrievalReport:
    """Cross-domain pair retrieval by dot product over pooled embeddings (frames from seed 311)."""
    if len(heldout_pairs) < 2:
        raise ValueError(f"retrieval needs at least 2 pairs, got {len(heldout_pairs)}")
    texts = [p.description for p in heldout_pairs]
    human, robot = (  # row i of each stream embeds pair i
        _clip_embeddings(checkpoint, [getattr(p, side) for p in heldout_pairs], texts, adapted)
        for side in ("human", "robot")
    )
    scores_r2h = robot @ human.T
    r2h = _retrieval_stats(scores_r2h)
    h2r = _retrieval_stats(scores_r2h.T)
    return RetrievalReport(
        tag=_tag(checkpoint, *_encode_parts(checkpoint, adapted)),
        r2h_recall1=r2h[0],
        r2h_recall5=r2h[1],
        h2r_recall1=h2r[0],
        h2r_recall5=h2r[1],
        r2h_mrr=r2h[2],
        h2r_mrr=h2r[2],
    )


# ---------------------------------------------------------------------------
# downstream heads


def train_linear_probe(
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    n_classes: int,
) -> float:
    """Multinomial logistic probe, 300 full-batch Adam steps at lr 0.05;
    returns held-out accuracy."""
    mu, sd = standard_stats(train_x)
    train_x, test_x = (train_x - mu) / sd, (test_x - mu) / sd
    w = Tensor(np.zeros((train_x.shape[1], n_classes)), requires_grad=True)
    b = Tensor(np.zeros(n_classes), requires_grad=True)
    params = {"w": w, "b": b}
    x_t = Tensor(train_x)
    fit(
        params, AdamState.for_params(params), 0.05, 300,
        lambda _: (T.cross_entropy(T.add(T.matmul(x_t, w), b), train_y), {}),
    )
    pred = np.argmax(test_x @ w.data + b.data, axis=1)
    return float((pred == test_y).mean())


def train_bc_head(train_x: np.ndarray, train_y: np.ndarray, seed: int):
    """Two-layer regression head (32 hidden units, 400 full-batch Adam
    steps at lr 1e-2 on the fused ``mlp_mse`` loss); returns a
    predict(features) closure."""
    rng = RngState(seed)
    d, hidden, out = train_x.shape[1], 32, train_y.shape[1]
    w1 = Tensor(rng.normal((d, hidden)) * np.sqrt(2.0 / d), requires_grad=True)
    b1 = Tensor(np.zeros(hidden), requires_grad=True)
    w2 = Tensor(rng.normal((hidden, out)) * np.sqrt(1.0 / hidden), requires_grad=True)
    b2 = Tensor(np.zeros(out), requires_grad=True)
    params = {"w1": w1, "b1": b1, "w2": w2, "b2": b2}
    x_t, y_t = Tensor(train_x), Tensor(train_y)
    fit(
        params, AdamState.for_params(params), 1e-2, 400,
        lambda _: (T.mlp_mse(x_t, w1, b1, w2, b2, y_t), {}),
    )

    def predict(x: np.ndarray) -> np.ndarray:
        hidden_act = np.maximum(x @ w1.data + b1.data, 0.0)
        return hidden_act @ w2.data + b2.data

    return predict


def check_downstream_clips(robot_clips: list[VideoClip]) -> None:
    """Refuse a clip downstream cannot score: each must be a robot clip of at
    least 2 frames carrying its latent, since BC predicts each next position."""
    for clip in robot_clips:
        if clip.domain != "robot":
            raise ValueError(f"downstream eval expects robot clips, got {clip.domain!r}")
        if clip.length < 2:
            raise ValueError(f"clip pair {clip.pair_id} has 1 frame, but behavior cloning needs a next frame")
        if clip.positions is None:
            raise ValueError(
                f"clip pair {clip.pair_id} carries no latent trajectory; "
                "behavior cloning needs generated or latent-annotated data"
            )


def eval_downstream(
    checkpoint: ModelCheckpoint,
    robot_clips: list[VideoClip],
    adapted: bool = True,
) -> DownstreamReport:
    """Frozen-feature probe and behavior cloning.

    ``split_pairs`` holds out ``HELDOUT_FRAC`` of the clips, and the BC head
    is initialised from seed 412. The clips must pass
    ``check_downstream_clips``. No gradient ever reaches the encoder or
    adapters here; each clip's map is pooled per frame, uniformly and
    unnormalised, as it arrives, and only the small heads train.
    """
    check_downstream_clips(robot_clips)
    train, held = split_pairs(robot_clips)
    if not train or not held:
        raise ValueError("downstream split too small")
    clips, n = train + held, len(train)
    blocks = _encode_parts(checkpoint, adapted)[0]
    feats = [  # (T_len, C) per clip
        pool_many(Tensor(m), None, normalize=False).data
        for m in encode_clips(checkpoint.backbone, (c.frames for c in clips), blocks)
    ]
    classes = _class_index(c.task_id for c in clips)

    clip_feat = np.stack([f.mean(axis=0) for f in feats])
    labels = np.array([classes[c.task_id] for c in clips])
    probe_acc = train_linear_probe(clip_feat[:n], labels[:n], clip_feat[n:], labels[n:], n_classes=len(classes))

    xs, ys = [f[:-1] for f in feats], [c.positions[1:] for c in clips]  # frame t predicts position t + 1
    train_x, held_x = np.concatenate(xs[:n]), np.concatenate(xs[n:])
    train_y, held_y = np.concatenate(ys[:n]), np.concatenate(ys[n:])
    mu, sd = standard_stats(train_x)
    predict = train_bc_head((train_x - mu) / sd, train_y, seed=412)
    bc_mse = float(((predict((held_x - mu) / sd) - held_y) ** 2).mean())
    return DownstreamReport(
        tag=_tag(checkpoint, blocks, {}),
        probe_accuracy=probe_acc,
        bc_mse=bc_mse,
        n_train_clips=len(train),
        n_heldout_clips=len(held),
    )


# ---------------------------------------------------------------------------
# embedding dump


def dump_embeddings(
    checkpoint: ModelCheckpoint,
    clips: list[VideoClip],
    path: str,
    descriptions: dict[int, str],
    adapted: bool = True,
) -> str:
    """CSV of pooled embeddings: clip_id,task_id,domain,adapted,f0..f{C-1};
    ``adapted`` is 1 when the encode was, as the report tags read."""
    width = checkpoint.backbone.out_channels
    header = ["clip_id", "task_id", "domain", "adapted"] + [f"f{i}" for i in range(width)]
    texts = [descriptions[clip.pair_id] for clip in clips]
    tag = _tag(checkpoint, *_encode_parts(checkpoint, adapted))
    rows = [
        [f"{clip.pair_id}_{clip.domain}", clip.task_id, clip.domain, int(tag == "adapted")]
        + [repr(float(v)) for v in vec]
        for clip, vec in zip(clips, _clip_embeddings(checkpoint, clips, texts, adapted))
    ]
    _atomic_write_csv(path, header, rows)
    return path


# ---------------------------------------------------------------------------
# arms

# The experiments, each the TrainConfig overrides of a caller's base config
# that name all it trains; ``arm_config`` applies them. ``frozen`` is
# a 0-step ``hr_align`` run with nothing attached, the pre-trained backbone
# as it is, and ``Q`` trains the query projection alone.
ARMS = {
    "E": {"method": "hr_align", "adapter_positions": "E", "use_language": True},
    "M": {"method": "hr_align", "adapter_positions": "M", "use_language": True},
    "L": {"method": "hr_align", "adapter_positions": "L", "use_language": True},
    "EML": {"method": "hr_align", "adapter_positions": "EML", "use_language": True},
    "L_nolang": {"method": "hr_align", "adapter_positions": "L", "use_language": False},
    "frozen": {"method": "hr_align", "adapter_positions": "none", "use_language": False, "steps": 0},
    "pret_ft": {"method": "pret_baseline", "adapter_positions": "none", "use_language": False,
                "learning_rate": 3e-4, "steps": 120},
    "cls_ft": {"method": "cls_baseline", "adapter_positions": "none", "use_language": False,
               "learning_rate": 3e-4, "steps": 120},
    "Q": {"method": "hr_align", "adapter_positions": "none", "use_language": True},
}


def arm_config(base: TrainConfig, arm: str) -> TrainConfig:
    """Arm ``arm`` of ``ARMS`` over ``base``: the arm's keys replace the
    base's, but its ``steps`` caps the base's rather than replacing them."""
    spec = ARMS[arm]
    return replace(base, **{**spec, "steps": min(base.steps, spec.get("steps", base.steps))})


@dataclass
class ArmRun:
    name: str
    checkpoint: ModelCheckpoint
    metrics: MetricsLog
    retrieval: RetrievalReport
    downstream: DownstreamReport

    @property
    def row(self) -> dict:
        """The same columns for every arm, its parts as its config names
        them; the parameter counts are summed tensor sizes, and
        ``total_learnable`` counts the parameters with Adam moments."""
        ckpt = self.checkpoint
        return {
            "name": self.name,
            "adapter_positions": ckpt.config.adapter_positions,
            "use_language": ckpt.config.use_language,
            "adapter_params": sum(t.size for t in adapter_parameters(ckpt.blocks).values()),
            "projection_params": sum(t.size for t in ckpt.query.values()),
            "total_learnable": sum(m.size for m in ckpt.adam.m.values()),
            "final_loss": self.metrics.losses[-1] if self.metrics.rows else None,
            "r2h_recall1": self.retrieval.r2h_recall1,
            "r2h_recall5": self.retrieval.r2h_recall5,
            "h2r_recall1": self.retrieval.h2r_recall1,
            "h2r_recall5": self.retrieval.h2r_recall5,
            "probe_accuracy": self.downstream.probe_accuracy,
            "bc_mse": self.downstream.bc_mse,
        }

    def to_text(self) -> str:
        row = self.row
        return (
            f"{self.name:>9}: {self.checkpoint.adam.step:>4} steps  learnable {row['total_learnable']:>6}  "
            f"r2h@1 {row['r2h_recall1']:.3f}  probe {row['probe_accuracy']:.3f}  bc {row['bc_mse']:.5f}"
        )


def check_arms_data(train: list[PairedDemo], heldout: list[PairedDemo]) -> None:
    """Refuse data some arm or its scoring cannot use: under 2 held-out
    pairs for retrieval, robot clips downstream refuses, training clips too
    short for ``pret_ft``'s pretext, or under 2 task classes for ``cls_ft``."""
    if len(heldout) < 2:
        raise ValueError(f"the held-out split needs at least 2 pairs, got {len(heldout)}")
    check_downstream_clips([p.robot for p in train + heldout])
    check_pretext_clips([p.robot for p in train])
    task_classes(train)


def run_arms(
    base: TrainConfig, train_pairs: list[PairedDemo], heldout: list[PairedDemo], backbone: Backbone
) -> list[ArmRun]:
    """Every arm of ``ARMS``, in order, once ``check_arms_data`` accepts the
    data: each trained on ``train_pairs``, saved by ``save_run`` into
    ``<base.out_dir>/<arm>`` and scored, retrieval on ``heldout`` and
    downstream on the robot clips of both."""
    check_arms_data(train_pairs, heldout)
    runs = []
    for arm in ARMS:
        config = replace(arm_config(base, arm), out_dir=f"{base.out_dir}/{arm}")
        checkpoint, metrics = train(config, train_pairs, backbone)
        save_run(checkpoint, metrics)
        retrieval = eval_retrieval(checkpoint, heldout, adapted=True)
        downstream = eval_downstream(checkpoint, [p.robot for p in train_pairs + heldout], adapted=True)
        runs.append(ArmRun(arm, checkpoint, metrics, retrieval, downstream))
    return runs
