"""Representation quality checks for adapted vs frozen encoders.

Retrieval asks whether paired human/robot clips embed closest to each
other among all held-out candidates; a clip's embedding comes from
``encoder.encode_pooled``, the same pooling the alignment loss trains. The
downstream report freezes the encoder (adapters included) and trains small
heads on robot features ``encode_pooled`` mean-pools per frame: a linear
task probe, a two-layer regressor predicting the next latent effector
position, and a tube-following success proxy over whole clips.
``ModelCheckpoint.adapters`` picks the adapted or the frozen encoder, and
every clip is encoded ``EVAL_CHUNK`` clips per ``encode_pooled`` call.

``ARMS`` is the one list of experiments. ``run_arm`` trains an arm through
``train`` (the frozen arm trains nothing) and scores it with both reports,
and ``run_arms`` runs the list for ``hralign ablate`` and the reference
script.

Nothing here is a knob: retrieval's frame seed, the downstream split, head
sizes, step counts, step sizes, BC seed and tube radius are fixed in the
code, as the docstrings of ``eval_retrieval``, ``eval_downstream``,
``train_linear_probe`` and ``train_bc_head`` state. Each report's tag says
what its encode used: ``adapted`` only when adapter blocks or a query
projection took part.

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
from .adapter import count_learnable
from .dataset import FRAMES_PER_CLIP, PairedDemo, VideoClip, _atomic_write_csv, sample_frames, split_pairs
from .encoder import Backbone, encode_pooled
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
    success_rate: float
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
            f"  success proxy {self.success_rate:.4f}\n"
        )


# ---------------------------------------------------------------------------
# embedding extraction

# Clips per ``encode_pooled`` call. Encoding costs ~1.5 MB of transient
# memory per whole reference clip, so 4 (~5 MB) stays below one L training
# step's ~12 MB peak and evaluation never sets a run's peak memory; 16 would
# not (~17.5 MB), and is no faster.
EVAL_CHUNK = 4


def _clip_embeddings(
    checkpoint: ModelCheckpoint, clips: list[VideoClip], texts: list[str], adapted: bool
) -> np.ndarray:
    """(len(clips), C) pooled embeddings, clip i described by ``texts[i]``:
    frames from seed 311's ``eval-frames`` stream of the pair id (so both
    clips of a pair sample the same), pooled by task query when adapted with
    a query projection, else uniformly. Each query is projected alone: one
    batched projection moves the embeddings' last bits."""
    adapters = checkpoint.adapters(adapted)
    embedder = checkpoint.embedder if adapted else None
    rows = [np.empty((0, checkpoint.backbone.out_channels))]
    for start in range(0, len(clips), EVAL_CHUNK):
        chunk = clips[start : start + EVAL_CHUNK]
        frames = np.concatenate([
            sample_frames(c, FRAMES_PER_CLIP, RngState(311).derive("eval-frames", c.pair_id))
            for c in chunk
        ])
        queries = None
        if embedder is not None:
            queries = Tensor(np.concatenate(
                [embed_texts(embedder, [text]).data for text in texts[start : start + EVAL_CHUNK]]
            ))
        rows.append(encode_pooled(checkpoint.backbone, frames, len(chunk), adapters, queries).data)
    return np.concatenate(rows)


def _tag(adapters: dict, embedder=None) -> str:
    """A report's tag: ``adapted`` when adapter blocks or a query projection
    took part in its encode, else ``frozen``, whatever was asked for."""
    return "adapted" if adapters or embedder is not None else "frozen"


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
    texts = [p.description.text for p in heldout_pairs]
    human, robot = (  # row i of each stream embeds pair i
        _clip_embeddings(checkpoint, [getattr(p, side) for p in heldout_pairs], texts, adapted)
        for side in ("human", "robot")
    )
    scores_r2h = robot @ human.T
    r2h = _retrieval_stats(scores_r2h)
    h2r = _retrieval_stats(scores_r2h.T)
    return RetrievalReport(
        tag=_tag(checkpoint.adapters(adapted), checkpoint.embedder if adapted else None),
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
        params,
        AdamState.for_params(params, lr=0.05),
        300,
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
        params,
        AdamState.for_params(params, lr=1e-2),
        400,
        lambda _: (T.mlp_mse(x_t, w1, b1, w2, b2, y_t), {}),
    )

    def predict(x: np.ndarray) -> np.ndarray:
        hidden_act = np.maximum(x @ w1.data + b1.data, 0.0)
        return hidden_act @ w2.data + b2.data

    return predict


def eval_downstream(
    checkpoint: ModelCheckpoint,
    robot_clips: list[VideoClip],
    adapted: bool = True,
) -> DownstreamReport:
    """Frozen-feature probe, behavior cloning, and rollout success proxy.

    ``split_pairs`` holds out ``HELDOUT_FRAC`` of the clips, the BC head
    is initialised from seed 412, and a held-out clip succeeds when every
    one-step prediction stays within 0.1 of the true path. No gradient
    ever reaches the encoder or adapters here; features are extracted once,
    ``EVAL_CHUNK`` clips per call, as plain arrays and only the small heads train.
    """
    for clip in robot_clips:
        if clip.domain != "robot":
            raise ValueError(f"downstream eval expects robot clips, got {clip.domain!r}")
    train, held = split_pairs(robot_clips)
    if not train or not held:
        raise ValueError("downstream split too small")
    clips = train + held
    for clip in clips:
        if clip.positions is None:
            raise ValueError(
                f"clip pair {clip.pair_id} carries no latent trajectory; "
                "behavior cloning needs generated or latent-annotated data"
            )
    train_idx, held_idx = np.arange(len(train)), np.arange(len(train), len(clips))
    adapters, feats = checkpoint.adapters(adapted), []
    for start in range(0, len(clips), EVAL_CHUNK):
        chunk = clips[start : start + EVAL_CHUNK]
        frames = np.concatenate([c.frames for c in chunk])
        pooled = encode_pooled(checkpoint.backbone, frames, len(frames), adapters, normalize=False)
        feats += np.split(pooled.data, np.cumsum([c.length for c in chunk])[:-1])
    classes = _class_index(c.task_id for c in clips)

    clip_feat = np.stack([f.mean(axis=0) for f in feats])
    labels = np.array([classes[c.task_id] for c in clips])
    probe_acc = train_linear_probe(
        clip_feat[train_idx],
        labels[train_idx],
        clip_feat[held_idx],
        labels[held_idx],
        n_classes=len(classes),
    )

    def bc_samples(indices):
        xs = np.concatenate([feats[i][:-1] for i in indices])
        return xs, np.concatenate([clips[i].positions[1:] for i in indices])

    train_x, train_y = bc_samples(train_idx)
    held_x, held_y = bc_samples(held_idx)
    mu, sd = standard_stats(train_x)
    predict = train_bc_head((train_x - mu) / sd, train_y, seed=412)
    bc_mse = float(((predict((held_x - mu) / sd) - held_y) ** 2).mean())

    successes = 0
    for i in held_idx:
        clip = clips[i]
        pred = predict((feats[i][:-1] - mu) / sd)
        err = np.linalg.norm(pred - clip.positions[1:], axis=1)
        if err.max() <= 0.1:
            successes += 1
    return DownstreamReport(
        tag=_tag(adapters),
        probe_accuracy=probe_acc,
        bc_mse=bc_mse,
        success_rate=successes / len(held_idx),
        n_train_clips=len(train_idx),
        n_heldout_clips=len(held_idx),
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
    tag = _tag(checkpoint.adapters(adapted), checkpoint.embedder if adapted else None)
    rows = [
        [f"{clip.pair_id}_{clip.domain}", clip.task_id, clip.domain, int(tag == "adapted")]
        + [repr(float(v)) for v in vec]
        for clip, vec in zip(clips, _clip_embeddings(checkpoint, clips, texts, adapted))
    ]
    _atomic_write_csv(path, header, rows)
    return path


# ---------------------------------------------------------------------------
# arms

# The experiments, each as TrainConfig overrides of a caller's base config.
# An arm that names a method trains it through ``train``; ``frozen`` names
# none and trains nothing, so it scores the pre-trained backbone as it is.
# An arm's ``steps`` caps the base's: the two full fine-tunes run at most
# 120 steps, and the frozen arm none.
ARMS = {
    "E": {"method": "hr_align", "adapter_positions": "E", "use_language": True},
    "M": {"method": "hr_align", "adapter_positions": "M", "use_language": True},
    "L": {"method": "hr_align", "adapter_positions": "L", "use_language": True},
    "EML": {"method": "hr_align", "adapter_positions": "EML", "use_language": True},
    "L_nolang": {"method": "hr_align", "adapter_positions": "L", "use_language": False},
    "frozen": {"steps": 0},
    "pret_ft": {"method": "pret_baseline", "learning_rate": 3e-4, "steps": 120},
    "cls_ft": {"method": "cls_baseline", "learning_rate": 3e-4, "steps": 120},
}


@dataclass
class ArmRun:
    name: str
    config: TrainConfig
    checkpoint: ModelCheckpoint
    metrics: MetricsLog
    retrieval: RetrievalReport
    downstream: DownstreamReport

    @property
    def row(self) -> dict:
        """The same columns for every arm, naming only what took part;
        ``total_learnable`` counts the parameters with Adam moments."""
        ckpt = self.checkpoint
        counts = count_learnable(ckpt.stack, ckpt.embedder)
        return {
            "name": self.name,
            "adapter_positions": self.config.adapter_positions if ckpt.stack is not None else "none",
            "use_language": ckpt.embedder is not None,
            "adapter_params": counts.adapter,
            "projection_params": counts.projection,
            "total_learnable": sum(m.size for m in ckpt.adam.m.values()) if ckpt.adam else 0,
            "final_loss": self.metrics.losses[-1] if self.metrics.rows else None,
            "r2h_recall1": self.retrieval.r2h_recall1,
            "r2h_recall5": self.retrieval.r2h_recall5,
            "h2r_recall1": self.retrieval.h2r_recall1,
            "h2r_recall5": self.retrieval.h2r_recall5,
            "probe_accuracy": self.downstream.probe_accuracy,
            "bc_mse": self.downstream.bc_mse,
            "success_rate": self.downstream.success_rate,
        }

    def to_text(self) -> str:
        row = self.row
        return (
            f"{self.name:>9}: {self.config.steps:>4} steps  learnable {row['total_learnable']:>6}  "
            f"r2h@1 {row['r2h_recall1']:.3f}  probe {row['probe_accuracy']:.3f}  bc {row['bc_mse']:.5f}"
        )


def run_arm(
    base: TrainConfig,
    arm: str,
    train_pairs: list[PairedDemo],
    heldout: list[PairedDemo],
    backbone: Backbone,
) -> ArmRun:
    """Train arm ``arm`` of ``ARMS`` on ``train_pairs``, save it by
    ``save_run`` into ``<base.out_dir>/<arm>`` and score it: retrieval on
    ``heldout``, downstream on the robot clips of both."""
    if len(heldout) < 2:
        raise ValueError(f"arm {arm} needs at least 2 held-out pairs, got {len(heldout)}")
    spec = ARMS[arm]
    steps = min(base.steps, spec.get("steps", base.steps))
    config = replace(base, **{**spec, "steps": steps, "out_dir": f"{base.out_dir}/{arm}"})
    if "method" in spec:
        checkpoint, metrics = train(config, train_pairs, backbone)
    else:
        checkpoint, metrics = ModelCheckpoint(config, backbone.copy().freeze()), MetricsLog()
    save_run(checkpoint, metrics)
    retrieval = eval_retrieval(checkpoint, heldout, adapted=True)
    downstream = eval_downstream(checkpoint, [p.robot for p in train_pairs + heldout], adapted=True)
    return ArmRun(arm, config, checkpoint, metrics, retrieval, downstream)


def run_arms(
    base: TrainConfig, train: list[PairedDemo], heldout: list[PairedDemo], backbone: Backbone
) -> list[ArmRun]:
    """Every arm of ``ARMS``, in order."""
    return [run_arm(base, arm, train, heldout, backbone) for arm in ARMS]
