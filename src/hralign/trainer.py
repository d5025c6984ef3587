"""Training loops: adapter alignment, full-fine-tune baselines, ablations.

All runs are deterministic given (config, seed): batch order is derived
per epoch from the seed, frame sampling consumes the single training RNG
stream, and that stream plus optimizer moments live in the checkpoint, so
save/resume reproduces an uninterrupted run bitwise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import tensor as T
from .adapter import AdapterStack, count_learnable
from .alignment import AlignmentBatchFeatures, alignment_stats, hr_align_loss, pool_many
from .dataset import PairedDemo, VideoClip, _atomic_write, sample_frames
from .encoder import Backbone, encode_batch, pretext_loss
from .optim import AdamState, adam_step, collect_grads, zero_grads
from .rng import RngState
from .task_query import QueryEmbedder, embed_texts
from .tensor import Tensor

METHODS = ("hr_align", "pret_baseline", "cls_baseline")
CHECKPOINT_VERSION = 1
METRICS_HEADER = "step,loss,pos_sim,hard_neg_sim,wall_ms"


@dataclass
class TrainConfig:
    method: str = "hr_align"
    adapter_positions: str = "L"
    use_language: bool = True
    frames: int = 5
    batch_size: int = 16
    # the 300-step desk-scale budget needs a larger step size than a long
    # full-scale run would use; see README on scaled-down defaults
    learning_rate: float = 1e-2
    tau: float = 0.1
    steps: int = 300
    seed: int = 7
    normalize: bool = True
    out_dir: str = "runs/out"
    adapter_ratio: int = 4
    baseline_full_data: bool = False
    baseline_adapter_only: bool = False

    def validate(self) -> "TrainConfig":
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        for name in ("learning_rate", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("frames", "batch_size", "learning_rate", "tau", "adapter_ratio"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.steps < 0:
            raise ValueError(f"steps must be non-negative, got {self.steps}")
        from .adapter import POSITION_SPECS

        if self.adapter_positions not in POSITION_SPECS:
            raise ValueError(f"adapter_positions must be one of {POSITION_SPECS}")
        if (
            self.method == "hr_align"
            and self.adapter_positions == "none"
            and not self.use_language
        ):
            raise ValueError(
                "adapter_positions='none' with use_language=False leaves hr_align "
                "nothing to learn"
            )
        return self

    def to_mapping(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "TrainConfig":
        known = {f.name: f.type for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in mapping.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = _coerce(value, getattr(cls, key))
        return cls(**kwargs).validate()

    def config_hash(self) -> str:
        blob = json.dumps(self.to_mapping(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _coerce(value, default):
    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
        text = str(value).strip().lower()
        if text in ("true", "1", "yes"):
            return True
        if text in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    if isinstance(default, int):
        return int(value)
    if isinstance(default, float):
        return float(value)
    return str(value)


def parse_config_text(text: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def format_config(config: TrainConfig) -> str:
    lines = [f"{key} = {value}" for key, value in config.to_mapping().items()]
    return "\n".join(lines) + "\n"


def load_config(path: str, overrides: dict | None = None) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as fh:
        mapping = parse_config_text(fh.read())
    if overrides:
        mapping.update(overrides)
    return TrainConfig.from_mapping(mapping)


# ---------------------------------------------------------------------------
# metrics


@dataclass
class MetricsRow:
    step: int
    loss: float
    pos_sim: float
    hard_neg_sim: float
    wall_ms: float


@dataclass
class MetricsLog:
    rows: list[MetricsRow] = field(default_factory=list)

    def append(self, row: MetricsRow) -> None:
        if self.rows and row.step <= self.rows[-1].step:
            raise ValueError(
                f"metrics steps must increase: {row.step} after {self.rows[-1].step}"
            )
        self.rows.append(row)

    def to_csv_text(self) -> str:
        lines = [METRICS_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.step},{r.loss!r},{r.pos_sim!r},{r.hard_neg_sim!r},{r.wall_ms!r}"
            )
        return "\n".join(lines) + "\n"

    def deterministic_text(self) -> str:
        """CSV content without the wall-clock column (the one
        inherently non-reproducible field)."""
        lines = ["step,loss,pos_sim,hard_neg_sim"]
        for r in self.rows:
            lines.append(f"{r.step},{r.loss!r},{r.pos_sim!r},{r.hard_neg_sim!r}")
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        _atomic_write(path, self.to_csv_text().encode("utf-8"))

    @property
    def losses(self) -> list[float]:
        return [r.loss for r in self.rows]


# ---------------------------------------------------------------------------
# checkpoint container


@dataclass
class LinearHead:
    """Linear classifier over standardized pooled features.

    ``mu``/``sd`` are fixed standardization buffers computed once from the
    training clips; without them the pooled features bunch too tightly
    around a common direction for a linear head to separate.
    """

    w: Tensor  # (C, K)
    b: Tensor  # (K,)
    mu: Tensor  # (C,), buffer
    sd: Tensor  # (C,), buffer

    @classmethod
    def create(cls, rng: RngState, in_dim: int, n_classes: int) -> "LinearHead":
        w = Tensor(rng.normal((in_dim, n_classes)) / np.sqrt(in_dim), requires_grad=True)
        b = Tensor(np.zeros(n_classes), requires_grad=True)
        return cls(w, b, Tensor(np.zeros(in_dim)), Tensor(np.ones(in_dim)))

    def named_parameters(self, prefix: str = "head") -> dict[str, Tensor]:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}

    def named_buffers(self, prefix: str = "head") -> dict[str, Tensor]:
        return {f"{prefix}.mu": self.mu, f"{prefix}.sd": self.sd}

    def standardize(self, pooled: Tensor) -> Tensor:
        return T.mul(T.add(pooled, Tensor(-self.mu.data)), Tensor(1.0 / self.sd.data))


class CheckpointError(ValueError):
    """A checkpoint file is truncated, corrupt or lacks a tensor entry."""


@dataclass
class ModelCheckpoint:
    """Everything needed to resume or evaluate a run."""

    config: TrainConfig
    backbone: Backbone
    stack: AdapterStack | None = None
    embedder: QueryEmbedder | None = None
    head: LinearHead | None = None
    adam: AdamState | None = None
    rng: RngState | None = None
    step: int = 0
    version: int = CHECKPOINT_VERSION

    def config_hash(self) -> str:
        return self.config.config_hash()

    def named_tensors(self) -> dict[str, Tensor]:
        out = dict(self.backbone.named_parameters())
        if self.stack is not None:
            out.update(self.stack.named_parameters())
        if self.embedder is not None:
            out.update(self.embedder.named_parameters())
        if self.head is not None:
            out.update(self.head.named_parameters())
            out.update(self.head.named_buffers())
        return out

    def learnable_parameters(self) -> dict[str, Tensor]:
        return {name: t for name, t in self.named_tensors().items() if t.requires_grad}

    def save(self, path: str) -> None:
        tensors = dict(self.named_tensors())
        if self.adam is not None:
            for name in sorted(self.adam.m):
                tensors[f"adam.m.{name}"] = Tensor(self.adam.m[name])
                tensors[f"adam.v.{name}"] = Tensor(self.adam.v[name])
        blobs: list[bytes] = []
        index = []
        offset = 0
        for name in sorted(tensors):
            blob = T.to_bytes(tensors[name])
            index.append(
                {
                    "name": name,
                    "shape": list(tensors[name].shape),
                    "offset": offset,
                    "nbytes": len(blob),
                }
            )
            blobs.append(blob)
            offset += len(blob)
        header = {
            "version": self.version,
            "config": self.config.to_mapping(),
            "config_hash": self.config_hash(),
            "step": self.step,
            "rng": list(self.rng.state()) if self.rng is not None else None,
            "adam": (
                {
                    "lr": self.adam.lr,
                    "beta1": self.adam.beta1,
                    "beta2": self.adam.beta2,
                    "eps": self.adam.eps,
                    "step": self.adam.step,
                }
                if self.adam is not None
                else None
            ),
            "backbone": {
                "channels": list(self.backbone.channels),
                "strides": [blk.stride for blk in self.backbone.blocks],
                "kernel": self.backbone.kernel,
                "frozen": self.backbone.frozen,
            },
            "stack": (
                {
                    "positions": self.stack.positions,
                    "junctions": self.stack.junctions,
                    "ratio": self.config.adapter_ratio,
                }
                if self.stack is not None
                else None
            ),
            "embedder": (
                {"text_dim": self.embedder.text_dim, "out_dim": self.embedder.out_dim}
                if self.embedder is not None
                else None
            ),
            "head": (
                {"in_dim": self.head.w.shape[0], "n_classes": self.head.w.shape[1]}
                if self.head is not None
                else None
            ),
            "tensors": index,
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        _atomic_write(path, b"".join([struct.pack("<I", len(header_bytes)), header_bytes, *blobs]))

    @classmethod
    def load(cls, path: str) -> "ModelCheckpoint":
        with open(path, "rb") as fh:
            raw = fh.read()
        if len(raw) < 4:
            raise CheckpointError(f"{path}: {len(raw)} bytes, too short for a checkpoint")
        (hlen,) = struct.unpack_from("<I", raw, 0)
        if 4 + hlen > len(raw):
            raise CheckpointError(
                f"{path}: header truncated ({len(raw) - 4} of {hlen} bytes present)"
            )
        try:
            header = json.loads(raw[4 : 4 + hlen].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError(f"{path}: header is not valid JSON: {e}") from e
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {header.get('version')}")
        body = raw[4 + hlen :]
        arrays: dict[str, np.ndarray] = {}
        for entry in header["tensors"]:
            if entry["offset"] + entry["nbytes"] > len(body):
                raise CheckpointError(f"{path}: body truncated inside tensor {entry['name']!r}")
            try:
                arr, _ = T.from_bytes(body, entry["offset"])
            except (struct.error, ValueError) as e:
                raise CheckpointError(f"{path}: tensor {entry['name']!r} is corrupt: {e}") from e
            arrays[entry["name"]] = arr

        def fill(named: dict[str, Tensor]) -> None:
            for name, tensor in named.items():
                if name not in arrays:
                    raise CheckpointError(f"{path}: no tensor entry {name!r}")
                tensor.data = arrays[name].copy()

        config = TrainConfig.from_mapping(header["config"])
        arch = header["backbone"]
        init_rng = RngState(0)
        backbone = Backbone.create(
            init_rng, arch["channels"], arch["strides"], arch["kernel"]
        )
        fill(backbone.named_parameters())
        if arch["frozen"]:
            backbone.freeze()
        stack = None
        if header["stack"] is not None:
            stack = AdapterStack.for_positions(
                header["stack"]["positions"], backbone, header["stack"]["ratio"], init_rng
            )
            fill(stack.named_parameters())
        embedder = None
        if header["embedder"] is not None:
            embedder = QueryEmbedder.create(init_rng, header["embedder"]["out_dim"])
            fill(embedder.named_parameters())
        head = None
        if header["head"] is not None:
            head = LinearHead.create(
                init_rng, header["head"]["in_dim"], header["head"]["n_classes"]
            )
            fill({**head.named_parameters(), **head.named_buffers()})
        adam = None
        if header["adam"] is not None:
            adam = AdamState(
                lr=header["adam"]["lr"],
                beta1=header["adam"]["beta1"],
                beta2=header["adam"]["beta2"],
                eps=header["adam"]["eps"],
                step=header["adam"]["step"],
            )
            for name in arrays:
                if name.startswith("adam.m."):
                    adam.m[name[len("adam.m.") :]] = arrays[name].copy()
                elif name.startswith("adam.v."):
                    adam.v[name[len("adam.v.") :]] = arrays[name].copy()
        rng = RngState.from_state(header["rng"]) if header["rng"] is not None else None
        return cls(
            config=config,
            backbone=backbone,
            stack=stack,
            embedder=embedder,
            head=head,
            adam=adam,
            rng=rng,
            step=header["step"],
        )


# ---------------------------------------------------------------------------
# batching


@lru_cache(maxsize=64)
def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """One epoch's shuffle, built once and shared read-only by its steps."""
    order = RngState(seed).derive("epoch", epoch).permutation(n)
    order.flags.writeable = False
    return order


def _batch_indices(seed: int, step: int, n: int, batch_size: int) -> list[int]:
    """Indices for one step under a fresh shuffle per epoch."""
    per_epoch = n // batch_size
    epoch = step // per_epoch
    slot = step % per_epoch
    order = _epoch_order(seed, epoch, n)
    return [int(i) for i in order[slot * batch_size : (slot + 1) * batch_size]]


def _check_batchable(n: int, batch_size: int) -> None:
    if n == 0:
        raise ValueError("dataset is empty")
    if batch_size > n:
        raise ValueError(f"batch size {batch_size} exceeds dataset size {n}")


# ---------------------------------------------------------------------------
# HR-Align adaptation


def _resume_mismatch(a: TrainConfig, b: TrainConfig) -> list[str]:
    skip = {"steps", "out_dir"}
    fields = [f.name for f in dataclasses.fields(TrainConfig) if f.name not in skip]
    return [name for name in fields if getattr(a, name) != getattr(b, name)]


def train_hr_align(
    config: TrainConfig,
    pairs: list[PairedDemo],
    backbone: Backbone,
    resume: ModelCheckpoint | None = None,
) -> tuple[ModelCheckpoint, MetricsLog]:
    """Adapt a frozen backbone on paired demos with the alignment loss.

    Per step: draw a batch of pairs, sample frames (one shared sample per
    robot clip feeds both robot streams), pool the three streams, take one
    Adam step on adapter + query-projection parameters. The backbone is
    never touched.
    """
    config = config.validate()
    if config.method != "hr_align":
        raise ValueError(f"train_hr_align got method {config.method!r}")
    if not backbone.frozen:
        raise ValueError("train_hr_align requires a frozen backbone")
    _check_batchable(len(pairs), config.batch_size)

    if resume is not None:
        bad = _resume_mismatch(resume.config, config)
        if bad:
            raise ValueError(f"resume config differs on {bad}")
        if config.steps < resume.step:
            raise ValueError(
                f"steps={config.steps} is below the checkpoint's step {resume.step}"
            )
        stack, embedder = resume.stack, resume.embedder
        adam, rng, start_step = resume.adam, resume.rng.clone(), resume.step
    else:
        init_rng = RngState(config.seed)
        stack = AdapterStack.for_positions(
            config.adapter_positions, backbone, config.adapter_ratio, init_rng
        )
        embedder = (
            QueryEmbedder.create(init_rng, backbone.out_channels)
            if config.use_language
            else None
        )
        rng = init_rng
        start_step = 0
        params0 = dict(stack.named_parameters())
        if embedder is not None:
            params0.update(embedder.named_parameters())
        adam = AdamState.for_params(params0, lr=config.learning_rate)

    params = dict(stack.named_parameters())
    if embedder is not None:
        params.update(embedder.named_parameters())

    metrics = MetricsLog()
    for step in range(start_step, config.steps):
        t0 = time.perf_counter()
        idx = _batch_indices(config.seed, step, len(pairs), config.batch_size)
        batch = [pairs[i] for i in idx]
        human_frames, robot_frames = [], []
        for demo in batch:
            human_frames.append(sample_frames(demo.human, config.frames, rng))
            # one shared sample per robot clip feeds both robot streams
            robot_frames.append(sample_frames(demo.robot, config.frames, rng))
        feats = _stream_features(
            backbone, stack, embedder, batch, human_frames, robot_frames, config
        )
        loss = hr_align_loss(feats)
        zero_grads(params)
        loss.backward()
        adam_step(params, collect_grads(params), adam)
        stats = alignment_stats(feats)
        metrics.append(
            MetricsRow(
                step=step + 1,
                loss=loss.item(),
                pos_sim=stats["pos_sim"],
                hard_neg_sim=stats["hard_neg_sim"],
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
        )
    checkpoint = ModelCheckpoint(
        config=config,
        backbone=backbone,
        stack=stack,
        embedder=embedder,
        adam=adam,
        rng=rng,
        step=config.steps,
    )
    return checkpoint, metrics


def _stream_features(
    backbone: Backbone,
    stack: AdapterStack,
    embedder: QueryEmbedder | None,
    batch: list[PairedDemo],
    human_frames: list[np.ndarray],
    robot_frames: list[np.ndarray],
    config: TrainConfig,
) -> AlignmentBatchFeatures:
    b = len(batch)
    t = config.frames
    human_stack = np.concatenate(human_frames, axis=0)
    robot_stack = np.concatenate(robot_frames, axis=0)
    hooks = stack.hooks() if len(stack) else None

    def to_positions(feat: Tensor) -> Tensor:
        n, h, w, c = feat.shape
        return T.reshape(feat, (b, (n // b) * h * w, c))

    human_feat = to_positions(encode_batch(backbone, human_stack))
    frozen_feat = to_positions(encode_batch(backbone, robot_stack))
    adapted_feat = to_positions(encode_batch(backbone, robot_stack, hooks))
    if embedder is not None:
        queries = embed_texts(embedder, [d.description.text for d in batch])
        frozen_queries = queries.detach()
    else:
        queries = frozen_queries = None
    human_pooled = pool_many(human_feat, frozen_queries, config.normalize)
    frozen_pooled = pool_many(frozen_feat, frozen_queries, config.normalize)
    adapted_pooled = pool_many(adapted_feat, queries, config.normalize)
    return AlignmentBatchFeatures(human_pooled, frozen_pooled, adapted_pooled, config.tau)


# ---------------------------------------------------------------------------
# baselines


def _baseline_setup(config: TrainConfig, backbone: Backbone):
    """Learnable set for a baseline: the whole backbone copy, or adapters
    only in the parameter-efficient variant."""
    if config.baseline_adapter_only:
        backbone.freeze()
        rng = RngState(config.seed)
        stack = AdapterStack.for_positions(
            config.adapter_positions if config.adapter_positions != "none" else "L",
            backbone,
            config.adapter_ratio,
            rng,
        )
        params = dict(stack.named_parameters())
        hooks = stack.hooks()
    else:
        if backbone.frozen:
            raise ValueError("baseline fine-tuning needs an unfrozen backbone copy")
        rng = RngState(config.seed)
        stack = None
        params = dict(backbone.named_parameters())
        hooks = None
    return rng, stack, params, hooks


def _baseline_clips(config: TrainConfig, pairs: list[PairedDemo]) -> list[VideoClip]:
    clips = [demo.robot for demo in pairs]
    if config.baseline_full_data:
        clips = clips + [demo.human for demo in pairs]
    return clips


def train_baseline_pret(
    config: TrainConfig, pairs: list[PairedDemo], backbone: Backbone
) -> tuple[ModelCheckpoint, MetricsLog]:
    """Continue the pretext objective on robot clips, all weights learnable."""
    config = config.validate()
    if config.method != "pret_baseline":
        raise ValueError(f"train_baseline_pret got method {config.method!r}")
    clips = _baseline_clips(config, pairs)
    _check_batchable(len(clips), config.batch_size)
    rng, stack, params, hooks = _baseline_setup(config, backbone)
    adam = AdamState.for_params(params, lr=config.learning_rate)
    metrics = MetricsLog()
    for step in range(config.steps):
        t0 = time.perf_counter()
        idx = _batch_indices(config.seed, step, len(clips), config.batch_size)
        batch = [clips[i] for i in idx]
        loss, stats = pretext_loss(
            lambda fr: encode_batch(backbone, fr, hooks), batch, rng, config.tau
        )
        zero_grads(params)
        loss.backward()
        adam_step(params, collect_grads(params), adam)
        metrics.append(
            MetricsRow(
                step + 1,
                loss.item(),
                stats["pos_sim"],
                stats["hard_neg_sim"],
                (time.perf_counter() - t0) * 1e3,
            )
        )
    if not config.baseline_adapter_only:
        backbone.freeze()
    checkpoint = ModelCheckpoint(
        config=config,
        backbone=backbone,
        stack=stack,
        adam=adam,
        rng=rng,
        step=config.steps,
    )
    return checkpoint, metrics


def _class_index(pairs: list[PairedDemo]) -> dict[int, int]:
    return {task_id: i for i, task_id in enumerate(sorted({p.task_id for p in pairs}))}


def train_baseline_cls(
    config: TrainConfig, pairs: list[PairedDemo], backbone: Backbone
) -> tuple[ModelCheckpoint, MetricsLog]:
    """Fine-tune by classifying robot clips into their task categories."""
    config = config.validate()
    if config.method != "cls_baseline":
        raise ValueError(f"train_baseline_cls got method {config.method!r}")
    classes = _class_index(pairs)
    if len(classes) < 2:
        raise ValueError(f"classification baseline needs >= 2 task classes, got {len(classes)}")
    clips = _baseline_clips(config, pairs)
    _check_batchable(len(clips), config.batch_size)
    rng, stack, params, hooks = _baseline_setup(config, backbone)
    head = LinearHead.create(rng, backbone.out_channels, len(classes))
    _fit_head_scaler(head, backbone, hooks, clips, config)
    params.update(head.named_parameters())
    adam = AdamState.for_params(params, lr=config.learning_rate)
    metrics = MetricsLog()
    for step in range(config.steps):
        t0 = time.perf_counter()
        idx = _batch_indices(config.seed, step, len(clips), config.batch_size)
        batch = [clips[i] for i in idx]
        frames = np.concatenate(
            [sample_frames(clip, config.frames, rng) for clip in batch], axis=0
        )
        labels = np.array([classes[clip.task_id] for clip in batch])
        loss, probs = _cls_loss(backbone, hooks, head, frames, labels, len(batch), config.frames)
        zero_grads(params)
        loss.backward()
        adam_step(params, collect_grads(params), adam)
        true_p = probs[np.arange(len(batch)), labels]
        wrong = probs.copy()
        wrong[np.arange(len(batch)), labels] = -1.0
        metrics.append(
            MetricsRow(
                step + 1,
                loss.item(),
                float(true_p.mean()),
                float(wrong.max(axis=1).mean()),
                (time.perf_counter() - t0) * 1e3,
            )
        )
    if not config.baseline_adapter_only:
        backbone.freeze()
    checkpoint = ModelCheckpoint(
        config=config,
        backbone=backbone,
        stack=stack,
        head=head,
        adam=adam,
        rng=rng,
        step=config.steps,
    )
    return checkpoint, metrics


def _pooled_clip_features(backbone, hooks, frames, b, t) -> Tensor:
    feat = encode_batch(backbone, frames, hooks)  # (B*T, H', W', C)
    n, h, w, c = feat.shape
    return T.tmean(T.reshape(feat, (b, t * h * w, c)), axis=1)  # (B, C)


def _fit_head_scaler(head, backbone, hooks, clips, config) -> None:
    """Standardization stats from one deterministic pass over the clips."""
    rng = RngState(config.seed).derive("cls-scaler")
    frames = np.concatenate([sample_frames(c, config.frames, rng) for c in clips], axis=0)
    pooled = _pooled_clip_features(backbone, hooks, frames, len(clips), config.frames)
    head.mu.data = pooled.data.mean(axis=0)
    head.sd.data = pooled.data.std(axis=0) + 1e-8


def _cls_loss(backbone, hooks, head, frames, labels, b, t):
    pooled = head.standardize(_pooled_clip_features(backbone, hooks, frames, b, t))
    logits = T.add(T.matmul(pooled, head.w), head.b)
    log_z = T.logsumexp(logits, axis=1)
    onehot = np.zeros((b, logits.shape[1]))
    onehot[np.arange(b), labels] = 1.0
    picked = T.tsum(T.mul(logits, Tensor(onehot)), axis=1)
    loss = T.tmean(T.add(log_z, T.neg(picked)))
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    return loss, probs


def classification_accuracy(
    checkpoint: ModelCheckpoint, pairs: list[PairedDemo], seed: int = 977
) -> float:
    """Accuracy of a cls-baseline checkpoint on the given pairs' robot clips."""
    if checkpoint.head is None:
        raise ValueError("checkpoint has no classification head")
    classes = _class_index(pairs)
    config = checkpoint.config
    rng = RngState(seed)
    hooks = checkpoint.stack.hooks() if checkpoint.stack is not None else None
    hits = 0
    for demo in pairs:
        frames = sample_frames(demo.robot, config.frames, rng)
        pooled = checkpoint.head.standardize(
            _pooled_clip_features(checkpoint.backbone, hooks, frames, 1, config.frames)
        )
        logits = T.add(T.matmul(pooled, checkpoint.head.w), checkpoint.head.b)
        if int(np.argmax(logits.data[0])) == classes[demo.task_id]:
            hits += 1
    return hits / len(pairs)


# ---------------------------------------------------------------------------
# ablation grid


ABLATION_VARIANTS = (
    ("E", True),
    ("M", True),
    ("L", True),
    ("EML", True),
    ("L_nolang", False),
)


@dataclass
class AblationRun:
    name: str
    config: TrainConfig
    checkpoint: ModelCheckpoint
    metrics: MetricsLog
    row: dict


def run_ablation_grid(
    base_config: TrainConfig,
    pairs: list[PairedDemo],
    backbone: Backbone,
    heldout: list[PairedDemo] | None = None,
    evaluate: bool = True,
) -> list[AblationRun]:
    """Adapter-position sweep {E, M, L, EML} plus a no-language L variant.

    Each run trains from scratch on ``pairs`` and, when ``evaluate`` is
    set, reports retrieval and downstream metrics on ``heldout``.
    """
    from .evaluation import eval_downstream, eval_retrieval

    runs: list[AblationRun] = []
    for name, use_language in ABLATION_VARIANTS:
        positions = name.split("_")[0]
        config = replace(
            base_config,
            method="hr_align",
            adapter_positions=positions,
            use_language=use_language,
            out_dir=f"{base_config.out_dir}/{name}",
        )
        checkpoint, metrics = train_hr_align(config, pairs, backbone)
        counts = count_learnable(checkpoint.stack, checkpoint.embedder, backbone)
        row = {
            "name": name,
            "adapter_positions": positions,
            "use_language": use_language,
            "adapter_params": counts.adapter,
            "projection_params": counts.projection,
            "total_learnable": counts.total,
            "final_loss": metrics.losses[-1] if metrics.rows else float("nan"),
        }
        if evaluate and heldout:
            retrieval = eval_retrieval(checkpoint, heldout, adapted=True)
            row.update(
                {
                    "r2h_recall1": retrieval.r2h_recall1,
                    "r2h_recall5": retrieval.r2h_recall5,
                    "h2r_recall1": retrieval.h2r_recall1,
                    "h2r_recall5": retrieval.h2r_recall5,
                }
            )
            downstream = eval_downstream(checkpoint, [d.robot for d in pairs + heldout], adapted=True)
            row.update(
                {
                    "probe_accuracy": downstream.probe_accuracy,
                    "bc_mse": downstream.bc_mse,
                    "success_rate": downstream.success_rate,
                }
            )
        runs.append(AblationRun(name, config, checkpoint, metrics, row))
    return runs
