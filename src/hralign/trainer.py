"""Training loops: adapter alignment and the full-fine-tune baselines.

All runs are deterministic given (config, seed): batch order is derived
per epoch from the seed, frame sampling consumes the single training RNG
stream, and that stream plus optimizer moments live in the checkpoint, so
save/resume reproduces an uninterrupted run bitwise. The alignment loss's
three streams and the classification head's inputs are all pooled clip
vectors from ``encoder.encode_pooled``.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import tensor as T
from .adapter import ADAPTER_RATIO, POSITION_SPECS, AdapterStack
from .alignment import AlignmentBatchFeatures, alignment_stats, hr_align_loss, label_stats
from .dataset import FRAMES_PER_CLIP, PairedDemo, VideoClip, _atomic_write, _check_json, sample_frames
from .encoder import Backbone, encode_batch, encode_pooled, pretext_loss
from .optim import AdamState, fit
from .rng import RngState
from .task_query import QueryEmbedder, embed_texts
from .tensor import Tensor

CHECKPOINT_VERSION = 2
METRICS_HEADER = "step,loss,pos_sim,hard_neg_sim,wall_ms"
METHODS = ("hr_align", "pret_baseline", "cls_baseline")


@dataclass
class TrainConfig:
    method: str = "hr_align"
    adapter_positions: str = "L"
    use_language: bool = True
    batch_size: int = 16
    # the 300-step desk-scale budget needs a larger step size than a long
    # full-scale run would use; see README on scaled-down defaults
    learning_rate: float = 1e-2
    steps: int = 300
    seed: int = 7
    out_dir: str = "runs/out"

    def validate(self) -> "TrainConfig":
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")
        for name in ("batch_size", "learning_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.steps < 0:
            raise ValueError(f"steps must be non-negative, got {self.steps}")
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
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in mapping.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = _coerce(key, value, getattr(cls, key))
        return cls(**kwargs).validate()

    def config_hash(self) -> str:
        blob = json.dumps(self.to_mapping(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(key: str, value, default):
    """``value`` as the type of ``default``: strings are parsed, an int field
    takes an integral float, and anything else is a ValueError naming ``key``."""
    kind = type(default)
    try:
        if kind is bool:
            return value if isinstance(value, bool) else _BOOLEANS[str(value).strip().lower()]
        if isinstance(value, str) or (kind is not str and type(value) in (int, float)):
            out = kind(value)
            if not (kind is int and isinstance(value, float) and out != value):
                return out
    except (KeyError, ValueError, OverflowError):
        pass
    raise ValueError(f"config key {key!r}: cannot read {value!r} as {kind.__name__}")


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


def load_config(path: str) -> dict:
    """The ``key = value`` mapping of a config file, not yet validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except FileNotFoundError:
        raise
    except OSError as e:  # a directory, or no read permission
        raise ValueError(f"config cannot be read: {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise ValueError(f"config is not UTF-8 text: {path}: {e.reason}") from e


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

    def to_csv_text(self) -> str:
        lines = [METRICS_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.step},{r.loss!r},{r.pos_sim!r},{r.hard_neg_sim!r},{r.wall_ms!r}"
            )
        return "\n".join(lines) + "\n"

    def deterministic_text(self) -> str:
        """CSV content without the wall-clock column (the one
        inherently non-reproducible field), which is each line's last."""
        lines = self.to_csv_text().splitlines()
        return "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)

    def save(self, path: str) -> None:
        _atomic_write(path, self.to_csv_text().encode("utf-8"))

    @property
    def losses(self) -> list[float]:
        return [r.loss for r in self.rows]


# ---------------------------------------------------------------------------
# checkpoint container


def standard_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and std + 1e-8 of (N, C) features: the one
    standardiser of the classification head and the evaluation heads."""
    return x.mean(axis=0), x.std(axis=0) + 1e-8


@dataclass
class LinearHead:
    """Linear classifier over standardized pooled features.

    Class k is the k-th of ``task_ids``, the ascending task ids the head
    was trained on. ``mu``/``sd`` are fixed standardization buffers computed
    once from the training clips; without them the pooled features bunch
    too tightly around a common direction for a linear head to separate.
    """

    w: Tensor  # (C, K)
    b: Tensor  # (K,)
    mu: Tensor  # (C,), buffer
    sd: Tensor  # (C,), buffer
    task_ids: list[int]  # (K,)

    @classmethod
    def create(cls, rng: RngState, in_dim: int, task_ids: list[int]) -> "LinearHead":
        if not task_ids or any(a >= b for a, b in zip(task_ids, task_ids[1:])):
            raise ValueError(f"head task ids must be ascending and distinct, got {task_ids}")
        n_classes = len(task_ids)
        w = Tensor(rng.normal((in_dim, n_classes)) / np.sqrt(in_dim), requires_grad=True)
        b = Tensor(np.zeros(n_classes), requires_grad=True)
        return cls(w, b, Tensor(np.zeros(in_dim)), Tensor(np.ones(in_dim)), list(task_ids))

    def named_parameters(self) -> dict[str, Tensor]:
        return {"head.w": self.w, "head.b": self.b}

    def named_buffers(self) -> dict[str, Tensor]:
        return {"head.mu": self.mu, "head.sd": self.sd}

    def standardize(self, pooled: Tensor) -> Tensor:
        return T.mul(T.add(pooled, Tensor(-self.mu.data)), Tensor(1.0 / self.sd.data))


class CheckpointError(ValueError):
    """A checkpoint file is truncated or corrupt, or its header disagrees
    with itself or with the tensors it names."""


# The checkpoint header, key by key in the order ``load`` checks it, in the
# spec language of ``dataset._check_json``: only what neither the config,
# the code's constants nor the tensors determine.
HEADER_SPEC = {
    "version": int,
    "tensors": [str],
    "config": dict,
    "config_hash": str,
    "backbone": {"channels": [int], "strides": [int], "kernel": int},
    "stack": bool,
    "embedder": bool,
    "head": ([int], None),
    "adam": bool,
    "rng": ([int], None),
    "step": int,
}


def _differing_key(a, b, key: str = "") -> str:
    """The dotted key of the first place where JSON values ``a != b`` differ."""
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return next(_differing_key(x, y, f"{key}[{i}]") for i, (x, y) in enumerate(zip(a, b)) if x != y)
    if isinstance(a, dict) and isinstance(b, dict):  # ``a`` stands in for a missing key
        k = min(k for k in a.keys() | b.keys() if a.get(k, a) != b.get(k, a))
        return _differing_key(a.get(k), b.get(k), f"{key}.{k}" if key else k)
    return key


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

    def adapters(self, adapted: bool) -> dict:
        """The adapter blocks to encode with: the stack's, or none (the
        frozen model) when ``adapted`` is false or there is no stack."""
        return self.stack.blocks if adapted and self.stack is not None else {}

    def _header(self) -> tuple[dict, list[bytes]]:
        """The JSON header and, in name order, the serialized tensors it names;
        a ValueError for what ``load`` would rebuild otherwise."""
        bb, adam = self.backbone, self.adam
        if not bb.frozen or adam is not None and (adam.lr, adam.step) != (self.config.learning_rate, self.step):
            raise ValueError("a checkpoint holds a frozen backbone and Adam at its config's lr and its step")
        arrays = {name: t.data for name, t in self.named_tensors().items()}
        for name in adam.m if adam is not None else ():
            arrays[f"adam.m.{name}"], arrays[f"adam.v.{name}"] = adam.m[name], adam.v[name]
        names = sorted(arrays)
        header = {
            "version": CHECKPOINT_VERSION,
            "tensors": names,
            "config": self.config.to_mapping(),
            "config_hash": self.config.config_hash(),
            "backbone": {
                "channels": list(bb.channels), "strides": [blk.stride for blk in bb.blocks], "kernel": bb.kernel,
            },
            "stack": self.stack is not None,
            "embedder": self.embedder is not None,
            "head": None if self.head is None else list(self.head.task_ids),
            "adam": adam is not None,
            "rng": None if self.rng is None else list(self.rng.state()),
            "step": self.step,
        }
        return header, [T.to_bytes(arrays[name]) for name in names]

    def save(self, path: str) -> None:
        """Write the header's length and JSON, the tensors in name order, and
        a sha256 of every byte before it."""
        header, blobs = self._header()
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        data = b"".join([struct.pack("<I", len(header_bytes)), header_bytes, *blobs])
        _atomic_write(path, data + hashlib.sha256(data).digest())

    @classmethod
    def load(cls, path: str) -> "ModelCheckpoint":
        """Read a checkpoint, checking its version, then its sha256 trailer,
        its header against ``HEADER_SPEC``, that every tensor value is
        finite, that no bytes follow the last tensor, every tensor's shape
        against the model the header builds, and last the header against
        the one ``save`` writes for what was loaded.

        What the header does not hold is derived: the backbone is frozen,
        the stack sits at ``config.adapter_positions`` with ``ADAPTER_RATIO``,
        the query projection and the head are ``backbone.out_channels`` wide,
        and Adam runs at ``config.learning_rate`` from ``step``.
        """
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            raise
        except OSError as e:  # a directory, or no read permission
            raise CheckpointError(f"{path}: cannot be read: {e.strerror}") from e
        if len(raw) < 4:
            raise CheckpointError(f"{path}: {len(raw)} bytes, too short for a checkpoint")
        (hlen,) = struct.unpack_from("<I", raw, 0)
        if 4 + hlen > len(raw):
            raise CheckpointError(f"{path}: header truncated ({len(raw) - 4} of {hlen} bytes present)")
        try:
            header = json.loads(raw[4 : 4 + hlen].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError(f"{path}: header is not valid JSON: {e}") from e
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        _check_json(f"{path}: header", CheckpointError, header, {"version": int})
        if header["version"] != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {header['version']}")
        body, digest = raw[4 + hlen : -32], raw[-32:]
        if len(raw) < 4 + hlen + 32 or hashlib.sha256(raw[:-32]).digest() != digest:
            raise CheckpointError(f"{path}: sha256 mismatch, the file is truncated or corrupt")
        _check_json(f"{path}: header", CheckpointError, header, HEADER_SPEC)
        arrays, end = {}, 0
        for name in header["tensors"]:
            try:
                arrays[name], end = T.from_bytes(body, end)
            except (struct.error, ValueError) as e:
                raise CheckpointError(f"{path}: tensor {name!r} is corrupt: {e}") from e
            if not np.isfinite(arrays[name]).all():
                raise CheckpointError(f"{path}: tensor {name!r} holds a NaN or infinite value")
        if len(body) > end:
            raise CheckpointError(f"{path}: {len(body) - end} trailing bytes after the last tensor")
        if header["step"] < 0:
            raise CheckpointError(f"{path}: header key 'step' is negative: {header['step']}")

        arch, init_rng = header["backbone"], RngState(0)
        stack = embedder = head = adam = rng = None
        try:
            config = TrainConfig.from_mapping(header["config"])
            backbone = Backbone.create(init_rng, arch["channels"], arch["strides"], arch["kernel"]).freeze()
            width = backbone.out_channels
            if header["stack"]:
                stack = AdapterStack.for_positions(config.adapter_positions, backbone, ADAPTER_RATIO, init_rng)
            if header["embedder"]:
                embedder = QueryEmbedder.create(init_rng, width)
            if header["head"] is not None:
                head = LinearHead.create(init_rng, width, header["head"])
            if header["adam"]:
                adam = AdamState(config.learning_rate, step=header["step"])
            if header["rng"] is not None:
                rng = RngState.from_state(header["rng"])
        except (ValueError, ZeroDivisionError) as e:
            raise CheckpointError(f"{path}: {e}") from e
        checkpoint = cls(config, backbone, stack, embedder, head, adam, rng, header["step"])

        def take(name: str, shape: tuple[int, ...]) -> np.ndarray:
            if name not in arrays:
                raise CheckpointError(f"{path}: no tensor entry {name!r}")
            if arrays[name].shape != shape:
                raise CheckpointError(
                    f"{path}: tensor {name!r} has shape {arrays[name].shape}, the model {shape}"
                )
            return arrays[name]

        named = checkpoint.named_tensors()
        for name, tensor in named.items():
            tensor.data = take(name, tensor.shape)
        if adam is not None:
            prefixes = ("adam.m.", "adam.v.")
            for name in sorted({n[len("adam.m.") :] for n in arrays if n.startswith(prefixes)}):
                if name not in named:
                    raise CheckpointError(f"{path}: adam moments of unknown tensor {name!r}")
                adam.m[name], adam.v[name] = (take(p + name, named[name].shape) for p in prefixes)
        rebuilt, _ = checkpoint._header()
        if rebuilt != header:
            key = _differing_key(header, rebuilt)
            raise CheckpointError(f"{path}: header key {key!r} disagrees with the checkpoint")
        return checkpoint


def save_run(checkpoint: ModelCheckpoint, metrics: MetricsLog) -> str:
    """Write a trained run's ``model.ckpt`` and ``metrics.csv`` into its
    ``config.out_dir``; returns the checkpoint's path."""
    out_dir = checkpoint.config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "model.ckpt")
    checkpoint.save(path)
    metrics.save(os.path.join(out_dir, "metrics.csv"))
    return path


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


def _fit_checkpoint(
    config: TrainConfig,
    items: list,
    params: dict[str, Tensor],
    batch_loss,
    resume: ModelCheckpoint | None = None,
    *,
    backbone: Backbone,
    **parts,
) -> tuple[ModelCheckpoint, MetricsLog]:
    """Train ``params`` on the ``_batch_indices`` batches of ``items``.

    Step s trains on ``batch_loss(batch) -> (loss, stats)`` and logs metrics
    row s + 1; a resumed run goes on from the checkpoint's step and Adam
    state, which must hold both moments of every one of ``params``.
    Returns the checkpoint of ``backbone`` and ``parts`` at
    ``config.steps``, the backbone frozen (a fine-tuned copy is frozen once
    trained).
    """
    if resume is not None:
        adam, start = resume.adam, resume.step
        if bare := [name for name in params if name not in adam.m or name not in adam.v]:
            raise ValueError(f"resume checkpoint holds no Adam moments of {bare[0]!r}")
    else:
        adam, start = AdamState.for_params(params, lr=config.learning_rate), 0
    n, seed, bsz = len(items), config.seed, config.batch_size
    rows = fit(
        params,
        adam,
        config.steps,
        lambda step: batch_loss([items[i] for i in _batch_indices(seed, step, n, bsz)]),
        start,
    )
    backbone.freeze()
    metrics = MetricsLog(
        [
            MetricsRow(step + 1, loss, stats["pos_sim"], stats["hard_neg_sim"], wall_ms)
            for step, (loss, stats, wall_ms) in enumerate(rows, start)
        ]
    )
    checkpoint = ModelCheckpoint(config, backbone, adam=adam, step=config.steps, **parts)
    return checkpoint, metrics


# ---------------------------------------------------------------------------
# HR-Align adaptation


def train_hr_align(
    config: TrainConfig,
    pairs: list[PairedDemo],
    backbone: Backbone,
    resume: ModelCheckpoint | None = None,
) -> tuple[ModelCheckpoint, MetricsLog]:
    """Adapt a frozen copy of ``backbone`` on paired demos with the alignment loss.

    Per step: draw a batch of pairs, sample frames (one shared sample per
    robot clip feeds both robot streams), pool the three streams, take one
    Adam step on adapter + query-projection parameters. A ``resume``
    checkpoint must hold ``backbone`` bitwise and everything a run goes on
    from: the adapter stack, the RNG, Adam with both moments of every
    trained parameter, and the query projection when ``use_language``.
    Neither the caller's backbone nor the checkpoint is touched.
    """
    config = config.validate()
    if config.method != "hr_align":
        raise ValueError(f"train_hr_align got method {config.method!r}")
    _check_batchable(len(pairs), config.batch_size)
    backbone = backbone.copy().freeze()

    if resume is not None:
        bad = [
            f.name for f in dataclasses.fields(TrainConfig)
            if f.name not in ("steps", "out_dir") and getattr(resume.config, f.name) != getattr(config, f.name)
        ]
        if bad:
            raise ValueError(f"resume config differs on {bad}")
        if config.steps < resume.step:
            raise ValueError(f"steps={config.steps} is below the checkpoint's step {resume.step}")
        ours, theirs = (
            {n: T.to_bytes(t.data) for n, t in b.named_parameters().items()} for b in (backbone, resume.backbone)
        )
        if moved := sorted(n for n in ours.keys() | theirs.keys() if ours.get(n) != theirs.get(n)):
            raise ValueError(f"resume backbone differs from the checkpoint's at tensor {moved[0]!r}")
        parts = {"adapter stack": resume.stack, "training RNG": resume.rng, "Adam state": resume.adam}
        if config.use_language:
            parts["query projection use_language needs"] = resume.embedder
        if absent := [part for part, value in parts.items() if value is None]:
            raise ValueError(f"resume checkpoint holds no {absent[0]}")
        resume = copy.deepcopy(resume)
        stack, embedder, rng = resume.stack, resume.embedder, resume.rng
    else:
        rng = RngState(config.seed)
        stack = AdapterStack.for_positions(config.adapter_positions, backbone, ADAPTER_RATIO, rng)
        embedder = (
            QueryEmbedder.create(rng, backbone.out_channels) if config.use_language else None
        )
    params = dict(stack.named_parameters())
    if embedder is not None:
        params.update(embedder.named_parameters())

    def batch_loss(batch: list[PairedDemo]) -> tuple[Tensor, dict]:
        human_frames, robot_frames = [], []
        for demo in batch:
            human_frames.append(sample_frames(demo.human, FRAMES_PER_CLIP, rng))
            # one shared sample per robot clip feeds both robot streams
            robot_frames.append(sample_frames(demo.robot, FRAMES_PER_CLIP, rng))
        human, robot = np.concatenate(human_frames), np.concatenate(robot_frames)
        if embedder is not None:
            queries = embed_texts(embedder, [d.description.text for d in batch])
            frozen_queries = queries.detach()
        else:
            queries = frozen_queries = None
        b = len(batch)
        feats = AlignmentBatchFeatures(
            encode_pooled(backbone, human, b, queries=frozen_queries),
            encode_pooled(backbone, robot, b, queries=frozen_queries),
            encode_pooled(backbone, robot, b, stack.blocks, queries),
        )
        return hr_align_loss(feats), alignment_stats(feats)

    return _fit_checkpoint(
        config, pairs, params, batch_loss, resume,
        backbone=backbone, stack=stack, embedder=embedder, rng=rng,
    )


# ---------------------------------------------------------------------------
# baselines


def _baseline_setup(config: TrainConfig, method: str, pairs: list[PairedDemo], backbone: Backbone):
    """Robot clips, RNG and the unfrozen backbone copy a baseline trains."""
    config.validate()
    if config.method != method:
        raise ValueError(f"train_baseline_{method.split('_')[0]} got method {config.method!r}")
    clips = [demo.robot for demo in pairs]
    _check_batchable(len(clips), config.batch_size)
    return clips, RngState(config.seed), backbone.copy().unfreeze()


def train_baseline_pret(
    config: TrainConfig, pairs: list[PairedDemo], backbone: Backbone
) -> tuple[ModelCheckpoint, MetricsLog]:
    """Continue the pretext objective on robot clips, all weights learnable."""
    clips, rng, backbone = _baseline_setup(config, "pret_baseline", pairs, backbone)

    def batch_loss(batch: list[VideoClip]) -> tuple[Tensor, dict]:
        return pretext_loss(lambda fr: encode_batch(backbone, fr), batch, rng)

    params = dict(backbone.named_parameters())
    return _fit_checkpoint(config, clips, params, batch_loss, backbone=backbone, rng=rng)


def _class_index(task_ids) -> dict[int, int]:
    """Class of each of ``task_ids``: its rank among the distinct ids in
    sorted order, the one task-to-class mapping of every head."""
    return {task_id: i for i, task_id in enumerate(sorted(set(task_ids)))}


def train_baseline_cls(
    config: TrainConfig, pairs: list[PairedDemo], backbone: Backbone
) -> tuple[ModelCheckpoint, MetricsLog]:
    """Fine-tune by classifying robot clips into their task categories."""
    classes = _class_index(p.task_id for p in pairs)
    if len(classes) < 2:
        raise ValueError(f"classification baseline needs >= 2 task classes, got {len(classes)}")
    clips, rng, backbone = _baseline_setup(config, "cls_baseline", pairs, backbone)
    head = LinearHead.create(rng, backbone.out_channels, list(classes))
    _fit_head_scaler(head, backbone, clips, config)
    params = {**backbone.named_parameters(), **head.named_parameters()}

    def batch_loss(batch: list[VideoClip]) -> tuple[Tensor, dict]:
        b = len(batch)
        frames = np.concatenate([sample_frames(clip, FRAMES_PER_CLIP, rng) for clip in batch], axis=0)
        labels = np.array([classes[clip.task_id] for clip in batch])
        logits = _head_logits(head, backbone, frames, b)
        probs = T.softmax(logits.detach(), axis=1).data
        return T.cross_entropy(logits, labels), label_stats(probs, labels)

    return _fit_checkpoint(config, clips, params, batch_loss, backbone=backbone, head=head, rng=rng)


def _fit_head_scaler(head, backbone, clips, config) -> None:
    """Standardization stats from one deterministic pass over the clips,
    sampled and encoded ``config.batch_size`` clips at a time.

    On an unfrozen backbone each encode keeps its whole graph alive until it
    returns, so chunking caps the pass at one training batch's activations
    instead of the whole set's. The stats are bitwise those of one pass over
    all clips: the clips draw from the ``cls-scaler`` stream in the same
    order, conv2d runs one GEMM per frame, bias add and ReLU are elementwise,
    and each clip's pooled row is a mean over its own frames only, so no
    value depends on which clips share a call.
    """
    rng = RngState(config.seed).derive("cls-scaler")
    rows = []
    for start in range(0, len(clips), config.batch_size):
        chunk = clips[start : start + config.batch_size]
        frames = np.concatenate([sample_frames(c, FRAMES_PER_CLIP, rng) for c in chunk], axis=0)
        rows.append(encode_pooled(backbone, frames, len(chunk), normalize=False).data)
    head.mu.data, head.sd.data = standard_stats(np.concatenate(rows, axis=0))


def _head_logits(head: LinearHead, backbone, frames, b) -> Tensor:
    """(B, K) class logits of B clips' (B*T, H, W, C) frames."""
    pooled = head.standardize(encode_pooled(backbone, frames, b, normalize=False))
    return T.add(T.matmul(pooled, head.w), head.b)


def classification_accuracy(checkpoint: ModelCheckpoint, pairs: list[PairedDemo]) -> float:
    """Accuracy of a cls-baseline checkpoint on the given pairs' robot clips,
    their frames sampled from seed 977.

    Each pair's task id maps to its class among the head's ``task_ids``, so
    the pairs may hold any of the head's tasks but no task it never saw.
    """
    head = checkpoint.head
    if head is None:
        raise ValueError("checkpoint has no classification head")
    if not pairs:
        raise ValueError("classification_accuracy: no pairs to score")
    classes = _class_index(head.task_ids)
    if unseen := [p.task_id for p in pairs if p.task_id not in classes]:
        raise ValueError(
            f"classification_accuracy: task {unseen[0]} is not among the head's tasks {head.task_ids}"
        )
    rng = RngState(977)
    hits = 0
    for demo in pairs:
        frames = sample_frames(demo.robot, FRAMES_PER_CLIP, rng)
        logits = _head_logits(head, checkpoint.backbone, frames, 1)
        if int(np.argmax(logits.data[0])) == classes[demo.task_id]:
            hits += 1
    return hits / len(pairs)


# ---------------------------------------------------------------------------
# the one entry


def train(
    config: TrainConfig,
    pairs: list[PairedDemo],
    backbone: Backbone,
    resume: ModelCheckpoint | None = None,
) -> tuple[ModelCheckpoint, MetricsLog]:
    """Train ``config.method`` on ``pairs`` over a copy of ``backbone`` by
    its trainer, looked up when called; every program trains through here.
    Only hr_align resumes: the baseline trainers take no ``resume``."""
    config = config.validate()
    if config.method == "hr_align":
        return train_hr_align(config, pairs, backbone, resume)
    if resume is not None:
        raise ValueError(f"method {config.method!r} cannot resume; only hr_align runs resume")
    if config.method == "pret_baseline":
        return train_baseline_pret(config, pairs, backbone)
    return train_baseline_cls(config, pairs, backbone)
