"""Training loops: adapter alignment and the full-fine-tune baselines.

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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import tensor as T
from .adapter import AdapterStack
from .alignment import AlignmentBatchFeatures, alignment_stats, hr_align_loss, pool_many
from .dataset import PairedDemo, VideoClip, _atomic_write, _check_json, sample_frames
from .encoder import Backbone, encode_batch, pretext_loss
from .optim import AdamState, fit
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


def standard_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and std + 1e-8 of (N, C) features: the one
    standardiser of the classification head and the evaluation heads."""
    return x.mean(axis=0), x.std(axis=0) + 1e-8


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
    """A checkpoint file is truncated or corrupt, or its header disagrees
    with itself or with the tensors it indexes."""


# The checkpoint header, key by key in the order ``load`` checks it, in the
# spec language of ``dataset._check_json``.
HEADER_SPEC = {
    "version": int,
    "tensors": [{"name": str, "shape": [int], "offset": int, "nbytes": int}],
    "config": dict,
    "config_hash": str,
    "backbone": {"channels": [int], "strides": [int], "kernel": int, "frozen": bool},
    "stack": ({"positions": str, "junctions": [int], "ratio": int}, None),
    "embedder": ({"text_dim": int, "out_dim": int}, None),
    "head": ({"in_dim": int, "n_classes": int}, None),
    "adam": ({"lr": float, "beta1": float, "beta2": float, "eps": float, "step": int}, None),
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

    def learnable_parameters(self) -> dict[str, Tensor]:
        return {name: t for name, t in self.named_tensors().items() if t.requires_grad}

    def _header(self) -> tuple[dict, list[bytes]]:
        """The JSON header and, in name order, the serialized tensors it indexes."""
        arrays = {name: t.data for name, t in self.named_tensors().items()}
        for name in self.adam.m if self.adam is not None else ():
            arrays[f"adam.m.{name}"], arrays[f"adam.v.{name}"] = self.adam.m[name], self.adam.v[name]
        names = sorted(arrays)
        blobs = [T.to_bytes(arrays[name]) for name in names]
        offsets = np.cumsum([0] + [len(blob) for blob in blobs]).tolist()
        index = [
            {"name": name, "shape": list(arrays[name].shape), "offset": offset, "nbytes": len(blob)}
            for name, offset, blob in zip(names, offsets, blobs)
        ]
        bb, stack, emb, head, adam = self.backbone, self.stack, self.embedder, self.head, self.adam
        header = {
            "version": CHECKPOINT_VERSION,
            "tensors": index,
            "config": self.config.to_mapping(),
            "config_hash": self.config.config_hash(),
            "backbone": {
                "channels": list(bb.channels), "strides": [blk.stride for blk in bb.blocks],
                "kernel": bb.kernel, "frozen": bb.frozen,
            },
            "stack": None if stack is None else {
                "positions": stack.positions, "junctions": stack.junctions,
                "ratio": self.config.adapter_ratio,
            },
            "embedder": None if emb is None else {"text_dim": emb.text_dim, "out_dim": emb.out_dim},
            "head": None if head is None else {"in_dim": head.w.shape[0], "n_classes": head.w.shape[1]},
            "adam": None if adam is None else {
                "lr": adam.lr, "beta1": adam.beta1, "beta2": adam.beta2, "eps": adam.eps,
                "step": adam.step,
            },
            "rng": None if self.rng is None else list(self.rng.state()),
            "step": self.step,
        }
        return header, blobs

    def save(self, path: str) -> None:
        header, blobs = self._header()
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        _atomic_write(path, b"".join([struct.pack("<I", len(header_bytes)), header_bytes, *blobs]))

    @classmethod
    def load(cls, path: str) -> "ModelCheckpoint":
        """Read a checkpoint, checking its header against ``HEADER_SPEC``,
        every tensor's shape against the model the header builds, the
        header against the one ``save`` writes for what was loaded, that
        every tensor value is finite, and that no bytes follow the last
        tensor."""
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
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        _check_json(f"{path}: header", CheckpointError, header, HEADER_SPEC)
        if header["version"] != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {header['version']}")
        body = raw[4 + hlen :]
        arrays: dict[str, np.ndarray] = {}
        for entry in header["tensors"]:
            name = entry["name"]
            if entry["offset"] + entry["nbytes"] > len(body):
                raise CheckpointError(f"{path}: body truncated inside tensor {name!r}")
            try:
                arrays[name], _ = T.from_bytes(body, entry["offset"])
            except (struct.error, ValueError) as e:
                raise CheckpointError(f"{path}: tensor {name!r} is corrupt: {e}") from e
            if not np.isfinite(arrays[name]).all():
                raise CheckpointError(f"{path}: tensor {name!r} holds a NaN or infinite value")
        end = max((entry["offset"] + entry["nbytes"] for entry in header["tensors"]), default=0)
        if len(body) > end:
            raise CheckpointError(f"{path}: {len(body) - end} trailing bytes after the last tensor")

        arch, init_rng = header["backbone"], RngState(0)
        stack = embedder = head = adam = rng = None
        try:
            backbone = Backbone.create(init_rng, arch["channels"], arch["strides"], arch["kernel"])
            if arch["frozen"]:
                backbone.freeze()
            if (spec := header["stack"]) is not None:
                stack = AdapterStack.for_positions(spec["positions"], backbone, spec["ratio"], init_rng)
            if (spec := header["embedder"]) is not None:
                embedder = QueryEmbedder.create(init_rng, spec["out_dim"])
            if (spec := header["head"]) is not None:
                head = LinearHead.create(init_rng, spec["in_dim"], spec["n_classes"])
            if (spec := header["adam"]) is not None:
                adam = AdamState(*(spec[k] for k in ("lr", "beta1", "beta2", "eps", "step")))
            if header["rng"] is not None:
                rng = RngState.from_state(header["rng"])
            config = TrainConfig.from_mapping(header["config"])
        except (ValueError, ZeroDivisionError) as e:
            raise CheckpointError(f"{path}: {e}") from e
        for key, step in (("step", header["step"]), ("adam.step", adam.step if adam else 0)):
            if step < 0:
                raise CheckpointError(f"{path}: header key {key!r} is negative: {step}")
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
    state. Returns the checkpoint of ``backbone`` and ``parts`` at
    ``config.steps``, the backbone frozen (a fine-tuned copy is frozen once
    trained).
    """
    if resume is not None:
        adam, start = resume.adam, resume.step
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
        stack, embedder, rng = resume.stack, resume.embedder, resume.rng.clone()
    else:
        rng = RngState(config.seed)
        stack = AdapterStack.for_positions(
            config.adapter_positions, backbone, config.adapter_ratio, rng
        )
        embedder = (
            QueryEmbedder.create(rng, backbone.out_channels) if config.use_language else None
        )
    params = dict(stack.named_parameters())
    if embedder is not None:
        params.update(embedder.named_parameters())

    def batch_loss(batch: list[PairedDemo]) -> tuple[Tensor, dict]:
        human_frames, robot_frames = [], []
        for demo in batch:
            human_frames.append(sample_frames(demo.human, config.frames, rng))
            # one shared sample per robot clip feeds both robot streams
            robot_frames.append(sample_frames(demo.robot, config.frames, rng))
        human, robot = np.concatenate(human_frames), np.concatenate(robot_frames)
        hooks = stack.hooks() if len(stack) else None

        def positions(feat: Tensor) -> Tensor:  # (B*T, H, W, C) -> (B, T*H*W, C)
            return T.reshape(feat, (len(batch), -1, feat.shape[-1]))

        human_feat = positions(encode_batch(backbone, human))
        frozen_feat = positions(encode_batch(backbone, robot))
        adapted_feat = positions(encode_batch(backbone, robot, hooks))
        if embedder is not None:
            queries = embed_texts(embedder, [d.description.text for d in batch])
            frozen_queries = queries.detach()
        else:
            queries = frozen_queries = None
        feats = AlignmentBatchFeatures(
            pool_many(human_feat, frozen_queries, config.normalize),
            pool_many(frozen_feat, frozen_queries, config.normalize),
            pool_many(adapted_feat, queries, config.normalize),
            config.tau,
        )
        return hr_align_loss(feats), alignment_stats(feats)

    return _fit_checkpoint(
        config, pairs, params, batch_loss, resume,
        backbone=backbone, stack=stack, embedder=embedder, rng=rng,
    )


# ---------------------------------------------------------------------------
# baselines


def _baseline_setup(config: TrainConfig, method: str, pairs: list[PairedDemo], backbone: Backbone):
    """Clips, RNG, adapter stack (or None), learnable set and hooks of a
    baseline: the whole backbone copy learns, or adapters only in the
    parameter-efficient variant."""
    config.validate()
    if config.method != method:
        raise ValueError(f"train_baseline_{method.split('_')[0]} got method {config.method!r}")
    clips = [demo.robot for demo in pairs]
    if config.baseline_full_data:
        clips = clips + [demo.human for demo in pairs]
    _check_batchable(len(clips), config.batch_size)
    rng = RngState(config.seed)
    if config.baseline_adapter_only:
        backbone.freeze()
        positions = config.adapter_positions if config.adapter_positions != "none" else "L"
        stack = AdapterStack.for_positions(positions, backbone, config.adapter_ratio, rng)
        return clips, rng, stack, dict(stack.named_parameters()), stack.hooks()
    if backbone.frozen:
        raise ValueError("baseline fine-tuning needs an unfrozen backbone copy")
    return clips, rng, None, dict(backbone.named_parameters()), None


def train_baseline_pret(
    config: TrainConfig, pairs: list[PairedDemo], backbone: Backbone
) -> tuple[ModelCheckpoint, MetricsLog]:
    """Continue the pretext objective on robot clips, all weights learnable."""
    clips, rng, stack, params, hooks = _baseline_setup(config, "pret_baseline", pairs, backbone)

    def batch_loss(batch: list[VideoClip]) -> tuple[Tensor, dict]:
        return pretext_loss(lambda fr: encode_batch(backbone, fr, hooks), batch, rng, config.tau)

    return _fit_checkpoint(
        config, clips, params, batch_loss, backbone=backbone, stack=stack, rng=rng
    )


def _class_index(pairs: list[PairedDemo]) -> dict[int, int]:
    return {task_id: i for i, task_id in enumerate(sorted({p.task_id for p in pairs}))}


def train_baseline_cls(
    config: TrainConfig, pairs: list[PairedDemo], backbone: Backbone
) -> tuple[ModelCheckpoint, MetricsLog]:
    """Fine-tune by classifying robot clips into their task categories."""
    classes = _class_index(pairs)
    if len(classes) < 2:
        raise ValueError(f"classification baseline needs >= 2 task classes, got {len(classes)}")
    clips, rng, stack, params, hooks = _baseline_setup(config, "cls_baseline", pairs, backbone)
    head = LinearHead.create(rng, backbone.out_channels, len(classes))
    _fit_head_scaler(head, backbone, hooks, clips, config)
    params.update(head.named_parameters())

    def batch_loss(batch: list[VideoClip]) -> tuple[Tensor, dict]:
        b = len(batch)
        frames = np.concatenate([sample_frames(clip, config.frames, rng) for clip in batch], axis=0)
        labels = np.array([classes[clip.task_id] for clip in batch])
        logits = _head_logits(head, backbone, hooks, frames, b, config.frames)
        e = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        true_p = probs[np.arange(b), labels]
        probs[np.arange(b), labels] = -1.0  # the rest: the most probable wrong class
        stats = {"pos_sim": float(true_p.mean()), "hard_neg_sim": float(probs.max(axis=1).mean())}
        return T.cross_entropy(logits, labels), stats

    return _fit_checkpoint(
        config, clips, params, batch_loss, backbone=backbone, stack=stack, head=head, rng=rng
    )


def _pooled_clip_features(backbone, hooks, frames, b, t) -> Tensor:
    feat = encode_batch(backbone, frames, hooks)  # (B*T, H', W', C)
    n, h, w, c = feat.shape
    return T.tmean(T.reshape(feat, (b, t * h * w, c)), axis=1)  # (B, C)


def _fit_head_scaler(head, backbone, hooks, clips, config) -> None:
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
        frames = np.concatenate([sample_frames(c, config.frames, rng) for c in chunk], axis=0)
        rows.append(_pooled_clip_features(backbone, hooks, frames, len(chunk), config.frames).data)
    head.mu.data, head.sd.data = standard_stats(np.concatenate(rows, axis=0))


def _head_logits(head: LinearHead, backbone, hooks, frames, b, t) -> Tensor:
    """(B, K) class logits of B clips' (B*T, H, W, C) frames."""
    pooled = head.standardize(_pooled_clip_features(backbone, hooks, frames, b, t))
    return T.add(T.matmul(pooled, head.w), head.b)


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
        logits = _head_logits(checkpoint.head, checkpoint.backbone, hooks, frames, 1, config.frames)
        if int(np.argmax(logits.data[0])) == classes[demo.task_id]:
            hits += 1
    return hits / len(pairs)
