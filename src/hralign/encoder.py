"""Frame-wise convolutional video encoder and its self-supervised pretext.

The backbone is a stack of (conv, ReLU) blocks applied to each frame
independently; a clip of T frames maps to a T x H' x W' x C' feature map.
Adapters are data: ``encode_batch`` takes a dict of adapter blocks keyed
by junction and runs each at its junction. Every encode is ``encode_batch``
then ``alignment.pool_many``: ``encode_pooled`` composes them for a training
batch, and ``encode_clips`` encodes a set once, ``CLIP_CHUNK`` clips a call,
into per-clip maps that evaluation pools per protocol. Pre-training is
time-contrastive: pooled features of temporally close frames attract, far
frames and other clips' frames repel. Its
positive lies 1 or 2 frames from the anchor, it scores at the alignment
loss's temperature ``alignment.TAU``, and ``pretext_pretrain`` always trains
a fresh backbone drawn from its ``rng``; these are fixed in the code, not
options.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import tensor as T
from .adapter import AdapterBlock, adapter_forward
from .alignment import TAU, label_stats, pool_many
from .optim import AdamState, epoch_batches, fit
from .rng import RngState, bounded
from .tensor import Tensor

REF_CHANNELS = (3, 16, 32, 32)
REF_STRIDES = (2, 2, 1)
REF_KERNEL = 3

# Clips per ``encode_batch`` call of ``encode_clips``. Encoding costs ~1.5 MB
# of transient memory per whole reference clip, so 4 (~5 MB) stays below one
# L training step's ~12 MB peak and evaluation never sets a run's peak
# memory; 16 would not (~17.5 MB), and is no faster.
CLIP_CHUNK = 4


@dataclass
class ConvBlock:
    w: Tensor  # (C_out, C_in, k, k)
    b: Tensor  # (C_out,)
    stride: int
    padding: int


class Backbone:
    """Per-frame conv encoder; its weights learn unless ``frozen``."""

    def __init__(self, blocks: list[ConvBlock], channels: tuple[int, ...], kernel: int):
        self.blocks = blocks
        self.channels = channels
        self.kernel = kernel

    @classmethod
    def create(
        cls,
        rng: RngState,
        channels: Sequence[int] = REF_CHANNELS,
        strides: Sequence[int] = REF_STRIDES,
        kernel: int = REF_KERNEL,
    ) -> "Backbone":
        if len(strides) != len(channels) - 1:
            raise ValueError("strides must have one entry per block")
        for i, stride in enumerate(strides):
            if not isinstance(stride, int) or stride < 1:
                raise ValueError(f"block {i}: stride must be a positive int, got {stride!r}")
        blocks = []
        for c_in, c_out, stride in zip(channels[:-1], channels[1:], strides):
            scale = math.sqrt(2.0 / (c_in * kernel * kernel))
            w = Tensor(rng.normal((c_out, c_in, kernel, kernel)) * scale, requires_grad=True)
            b = Tensor(np.zeros(c_out), requires_grad=True)
            blocks.append(ConvBlock(w, b, stride, kernel // 2))
        return cls(blocks, tuple(channels), kernel)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def out_channels(self) -> int:
        return self.channels[-1]

    @property
    def frozen(self) -> bool:
        """True when no weight requires a gradient."""
        return not any(t.requires_grad for t in self.named_parameters().values())

    def freeze(self) -> "Backbone":
        for tensor in self.named_parameters().values():
            tensor.requires_grad = False
        return self

    def unfreeze(self) -> "Backbone":
        for tensor in self.named_parameters().values():
            tensor.requires_grad = True
        return self

    def named_parameters(self) -> dict[str, Tensor]:
        out = {}
        for i, block in enumerate(self.blocks):
            out[f"backbone.block{i}.w"] = block.w
            out[f"backbone.block{i}.b"] = block.b
        return out

    def copy(self) -> "Backbone":
        """Deep copy with the same ``requires_grad`` flags."""
        blocks = [
            ConvBlock(
                Tensor(blk.w.data.copy(), requires_grad=blk.w.requires_grad),
                Tensor(blk.b.data.copy(), requires_grad=blk.b.requires_grad),
                blk.stride,
                blk.padding,
            )
            for blk in self.blocks
        ]
        return Backbone(blocks, self.channels, self.kernel)


def encode_batch(
    backbone: Backbone, frames: np.ndarray, adapters: dict[int, AdapterBlock] | None = None
) -> Tensor:
    """Encode a (N, H, W, C) stack of frames to (N, H', W', C').

    ``adapters`` maps junction indices to adapter blocks: junction j sits
    before block j, junction n_blocks after the last block.
    """
    adapters = adapters or {}
    h = Tensor(np.ascontiguousarray(frames.transpose(0, 3, 1, 2)))
    for j, block in enumerate(backbone.blocks):
        if j in adapters:
            h = adapter_forward(adapters[j], h)
        h = T.bias_relu(T.conv2d(h, block.w, stride=block.stride, padding=block.padding), block.b)
    if backbone.n_blocks in adapters:
        h = adapter_forward(adapters[backbone.n_blocks], h)
    return T.transpose(h, (0, 2, 3, 1))


def encode_pooled(
    backbone: Backbone,
    frames: np.ndarray,
    clips: int,
    adapters: dict[int, AdapterBlock] | None = None,
    queries: Tensor | None = None,
    normalize: bool = True,
) -> Tensor:
    """Encode ``clips`` clips' frames, stacked clip by clip as (clips * T,
    H, W, C), and pool each clip's T * H' * W' positions to one row of the
    (clips, C') result: uniformly, or by attention with (clips, C')
    ``queries``; each row is L2-normalised when ``normalize``."""
    feat = encode_batch(backbone, frames, adapters)
    return pool_many(T.reshape(feat, (clips, -1, feat.shape[-1])), queries, normalize)


def encode_clips(
    backbone: Backbone, stacks: Iterable[np.ndarray], adapters: dict[int, AdapterBlock] | None = None
) -> Iterator[np.ndarray]:
    """Each clip's (T, H' * W', C') map as a plain array, in input order, from
    per-clip (T, H, W, C) frame stacks read one ``CLIP_CHUNK`` per
    ``encode_batch`` call; conv2d runs one GEMM per frame, so each map is
    bitwise its clip's own encode."""
    stacks = iter(stacks)
    while chunk := list(islice(stacks, CLIP_CHUNK)):
        feat = encode_batch(backbone, np.concatenate(chunk), adapters).data
        maps = feat.reshape(len(feat), -1, feat.shape[-1])
        yield from np.split(maps, np.cumsum([len(s) for s in chunk])[:-1])


# ---------------------------------------------------------------------------
# time-contrastive pretext


def _triplet_indices(t_len: int, draws: list[int]) -> list[int]:
    """Anchor, positive and far frame of a clip of ``t_len`` frames from its
    three draws, each mapped as ``RngState.randint`` maps one."""
    anchor = bounded(draws[0], t_len)
    delta = 1 + bounded(draws[1], 2)  # the positive is 1 or 2 frames away
    candidates = [i for i in (anchor + delta, anchor - delta) if 0 <= i < t_len]
    if not candidates:
        raise ValueError(f"pretext: a clip of {t_len} frames has no frame {delta} from frame {anchor}")
    positive = candidates[bounded(draws[2], len(candidates))]
    far = 0 if anchor > (t_len - 1) / 2 else t_len - 1
    return [anchor, positive, far]


def check_pretext_clips(clips) -> None:
    """Refuse a clip under 4 frames, where some anchor has no frame 1 or 2 away."""
    for clip in clips:
        if clip.length < 4:
            raise ValueError(f"pretext: the clip of pair {clip.pair_id} has {clip.length} frames, fewer than 4")


def pretext_loss(
    encode: Callable[[np.ndarray], Tensor], clips, rng: RngState
) -> tuple[Tensor, dict]:
    """Time-contrastive InfoNCE over a batch of clips.

    ``encode`` maps (N, H, W, C) frames to (N, H', W', C') features. Each
    clip contributes an anchor frame, a temporally close positive, and the
    farthest frame of the same clip as an extra negative; other clips'
    positives serve as in-batch negatives. One ``rng.u64`` call draws
    three per clip, in clip order, the draws of three ``randint`` calls.
    """
    b = len(clips)
    draws = rng.u64(3 * b).tolist()  # three per clip, in clip order
    triplets = [
        clip.frames[_triplet_indices(clip.length, draws[3 * i : 3 * i + 3])] for i, clip in enumerate(clips)
    ]
    # anchors, then positives, then far frames
    stacked = np.stack(triplets, axis=1).reshape(3 * b, *triplets[0].shape[1:])
    feats = encode(stacked)  # (3B, H', W', C')
    pooled = pool_many(T.reshape(feats, (3 * b, -1, feats.shape[-1])), None)  # (3B, C')
    a_rows = T.take(pooled, slice(0, b))
    p_rows = T.take(pooled, slice(b, 2 * b))
    f_rows = T.take(pooled, slice(2 * b, 3 * b))
    inv_tau = 1.0 / TAU
    cross = T.mul(T.matmul(a_rows, T.transpose(p_rows)), Tensor(inv_tau))  # (B, B)
    far_col = T.mul(
        T.tsum(T.mul(a_rows, f_rows), axis=1, keepdims=True), Tensor(inv_tau)
    )  # (B, 1)
    # row i's positive is column i; the far frame is the last column
    logits = T.concat([cross, far_col], axis=1)
    labels = np.arange(b)
    loss = T.cross_entropy(logits, labels)
    stats = label_stats(logits.data, labels)  # of dots scaled by 1 / TAU
    return loss, {name: value * TAU for name, value in stats.items()}


def pretext_pretrain(
    rng: RngState,
    human_clips,
    epochs: int,
    lr: float = 3e-6,
    batch_size: int = 16,
) -> tuple[Backbone, list[float]]:
    """Train a fresh backbone on human clips; returns it frozen.

    The per-epoch mean loss history is returned alongside so callers can
    track improvement. The README and the acceptance tests pin the default
    step size, 3e-6, at which the loss stays at chance: 2.8316 -> 2.8309
    over the reference run's 20 epochs, against ln 17 = 2.8332.
    """
    for clip in human_clips:
        if clip.domain != "human":
            raise ValueError(f"pretext_pretrain: clip {clip.pair_id} is not human-domain")
    if batch_size < 1:
        raise ValueError(f"pretext_pretrain: batch_size must be positive, got {batch_size}")
    n, bsz = len(human_clips), min(batch_size, len(human_clips))
    # each epoch's shuffle is drawn from ``rng`` before its first triplets
    batches = epoch_batches(human_clips, bsz, lambda _: rng.permutation(n))
    check_pretext_clips(human_clips)
    if epochs < 1:
        raise ValueError(f"pretext_pretrain: epochs must be at least 1, got {epochs}")
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"pretext_pretrain: lr must be finite and positive, got {lr}")
    backbone = Backbone.create(rng)
    params = backbone.named_parameters()
    per_epoch = n // bsz

    def step_loss(step: int) -> tuple[Tensor, dict]:
        return pretext_loss(lambda fr: encode_batch(backbone, fr), batches(step), rng)

    rows = fit(params, AdamState.for_params(params, lr=lr), epochs * per_epoch, step_loss)
    history = [
        float(np.mean([loss for loss, _, _ in rows[e * per_epoch : (e + 1) * per_epoch]]))
        for e in range(epochs)
    ]
    backbone.freeze()
    return backbone, history
