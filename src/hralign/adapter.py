"""Residual bottleneck adapters injected into a frozen backbone.

An adapter block is down-project (1x1 conv), ReLU, up-project (1x1 conv),
plus the residual input. The up-projection starts at exactly zero, so a
freshly built adapted stream coincides bitwise with the frozen stream and
training is a pure departure from it. Position labels:

  E   before the first backbone block (narrowest channels),
  M   at every junction between consecutive blocks,
  L   after the last block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import Backbone, FeatureMap, _check_frames, encode_batch
from .rng import RngState
from .tensor import ShapeError, Tensor

POSITION_SPECS = ("E", "M", "L", "EML", "none")


@dataclass
class AdapterBlock:
    down_w: Tensor  # (bottleneck, C, 1, 1)
    down_b: Tensor  # (bottleneck,)
    up_w: Tensor  # (C, bottleneck, 1, 1)
    up_b: Tensor  # (C,)
    channels: int
    bottleneck: int
    ratio: int

    @classmethod
    def create(cls, channels: int, ratio: int, rng: RngState) -> "AdapterBlock":
        bottleneck = max(1, channels // ratio)
        scale = math.sqrt(2.0 / channels)
        return cls(
            down_w=Tensor(rng.normal((bottleneck, channels, 1, 1)) * scale, requires_grad=True),
            down_b=Tensor(np.zeros(bottleneck), requires_grad=True),
            up_w=Tensor(np.zeros((channels, bottleneck, 1, 1)), requires_grad=True),
            up_b=Tensor(np.zeros(channels), requires_grad=True),
            channels=channels,
            bottleneck=bottleneck,
            ratio=ratio,
        )

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.down_w": self.down_w,
            f"{prefix}.down_b": self.down_b,
            f"{prefix}.up_w": self.up_w,
            f"{prefix}.up_b": self.up_b,
        }


def adapter_forward(block: AdapterBlock, x: Tensor) -> Tensor:
    """x + up(relu(down(x))) on (C, H, W) or (N, C, H, W) activations."""
    channel_axis = 0 if x.ndim == 3 else 1
    if x.ndim not in (3, 4):
        raise ShapeError(f"adapter_forward: expected rank 3 or 4, got {x.shape}")
    if x.shape[channel_axis] != block.channels:
        raise ShapeError(
            f"adapter_forward: input has {x.shape[channel_axis]} channels, "
            f"block expects {block.channels}"
        )
    down_b = T.reshape(block.down_b, (block.bottleneck, 1, 1))
    up_b = T.reshape(block.up_b, (block.channels, 1, 1))
    h = T.relu(T.add(T.conv2d(x, block.down_w), down_b))
    delta = T.add(T.conv2d(h, block.up_w), up_b)
    return T.add(x, delta)


class AdapterStack:
    """Adapter blocks keyed by backbone junction index, at most one each."""

    def __init__(self, blocks: list[tuple[int, AdapterBlock]], positions: str = "none"):
        junctions = [j for j, _ in blocks]
        if len(set(junctions)) != len(junctions):
            raise ValueError(f"duplicate adapter junctions: {junctions}")
        self.blocks = sorted(blocks, key=lambda item: item[0])
        self.positions = positions

    @classmethod
    def for_positions(
        cls, positions: str, backbone: Backbone, ratio: int, rng: RngState
    ) -> "AdapterStack":
        if positions not in POSITION_SPECS:
            raise ValueError(f"adapter positions must be one of {POSITION_SPECS}, got {positions!r}")
        n = backbone.n_blocks
        junctions: list[int] = []
        if positions != "none":
            if "E" in positions:
                junctions.append(0)
            if "M" in positions:
                junctions.extend(range(1, n))
            if "L" in positions:
                junctions.append(n)
        blocks = [
            (j, AdapterBlock.create(backbone.channels[j], ratio, rng)) for j in sorted(junctions)
        ]
        return cls(blocks, positions)

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def junctions(self) -> list[int]:
        return [j for j, _ in self.blocks]

    def hooks(self):
        return {j: (lambda x, blk=blk: adapter_forward(blk, x)) for j, blk in self.blocks}

    def named_parameters(self, prefix: str = "adapter") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for j, blk in self.blocks:
            out.update(blk.named_parameters(f"{prefix}.j{j}"))
        return out


def encode_adapted(
    backbone: Backbone, stack: AdapterStack | None, frames, domain: str = "unknown"
) -> FeatureMap:
    """Adapted-stream encoding: frozen backbone with adapter hooks.

    Only adapter weights can receive gradients. An empty stack bypasses
    adapters entirely and the result is flagged unadapted.
    """
    if not backbone.frozen:
        raise ValueError("encode_adapted requires a frozen backbone")
    if stack is not None:
        for j in stack.junctions:
            if not 0 <= j <= backbone.n_blocks:
                raise ValueError(f"adapter junction {j} invalid for {backbone.n_blocks} blocks")
    if isinstance(frames, Tensor):
        frames = frames.data
    frames = _check_frames(frames, backbone.in_channels)
    hooks = stack.hooks() if stack is not None and len(stack) else None
    values = encode_batch(backbone, frames, hooks)
    return FeatureMap(values, domain=domain, adapted=hooks is not None)


@dataclass
class LearnableCount:
    """Parameter accounting for one adapted model.

    ``ratio`` follows the adaptation-footprint convention: adapter
    parameters over frozen-backbone parameters. The loss-side query
    projection is reported separately and included in ``total``.
    """

    adapter: int
    projection: int
    backbone: int

    @property
    def total(self) -> int:
        return self.adapter + self.projection

    @property
    def ratio(self) -> float:
        return adaptation_ratio(self.adapter, self.backbone)


def adaptation_ratio(adapter_params: int, backbone_params: int) -> float:
    return adapter_params / backbone_params


def backbone_param_count(backbone: Backbone) -> int:
    """Closed-form count from architecture numbers (not tensor sizes)."""
    k = backbone.kernel
    total = 0
    for c_in, c_out in zip(backbone.channels[:-1], backbone.channels[1:]):
        total += c_out * c_in * k * k + c_out
    return total


def count_learnable(
    stack: AdapterStack | None,
    embedder=None,
    backbone: Backbone | None = None,
) -> LearnableCount:
    """Exact learnable-parameter counts from layer dimensions.

    Kept as pure arithmetic over (channels, bottleneck, width) so tests can
    cross-check it by independently summing tensor sizes.
    """
    adapter = 0
    if stack is not None:
        for _, blk in stack.blocks:
            adapter += 2 * blk.channels * blk.bottleneck + blk.channels + blk.bottleneck
    projection = 0
    if embedder is not None:
        projection = embedder.text_dim * embedder.out_dim + embedder.out_dim
    backbone_total = backbone_param_count(backbone) if backbone is not None else 0
    return LearnableCount(adapter=adapter, projection=projection, backbone=backbone_total)
