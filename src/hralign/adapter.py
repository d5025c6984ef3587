"""Residual bottleneck adapters injected into a frozen backbone.

An adapter block is down-project (1x1 conv), ReLU, up-project (1x1 conv),
plus the residual input. The up-projection starts at exactly zero, so a
freshly built adapted stream coincides bitwise with the frozen stream and
training is a pure departure from it. Blocks take batched (N, C, H, W)
activations only, as ``encoder.encode_batch`` passes them. A stack is
data: ``AdapterStack.blocks`` maps each junction to its block, and
``encode_batch`` runs each block at its junction. Position labels:

  E   before the first backbone block (narrowest channels),
  M   at every junction between consecutive blocks,
  L   after the last block.

``count_learnable`` reports a model's trainable footprint as the summed
sizes of its adapter and query-projection tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .rng import RngState
from .tensor import ShapeError, Tensor

if TYPE_CHECKING:
    from .encoder import Backbone

POSITION_SPECS = ("E", "M", "L", "EML", "none")
# Channels per bottleneck unit of every adapter ``train_hr_align`` builds.
ADAPTER_RATIO = 4


@dataclass
class AdapterBlock:
    down_w: Tensor  # (bottleneck, C, 1, 1)
    down_b: Tensor  # (bottleneck,)
    up_w: Tensor  # (C, bottleneck, 1, 1)
    up_b: Tensor  # (C,)
    channels: int
    bottleneck: int

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
        )

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.down_w": self.down_w,
            f"{prefix}.down_b": self.down_b,
            f"{prefix}.up_w": self.up_w,
            f"{prefix}.up_b": self.up_b,
        }


def adapter_forward(block: AdapterBlock, x: Tensor) -> Tensor:
    """x + up(relu(down(x))) on (N, C, H, W) activations."""
    if x.ndim != 4:
        raise ShapeError(f"adapter_forward: expected rank 4 (N, C, H, W), got {x.shape}")
    if x.shape[1] != block.channels:
        raise ShapeError(
            f"adapter_forward: input has {x.shape[1]} channels, block expects {block.channels}"
        )
    down_b = T.reshape(block.down_b, (block.bottleneck, 1, 1))
    up_b = T.reshape(block.up_b, (block.channels, 1, 1))
    h = T.relu(T.add(T.conv2d(x, block.down_w), down_b))
    delta = T.add(T.conv2d(h, block.up_w), up_b)
    return T.add(x, delta)


@dataclass
class AdapterStack:
    """Adapter blocks keyed by backbone junction index, in junction order."""

    blocks: dict[int, AdapterBlock]

    @classmethod
    def for_positions(
        cls, positions: str, backbone: Backbone, ratio: int, rng: RngState
    ) -> "AdapterStack":
        if positions not in POSITION_SPECS:
            raise ValueError(f"adapter positions must be one of {POSITION_SPECS}, got {positions!r}")
        n = backbone.n_blocks
        junctions: list[int] = []  # "none" holds no position letter
        if "E" in positions:
            junctions.append(0)
        if "M" in positions:
            junctions.extend(range(1, n))
        if "L" in positions:
            junctions.append(n)
        blocks = {j: AdapterBlock.create(backbone.channels[j], ratio, rng) for j in junctions}
        return cls(blocks)

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for j, blk in self.blocks.items():
            out.update(blk.named_parameters(f"adapter.j{j}"))
        return out


@dataclass
class LearnableCount:
    """Learnable-parameter counts of one adapted model: its adapters and
    its loss-side query projection."""

    adapter: int
    projection: int


def count_learnable(stack: AdapterStack | None, embedder) -> LearnableCount:
    """The summed ``named_parameters()`` sizes of ``stack`` and of the query
    ``embedder``; an absent part counts 0."""

    def size(part) -> int:
        return 0 if part is None else sum(t.size for t in part.named_parameters().values())

    return LearnableCount(adapter=size(stack), projection=size(embedder))
