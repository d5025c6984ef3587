"""Residual bottleneck adapters injected into a frozen backbone.

An adapter block is down-project (1x1 conv), ReLU, up-project (1x1 conv),
plus the residual input. The up-projection starts at exactly zero, so a
freshly built adapted stream coincides bitwise with the frozen stream and
training is a pure departure from it. Blocks take batched (N, C, H, W)
activations only, as ``encoder.encode_batch`` passes them. Adapters are
plain data: a dict from junction index to block, which ``adapter_blocks``
builds, ``adapter_parameters`` names and ``encode_batch`` runs, each block
at its junction. A block's channels and bottleneck width are the shapes of
its tensors. Position labels:

  E   before the first backbone block (narrowest channels),
  M   at every junction between consecutive blocks,
  L   after the last block.
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
# Channels per bottleneck unit of every adapter block.
ADAPTER_RATIO = 4


@dataclass
class AdapterBlock:
    down_w: Tensor  # (bottleneck, C, 1, 1)
    down_b: Tensor  # (bottleneck,)
    up_w: Tensor  # (C, bottleneck, 1, 1)
    up_b: Tensor  # (C,)

    @classmethod
    def create(cls, channels: int, rng: RngState) -> "AdapterBlock":
        bottleneck = max(1, channels // ADAPTER_RATIO)
        scale = math.sqrt(2.0 / channels)
        return cls(
            down_w=Tensor(rng.normal((bottleneck, channels, 1, 1)) * scale, requires_grad=True),
            down_b=Tensor(np.zeros(bottleneck), requires_grad=True),
            up_w=Tensor(np.zeros((channels, bottleneck, 1, 1)), requires_grad=True),
            up_b=Tensor(np.zeros(channels), requires_grad=True),
        )


def adapter_forward(block: AdapterBlock, x: Tensor) -> Tensor:
    """x + up(relu(down(x))) on (N, C, H, W) activations."""
    channels = block.up_b.shape[0]
    if x.ndim != 4:
        raise ShapeError(f"adapter_forward: expected rank 4 (N, C, H, W), got {x.shape}")
    if x.shape[1] != channels:
        raise ShapeError(f"adapter_forward: input has {x.shape[1]} channels, block expects {channels}")
    h = T.bias_relu(T.conv2d(x, block.down_w), block.down_b)
    delta = T.add(T.conv2d(h, block.up_w), T.reshape(block.up_b, (channels, 1, 1)))
    return T.add(x, delta)


def adapter_blocks(positions: str, backbone: Backbone, rng: RngState) -> dict[int, AdapterBlock]:
    """A fresh block at each junction ``positions`` names, drawn from ``rng``
    in junction order; junction j sits before backbone block j, junction
    ``n_blocks`` after the last."""
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
    return {j: AdapterBlock.create(backbone.channels[j], rng) for j in junctions}


def adapter_parameters(blocks: dict[int, AdapterBlock]) -> dict[str, Tensor]:
    """Every block's tensors by checkpoint name, ``adapter.j<junction>.<tensor>``."""
    return {f"adapter.j{j}.{name}": t for j, block in blocks.items() for name, t in vars(block).items()}
