"""Task-description queries: frozen hashed token embeddings, learnable projection.

Descriptions are lowercased, whitespace-split, each token hashed with
64-bit FNV-1a into a fixed bucket table of random vectors, and the bucket
vectors averaged. The table is generated once per process from a constant
seed, so it is identical in every run and checkpoints stay portable, and
each description's bag is built once per process too. Only the linear
projection to the feature width is learnable: plain data, its two tensors
by checkpoint name.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import tensor as T
from .rng import RngState, fnv1a64
from .tensor import Tensor

TEXT_DIM = 64
N_BUCKETS = 1024
_TABLE_SEED = 0x7A11E5
# Projection init scale, calibrated so query-position logits start wide
# enough for the softmax attention to concentrate within a short run.
_PROJ_SCALE = 24.0


def token_bucket(token: str) -> int:
    return fnv1a64(token.encode("utf-8")) % N_BUCKETS


@lru_cache(maxsize=1)
def build_table() -> np.ndarray:
    table = RngState(_TABLE_SEED).normal((N_BUCKETS, TEXT_DIM)) / math.sqrt(TEXT_DIM)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def bag_of_tokens(text: str) -> np.ndarray:
    """The mean bucket vector of ``text``'s tokens, read-only."""
    tokens = text.lower().split()
    if not tokens:
        raise ValueError(f"cannot embed empty task description: {text!r}")
    # sorted bucket order makes the float sum independent of token order,
    # so equal token multisets embed bitwise-identically
    bag = build_table()[sorted(token_bucket(tok) for tok in tokens)].mean(axis=0)
    bag.flags.writeable = False
    return bag


def query_projection(rng: RngState, out_dim: int) -> dict[str, Tensor]:
    """A fresh projection from a bag to ``out_dim`` features, by checkpoint name."""
    scale = _PROJ_SCALE / math.sqrt(TEXT_DIM)
    return {
        "query.proj_w": Tensor(rng.normal((TEXT_DIM, out_dim)) * scale, requires_grad=True),
        "query.proj_b": Tensor(np.zeros(out_dim), requires_grad=True),
    }


def embed_texts(projection: dict[str, Tensor], texts: list[str]) -> Tensor:
    """Query vectors for a batch of descriptions, shape (B, out_dim)."""
    bags = np.stack([bag_of_tokens(t) for t in texts])
    return T.add(T.matmul(Tensor(bags), projection["query.proj_w"]), projection["query.proj_b"])
