"""Task-description queries: frozen hashed token embeddings, learnable projection.

Descriptions are lowercased, whitespace-split, each token hashed with
64-bit FNV-1a into a fixed bucket table of random vectors, and the bucket
vectors averaged. Only the linear projection to the feature width is
learnable; the table is generated once from a constant seed, so it is
identical in every run and checkpoints stay portable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass
class TaskDescription:
    text: str
    task_id: int

    def __post_init__(self):
        if not self.text:
            raise ValueError("task description text must be non-empty")


def token_bucket(token: str) -> int:
    return fnv1a64(token.encode("utf-8")) % N_BUCKETS


def build_table() -> np.ndarray:
    table = RngState(_TABLE_SEED).normal((N_BUCKETS, TEXT_DIM)) / math.sqrt(TEXT_DIM)
    table.flags.writeable = False
    return table


class QueryEmbedder:
    """Frozen bag-of-buckets featurizer plus a learnable linear head."""

    def __init__(self, table: np.ndarray, proj_w: Tensor, proj_b: Tensor):
        self.table = table
        self.proj_w = proj_w
        self.proj_b = proj_b
        self._bags: dict[str, np.ndarray] = {}  # by text; the table never changes

    @classmethod
    def create(cls, rng: RngState, out_dim: int) -> "QueryEmbedder":
        table = build_table()
        scale = _PROJ_SCALE / math.sqrt(TEXT_DIM)
        proj_w = Tensor(rng.normal((TEXT_DIM, out_dim)) * scale, requires_grad=True)
        proj_b = Tensor(np.zeros(out_dim), requires_grad=True)
        return cls(table, proj_w, proj_b)

    def named_parameters(self) -> dict[str, Tensor]:
        return {"query.proj_w": self.proj_w, "query.proj_b": self.proj_b}

    def bag_of_tokens(self, text: str) -> np.ndarray:
        """The mean bucket vector of ``text``'s tokens, built on its first
        request and kept, read-only, for every later one."""
        bag = self._bags.get(text)
        if bag is None:
            tokens = text.lower().split()
            if not tokens:
                raise ValueError(f"cannot embed empty task description: {text!r}")
            # sorted bucket order makes the float sum independent of token order,
            # so equal token multisets embed bitwise-identically
            idx = sorted(token_bucket(tok) for tok in tokens)
            bag = self.table[idx].mean(axis=0)
            bag.flags.writeable = False
            self._bags[text] = bag
        return bag


def embed_texts(embedder: QueryEmbedder, texts: list[str]) -> Tensor:
    """Query vectors for a batch of descriptions, shape (B, out_dim)."""
    bags = np.stack([embedder.bag_of_tokens(t) for t in texts])
    return T.add(T.matmul(Tensor(bags), embedder.proj_w), embedder.proj_b)

