"""Task-aware attention pooling and the human-robot contrastive alignment loss.

Pooling flattens a feature map to positions x channels, scores each
position against the task query, and averages positions under the softmax
weights. The alignment loss is a symmetric InfoNCE-style objective over a
batch of (human-frozen, robot-frozen, robot-adapted) pooled triples: each
human feature must match its paired adapted robot feature better than the
unadapted robot feature and better than every other pair's adapted
feature, and vice versa. Similarities are exp(dot / tau); the loss is
evaluated in log space (log-sum-exp) because the exponentials overflow
float64 long before features get interesting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import FeatureMap
from .tensor import NumericError, ShapeError, Tensor

STREAM_TAGS = ("human-frozen", "robot-frozen", "robot-adapted")


@dataclass
class PooledFeature:
    vector: Tensor  # (C,)
    stream: str

    def __post_init__(self):
        if self.stream not in STREAM_TAGS:
            raise ValueError(f"unknown stream tag {self.stream!r}")


def stream_tag(domain: str, adapted: bool) -> str:
    if domain == "human":
        return "human-frozen"
    return "robot-adapted" if adapted else "robot-frozen"


def pool_many(values: Tensor, queries: Tensor | None, normalize: bool = True) -> Tensor:
    """Attention-pool (B, P, C) position features with (B, C) queries.

    A ``None`` query means uniform weights, i.e. a plain mean over
    positions (the language-off path).
    """
    b, p, c = values.shape
    if queries is None:
        pooled = T.tmean(values, axis=1)
    else:
        if queries.shape != (b, c):
            raise ShapeError(f"queries {queries.shape} do not match features {values.shape}")
        logits = T.tsum(T.mul(values, T.reshape(queries, (b, 1, c))), axis=2)  # (B, P)
        weights = T.softmax(logits, axis=1)
        pooled = T.tsum(T.mul(values, T.reshape(weights, (b, p, 1))), axis=1)  # (B, C)
    if normalize:
        pooled = T.l2_normalize(pooled, axis=1)
    return pooled


def attention_weights(features: FeatureMap, query: Tensor) -> np.ndarray:
    """Softmax position weights for one clip; sums to 1 over T*H*W."""
    t, h, w, c = features.values.shape
    flat = T.reshape(features.values, (1, t * h * w, c))
    logits = T.tsum(T.mul(flat, T.reshape(query, (1, 1, c))), axis=2)
    return T.softmax(logits, axis=1).data[0]


def task_aware_pool(
    features: FeatureMap, query: Tensor | None, normalize: bool = True
) -> PooledFeature:
    """Pool one clip's feature map into a single (C,) vector."""
    t, h, w, c = features.values.shape
    if query is not None and query.shape != (c,):
        raise ShapeError(f"query width {query.shape} does not match channels {c}")
    flat = T.reshape(features.values, (1, t * h * w, c))
    q = None if query is None else T.reshape(query, (1, c))
    pooled = pool_many(flat, q, normalize=normalize)
    return PooledFeature(T.reshape(pooled, (c,)), stream_tag(features.domain, features.adapted))


def similarity(x, y, tau: float) -> float:
    """exp(dot(x, y) / tau); symmetric in its arguments."""
    return math.exp(log_similarity(x, y, tau))


def log_similarity(x, y, tau: float) -> float:
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    xv = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    yv = y.data if isinstance(y, Tensor) else np.asarray(y, dtype=np.float64)
    return float(xv @ yv) / tau


@dataclass
class AlignmentBatchFeatures:
    """M pooled triples, stacked row-wise, plus the temperature."""

    human: Tensor  # (M, C) frozen human stream
    robot_frozen: Tensor  # (M, C)
    robot_adapted: Tensor  # (M, C), the only gradient-carrying operand
    tau: float

    def __post_init__(self):
        shapes = {self.human.shape, self.robot_frozen.shape, self.robot_adapted.shape}
        if len(shapes) != 1 or self.human.ndim != 2:
            raise ShapeError(
                f"feature stacks disagree: {self.human.shape}, "
                f"{self.robot_frozen.shape}, {self.robot_adapted.shape}"
            )
        if self.human.shape[0] < 1:
            raise ValueError("alignment batch must contain at least one triple")
        if self.tau <= 0:
            raise ValueError(f"temperature must be positive, got {self.tau}")

    @property
    def batch_size(self) -> int:
        return self.human.shape[0]


def hr_align_loss(batch: AlignmentBatchFeatures) -> Tensor:
    """Symmetric contrastive alignment loss over one batch.

    For pair i with human feature h_i, frozen robot feature f_i and
    adapted robot feature a_i, writing s(x, y) = exp(dot(x, y) / tau):

        L = mean_i 1/2 * [ -log s(h_i,a_i) / (sum_j s(h_i,a_j) + s(h_i,f_i))
                           -log s(a_i,h_i) / (sum_j s(a_i,h_j) + s(f_i,h_i)) ]

    Gradients flow only through the adapted features; the frozen streams
    enter as constants.
    """
    m = batch.batch_size
    for operand in (batch.human, batch.robot_frozen, batch.robot_adapted):
        if not np.isfinite(operand.data).all():
            raise NumericError("hr_align_loss: non-finite features")
    inv_tau = 1.0 / batch.tau
    human = batch.human.detach()
    frozen = batch.robot_frozen.detach()
    adapted = batch.robot_adapted
    logits = T.mul(T.matmul(human, T.transpose(adapted)), Tensor(inv_tau))  # (M, M)
    extra = (human.data * frozen.data).sum(axis=1, keepdims=True) * inv_tau  # (M, 1)
    extra_col = Tensor(extra)
    pos = T.tsum(T.mul(logits, Tensor(np.eye(m))), axis=1)  # diag, (M,)
    denom_h2r = T.logsumexp(T.concat([logits, extra_col], axis=1), axis=1)
    denom_r2h = T.logsumexp(T.concat([T.transpose(logits), extra_col], axis=1), axis=1)
    half = Tensor(0.5)
    loss = T.add(
        T.mul(T.tmean(T.add(denom_h2r, T.neg(pos))), half),
        T.mul(T.tmean(T.add(denom_r2h, T.neg(pos))), half),
    )
    return loss


def alignment_stats(batch: AlignmentBatchFeatures) -> dict[str, float]:
    """Diagnostics: mean paired dot and mean hardest-negative dot."""
    h = batch.human.data
    f = batch.robot_frozen.data
    a = batch.robot_adapted.data
    m = h.shape[0]
    cross = h @ a.T
    pos = np.diag(cross)
    off = cross - np.eye(m) * 1e18
    extra = (h * f).sum(axis=1)
    hardest = np.maximum(off.max(axis=1), extra) if m > 1 else extra
    return {"pos_sim": float(pos.mean()), "hard_neg_sim": float(hardest.mean())}
