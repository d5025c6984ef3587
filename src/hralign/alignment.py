"""Task-aware attention pooling and the human-robot contrastive alignment loss.

Pooling flattens a feature map to positions x channels and averages the
positions, either uniformly or under the softmax of each position's dot
with the task query; when asked, ``tensor.l2_normalize``, the library's
one L2 normalisation, then scales each pooled row to unit norm. The
alignment loss is a symmetric InfoNCE-style objective over a
batch of (human-frozen, robot-frozen, robot-adapted) pooled triples: each
human feature must match its paired adapted robot feature better than the
unadapted robot feature and better than every other pair's adapted
feature, and vice versa. Similarities are exp(dot / TAU); the loss is
evaluated in log space (log-sum-exp) because the exponentials overflow
float64 long before features get interesting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import NumericError, ShapeError, Tensor

# The contrastive temperature of the alignment loss and of the pretext loss.
TAU = 0.1


def pool_many(values: Tensor, queries: Tensor | None, normalize: bool = True) -> Tensor:
    """Pool (B, P, C) position features to (B, C), then scale each row to
    unit L2 norm when ``normalize``.

    With (B, C) queries the pooling is ``tensor.attention_pool``; a
    ``None`` query means uniform weights, i.e. a plain mean over positions
    (the language-off path).
    """
    pooled = T.tmean(values, axis=1) if queries is None else T.attention_pool(values, queries)
    return T.l2_normalize(pooled) if normalize else pooled


@dataclass
class AlignmentBatchFeatures:
    """M pooled triples, stacked row-wise."""

    human: Tensor  # (M, C) frozen human stream
    robot_frozen: Tensor  # (M, C)
    robot_adapted: Tensor  # (M, C), the only gradient-carrying operand

    def __post_init__(self):
        shapes = {self.human.shape, self.robot_frozen.shape, self.robot_adapted.shape}
        if len(shapes) != 1 or self.human.ndim != 2:
            raise ShapeError(
                f"feature stacks disagree: {self.human.shape}, "
                f"{self.robot_frozen.shape}, {self.robot_adapted.shape}"
            )
        if self.human.shape[0] < 1:
            raise ValueError("alignment batch must contain at least one triple")

    @property
    def batch_size(self) -> int:
        return self.human.shape[0]


def hr_align_loss(batch: AlignmentBatchFeatures) -> Tensor:
    """Symmetric contrastive alignment loss over one batch.

    For pair i with human feature h_i, frozen robot feature f_i and
    adapted robot feature a_i, writing s(x, y) = exp(dot(x, y) / TAU):

        L = mean_i 1/2 * [ -log s(h_i,a_i) / (sum_j s(h_i,a_j) + s(h_i,f_i))
                           -log s(a_i,h_i) / (sum_j s(a_i,h_j) + s(f_i,h_i)) ]

    Gradients flow only through the adapted features; the frozen streams
    enter as constants.
    """
    m = batch.batch_size
    for operand in (batch.human, batch.robot_frozen, batch.robot_adapted):
        if not np.isfinite(operand.data).all():
            raise NumericError("hr_align_loss: non-finite features")
    inv_tau = 1.0 / TAU
    human = batch.human.detach()
    frozen = batch.robot_frozen.detach()
    adapted = batch.robot_adapted
    logits = T.mul(T.matmul(human, T.transpose(adapted)), Tensor(inv_tau))  # (M, M)
    extra_col = Tensor((human.data * frozen.data).sum(axis=1, keepdims=True) * inv_tau)  # (M, 1)
    pos = T.take(logits, (np.arange(m), np.arange(m)))  # diag, (M,)
    denom_h2r = T.logsumexp(T.concat([logits, extra_col], axis=1), axis=1)
    denom_r2h = T.logsumexp(T.concat([T.transpose(logits), extra_col], axis=1), axis=1)
    half = Tensor(0.5)
    loss = T.add(
        T.mul(T.tmean(T.add(denom_h2r, T.neg(pos))), half),
        T.mul(T.tmean(T.add(denom_r2h, T.neg(pos))), half),
    )
    return loss


def label_stats(scores: np.ndarray, labels: np.ndarray) -> dict[str, float]:
    """The logged diagnostics of (B, K) ``scores`` whose row i belongs at
    column ``labels[i]``: ``pos_sim``, the mean score at each row's label,
    and ``hard_neg_sim``, the mean of each row's highest other score."""
    rows = np.arange(len(labels))
    others = scores.copy()
    others[rows, labels] = -np.inf
    return {
        "pos_sim": float(scores[rows, labels].mean()),
        "hard_neg_sim": float(others.max(axis=1).mean()),
    }


def alignment_stats(batch: AlignmentBatchFeatures) -> dict[str, float]:
    """``label_stats`` of each human row's dots with every adapted row and
    with its own frozen robot row; its label is its paired adapted row."""
    h = batch.human.data
    extra = (h * batch.robot_frozen.data).sum(axis=1, keepdims=True)
    scores = np.concatenate([h @ batch.robot_adapted.data.T, extra], axis=1)
    return label_stats(scores, np.arange(batch.batch_size))
