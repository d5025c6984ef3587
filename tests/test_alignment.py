import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    check_grad_against_fd,
    composite_attention_pool,
    composite_l2_normalize,
    naive_hr_align_loss,
    rel_err,
)
from hralign import tensor as T
from hralign.alignment import (
    AlignmentBatchFeatures,
    alignment_stats,
    hr_align_loss,
    label_stats,
    pool_many,
)
from hralign.rng import RngState
from hralign.tensor import NumericError, ShapeError, Tensor


def clip_positions(rng, t=2, h=2, w=2, c=6):
    """One clip's (T, H, W, C) feature map, flattened to (1, T*H*W, C)."""
    return Tensor(rng.normal((t, h, w, c)).reshape(1, t * h * w, c))


def unit_rows(rng, m, c):
    x = rng.normal((m, c))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# pooling ---------------------------------------------------------------------


def test_zero_query_equals_plain_mean():
    rng = RngState(1)
    values = clip_positions(rng)
    pooled = pool_many(values, Tensor(np.zeros((1, 6))), normalize=False)
    mean = values.data[0].mean(axis=0)
    assert pooled.shape == (1, 6)
    assert rel_err(pooled.data[0], mean) < 1e-15


def test_none_query_matches_zero_query():
    rng = RngState(2)
    values = clip_positions(rng)
    a = pool_many(values, None, normalize=True)
    b = pool_many(values, Tensor(np.zeros((1, 6))), normalize=True)
    assert rel_err(a.data, b.data) < 1e-12


def test_single_position_returns_that_feature():
    rng = RngState(3)
    values = clip_positions(rng, t=1, h=1, w=1)
    pooled = pool_many(values, Tensor(rng.normal((1, 6))), normalize=True)
    expected = values.data.reshape(6)
    expected = expected / np.linalg.norm(expected)
    assert rel_err(pooled.data[0], expected) < 1e-12


def test_dominant_logit_saturates():
    values = np.zeros((1, 2, 2, 3))
    values[0, 0, 0] = [60.0, 0.0, 0.0]  # dot with query e0 exceeds others by >= 50
    values[0, 0, 1] = [1.0, 2.0, 3.0]
    pooled = pool_many(
        Tensor(values.reshape(1, 4, 3)), Tensor(np.array([[1.0, 0.0, 0.0]])), normalize=False
    )
    assert rel_err(pooled.data[0], values[0, 0, 0]) < 1e-12


def test_attention_weights_sum_to_one():
    """A channel of ones pools to the sum of the attention weights, which
    the other (random) channels make unequal."""
    rng = RngState(4)
    values = rng.normal((2, 12, 6))
    values[:, :, 0] = 1.0
    pooled = pool_many(Tensor(values), Tensor(rng.normal((2, 6))), normalize=False)
    assert np.abs(pooled.data[:, 0] - 1.0).max() < 1e-12
    ones = pool_many(Tensor(np.ones((2, 12, 6))), Tensor(rng.normal((2, 6))), normalize=False)
    assert np.abs(ones.data - 1.0).max() < 1e-12


def test_pool_channel_mismatch():
    rng = RngState(5)
    with pytest.raises(ShapeError):
        pool_many(clip_positions(rng), Tensor(np.zeros((1, 5))))


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("with_queries", [True, False])
def test_pool_many_bitwise_equals_the_composite_graph(with_queries, normalize):
    """Uniform or attention pooling, normalised or not: the value and the
    gradients of the values and the queries keep their bits against the
    composite graph of primitive ops."""
    rng = RngState(7)
    v0, q0 = rng.normal((3, 10, 6)), rng.normal((3, 6))
    g = rng.normal((3, 6)) * (rng.uniform((3, 6)) > 0.2)

    def composite(values, queries):
        if queries is not None:
            return composite_attention_pool(values, queries, normalize)
        pooled = T.tmean(values, axis=1)
        return composite_l2_normalize(pooled) if normalize else pooled

    results = []
    for op in (lambda v, q: pool_many(v, q, normalize), composite):
        values = Tensor(v0.copy(), requires_grad=True)
        queries = Tensor(q0.copy(), requires_grad=True) if with_queries else None
        out = op(values, queries)
        T.tsum(T.mul(out, Tensor(g))).backward()
        results.append([out.data, values.grad] + ([queries.grad] if with_queries else []))
    for got, want in zip(*results):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_pool_gradient_vs_fd():
    rng = RngState(6)
    vals = rng.normal((1, 4, 6))
    probe = rng.normal(6)

    def build(q):
        pooled = pool_many(Tensor(vals), T.reshape(q, (1, 6)), normalize=True)
        return T.tsum(T.mul(pooled, Tensor(probe.reshape(1, 6))))

    check_grad_against_fd(build, rng.normal(6))


# loss ------------------------------------------------------------------------


def test_single_pair_identity_adapter_gives_ln2():
    rng = RngState(7)
    human = unit_rows(rng, 1, 8)
    frozen = unit_rows(rng, 1, 8)
    batch = AlignmentBatchFeatures(
        Tensor(human), Tensor(frozen), Tensor(frozen.copy(), requires_grad=True)
    )
    loss = hr_align_loss(batch)
    assert abs(loss.item() - math.log(2.0)) < 1e-9


def test_loss_positive_on_random_batches():
    for seed in range(5):
        rng = RngState(100 + seed)
        batch = AlignmentBatchFeatures(
            Tensor(unit_rows(rng, 4, 8)),
            Tensor(unit_rows(rng, 4, 8)),
            Tensor(unit_rows(rng, 4, 8), requires_grad=True),
        )
        assert hr_align_loss(batch).item() > 0.0


def test_loss_matches_naive_oracle():
    rng = RngState(8)
    human = unit_rows(rng, 3, 6)
    frozen = unit_rows(rng, 3, 6)
    adapted = unit_rows(rng, 3, 6)
    batch = AlignmentBatchFeatures(Tensor(human), Tensor(frozen), Tensor(adapted))
    ours = hr_align_loss(batch).item()
    reference = naive_hr_align_loss(human, frozen, adapted, 0.1)
    assert abs(ours - reference) < 1e-9


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**31), st.integers(min_value=2, max_value=5))
def test_loss_batch_permutation_invariant(seed, m):
    rng = RngState(seed)
    human = unit_rows(rng, m, 6)
    frozen = unit_rows(rng, m, 6)
    adapted = unit_rows(rng, m, 6)
    loss = hr_align_loss(
        AlignmentBatchFeatures(Tensor(human), Tensor(frozen), Tensor(adapted))
    ).item()
    perm = RngState(seed + 1).permutation(m)
    loss_perm = hr_align_loss(
        AlignmentBatchFeatures(
            Tensor(human[perm]), Tensor(frozen[perm]), Tensor(adapted[perm])
        )
    ).item()
    assert abs(loss - loss_perm) < 1e-12


def test_monotone_alignment_in_paired_dot():
    """Raising one paired similarity, all else fixed, lowers the loss.

    Checked at the dot-product level so a single entry of the similarity
    matrix can move while every other product stays fixed.
    """
    rng = RngState(9)
    m, c = 3, 6
    human = unit_rows(rng, m, c)
    frozen = unit_rows(rng, m, c)
    adapted = unit_rows(rng, m, c)

    def loss_from_dots(cross, extra, tau=0.1):
        m = cross.shape[0]
        total = 0.0
        for i in range(m):
            num = math.exp(cross[i, i] / tau)
            den1 = math.exp(extra[i] / tau) + sum(math.exp(cross[i, j] / tau) for j in range(m))
            den2 = math.exp(extra[i] / tau) + sum(math.exp(cross[j, i] / tau) for j in range(m))
            total += -math.log(num / den1) - math.log(num / den2)
        return total / (2 * m)

    cross = human @ adapted.T
    extra = (human * frozen).sum(axis=1)
    base = loss_from_dots(cross, extra)
    for eps in (0.01, 0.05, 0.2):
        cross_up = cross.copy()
        cross_up[1, 1] += eps
        assert loss_from_dots(cross_up, extra) < base


def test_loss_gradients_only_reach_adapted():
    rng = RngState(10)
    human = Tensor(unit_rows(rng, 3, 6), requires_grad=True)
    frozen = Tensor(unit_rows(rng, 3, 6), requires_grad=True)
    adapted = Tensor(unit_rows(rng, 3, 6), requires_grad=True)
    loss = hr_align_loss(AlignmentBatchFeatures(human, frozen, adapted))
    loss.backward()
    assert human.grad is None
    assert frozen.grad is None
    assert adapted.grad is not None


def test_loss_gradient_vs_fd():
    rng = RngState(11)
    human = unit_rows(rng, 3, 5)
    frozen = unit_rows(rng, 3, 5)

    def build(a):
        return hr_align_loss(
            AlignmentBatchFeatures(Tensor(human), Tensor(frozen), a)
        )

    check_grad_against_fd(build, unit_rows(rng, 3, 5))


def test_one_small_gradient_step_decreases_loss():
    rng = RngState(12)
    human = unit_rows(rng, 4, 8)
    frozen = unit_rows(rng, 4, 8)
    adapted0 = frozen.copy()  # identity-initialized adapter configuration
    a = Tensor(adapted0.copy(), requires_grad=True)
    loss = hr_align_loss(AlignmentBatchFeatures(Tensor(human), Tensor(frozen), a))
    loss.backward()
    base = loss.item()
    stepped = False
    for step in (1e-2, 1e-3, 1e-4):
        moved = adapted0 - step * a.grad
        new = hr_align_loss(
            AlignmentBatchFeatures(Tensor(human), Tensor(frozen), Tensor(moved))
        ).item()
        if new < base:
            stepped = True
            break
    assert stepped, "no step size in the line search decreased the loss"


def test_empty_batch_rejected():
    with pytest.raises(Exception):
        AlignmentBatchFeatures(
            Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 4)))
        )


def test_nonfinite_features_rejected():
    bad = np.ones((2, 4))
    bad[0, 0] = np.inf
    with pytest.raises(NumericError):
        hr_align_loss(
            AlignmentBatchFeatures(Tensor(bad), Tensor(np.ones((2, 4))), Tensor(np.ones((2, 4))))
        )


def test_mismatched_stacks_rejected():
    with pytest.raises(ShapeError):
        AlignmentBatchFeatures(
            Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4)))
        )


def test_alignment_stats_fields():
    rng = RngState(13)
    batch = AlignmentBatchFeatures(
        Tensor(unit_rows(rng, 4, 8)),
        Tensor(unit_rows(rng, 4, 8)),
        Tensor(unit_rows(rng, 4, 8)),
    )
    stats = alignment_stats(batch)
    assert set(stats) == {"pos_sim", "hard_neg_sim"}
    assert -1.0 <= stats["pos_sim"] <= 1.0


def test_label_stats_reads_the_label_and_the_hardest_other_column():
    scores = np.array([[0.9, 0.2, 0.5], [0.1, 0.3, 0.8]])
    kept = scores.copy()
    stats = label_stats(scores, np.array([0, 2]))
    assert stats == {"pos_sim": (0.9 + 0.8) / 2, "hard_neg_sim": (0.5 + 0.3) / 2}
    assert np.array_equal(scores, kept)
