import numpy as np
import pytest

from helpers import check_grad_against_fd, random_clip_frames
from hralign import tensor as T
from hralign.adapter import (
    AdapterBlock,
    AdapterStack,
    adapter_forward,
    count_learnable,
)
from hralign.encoder import Backbone, encode_batch
from hralign.rng import RngState
from hralign.task_query import TEXT_DIM, QueryEmbedder
from hralign.tensor import ShapeError, Tensor


def frozen_backbone(seed=3):
    return Backbone.create(RngState(seed)).freeze()


def test_identity_at_init_bitwise():
    block = AdapterBlock.create(8, 4, RngState(1))
    x = Tensor(RngState(2).normal((1, 8, 5, 5)))
    out = adapter_forward(block, x)
    assert np.array_equal(out.data, x.data)


def test_identity_like_projections_double_nonnegative_input():
    block = AdapterBlock.create(4, 1, RngState(1))  # bottleneck == channels
    block.down_w.data = np.eye(4).reshape(4, 4, 1, 1)
    block.up_w.data = np.eye(4).reshape(4, 4, 1, 1)
    x = Tensor(np.abs(RngState(3).normal((1, 4, 3, 3))))
    out = adapter_forward(block, x)
    assert np.allclose(out.data, 2 * x.data, atol=1e-15)


def test_adapter_channel_mismatch():
    block = AdapterBlock.create(8, 4, RngState(1))
    with pytest.raises(ShapeError):
        adapter_forward(block, Tensor(np.zeros((1, 7, 4, 4))))


def test_adapter_rejects_unbatched_input():
    block = AdapterBlock.create(8, 4, RngState(1))
    with pytest.raises(ShapeError, match="rank 4"):
        adapter_forward(block, Tensor(np.zeros((8, 4, 4))))


def test_adapter_gradient_vs_fd():
    rng = RngState(11)
    block = AdapterBlock.create(3, 2, rng)
    block.up_w.data = rng.normal(block.up_w.shape) * 0.3  # move off identity
    block.up_b.data = rng.normal(block.up_b.shape) * 0.1
    x = rng.normal((1, 3, 4, 4))

    def build_for(param_name):
        def build(p):
            live = AdapterBlock(
                down_w=p if param_name == "down_w" else Tensor(block.down_w.data),
                down_b=Tensor(block.down_b.data) if param_name != "down_b" else p,
                up_w=p if param_name == "up_w" else Tensor(block.up_w.data),
                up_b=Tensor(block.up_b.data) if param_name != "up_b" else p,
                channels=3,
                bottleneck=block.bottleneck,
            )
            return T.tsum(T.mul(adapter_forward(live, Tensor(x)), Tensor(x)))

        return build

    for name in ("down_w", "down_b", "up_w", "up_b"):
        start = getattr(block, name).data.copy()
        if name == "down_b":
            start = start + 0.05  # keep the relu off its kink
        check_grad_against_fd(build_for(name), start)


def test_stack_positions_and_channels():
    bb = frozen_backbone()
    expected = {"E": [0], "M": [1, 2], "L": [3], "EML": [0, 1, 2, 3], "none": []}
    for positions, junctions in expected.items():
        stack = AdapterStack.for_positions(positions, bb, 4, RngState(5))
        assert list(stack.blocks) == junctions
        for j, block in stack.blocks.items():
            assert block.channels == bb.channels[j]


def test_stack_rejects_unknown_positions():
    bb = frozen_backbone()
    with pytest.raises(ValueError):
        AdapterStack.for_positions("X", bb, 4, RngState(1))


def test_encode_adapted_empty_stack_bitwise_frozen():
    bb = frozen_backbone()
    frames = random_clip_frames(RngState(7), t=3)
    stack = AdapterStack.for_positions("none", bb, 4, RngState(1))
    assert stack.blocks == {}
    frozen = encode_batch(bb, frames)
    adapted = encode_batch(bb, frames, stack.blocks)
    assert not adapted.requires_grad
    assert np.array_equal(adapted.data, frozen.data)


@pytest.mark.parametrize("positions", ["E", "M", "L", "EML"])
def test_encode_adapted_identity_init_bitwise(positions):
    bb = frozen_backbone()
    stack = AdapterStack.for_positions(positions, bb, 4, RngState(9))
    frames = random_clip_frames(RngState(8), t=4)
    frozen = encode_batch(bb, frames)
    adapted = encode_batch(bb, frames, stack.blocks)
    assert adapted.requires_grad
    assert np.array_equal(adapted.data, frozen.data)


def test_shape_preserved_for_all_positions():
    bb = frozen_backbone()
    frames = random_clip_frames(RngState(10), t=2)
    for positions in ("E", "M", "L", "EML"):
        stack = AdapterStack.for_positions(positions, bb, 4, RngState(11))
        for block in stack.blocks.values():
            block.up_w.data = RngState(12).normal(block.up_w.shape) * 0.1
        out = encode_batch(bb, frames, stack.blocks)
        assert out.shape == encode_batch(bb, frames).shape


def test_perturbed_adapter_changes_output():
    bb = frozen_backbone()
    stack = AdapterStack.for_positions("L", bb, 4, RngState(13))
    frames = random_clip_frames(RngState(14), t=3)
    frozen = encode_batch(bb, frames)
    stack.blocks[3].up_b.data = stack.blocks[3].up_b.data + 0.05
    adapted = encode_batch(bb, frames, stack.blocks)
    assert not np.array_equal(adapted.data, frozen.data)


def test_gradient_isolation():
    bb = frozen_backbone()
    stack = AdapterStack.for_positions("EML", bb, 4, RngState(15))
    frames = random_clip_frames(RngState(16), t=2)
    out = encode_batch(bb, frames, stack.blocks)
    T.tsum(T.mul(out, out)).backward()
    for name, p in bb.named_parameters().items():
        assert p.grad is None, name
    for name, p in stack.named_parameters().items():
        assert p.grad is not None, name


def test_count_learnable_empty():
    counts = count_learnable(None, None)
    assert counts.adapter == 0 and counts.projection == 0


def test_count_matches_size_sum_oracle():
    """The summed tensor sizes equal the closed forms from layer widths: an
    adapter block of C channels and bottleneck b has 2*C*b + C + b
    parameters, the query projection TEXT_DIM*C' + C' at feature width C'."""
    bb = frozen_backbone()
    embedder = QueryEmbedder.create(RngState(17), bb.out_channels)
    for positions in ("E", "M", "L", "EML"):
        stack = AdapterStack.for_positions(positions, bb, 4, RngState(18))
        counts = count_learnable(stack, embedder)
        assert counts.adapter == sum(
            2 * blk.channels * blk.bottleneck + blk.channels + blk.bottleneck
            for blk in stack.blocks.values()
        )
        width = bb.out_channels
        assert counts.projection == TEXT_DIM * width + width


def test_count_ordering_reference_widths():
    bb = frozen_backbone()
    counts = {
        pos: count_learnable(AdapterStack.for_positions(pos, bb, 4, RngState(19)), None).adapter
        for pos in ("E", "M", "L", "EML")
    }
    assert counts["E"] < counts["L"] < counts["M"] < counts["EML"]
    assert counts["EML"] == counts["E"] + counts["M"] + counts["L"]
