import numpy as np
import pytest

from helpers import check_grad_against_fd, random_clip_frames
from hralign import tensor as T
from hralign.adapter import ADAPTER_RATIO, AdapterBlock, adapter_blocks, adapter_forward, adapter_parameters
from hralign.encoder import Backbone, encode_batch
from hralign.rng import RngState
from hralign.task_query import TEXT_DIM, query_projection
from hralign.tensor import ShapeError, Tensor


def frozen_backbone(seed=3):
    return Backbone.create(RngState(seed)).freeze()


def test_identity_at_init_bitwise():
    block = AdapterBlock.create(8, RngState(1))
    x = Tensor(RngState(2).normal((1, 8, 5, 5)))
    out = adapter_forward(block, x)
    assert np.array_equal(out.data, x.data)


def test_identity_like_projections_double_nonnegative_input():
    eye = np.eye(4).reshape(4, 4, 1, 1)  # a bottleneck as wide as the channels
    block = AdapterBlock(Tensor(eye), Tensor(np.zeros(4)), Tensor(eye), Tensor(np.zeros(4)))
    x = Tensor(np.abs(RngState(3).normal((1, 4, 3, 3))))
    out = adapter_forward(block, x)
    assert np.allclose(out.data, 2 * x.data, atol=1e-15)


def test_adapter_channel_mismatch():
    block = AdapterBlock.create(8, RngState(1))
    with pytest.raises(ShapeError):
        adapter_forward(block, Tensor(np.zeros((1, 7, 4, 4))))


def test_adapter_rejects_unbatched_input():
    block = AdapterBlock.create(8, RngState(1))
    with pytest.raises(ShapeError, match="rank 4"):
        adapter_forward(block, Tensor(np.zeros((8, 4, 4))))


def test_adapter_gradient_vs_fd():
    rng = RngState(11)
    block = AdapterBlock.create(8, rng)  # a bottleneck of 2
    block.up_w.data = rng.normal(block.up_w.shape) * 0.3  # move off identity
    block.up_b.data = rng.normal(block.up_b.shape) * 0.1
    x = rng.normal((1, 8, 4, 4))

    def build_for(param_name):
        def build(p):
            live = AdapterBlock(
                down_w=p if param_name == "down_w" else Tensor(block.down_w.data),
                down_b=Tensor(block.down_b.data) if param_name != "down_b" else p,
                up_w=p if param_name == "up_w" else Tensor(block.up_w.data),
                up_b=Tensor(block.up_b.data) if param_name != "up_b" else p,
            )
            return T.tsum(T.mul(adapter_forward(live, Tensor(x)), Tensor(x)))

        return build

    for name in ("down_w", "down_b", "up_w", "up_b"):
        start = getattr(block, name).data.copy()
        if name == "down_b":
            start = start + 0.05  # keep the relu off its kink
        check_grad_against_fd(build_for(name), start)


def test_blocks_positions_and_shapes():
    bb = frozen_backbone()
    expected = {"E": [0], "M": [1, 2], "L": [3], "EML": [0, 1, 2, 3], "none": []}
    for positions, junctions in expected.items():
        blocks = adapter_blocks(positions, bb, RngState(5))
        assert list(blocks) == junctions
        for j, block in blocks.items():
            c, b = bb.channels[j], max(1, bb.channels[j] // ADAPTER_RATIO)
            shapes = [block.down_w.shape, block.down_b.shape, block.up_w.shape, block.up_b.shape]
            assert shapes == [(b, c, 1, 1), (b,), (c, b, 1, 1), (c,)]


def test_blocks_reject_unknown_positions():
    bb = frozen_backbone()
    with pytest.raises(ValueError):
        adapter_blocks("X", bb, RngState(1))


def test_encode_adapted_without_blocks_bitwise_frozen():
    bb = frozen_backbone()
    frames = random_clip_frames(RngState(7), t=3)
    blocks = adapter_blocks("none", bb, RngState(1))
    assert blocks == {}
    frozen = encode_batch(bb, frames)
    adapted = encode_batch(bb, frames, blocks)
    assert not adapted.requires_grad
    assert np.array_equal(adapted.data, frozen.data)


@pytest.mark.parametrize("positions", ["E", "M", "L", "EML"])
def test_encode_adapted_identity_init_bitwise(positions):
    bb = frozen_backbone()
    blocks = adapter_blocks(positions, bb, RngState(9))
    frames = random_clip_frames(RngState(8), t=4)
    frozen = encode_batch(bb, frames)
    adapted = encode_batch(bb, frames, blocks)
    assert adapted.requires_grad
    assert np.array_equal(adapted.data, frozen.data)


def test_shape_preserved_for_all_positions():
    bb = frozen_backbone()
    frames = random_clip_frames(RngState(10), t=2)
    for positions in ("E", "M", "L", "EML"):
        blocks = adapter_blocks(positions, bb, RngState(11))
        for block in blocks.values():
            block.up_w.data = RngState(12).normal(block.up_w.shape) * 0.1
        out = encode_batch(bb, frames, blocks)
        assert out.shape == encode_batch(bb, frames).shape


def test_perturbed_adapter_changes_output():
    bb = frozen_backbone()
    blocks = adapter_blocks("L", bb, RngState(13))
    frames = random_clip_frames(RngState(14), t=3)
    frozen = encode_batch(bb, frames)
    blocks[3].up_b.data = blocks[3].up_b.data + 0.05
    adapted = encode_batch(bb, frames, blocks)
    assert not np.array_equal(adapted.data, frozen.data)


def test_gradient_isolation():
    bb = frozen_backbone()
    blocks = adapter_blocks("EML", bb, RngState(15))
    frames = random_clip_frames(RngState(16), t=2)
    out = encode_batch(bb, frames, blocks)
    T.tsum(T.mul(out, out)).backward()
    for name, p in bb.named_parameters().items():
        assert p.grad is None, name
    for name, p in adapter_parameters(blocks).items():
        assert p.grad is not None, name


def test_parameters_are_named_by_junction_in_junction_order():
    bb = frozen_backbone()
    blocks = adapter_blocks("EML", bb, RngState(20))
    names = [f"adapter.j{j}.{t}" for j in range(4) for t in ("down_w", "down_b", "up_w", "up_b")]
    assert list(adapter_parameters(blocks)) == names
    assert adapter_parameters({}) == {}


def test_count_matches_size_sum_oracle():
    """The summed tensor sizes equal the closed forms from layer widths: an
    adapter block of C channels and bottleneck b has 2*C*b + C + b
    parameters, the query projection TEXT_DIM*C' + C' at feature width C'."""
    bb = frozen_backbone()
    projection = query_projection(RngState(17), bb.out_channels)
    for positions in ("E", "M", "L", "EML"):
        blocks = adapter_blocks(positions, bb, RngState(18))
        widths = [(bb.channels[j], max(1, bb.channels[j] // ADAPTER_RATIO)) for j in blocks]
        assert sum(t.size for t in adapter_parameters(blocks).values()) == sum(
            2 * c * b + c + b for c, b in widths
        )
    width = bb.out_channels
    assert sum(t.size for t in projection.values()) == TEXT_DIM * width + width


def test_count_ordering_reference_widths():
    bb = frozen_backbone()
    counts = {
        pos: sum(t.size for t in adapter_parameters(adapter_blocks(pos, bb, RngState(19))).values())
        for pos in ("E", "M", "L", "EML")
    }
    assert counts["E"] < counts["L"] < counts["M"] < counts["EML"]
    assert counts["EML"] == counts["E"] + counts["M"] + counts["L"]
