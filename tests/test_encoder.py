import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import per_clip_triplet_indices, random_clip_frames, small_checkpoint, with_short_first_pair
from hralign import encoder
from hralign.dataset import VideoClip, generate_paired_set
from hralign.encoder import CLIP_CHUNK, Backbone, encode_batch, encode_clips, pretext_loss, pretext_pretrain
from hralign.rng import RngState
from hralign.tensor import ShapeError, Tensor


def frozen_backbone(seed=3):
    return Backbone.create(RngState(seed)).freeze()


def test_zero_frames_zero_features():
    bb = frozen_backbone()
    out = encode_batch(bb, np.zeros((2, 16, 16, 3)))
    assert np.array_equal(out.data, np.zeros_like(out.data))


def test_reference_shape_law():
    bb = frozen_backbone()
    out = encode_batch(bb, random_clip_frames(RngState(1), t=5))
    assert out.shape == (5, 4, 4, 32)


def test_single_frame_shape_contract():
    bb = frozen_backbone()
    out = encode_batch(bb, random_clip_frames(RngState(2), t=1))
    assert out.shape == (1, 4, 4, 32)


def test_per_frame_determinism():
    bb = frozen_backbone()
    frames = random_clip_frames(RngState(4), t=5)
    frames[3] = frames[0]
    out = encode_batch(bb, frames)
    assert np.array_equal(out.data[0], out.data[3])


def test_frame_permutation_permutes_time_slices():
    bb = frozen_backbone()
    frames = random_clip_frames(RngState(5), t=4)
    perm = [2, 0, 3, 1]
    out = encode_batch(bb, frames)
    out_perm = encode_batch(bb, frames[perm])
    assert np.array_equal(out_perm.data, out.data[perm])


def test_wrong_channel_count_rejected():
    bb = frozen_backbone()
    with pytest.raises(ShapeError):
        encode_batch(bb, np.zeros((2, 16, 16, 4)))


def test_out_of_range_frames_rejected():
    """Frames are range-checked where they enter, in VideoClip, so every
    clip the encoder sees (generated or loaded) lies in [0, 1]."""
    for bad in (1.5, -0.5, np.nan):
        frames = np.full((2, 16, 16, 3), 0.5)
        frames[1, 3, 4, 2] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            VideoClip(frames, "human", 0, 0)
    frames[1, 3, 4, 2] = 1.0
    frames[0, 0, 0, 0] = 0.0
    VideoClip(frames, "human", 0, 0)  # both bounds are inside


def test_featuremap_rejects_nonfinite():
    """Non-finite values are stopped at VideoClip, so no clip the encoder
    is given can make a non-finite feature map."""
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        VideoClip(np.full((1, 2, 2, 3), np.nan), "human", 0, 0)
    for bad in (np.inf, -np.inf):
        frames = np.full((2, 16, 16, 3), 0.5)
        frames[0, 5, 6, 1] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            VideoClip(frames, "robot", 0, 0)
    clip = VideoClip(random_clip_frames(RngState(8), t=2), "human", 0, 0)
    assert np.isfinite(encode_batch(frozen_backbone(), clip.frames).data).all()


def test_encode_frozen_retains_no_gradients():
    bb = frozen_backbone()
    out = encode_batch(bb, random_clip_frames(RngState(6), t=2))
    assert not out.requires_grad
    for p in bb.named_parameters().values():
        assert p.grad is None


@pytest.mark.parametrize("positions", ["none", "E", "L", "EML"])
@pytest.mark.parametrize("n_clips", [0, 1, 4, 5, 9])
def test_encode_clips_equals_one_encode_batch_per_clip(monkeypatch, positions, n_clips):
    """``encode_clips`` yields each clip's (T, H' * W', C') map in input
    order, bitwise its own ``encode_batch`` map, from ceil(n / CLIP_CHUNK)
    calls of whole clips (none for no clips), and reads a generator input no
    further than the end of the chunk it is yielding from."""
    checkpoint = small_checkpoint(positions, language=False, seed=n_clips)
    backbone, adapters = checkpoint.backbone, checkpoint.blocks or None
    assert len(checkpoint.blocks) == {"none": 0, "E": 1, "L": 1, "EML": 4}[positions]
    rng = RngState(40 + n_clips)
    lengths = [2 + rng.randint(23) for _ in range(n_clips)]  # 2 to 24 frames
    stacks = [random_clip_frames(rng, t=n) for n in lengths]
    width = backbone.out_channels
    expected = [encode_batch(backbone, s, adapters).data.reshape(len(s), -1, width) for s in stacks]
    calls, read = [], []

    def spy(bb, frames, blocks=None):
        calls.append(frames)
        return encode_batch(bb, frames, blocks)

    def source():
        for stack in stacks:
            read.append(stack)
            yield stack

    monkeypatch.setattr(encoder, "encode_batch", spy)
    maps = []
    for m in encode_clips(backbone, source(), adapters):
        assert len(read) <= (len(maps) // CLIP_CHUNK + 1) * CLIP_CHUNK
        maps.append(m)
    assert len(maps) == n_clips
    assert all(np.array_equal(m, e) for m, e in zip(maps, expected))
    assert len(calls) == math.ceil(n_clips / CLIP_CHUNK)
    chunks = [stacks[i : i + CLIP_CHUNK] for i in range(0, n_clips, CLIP_CHUNK)]
    assert all(np.array_equal(f, np.concatenate(chunk)) for f, chunk in zip(calls, chunks))


# pretext --------------------------------------------------------------------


def human_clips(n=24, seed=9):
    pairs = generate_paired_set(RngState(seed), 3, n // 3, 0.5)
    return [p.human for p in pairs]


@pytest.mark.parametrize(
    "field, value",
    [
        ("epochs", 0),
        ("epochs", -1),
        ("lr", float("nan")),
        ("lr", float("inf")),
        ("lr", 0.0),
        ("lr", -1e-3),
    ],
)
def test_pretext_rejects_bad_schedule(field, value):
    """No run that trains nothing, or trains to non-finite weights."""
    clips = human_clips(n=6)
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        pretext_pretrain(RngState(17), clips, **{"epochs": 1, field: value})


def test_pretext_rejects_empty():
    with pytest.raises(ValueError):
        pretext_pretrain(RngState(1), [], epochs=1)


@pytest.mark.parametrize("length", [1, 2, 3])
def test_pretext_pretrain_refuses_a_clip_too_short_before_any_step(monkeypatch, length):
    """Below 4 frames some anchor has no positive: such a clip once failed
    at whatever step drew that anchor, if any did."""
    pairs = with_short_first_pair(generate_paired_set(RngState(3), 2, 4, 0.5), length)

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(encoder, "fit", no_training)
    message = f"^pretext: the clip of pair {pairs[0].pair_id} has {length} frames, fewer than 4$"
    with pytest.raises(ValueError, match=message):
        pretext_pretrain(RngState(1), [p.human for p in pairs], epochs=1)


def test_pretext_rejects_robot_clips():
    pairs = generate_paired_set(RngState(3), 2, 2, 0.5)
    with pytest.raises(ValueError):
        pretext_pretrain(RngState(1), [p.robot for p in pairs], epochs=1)


def test_pretext_deterministic():
    clips = human_clips()
    b1, h1 = pretext_pretrain(RngState(21), clips, epochs=2)
    b2, h2 = pretext_pretrain(RngState(21), clips, epochs=2)
    assert h1 == h2
    for (_, a), (_, b) in zip(
        sorted(b1.named_parameters().items()), sorted(b2.named_parameters().items())
    ):
        assert np.array_equal(a.data, b.data)


def test_pretext_reference_loss_improves(reference_backbone):
    history = reference_backbone.pretext_history
    assert len(history) == 20
    assert history[-1] < history[0]


@pytest.mark.parametrize(
    "strides, bad", [((2, 0, 1), "block 1"), ((2, 2, -2), "block 2"), ((2.0, 2, 1), "block 0")]
)
def test_create_rejects_stride_that_is_not_a_positive_int(strides, bad):
    with pytest.raises(ValueError, match=f"{bad}: stride must be a positive int"):
        Backbone.create(RngState(0), strides=strides)


def test_frozen_flag_blocks_grad_flags():
    bb = frozen_backbone()
    for p in bb.named_parameters().values():
        assert not p.requires_grad


def test_frozen_follows_requires_grad():
    bb = Backbone.create(RngState(0))
    assert not bb.frozen
    assert bb.freeze().frozen and bb.copy().frozen
    bb.blocks[0].w.requires_grad = True  # one learnable weight unfreezes the backbone
    assert not bb.frozen
    bb.blocks[0].w.requires_grad = False
    assert bb.frozen
    assert not bb.unfreeze().frozen and not bb.copy().frozen


def _numbered_clip(n: int) -> VideoClip:
    """n one-pixel frames, frame i holding i / 64."""
    return VideoClip((np.arange(n, dtype=np.float64) / 64.0).reshape(n, 1, 1, 1), "human", 0, n)


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.integers(min_value=4, max_value=30), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.one_of(st.integers(min_value=0, max_value=2**20), st.integers(min_value=2**64 - 20, max_value=2**64 - 1)),
)
def test_pretext_triplets_equal_the_per_clip_draws(lengths, seed, position):
    """One ``u64`` call of three draws per clip picks the anchors, positives
    and far frames of three ``randint`` draws per clip, and leaves the
    stream where they leave it, across the 2**64 wrap."""
    clips = [_numbered_clip(n) for n in lengths]
    seen = []

    def encode(frames):
        seen.append(frames)
        return Tensor(frames + 1.0)  # (3B, 1, 1, 1) features

    batched, per_clip = RngState(seed, position), RngState(seed, position)
    pretext_loss(encode, clips, batched)
    triplets = [clip.frames[list(per_clip_triplet_indices(clip.length, per_clip))] for clip in clips]
    expected = np.stack(triplets, axis=1).reshape(3 * len(clips), 1, 1, 1)
    assert np.array_equal(seen[0], expected)
    assert batched.state() == per_clip.state()


def test_pretext_refuses_a_clip_with_no_positive():
    with pytest.raises(ValueError, match="pretext: a clip of 1 frames"):
        pretext_loss(lambda fr: Tensor(fr + 1.0), [_numbered_clip(1)], RngState(0))
