"""Shared test oracles: finite differences, a direct-exponential loss
reference, the composite graphs of the fused ``tensor`` nodes (the
behavior-cloning head, bias + ReLU, L2 normalisation, attention pooling),
the per-draw permutation and the per-clip frame and triplet samplers,
small model, checkpoint and short-clip builders, per-clip evaluation
encodes, checkpoint header edits, a task-compactness ratio for embedding
clouds, a strict JSON reader, and ``scripts/run_reference.py`` run in process.

Everything here is deliberately independent of the library's analytic
paths: gradients come from central differences on the forward value, and
the alignment loss reference exponentiates similarities directly instead
of working in log space.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from hralign import dataset
from hralign import tensor as T
from hralign.dataset import FRAMES_PER_CLIP, sample_frames
from hralign.encoder import Backbone, encode_pooled
from hralign.optim import AdamState, fit
from hralign.rng import RngState
from hralign.task_query import embed_texts
from hralign.tensor import Tensor, from_bytes
from hralign.trainer import ModelCheckpoint, TrainConfig


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(1.0, float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    return float(np.abs(a - b).max(initial=0.0)) / denom


def numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued f at x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        step = h * max(1.0, abs(x[idx]))
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        grad[idx] = (f(xp) - f(xm)) / (2.0 * step)
    return grad


def check_grad_against_fd(build, x0: np.ndarray, tol: float = 1e-6) -> float:
    """``build(x_array)`` must return a scalar Tensor; compares backward()
    gradients at x0 against central differences. Returns the error."""
    from hralign.tensor import Tensor

    holder = Tensor(x0.copy(), requires_grad=True)
    out = build(holder)
    out.backward()
    analytic = holder.grad.copy()
    numeric = numeric_grad(lambda xv: float(build(Tensor(xv, requires_grad=True)).data), x0)
    err = rel_err(analytic, numeric)
    assert err < tol, f"gradient mismatch: rel err {err:.3e} >= {tol:g}"
    return err


def naive_hr_align_loss(
    human: np.ndarray, robot_frozen: np.ndarray, robot_adapted: np.ndarray, tau: float
) -> float:
    """Direct-exponential evaluation of the symmetric alignment loss.

    Only safe for small feature norms; this is the reference the log-space
    implementation is checked against.
    """
    m = human.shape[0]

    def s(x, y):
        return math.exp(float(x @ y) / tau)

    total = 0.0
    for i in range(m):
        num = s(human[i], robot_adapted[i])
        den1 = s(human[i], robot_frozen[i]) + sum(
            s(human[i], robot_adapted[j]) for j in range(m)
        )
        den2 = s(robot_frozen[i], human[i]) + sum(
            s(robot_adapted[i], human[j]) for j in range(m)
        )
        total += -math.log(num / den1) - math.log(num / den2)
    return total / (2.0 * m)


def composite_bc_head(train_x: np.ndarray, train_y: np.ndarray, seed: int):
    """The behavior-cloning head trained through the composite graph of
    primitive ops (matmul, add, ``relu``, neg, mul, tmean), with the
    initialisation, steps and step size of ``evaluation.train_bc_head``:
    the oracle of its fused ``mlp_mse`` loss. Returns (per-step losses,
    trained arrays by name)."""
    rng = RngState(seed)
    d, hidden, out = train_x.shape[1], 32, train_y.shape[1]
    w1 = Tensor(rng.normal((d, hidden)) * np.sqrt(2.0 / d), requires_grad=True)
    b1 = Tensor(np.zeros(hidden), requires_grad=True)
    w2 = Tensor(rng.normal((hidden, out)) * np.sqrt(1.0 / hidden), requires_grad=True)
    b2 = Tensor(np.zeros(out), requires_grad=True)
    params = {"w1": w1, "b1": b1, "w2": w2, "b2": b2}
    x_t = Tensor(train_x)
    y_t = Tensor(train_y)

    def mse(_):
        h = relu(T.add(T.matmul(x_t, w1), b1))
        err = T.add(T.add(T.matmul(h, w2), b2), T.neg(y_t))
        return T.tmean(T.mul(err, err)), {}

    rows = fit(params, AdamState.for_params(params), 1e-2, 400, mse)
    return [loss for loss, _, _ in rows], {name: p.data for name, p in params.items()}


def relu(a: Tensor) -> Tensor:
    """The ReLU graph node the composite oracles build on: ``np.fmax(a,
    0.0)`` plus 0.0, bitwise ``np.where(a > 0, a, 0.0)`` (the ``tensor``
    docstring says why), its gradient masked by ``a > 0``. The library's
    ReLUs are fused into ``bias_relu`` and ``mlp_mse``."""
    data = np.fmax(a.data, 0.0)
    data += 0.0

    def bwd(g):
        T._accumulate(a, g * (a.data > 0.0))

    return T._from_op(data, (a,), bwd)


def composite_bias_relu(x: Tensor, b: Tensor) -> Tensor:
    """The graph ``tensor.bias_relu`` fuses: the oracle of its bits."""
    return relu(T.add(x, T.reshape(b, (b.size, 1, 1))))


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise ``a ** p`` for a fixed scalar exponent: the graph node
    the composite normalisation builds on."""
    data = a.data**p

    def bwd(g):
        T._accumulate(a, g * p * a.data ** (p - 1.0))

    return T._from_op(data, (a,), bwd)


def composite_l2_normalize(a: Tensor) -> Tensor:
    """The graph ``tensor.l2_normalize`` fuses: the oracle of its bits."""
    sq = T.tsum(T.mul(a, a), axis=1, keepdims=True)
    return T.mul(a, power(T.add(sq, Tensor(1e-24)), -0.5))


def composite_attention_pool(values: Tensor, queries: Tensor, normalize: bool) -> Tensor:
    """The graph of primitive ops ``tensor.attention_pool`` fuses, then the
    composite normalisation when ``normalize``: the oracle of the bits of
    ``attention_pool`` and of ``l2_normalize`` over it."""
    b, p, c = values.shape
    logits = T.tsum(T.mul(values, T.reshape(queries, (b, 1, c))), axis=2)  # (B, P)
    weights = T.softmax(logits, axis=1)
    pooled = T.tsum(T.mul(values, T.reshape(weights, (b, p, 1))), axis=1)  # (B, C)
    return composite_l2_normalize(pooled) if normalize else pooled


def randint_permutation(rng: RngState, n: int) -> list[int]:
    """Fisher-Yates over range(n), one ``randint`` draw per swap: the
    oracle of ``RngState.permutation`` and ``rng.shuffled``."""
    arr = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint(i + 1)
        arr[i], arr[j] = arr[j], arr[i]
    return arr


def per_clip_frame_indices(t_len: int, t: int, rng: RngState) -> list[int]:
    """One clip's t ascending frame indices from its own draws: without
    replacement when the clip is long enough, with replacement otherwise.
    The per-clip sampler that ``dataset.sample_frames`` batches."""
    if t_len >= t:
        return sorted(randint_permutation(rng, t_len)[:t])
    return sorted(rng.randint(t_len) for _ in range(t))


def per_clip_sample_frames(clips, t: int, rng: RngState) -> np.ndarray:
    """``dataset.sample_frames`` one clip at a time, the oracle of its frames
    and of the stream position it leaves."""
    frames = [clip.frames[per_clip_frame_indices(clip.length, t, rng)] for clip in clips]
    return np.concatenate(frames) if frames else np.empty((0,))


def per_clip_triplet_indices(t_len: int, rng: RngState) -> tuple[int, int, int]:
    """A pretext triplet (anchor, positive 1 or 2 frames away, far frame)
    from three ``randint`` draws: the per-clip form ``pretext_loss`` batches."""
    anchor = rng.randint(t_len)
    delta = 1 + rng.randint(2)
    candidates = [i for i in (anchor + delta, anchor - delta) if 0 <= i < t_len]
    positive = candidates[rng.randint(len(candidates))]
    far = 0 if anchor > (t_len - 1) / 2 else t_len - 1
    return anchor, positive, far


def micro_backbone(seed: int = 3, channels=(3, 4, 4, 4)) -> Backbone:
    """Tiny backbone for finite-difference audits through the full stack."""
    return Backbone.create(RngState(seed), channels=channels)


def small_checkpoint(positions: str = "L", language: bool = True, head: bool = False, seed: int = 0) -> ModelCheckpoint:
    """A micro-backbone checkpoint built by ``ModelCheckpoint.start``: an
    hr_align one with an adapter stack at ``positions`` and, when
    ``language``, a query projection; or, with ``head`` or with nothing for
    hr_align to learn, a cls_baseline one with a head over tasks 0, 1 and 2.
    Adapter up-projections and Adam moments are drawn at random, so a round
    trip carries real values; the step is ``seed % 7``."""
    hr_align = not head and (language or positions != "none")
    config = TrainConfig(
        method="hr_align" if hr_align else "cls_baseline",
        adapter_positions=positions if hr_align else "none",
        use_language=language and hr_align,
        seed=seed,
        out_dir="runs/small",
    )
    checkpoint = ModelCheckpoint.start(config, micro_backbone(seed).freeze(), [0, 1, 2])
    rng = RngState(seed).derive("values")
    for blk in checkpoint.blocks.values():
        blk.up_w.data = rng.normal(blk.up_w.shape)
    for name, p in checkpoint.trained().items():
        checkpoint.adam.m[name] = rng.normal(p.shape)
        checkpoint.adam.v[name] = rng.uniform(p.shape)
    checkpoint.adam.step = seed % 7
    return checkpoint


def clip_embedding(checkpoint: ModelCheckpoint, clip, text: str, adapted: bool) -> np.ndarray:
    """One clip's retrieval embedding from its own ``encode_pooled`` call:
    the per-clip oracle of evaluation's chunked encode. Frames come from
    seed 311's ``eval-frames`` stream of the pair id; the adapted path pools
    by ``text``'s task query when the checkpoint has a query projection."""
    frames = sample_frames([clip], FRAMES_PER_CLIP, RngState(311).derive("eval-frames", clip.pair_id))
    blocks, query = (checkpoint.blocks, checkpoint.query) if adapted else ({}, {})
    queries = embed_texts(query, [text]).detach() if query else None
    return encode_pooled(checkpoint.backbone, frames, 1, blocks, queries).data[0]


def frame_features(checkpoint: ModelCheckpoint, clip, adapted: bool) -> np.ndarray:
    """(T_len, C) unnormalised per-frame features of a whole clip from its
    own ``encode_pooled`` call: the per-clip oracle of ``eval_downstream``."""
    blocks = checkpoint.blocks if adapted else {}
    return encode_pooled(checkpoint.backbone, clip.frames, clip.length, blocks, normalize=False).data


def learnable_parameters(checkpoint: ModelCheckpoint) -> dict:
    """The checkpoint's tensors that training updates, by name."""
    return {name: t for name, t in checkpoint.named_tensors().items() if t.requires_grad}


def header_length(raw: bytes) -> int:
    return int.from_bytes(raw[:4], "little")


def seal(data: bytes) -> bytes:
    """``data`` followed by its sha256, as ``ModelCheckpoint.save`` ends a file."""
    return data + hashlib.sha256(data).digest()


def _sealed(header: dict, body: bytes) -> bytes:
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return seal(len(header_bytes).to_bytes(4, "little") + header_bytes + body)


def _parts(raw: bytes) -> tuple[dict, bytes]:
    """A checkpoint's JSON header and its body without the sha256 trailer."""
    hlen = header_length(raw)
    return json.loads(raw[4 : 4 + hlen]), raw[4 + hlen : -32]


def with_header(checkpoint_bytes: bytes, edit) -> bytes:
    """The checkpoint with its JSON header replaced by ``edit(header)`` and
    the sha256 trailer recomputed, so ``load`` gets past the checksum to the
    check an edit targets."""
    header, body = _parts(checkpoint_bytes)
    return _sealed(edit(header), body)


def body_tensors(checkpoint_bytes: bytes) -> dict[str, bytes]:
    """Each tensor's serialized bytes by name, in body order, found by
    walking the body with ``from_bytes`` as ``load`` does."""
    header, body = _parts(checkpoint_bytes)
    out, start = {}, 0
    for name in header["tensors"]:
        _, end = from_bytes(body, start)
        out[name], start = body[start:end], end
    return out


def with_tensors(checkpoint_bytes: bytes, edit) -> bytes:
    """The checkpoint with its body replaced by the tensors of
    ``edit(body_tensors(...))``, in that dict's order, which the header's
    ``tensors`` names follow; resealed."""
    tensors = edit(body_tensors(checkpoint_bytes))
    header, _ = _parts(checkpoint_bytes)
    header["tensors"] = list(tensors)
    return _sealed(header, b"".join(tensors.values()))


def without(*keys):
    """A header edit deleting one (nested) key; ints index lists."""

    def edit(header):
        node = header
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
        return header

    return edit


def setting(*keys):
    """A header edit setting one (nested) key to ``keys[-1]``; ints index lists."""

    def edit(header):
        node = header
        for key in keys[:-2]:
            node = node[key]
        node[keys[-2]] = keys[-1]
        return header

    return edit


# Checkpoint header edits that describe no backbone, each with the refusal
# ``Backbone.create`` names it by. A kernel or a channel width of 0 once
# loaded as a raw "float division by zero", a kernel of -1 as numpy's
# reshape error.
BACKBONE_PROBES = {
    "kernel_0": (setting("backbone", "kernel", 0), "kernel must be a positive int, got 0"),
    "kernel_-1": (setting("backbone", "kernel", -1), "kernel must be a positive int, got -1"),
    "width_0": (setting("backbone", "channels", 1, 0), "channels[1] must be a positive int, got 0"),
    "no_block": (
        lambda header: setting("backbone", "strides", [])(setting("backbone", "channels", [3])(header)),
        "a backbone needs one or more blocks, one stride each, got channels [3] and strides []",
    ),
}


def random_clip_frames(rng: RngState, t: int = 3, h: int = 16, w: int = 16) -> np.ndarray:
    return rng.uniform((t, h, w, 3))


def with_short_first_pair(pairs: list, length: int) -> list:
    """``pairs`` with the first pair's two clips cut to their first
    ``length`` frames (and stripped of their latent, which would not fit)."""
    first = pairs[0]
    human, robot = (
        dataclasses.replace(clip, frames=clip.frames[:length], positions=None, gripper=None)
        for clip in (first.human, first.robot)
    )
    return [dataclasses.replace(first, human=human, robot=robot), *pairs[1:]]


def sum_param_sizes(named: dict) -> int:
    """Independent size-sum oracle for parameter counts."""
    return int(sum(t.data.size for t in named.values()))


def mean_within_task_distance(embeddings: np.ndarray, task_ids: np.ndarray) -> float:
    """Mean pairwise distance between same-task embeddings (compactness)."""
    total, count = 0.0, 0
    for task in np.unique(task_ids):
        rows = embeddings[task_ids == task]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                total += float(np.linalg.norm(rows[i] - rows[j]))
                count += 1
    return total / count if count else 0.0


def mean_pairwise_distance(embeddings: np.ndarray) -> float:
    total, count = 0.0, 0
    for i in range(len(embeddings)):
        for j in range(i + 1, len(embeddings)):
            total += float(np.linalg.norm(embeddings[i] - embeddings[j]))
            count += 1
    return total / count if count else 0.0


def task_compactness_ratio(embeddings: np.ndarray, task_ids: np.ndarray) -> float:
    """Within-task distance relative to overall spread; lower = tighter
    task clusters. The raw within-task distance alone is meaningless when
    an embedding cloud is globally collapsed, so compactness is judged
    against the cloud's own scale."""
    overall = mean_pairwise_distance(embeddings)
    if overall == 0.0:
        return 1.0
    return mean_within_task_distance(embeddings, task_ids) / overall


class _HalfWriter:
    """A file whose write stores half the bytes and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("disk full")


def fail_writes_partway(monkeypatch) -> None:
    """Make every file write of ``dataset._atomic_write``, which all
    artifacts go through, store half its bytes and raise."""
    monkeypatch.setattr(
        dataset, "open", lambda path, mode="r", **kw: _HalfWriter(open(path, mode, **kw)),
        raising=False,
    )


REFERENCE_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_reference.py"


def run_reference_script(*argv: str) -> int:
    """``scripts/run_reference.py``'s exit code for the arguments ``argv``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))  # the script prepends src/
        mp.setattr(sys, "argv", [str(REFERENCE_SCRIPT), *argv])
        spec = importlib.util.spec_from_file_location("run_reference", REFERENCE_SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.main()


def strict_json(path):
    """The JSON at ``path``, refusing the NaN and Infinity literals that
    strict JSON readers refuse."""

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=refuse)
