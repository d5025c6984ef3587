"""Dense float64 tensors with reverse-mode automatic differentiation.

The computation graph is rebuilt on every forward pass and walked once, in
reverse topological order, by :meth:`Tensor.backward`. All storage is numpy
float64 so analytic gradients can be audited against central finite
differences at tight tolerances. Single-threaded by contract: tensors are
treated as immutable once produced; only an optimizer step mutates
parameter data in place.

:func:`conv2d` reads its input channels-last. It pads into a zeroed
(N, H+2p, W+2p, C) buffer and gathers the patch matrix (N, Ho*Wo, C*k*k)
from it with one ``np.take`` over each flattened frame. The flat index is
built once per (padded size, C, k, stride), cached and read-only; the
gather moves whole patch rows where a strided copy would walk k-element
runs. A 1x1 stride-1 conv needs no gather: its patch matrix is a view of
the channels-last input. Columns run in (c, ki, kj) order, the order of
``kernels.reshape(C_out, -1)``. The product is one GEMM per frame. BLAS
does not promise that grouping rows differently keeps the summation
order; on OpenBLAS 0.3.31 one GEMM per frame was measured to be
bitwise equal to one GEMM per output row (the earlier formula), and
``test_conv2d_bitwise_equals_seed_formula`` guards that. A single GEMM
over all N*Ho*Wo rows was measured to change the last bits. Outputs are
NCHW views of channels-last memory, so the next conv's padding copy reads
its input in order.

The input gradient (col2im) scatters channels-last too: the patch-gradient
matrix is read as (N, Ho, Wo, C, k, k) without a transpose, and each
kernel tap (ki, kj) adds its strided slice into a zeroed (N, H, W, C)
buffer whose NCHW view goes to the input. Taps add in (ki, kj) order, so
every element gets the same IEEE additions in the same order, from +0.0,
as the seed formula's NCHW scatter: its bits cannot move with the layout.
Each tap's slice is clipped to the unpadded input, since adds into the
padding would be thrown away. At C = 3 (the first block, reached only when
an adapter sits at junction 0) the C-element inner runs are short, and
this scatter alone measured slower than the NCHW one (1.0 against 0.8 ms
per 80 frames); at C = 16 and 32 it is two to three times faster.

:func:`relu` computes ``np.fmax(a, 0.0)`` and then adds 0.0 in place,
which is bitwise ``np.where(a > 0, a, 0.0)`` without its branches: fmax
returns 0.0 for NaN and for every a < 0, and a positive a (subnormals and
+inf included) comes through unchanged, while adding +0.0 is exact and
turns the -0.0 that fmax may return for a = -0.0 into +0.0. Being a ufunc,
fmax lays out its result like its input, as np.where does.

:func:`take` is the one indexing op: ``a.data[index]`` forward, an
``np.add.at`` scatter into zeros backward. Where one-hot or ``eye`` masks
and selector-matrix products stood, it yields the same values and
gradients bitwise: those added only exact zeros to the picked entries.
:func:`cross_entropy` (log-sum-exp minus the picked label logit, averaged)
serves the classification heads and the pretext loss. ``hr_align_loss``
only takes its diagonal with ``take``: its positive logit feeds two
InfoNCE terms, and two cross_entropy calls would sum the three gradient
terms on the diagonal in another order, moving the last bits of every
trained adapter.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NumericError(ValueError):
    """Non-finite values showed up where finite ones are required."""


Axis = int | tuple[int, ...] | None


def _asarray(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._bwd: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A view of the same values, cut loose from the graph."""
        return Tensor(self.data)

    def backward(self, seed=None) -> None:
        """Accumulate gradients of this tensor w.r.t. every reachable
        tensor that has ``requires_grad``.

        ``seed`` defaults to ones (the usual case is a scalar loss).
        Gradients accumulate into ``.grad``; callers zero them between
        optimizer steps.
        """
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
        if seed is None:
            seed = np.ones_like(self.data)
        else:
            seed = _asarray(seed)
            if seed.shape != self.data.shape:
                raise ShapeError(
                    f"backward seed shape {seed.shape} != tensor shape {self.data.shape}"
                )
        # Iterative topological sort; graphs routinely exceed the Python
        # recursion limit.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        _accumulate(self, seed)
        for node in reversed(topo):
            if node._bwd is not None and node.grad is not None:
                node._bwd(node.grad)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _ensure_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # One pass laid out like t.data, not like g; adding 0.0 turns -0.0
        # into +0.0, so this is bitwise zeros_like(t.data) + g.
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += g


def _from_op(data: np.ndarray, parents: Sequence[Tensor], bwd) -> Tensor:
    """Wrap an op result; graph edges are only kept when a parent needs them."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._bwd = bwd
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / reduction ops


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as e:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from e

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _from_op(data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as e:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from e

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _from_op(data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    a = _ensure_tensor(a)

    def bwd(g):
        _accumulate(a, -g)

    return _from_op(-a.data, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    a = _ensure_tensor(a)
    # Bitwise np.where(a > 0, a, 0.0); see the module docstring.
    data = np.fmax(a.data, 0.0)
    data += 0.0

    def bwd(g):
        _accumulate(a, g * (a.data > 0.0))

    return _from_op(data, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    a = _ensure_tensor(a)
    data = np.exp(a.data)

    def bwd(g):
        _accumulate(a, g * data)

    return _from_op(data, (a,), bwd)


def log(a: Tensor) -> Tensor:
    a = _ensure_tensor(a)
    if np.any(a.data <= 0.0):
        raise NumericError("log: non-positive input")
    data = np.log(a.data)

    def bwd(g):
        _accumulate(a, g / a.data)

    return _from_op(data, (a,), bwd)


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise ``a ** p`` for a fixed scalar exponent."""
    a = _ensure_tensor(a)
    p = float(p)
    data = a.data**p

    def bwd(g):
        _accumulate(a, g * p * a.data ** (p - 1.0))

    return _from_op(data, (a,), bwd)


def tsum(a: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    a = _ensure_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        gg = g
        if not keepdims and axis is not None:
            axes = (axis,) if isinstance(axis, int) else axis
            gg = np.expand_dims(g, axes)
        _accumulate(a, np.broadcast_to(gg, a.data.shape))

    return _from_op(data, (a,), bwd)


def tmean(a: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    a = _ensure_tensor(a)
    if axis is None:
        n = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else axis
        n = 1
        for ax in axes:
            n *= a.data.shape[ax]
    s = tsum(a, axis, keepdims)
    return mul(s, Tensor(1.0 / n))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expected rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _from_op(data, (a, b), bwd)


def transpose(a: Tensor, axes=None) -> Tensor:
    a = _ensure_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        _accumulate(a, g.transpose(inv))

    return _from_op(a.data.transpose(axes), (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    a = _ensure_tensor(a)
    old = a.data.shape
    try:
        data = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: cannot view {old} as {shape}") from e

    def bwd(g):
        _accumulate(a, g.reshape(old))

    return _from_op(data, (a,), bwd)


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [_ensure_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat: empty input")
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def bwd(g):
        offset = 0
        for p, s in zip(parts, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + s)
            _accumulate(p, g[tuple(idx)])
            offset += s

    return _from_op(data, tuple(parts), bwd)


def take(a: Tensor, index) -> Tensor:
    """``a.data[index]`` for a basic or advanced numpy index; repeated
    entries of an advanced index sum their gradients."""
    a = _ensure_tensor(a)

    def bwd(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, index, g)
        _accumulate(a, ga)

    return _from_op(a.data[index], (a,), bwd)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax of ``labels`` over the rows of (B, K) logits."""
    labels = np.asarray(labels)
    picked = take(logits, (np.arange(len(labels)), labels))
    return tmean(add(logsumexp(logits, axis=1), neg(picked)))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis."""
    a = _ensure_tensor(a)
    if np.isnan(a.data).any():
        raise NumericError("softmax: NaN input")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        _accumulate(a, data * (g - inner))

    return _from_op(data, (a,), bwd)


def logsumexp(a: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    a = _ensure_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    data = m + np.log(s)
    soft = e / s
    if not keepdims:
        data = data.squeeze(axis=axis)

    def bwd(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        _accumulate(a, soft * gg)

    return _from_op(data, (a,), bwd)


def l2_normalize(a: Tensor, axis: int = -1, eps: float = 1e-24) -> Tensor:
    """Scale slices along ``axis`` to unit Euclidean norm.

    Composite of primitive ops, so gradients come for free. ``eps`` only
    matters for exactly-zero slices, which stay zero.
    """
    sq = tsum(mul(a, a), axis=axis, keepdims=True)
    inv = power(add(sq, Tensor(eps)), -0.5)
    return mul(a, inv)


# ---------------------------------------------------------------------------
# convolution


def conv2d(x: Tensor, kernels: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation.

    ``x`` is (C_in, H, W) or batched (N, C_in, H, W); ``kernels`` is
    (C_out, C_in, k, k). Output spatial size follows
    floor((H + 2*padding - k) / stride) + 1. The module docstring gives
    the patch layout and GEMM grouping that keep results bitwise stable.
    """
    x, kernels = _ensure_tensor(x), _ensure_tensor(kernels)
    if not isinstance(stride, int) or stride <= 0:
        raise ValueError(f"conv2d: stride must be a positive integer, got {stride!r}")
    if not isinstance(padding, int) or padding < 0:
        raise ValueError(f"conv2d: padding must be a non-negative integer, got {padding!r}")
    if kernels.ndim != 4 or kernels.shape[2] != kernels.shape[3]:
        raise ShapeError(f"conv2d: kernels must be (C_out, C_in, k, k), got {kernels.shape}")
    squeeze = x.ndim == 3
    xv = x.data[None] if squeeze else x.data
    if xv.ndim != 4:
        raise ShapeError(f"conv2d: input must be (C,H,W) or (N,C,H,W), got {x.shape}")
    n, c_in, h, w = xv.shape
    c_out, ck, k, _ = kernels.shape
    if c_in != ck:
        raise ShapeError(
            f"conv2d: input channels {tuple(xv.shape)} do not match kernels {kernels.shape}"
        )
    if k > h + 2 * padding or k > w + 2 * padding:
        raise ShapeError(
            f"conv2d: kernel {k}x{k} exceeds padded input {h + 2 * padding}x{w + 2 * padding}"
        )
    hp, wp = h + 2 * padding, w + 2 * padding
    ho, wo = (hp - k) // stride + 1, (wp - k) // stride + 1
    xt = xv.transpose(0, 2, 3, 1)  # (N, H, W, C) view
    if padding:
        xp = np.zeros((n, hp, wp, c_in))
        xp[:, padding : padding + h, padding : padding + w] = xt
    else:
        xp = xt
    if k == 1 and stride == 1:
        cols = xp.reshape(n, ho * wo, c_in)  # a view of channels-last memory
    else:
        idx = _patch_index(hp, wp, c_in, k, stride)
        cols = np.take(xp.reshape(n, -1), idx, axis=1)  # (N, Ho*Wo, C*k*k)
    wmat = kernels.data.reshape(c_out, c_in * k * k)
    out = cols @ wmat.T  # (N, Ho*Wo, C_out)
    data = out.reshape(n, ho, wo, c_out).transpose(0, 3, 1, 2)
    if squeeze:
        data = data[0]

    def bwd(g):
        gt = (g[None] if squeeze else g).transpose(0, 2, 3, 1)  # (N, Ho, Wo, C_out)
        if kernels.requires_grad:
            gw = gt.reshape(-1, c_out).T @ cols.reshape(-1, c_in * k * k)
            _accumulate(kernels, gw.reshape(c_out, c_in, k, k))
        if x.requires_grad:
            gcols = (gt @ wmat).reshape(n, ho, wo, c_in, k, k)
            gx = np.zeros((n, h, w, c_in))  # channels-last, padding never stored
            for ki in range(k):
                src_i, dst_i = _scatter_span(ki, ho, h, stride, padding)
                for kj in range(k):
                    src_j, dst_j = _scatter_span(kj, wo, w, stride, padding)
                    gx[:, dst_i, dst_j] += gcols[:, src_i, src_j, :, ki, kj]
            gx = gx.transpose(0, 3, 1, 2)
            _accumulate(x, gx[0] if squeeze else gx)

    return _from_op(data, (x, kernels), bwd)


def _scatter_span(kk: int, out: int, size: int, stride: int, padding: int) -> tuple[slice, slice]:
    """Output positions o whose kernel tap ``kk`` lands inside the unpadded
    input (0 <= kk + o*stride - padding < size), and the input positions they
    land on; both are empty when the tap only ever reads padding."""
    lo = max(0, -((kk - padding) // stride))
    hi = max(lo, min(out, (size + padding - 1 - kk) // stride + 1))
    start = kk + lo * stride - padding
    return slice(lo, hi), slice(start, start + (hi - lo) * stride, stride)


@lru_cache(maxsize=32)
def _patch_index(hp: int, wp: int, c: int, k: int, stride: int) -> np.ndarray:
    """Flat offsets into one padded (hp, wp, c) channels-last frame of every
    patch entry: row ``oi*Wo + oj``, columns in (c, ki, kj) order. Shared by
    every caller, hence read-only."""
    ho, wo = (hp - k) // stride + 1, (wp - k) // stride + 1
    rows = (np.arange(ho) * stride)[:, None, None, None, None] + np.arange(k)[:, None]
    cols = (np.arange(wo) * stride)[None, :, None, None, None] + np.arange(k)
    idx = (rows * wp + cols) * c + np.arange(c)[:, None, None]  # (Ho, Wo, C, k, k)
    idx = idx.reshape(ho * wo, c * k * k)
    idx.flags.writeable = False
    return idx


def conv_output_size(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


# ---------------------------------------------------------------------------
# serialization: rank and dims as unsigned 32-bit little-endian, followed by
# the row-major float64 little-endian payload.


def to_bytes(arr) -> bytes:
    a = arr.data if isinstance(arr, Tensor) else _asarray(arr)
    header = struct.pack("<I", a.ndim) + struct.pack(f"<{a.ndim}I", *a.shape)
    return header + np.ascontiguousarray(a, dtype="<f8").tobytes()


def from_bytes(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one serialized tensor; returns (array, next offset)."""
    (rank,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    dims = struct.unpack_from(f"<{rank}I", buf, offset)
    offset += 4 * rank
    count = int(np.prod(dims, dtype=np.int64)) if rank else 1
    arr = np.frombuffer(buf, dtype="<f8", count=count, offset=offset)
    offset += 8 * count
    return arr.astype(np.float64).reshape(dims), offset
