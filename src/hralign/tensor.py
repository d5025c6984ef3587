"""Dense float64 tensors with reverse-mode automatic differentiation.

The computation graph is rebuilt on every forward pass and walked once, in
reverse topological order, by :meth:`Tensor.backward`, seeded with ones.
Ops take :class:`Tensor` operands only; nothing coerces an array, so wrap
one in ``Tensor(...)``. All storage is numpy float64 so analytic gradients
can be audited against central finite differences at tight tolerances.
Single-threaded by contract: tensors are treated as immutable once
produced; only an optimizer step mutates parameter data in place.

:func:`conv2d` takes batched (N, C, H, W) input only; a rank-3 input
raises :class:`ShapeError`. It reads its input channels-last. It pads into
a zeroed (N, H+2p, W+2p, C) buffer and gathers the patch matrix
(N, Ho*Wo, C*k*k) from it with one ``np.take`` over each flattened frame.
The flat index is built once per (padded size, C, k, stride), cached and
read-only; the gather moves whole patch rows where a strided copy would
walk k-element runs. A 1x1 stride-1 conv needs no gather: its patch matrix
is a view of the channels-last input. Columns run in (c, ki, kj) order,
the order of ``kernels.reshape(C_out, -1)``. The product is one GEMM per
frame. BLAS does not promise that grouping rows differently keeps the
summation order; on OpenBLAS 0.3.31 one GEMM per frame was measured to be
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

Every ReLU computes ``np.fmax(a, 0.0)`` and then adds 0.0 in place,
which is bitwise ``np.where(a > 0, a, 0.0)`` without its branches: fmax
returns 0.0 for NaN and for every a < 0, and a positive a (subnormals and
+inf included) comes through unchanged, while adding +0.0 is exact and
turns the -0.0 that fmax may return for a = -0.0 into +0.0. Being a ufunc,
fmax lays out its result like its input, as np.where does. The library
has no bare ReLU node: each sits inside a fused node below.

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

:func:`mlp_mse` is the behavior-cloning head's loss, a two-layer ReLU
regressor's mean squared error, fused into one node: the ten nodes of
the composite graph, their temporaries and their gradient copies reduce to
the passes the math needs. Its value and gradients are bitwise the
composite's, because it runs the same numpy operations in the same order:
``err -= y`` stands for ``+ neg(y)``; the squared error's gradient is
``err * (g * (1/n))``, scaled as ``tmean`` scales, and is then doubled in
place, as ``mul(err, err)`` accumulates it twice; and the masked hidden
gradient keeps the ``+ 0.0`` that ``_accumulate`` adds, so it equals the
composite's down to the sign of a dead unit's zeros. The other copies it
skips are exact, and the signed zeros they would have turned to +0.0 only
reach sums and products whose zero results each parameter's own
``_accumulate`` turns to +0.0.

Three more fused nodes serve every encode and every alignment step, and
hold their bits by the same rule: each runs its composite graph's numpy
operations in the same order, on arrays laid out as the composite's are,
and drops only copies that cannot change a bit. The fusion is allowed to
save work, never to move a last bit: every trained adapter, checkpoint
and reported number is pinned bitwise, and a reordered sum or a GEMM on
another memory layout would move them all.

- :func:`bias_relu` is ``relu(x + b)`` over the channels of an (N, C, H, W)
  map, the tail of every backbone block and of the adapter's
  down-projection. The composite's three nodes (bias reshape, add, relu)
  held two full-size forward arrays; the fused node computes the sum once
  and applies the ReLU in place. Backward masks the incoming gradient
  into one array laid out like the input, sums it to the bias as
  ``add``'s ``_unbroadcast`` does, and hands it to the input without the
  two full-size copies the composite's ``_accumulate`` calls made.
- :func:`attention_pool` is task-query pooling: the softmax over positions
  of each position's dot with the query and the weighted sum, seven
  composite nodes. Backward reads the broadcast gradients of the two
  position sums as views where the composite materialised them, so each
  (B, P, C) product it forms equals the composite's element for element;
  the reductions over P or C see C-contiguous products in both, which
  holds whenever the values are C-contiguous, as ``encode_pooled`` and
  evaluation's kept ``encode_clips`` maps are.
- :func:`l2_normalize` scales each row of a (B, C) tensor to unit L2 norm,
  the five composite nodes of ``a * (sum(a * a) + 1e-24) ** -0.5``; it is
  the one normalisation after either pooling. Backward adds its three
  terms to the input's gradient one by one, in the composite's order
  (the scale's, then ``mul(a, a)``'s two), so an input fed to it twice
  sums its gradient as the composite does. It drops the composite's
  ``+ 0.0`` on the squared norm's gradient: after the first term's
  ``_accumulate`` no entry of the input's gradient is -0.0, so the sign
  of a zero added to it cannot show.

``_adopt`` is ``_accumulate`` for a gradient the op has just made in the
input's layout: the array becomes ``.grad`` instead of being copied.
``tests/helpers`` keeps each composite graph as the oracle of its bits.
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

    def backward(self) -> None:
        """Accumulate gradients of this tensor w.r.t. every reachable
        tensor that has ``requires_grad``, seeded with ones (the usual case
        is a scalar loss; a vector-Jacobian product with ``g`` is
        ``tsum(mul(x, Tensor(g))).backward()``). Gradients accumulate into
        ``.grad``; callers zero them between optimizer steps.
        """
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
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
        _accumulate(self, np.ones_like(self.data))
        for node in reversed(topo):
            if node._bwd is not None and node.grad is not None:
                node._bwd(node.grad)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # One pass laid out like t.data, not like g; adding 0.0 turns -0.0
        # into +0.0, so this is bitwise zeros_like(t.data) + g.
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += g


def _adopt(t: Tensor, g: np.ndarray) -> None:
    """``_accumulate`` of a gradient the calling op has just made, laid out
    like ``t.data`` and held by nothing else: kept as ``t.grad``, not copied."""
    if not t.requires_grad:
        return
    if t.grad is None:
        g += 0.0  # as _accumulate: -0.0 becomes +0.0
        t.grad = g
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
    def bwd(g):
        _accumulate(a, -g)

    return _from_op(-a.data, (a,), bwd)


def bias_relu(x: Tensor, b: Tensor) -> Tensor:
    """``relu(x + b)`` over the channels of (N, C, H, W) ``x`` with (C,) ``b``
    as one graph node, bitwise the composite ``relu(add(x, reshape(b, (C, 1,
    1))))``'s value and gradients (the module docstring says why)."""
    if x.ndim != 4 or b.shape != (x.shape[1],):
        raise ShapeError(f"bias_relu: expected (N, C, H, W) and (C,), got {x.shape} and {b.shape}")
    c = b.size
    data = x.data + b.data.reshape(c, 1, 1)
    np.fmax(data, 0.0, out=data)
    data += 0.0  # relu, bitwise

    def bwd(g):
        # relu's mask, laid out like x.data as the composite's gradients are;
        # the bias sum reads it before _adopt's + 0.0, which could only
        # change the sign of a zero sum, and _accumulate clears that sign
        g_pre = np.multiply(g, data > 0.0, out=np.empty_like(data))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g_pre, (c, 1, 1)).reshape(c))
        _adopt(x, g_pre)

    return _from_op(data, (x, b), bwd)


def tsum(a: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        gg = g
        if not keepdims and axis is not None:
            axes = (axis,) if isinstance(axis, int) else axis
            gg = np.expand_dims(g, axes)
        _accumulate(a, np.broadcast_to(gg, a.data.shape))

    return _from_op(data, (a,), bwd)


def tmean(a: Tensor, axis: Axis = None) -> Tensor:
    if axis is None:
        n = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else axis
        n = 1
        for ax in axes:
            n *= a.data.shape[ax]
    s = tsum(a, axis)
    return mul(s, Tensor(1.0 / n))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
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
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        _accumulate(a, g.transpose(inv))

    return _from_op(a.data.transpose(axes), (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    try:
        data = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: cannot view {old} as {shape}") from e

    def bwd(g):
        _accumulate(a, g.reshape(old))

    return _from_op(data, (a,), bwd)


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
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


def mlp_mse(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, y: Tensor) -> Tensor:
    """``mean((relu(x @ w1 + b1) @ w2 + b2 - y) ** 2)`` as one graph node,
    bitwise the composite graph's value and gradients (the module docstring
    says why). ``x`` and ``y`` are data and may not require grad."""
    if x.requires_grad or y.requires_grad:
        raise ValueError("mlp_mse: x and y are data and may not require grad")
    if x.ndim != 2 or b1.ndim != 1 or b2.ndim != 1 or (w1.shape, w2.shape, y.shape) != (
        (x.shape[1], b1.size), (b1.size, b2.size), (x.shape[0], b2.size)
    ):
        raise ShapeError(
            f"mlp_mse: x {x.shape}, w1 {w1.shape}, b1 {b1.shape}, w2 {w2.shape}, "
            f"b2 {b2.shape} and y {y.shape} do not chain"
        )
    pre = x.data @ w1.data
    pre += b1.data
    hidden = np.fmax(pre, 0.0)
    hidden += 0.0  # relu, bitwise
    err = hidden @ w2.data
    err += b2.data
    err -= y.data  # + neg(y)
    scale = 1.0 / err.size
    data = (err * err).sum() * scale

    def bwd(g):
        g_err = err * (g * scale)
        g_err += g_err  # mul(err, err) accumulates g * err twice
        _accumulate(b2, g_err.sum(axis=0))
        _accumulate(w2, hidden.T @ g_err)
        g_pre = (g_err @ w2.data.T) * (pre > 0.0)
        g_pre += 0.0  # as _accumulate: a dead unit's -0.0 becomes +0.0
        _accumulate(b1, g_pre.sum(axis=0))
        _accumulate(w1, x.data.T @ g_pre)

    return _from_op(data, (w1, b1, w2, b2), bwd)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis."""
    if np.isnan(a.data).any():
        raise NumericError("softmax: NaN input")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        _accumulate(a, data * (g - inner))

    return _from_op(data, (a,), bwd)


def attention_pool(values: Tensor, queries: Tensor) -> Tensor:
    """Each of the B rows of (B, P, C) ``values`` pooled over its P positions
    under the softmax of their dots with its row of (B, C) ``queries``, as
    one graph node: bitwise the composite graph's value and gradients on
    C-contiguous ``values``, the layout of every encode's maps (the module
    docstring says why)."""
    v, q = values.data, queries.data
    b, p, c = v.shape
    if q.shape != (b, c):
        raise ShapeError(f"queries {q.shape} do not match features {v.shape}")
    qr = q.reshape(b, 1, c)
    logits = (v * qr).sum(axis=2)  # (B, P)
    if np.isnan(logits).any():
        raise NumericError("softmax: NaN input")
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    weights = e / e.sum(axis=1, keepdims=True)
    wr = weights.reshape(b, p, 1)
    data = (v * wr).sum(axis=1)  # (B, C)

    def bwd(g):
        g_m2 = g.reshape(b, 1, c)  # the pooling sum's gradient, broadcast over P
        if values.requires_grad:
            _adopt(values, np.multiply(g_m2, wr, out=np.empty_like(v)))
        g_w = (g_m2 * v).sum(axis=2)
        g_w += 0.0
        g_logits = weights * (g_w - (g_w * weights).sum(axis=1, keepdims=True))
        g_logits += 0.0
        g_m1 = g_logits.reshape(b, p, 1)  # the logits sum's gradient, broadcast over C
        if values.requires_grad:
            values.grad += g_m1 * qr
        if queries.requires_grad:
            _accumulate(queries, (g_m1 * v).sum(axis=1))

    return _from_op(data, (values, queries), bwd)


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    data = (m + np.log(s)).squeeze(axis=axis)
    soft = e / s

    def bwd(g):
        _accumulate(a, soft * np.expand_dims(g, axis))

    return _from_op(data, (a,), bwd)


def l2_normalize(a: Tensor) -> Tensor:
    """Each row of (B, C) ``a`` scaled to unit Euclidean norm, as one graph
    node: bitwise the value and gradient of the composite graph of
    ``a * (sum(a * a, axis=1) + 1e-24) ** -0.5`` (the module docstring says
    why). The 1e-24 only matters for an all-zero row, which stays zero."""
    if a.ndim != 2:
        raise ShapeError(f"l2_normalize: expected (B, C), got {a.shape}")
    x = a.data
    s = (x * x).sum(axis=1, keepdims=True) + 1e-24
    inv = s**-0.5

    def bwd(g):
        g_inv = (g * x).sum(axis=1, keepdims=True)
        g_sq = g_inv * -0.5 * s**-1.5 * x  # the composite's g * p * s ** (p - 1), times a
        _accumulate(a, g * inv)
        a.grad += g_sq  # mul(a, a) accumulates g * a twice
        a.grad += g_sq

    return _from_op(x * inv, (a,), bwd)


# ---------------------------------------------------------------------------
# convolution


def conv2d(x: Tensor, kernels: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation.

    ``x`` is (N, C_in, H, W), any other rank a ``ShapeError``; ``kernels``
    is (C_out, C_in, k, k). Output spatial size follows
    floor((H + 2*padding - k) / stride) + 1. The module docstring gives
    the patch layout and GEMM grouping that keep results bitwise stable.
    """
    if not isinstance(stride, int) or stride <= 0:
        raise ValueError(f"conv2d: stride must be a positive integer, got {stride!r}")
    if not isinstance(padding, int) or padding < 0:
        raise ValueError(f"conv2d: padding must be a non-negative integer, got {padding!r}")
    if kernels.ndim != 4 or kernels.shape[2] != kernels.shape[3]:
        raise ShapeError(f"conv2d: kernels must be (C_out, C_in, k, k), got {kernels.shape}")
    if x.ndim != 4:
        raise ShapeError(f"conv2d: input must be (N, C, H, W), got {x.shape}")
    n, c_in, h, w = x.shape
    c_out, ck, k, _ = kernels.shape
    if c_in != ck:
        raise ShapeError(
            f"conv2d: input channels {x.shape} do not match kernels {kernels.shape}"
        )
    if k > h + 2 * padding or k > w + 2 * padding:
        raise ShapeError(
            f"conv2d: kernel {k}x{k} exceeds padded input {h + 2 * padding}x{w + 2 * padding}"
        )
    hp, wp = h + 2 * padding, w + 2 * padding
    ho, wo = (hp - k) // stride + 1, (wp - k) // stride + 1
    xt = x.data.transpose(0, 2, 3, 1)  # (N, H, W, C) view
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

    def bwd(g):
        gt = g.transpose(0, 2, 3, 1)  # (N, Ho, Wo, C_out)
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
            _accumulate(x, gx.transpose(0, 3, 1, 2))

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


# ---------------------------------------------------------------------------
# serialization: rank and dims as unsigned 32-bit little-endian, followed by
# the row-major float64 little-endian payload.


def to_bytes(arr: np.ndarray) -> bytes:
    header = struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + np.ascontiguousarray(arr, dtype="<f8").tobytes()


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
