import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import check_grad_against_fd, numeric_grad, rel_err
from hralign import tensor as T
from hralign.rng import RngState, fnv1a64
from hralign.tensor import NumericError, ShapeError, Tensor


def test_matmul_identity():
    x = RngState(1).normal((3, 4))
    out = T.matmul(Tensor(np.eye(3)), Tensor(x))
    assert np.array_equal(out.data, x)


def test_matmul_hand_case():
    out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
    assert np.array_equal(out.data, [[2.0], [4.0]])


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError, match=r"\(4, 5\).*\(4, 2\)"):
        T.matmul(Tensor(np.zeros((4, 5))), Tensor(np.zeros((4, 2))))


def test_matmul_gradient_vs_fd():
    rng = RngState(5)
    b = rng.normal((5, 2))
    x0 = rng.normal((4, 5))
    check_grad_against_fd(lambda x: T.tsum(T.matmul(x, Tensor(b))), x0)


def test_conv2d_identity_1x1():
    rng = RngState(2)
    x = rng.normal((3, 5, 5))
    kernels = np.eye(3).reshape(3, 3, 1, 1)
    out = T.conv2d(Tensor(x), Tensor(kernels))
    assert np.array_equal(out.data, x)


def test_conv2d_one_hot_box():
    x = np.zeros((1, 5, 5))
    x[0, 2, 2] = 1.0
    kernels = np.ones((1, 1, 3, 3))
    out = T.conv2d(Tensor(x), Tensor(kernels), stride=1, padding=1)
    expected = np.zeros((1, 5, 5))
    expected[0, 1:4, 1:4] = 1.0
    assert np.array_equal(out.data, expected)


def test_conv2d_output_shape_formula():
    rng = RngState(3)
    x = Tensor(rng.normal((2, 9, 7)))
    w = Tensor(rng.normal((4, 2, 3, 3)))
    out = T.conv2d(x, w, stride=2, padding=1)
    assert out.shape == (4, (9 + 2 - 3) // 2 + 1, (7 + 2 - 3) // 2 + 1)


def test_conv2d_gradient_vs_fd():
    rng = RngState(4)
    w = rng.normal((3, 2, 3, 3))
    x0 = rng.normal((2, 4, 4))
    check_grad_against_fd(
        lambda x: T.tsum(T.conv2d(x, Tensor(w), stride=1, padding=1)), x0
    )


def test_conv2d_kernel_gradient_vs_fd():
    rng = RngState(6)
    x = rng.normal((2, 4, 4))
    w0 = rng.normal((3, 2, 3, 3))
    check_grad_against_fd(
        lambda w: T.tsum(T.conv2d(Tensor(x), w, stride=2, padding=1)), w0
    )


def test_conv2d_bad_stride():
    with pytest.raises(ValueError, match="stride"):
        T.conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))), stride=0)


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeError):
        T.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))


def test_conv2d_kernel_too_large():
    with pytest.raises(ShapeError):
        T.conv2d(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))))


def _seed_conv2d(x, w, stride, padding, g):
    """Forward, weight gradient and input gradient by the reference formula:
    np.pad on NCHW, an NCHW im2col, and one matmul over the stacked
    (N, Ho, Wo, C*k*k) patches. conv2d must match it bitwise, so that
    recorded results reproduce."""
    n, c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    s0, s1, s2, s3 = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, (n, c_in, k, k, ho, wo), (s0, s1, s2, s3, s2 * stride, s3 * stride)
    )
    cols = view.transpose(0, 4, 5, 1, 2, 3).reshape(n, ho, wo, c_in * k * k)
    wmat = w.reshape(c_out, -1)
    out = (cols @ wmat.T).transpose(0, 3, 1, 2)
    gt = g.transpose(0, 2, 3, 1)
    gw = (gt.reshape(-1, c_out).T @ cols.reshape(-1, c_in * k * k)).reshape(w.shape)
    gcols = (gt @ wmat).reshape(n, ho, wo, c_in, k, k).transpose(0, 3, 4, 5, 1, 2)
    gx = np.zeros_like(xp)
    for ki in range(k):
        for kj in range(k):
            rows = slice(ki, ki + (ho - 1) * stride + 1, stride)
            wcols = slice(kj, kj + (wo - 1) * stride + 1, stride)
            gx[:, :, rows, wcols] += gcols[:, :, ki, kj]
    if padding:
        gx = gx[:, :, padding:-padding, padding:-padding]
    return out, gw, gx


CONV_SHAPES = {
    # (input NCHW, kernels, stride, padding) at the 80-frame training batch
    "block0": ((80, 3, 16, 16), (16, 3, 3, 3), 2, 1),
    "block1": ((80, 16, 8, 8), (32, 16, 3, 3), 2, 1),
    "block2": ((80, 32, 4, 4), (32, 32, 3, 3), 1, 1),
    "adapter_down": ((80, 32, 4, 4), (8, 32, 1, 1), 1, 0),
    "adapter_up": ((80, 8, 4, 4), (32, 8, 1, 1), 1, 0),
    # the 48-frame pretext batch, and one unbatched (C, H, W) input
    "pretext_block1": ((48, 16, 8, 8), (32, 16, 3, 3), 2, 1),
    "pretext_block2": ((48, 32, 4, 4), (32, 32, 3, 3), 1, 1),
    "unbatched_block1": ((16, 8, 8), (32, 16, 3, 3), 2, 1),
}


@pytest.mark.parametrize("layout", ["nchw", "channels_last"])
@pytest.mark.parametrize("shape", sorted(CONV_SHAPES))
def test_conv2d_bitwise_equals_seed_formula(shape, layout):
    x_shape, w_shape, stride, padding = CONV_SHAPES[shape]
    rng = RngState(41)
    *n, c, h, w = x_shape  # n is [] for an unbatched (C, H, W) input
    if layout == "nchw":
        x = rng.normal(x_shape)
    else:  # an NCHW view of channels-last memory, as conv outputs are
        x = np.moveaxis(rng.normal((*n, h, w, c)), -1, -3)
    kernels = rng.normal(w_shape)
    xt = Tensor(x, requires_grad=True)
    kt = Tensor(kernels, requires_grad=True)
    out = T.conv2d(xt, kt, stride=stride, padding=padding)
    # backward hands conv2d a gradient laid out like its output
    g = np.zeros_like(out.data)
    g += rng.normal(out.shape)
    out.backward(g)
    ref_out, ref_gw, ref_gx = _seed_conv2d(
        x if n else x[None], kernels, stride, padding, g if n else g[None]
    )
    if not n:
        ref_out, ref_gx = ref_out[0], ref_gx[0]
    # bytes, not values: array_equal would let a -0.0 pass for +0.0
    for got, ref in zip((out.data, kt.grad, xt.grad), (ref_out, ref_gw, ref_gx)):
        assert got.shape == ref.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(ref).tobytes()


def _naive_conv2d(x, w, stride, padding, g):
    """Forward, weight and input gradients by explicit loops."""
    n, c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    xp = np.zeros((n, c_in, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((n, c_out, ho, wo))
    gw = np.zeros_like(w)
    gxp = np.zeros_like(xp)
    for b in range(n):
        for o in range(c_out):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[b, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[b, o, i, j] = np.sum(patch * w[o])
                    gw[o] += g[b, o, i, j] * patch
                    gxp[b, :, i * stride : i * stride + k, j * stride : j * stride + k] += (
                        g[b, o, i, j] * w[o]
                    )
    return out, gw, gxp[:, :, padding : padding + h, padding : padding + wd]


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(1, 3),
    c_in=st.integers(1, 3),
    c_out=st.integers(1, 3),
    h=st.integers(1, 7),
    w=st.integers(1, 7),
    k=st.integers(1, 3),
    stride=st.integers(1, 3),
    padding=st.integers(0, 2),
    channels_last=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_conv2d_matches_naive_loop(n, c_in, c_out, h, w, k, stride, padding, channels_last, seed):
    assume(k <= h + 2 * padding and k <= w + 2 * padding)
    rng = RngState(seed)
    if channels_last:
        x = rng.normal((n, h, w, c_in)).transpose(0, 3, 1, 2)
    else:
        x = rng.normal((n, c_in, h, w))
    kernels = rng.normal((c_out, c_in, k, k))
    xt = Tensor(x, requires_grad=True)
    kt = Tensor(kernels, requires_grad=True)
    out = T.conv2d(xt, kt, stride=stride, padding=padding)
    g = rng.normal(out.shape)
    out.backward(g)
    ref_out, ref_gw, ref_gx = _naive_conv2d(x, kernels, stride, padding, g)
    assert np.allclose(out.data, ref_out, rtol=1e-12, atol=1e-12)
    assert np.allclose(kt.grad, ref_gw, rtol=1e-12, atol=1e-12)
    assert np.allclose(xt.grad, ref_gx, rtol=1e-12, atol=1e-12)


class _NoTranspose(np.ndarray):
    """An array whose transpose must never be taken."""

    @property
    def T(self):
        raise AssertionError("gradient of a constant operand was computed")


def test_patch_index_is_read_only():
    T.conv2d(Tensor(np.ones((2, 3, 6, 6))), Tensor(np.ones((4, 3, 3, 3))), stride=2, padding=1)
    idx = T._patch_index(8, 8, 3, 3, 2)
    assert idx is T._patch_index(8, 8, 3, 3, 2)
    assert idx.shape == (9, 27) and not idx.flags.writeable
    with pytest.raises(ValueError):
        idx[0, 0] = 1


_SPECIAL = np.array(
    [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.5, -1.5]
)


def _relu_inputs():
    rng = RngState(13)
    flat = np.concatenate([_SPECIAL, rng.normal((228,))])
    contiguous = flat.reshape(2, 3, 5, 8)
    channels_last = flat.reshape(2, 5, 8, 3).transpose(0, 3, 1, 2)
    return {"contiguous": contiguous, "channels_last": channels_last}


@pytest.mark.parametrize("layout", ["contiguous", "channels_last"])
def test_relu_bitwise_equals_where_formula(layout):
    x = _relu_inputs()[layout]
    ref = np.where(x > 0.0, x, 0.0)
    out = T.relu(Tensor(x)).data
    # viewed as integers, so the sign of zero and NaN payloads count too
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))
    assert out.strides == ref.strides == x.strides


@pytest.mark.parametrize("layout", ["contiguous", "channels_last"])
def test_first_gradient_write_equals_zeros_plus_g(layout):
    inputs = _relu_inputs()
    data = inputs[layout]
    t = Tensor(data, requires_grad=True)
    # laid out unlike t.data, with -0.0 and NaN entries
    g = -inputs["channels_last" if layout == "contiguous" else "contiguous"]
    assert g.strides != data.strides
    ref = np.zeros_like(data)
    ref += g
    T._accumulate(t, g)
    assert np.array_equal(t.grad.view(np.int64), ref.view(np.int64))
    assert t.grad.strides == ref.strides == data.strides
    assert t.grad is not g


# take and cross_entropy against the formulas they replaced ------------------


def _onehot_cross_entropy(logits, labels):
    """Cross-entropy through a one-hot mask, the formula of the
    classification head and the linear probe before ``cross_entropy``."""
    onehot = np.zeros(logits.shape)
    onehot[np.arange(len(labels)), labels] = 1.0
    picked = T.tsum(T.mul(logits, Tensor(onehot)), axis=1)
    return T.tmean(T.add(T.logsumexp(logits, axis=1), T.neg(picked)))


def _eye_diagonal(x):
    """The diagonal of a square matrix through an ``eye`` mask."""
    return T.tsum(T.mul(x, Tensor(np.eye(x.shape[0]))), axis=1)


def _selector_rows(x, start, stop):
    """Rows start:stop through a product with a slice of ``eye``."""
    return T.matmul(Tensor(np.eye(x.shape[0])[start:stop]), x)


def _selector_pretext_loss(feats, b, temperature):
    """The time-contrastive loss as written with selector matrices and an
    ``eye``-masked diagonal."""
    pooled = T.l2_normalize(T.tmean(feats, axis=(1, 2)), axis=1)
    a_rows, p_rows, f_rows = (_selector_rows(pooled, i * b, (i + 1) * b) for i in range(3))
    inv_tau = 1.0 / temperature
    cross = T.mul(T.matmul(a_rows, T.transpose(p_rows)), Tensor(inv_tau))
    far_col = T.mul(T.tsum(T.mul(a_rows, f_rows), axis=1, keepdims=True), Tensor(inv_tau))
    denom = T.logsumexp(T.concat([cross, far_col], axis=1), axis=1)
    return T.tmean(T.add(denom, T.neg(_eye_diagonal(cross))))


def _eye_hr_align_loss(human, frozen, adapted, tau):
    """The alignment loss with its positives picked by an ``eye`` mask."""
    inv_tau = 1.0 / tau
    logits = T.mul(T.matmul(Tensor(human), T.transpose(adapted)), Tensor(inv_tau))
    extra_col = Tensor((human * frozen).sum(axis=1, keepdims=True) * inv_tau)
    pos = _eye_diagonal(logits)
    denom_h2r = T.logsumexp(T.concat([logits, extra_col], axis=1), axis=1)
    denom_r2h = T.logsumexp(T.concat([T.transpose(logits), extra_col], axis=1), axis=1)
    half = Tensor(0.5)
    return T.add(
        T.mul(T.tmean(T.add(denom_h2r, T.neg(pos))), half),
        T.mul(T.tmean(T.add(denom_r2h, T.neg(pos))), half),
    )


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _twin_leaves(x0):
    return Tensor(x0, requires_grad=True), Tensor(x0.copy(), requires_grad=True)


CROSS_ENTROPY_CASES = {
    # (rows, classes, labels) of the classification head, the linear probe
    # and the pretext loss (positive on the diagonal, far frame last)
    "cls_head": (16, 8, "random"),
    "linear_probe": (144, 8, "random"),
    "pretext": (16, 17, "diagonal"),
}


@pytest.mark.parametrize("case", sorted(CROSS_ENTROPY_CASES))
def test_cross_entropy_bitwise_equals_onehot_formula(case):
    rows, classes, kind = CROSS_ENTROPY_CASES[case]
    rng = RngState(51)
    logits = rng.normal((rows, classes)) * 4.0
    if kind == "diagonal":
        labels = np.arange(rows)
    else:
        labels = np.array([rng.randint(classes) for _ in range(rows)])
    new, old = _twin_leaves(logits)
    loss, ref = T.cross_entropy(new, labels), _onehot_cross_entropy(old, labels)
    loss.backward()
    ref.backward()
    assert _same_bits(loss.data, ref.data)
    assert _same_bits(new.grad, old.grad)


def test_take_diagonal_bitwise_equals_eye_formula():
    rng = RngState(52)
    new, old = _twin_leaves(rng.normal((16, 16)) * 10.0)
    g = rng.normal(16)
    diag, ref = T.take(new, (np.arange(16), np.arange(16))), _eye_diagonal(old)
    diag.backward(g)
    ref.backward(g)
    assert _same_bits(diag.data, ref.data)
    assert _same_bits(new.grad, old.grad)


def test_take_rows_bitwise_equals_selector_matmul():
    rng = RngState(53)
    b = 16
    new, old = _twin_leaves(rng.normal((3 * b, 32)))
    probes = [Tensor(rng.normal((b, 32))) for _ in range(3)]

    def probed(parts):
        total = T.tsum(T.mul(parts[0], probes[0]))
        for part, probe in zip(parts[1:], probes[1:]):
            total = T.add(total, T.tsum(T.mul(part, probe)))
        return total

    rows = [T.take(new, slice(i * b, (i + 1) * b)) for i in range(3)]
    refs = [_selector_rows(old, i * b, (i + 1) * b) for i in range(3)]
    for part, ref in zip(rows, refs):
        assert _same_bits(part.data, ref.data)
    probed(rows).backward()
    probed(refs).backward()
    assert _same_bits(new.grad, old.grad)


def test_take_repeated_index_sums_gradients():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    picked = T.take(x, (np.array([0, 1, 0]), np.array([2, 0, 2])))
    assert np.array_equal(picked.data, [2.0, 3.0, 2.0])
    picked.backward(np.array([1.0, 10.0, 100.0]))
    assert np.array_equal(x.grad, [[0.0, 0.0, 101.0], [10.0, 0.0, 0.0]])


@pytest.mark.parametrize("seed", [61, 62, 63])
def test_pretext_loss_bitwise_equals_selector_formula(seed):
    from hralign.dataset import VideoClip
    from hralign.encoder import pretext_loss

    rng = RngState(seed)
    b = 16
    clips = [VideoClip(rng.uniform((8, 4, 4, 3)), "human", 0, i) for i in range(b)]
    new, old = _twin_leaves(rng.normal((3 * b, 4, 4, 32)))
    loss, _ = pretext_loss(lambda frames: new, clips, rng, temperature=0.1)
    ref = _selector_pretext_loss(old, b, 0.1)
    loss.backward()
    ref.backward()
    assert _same_bits(loss.data, ref.data)
    assert _same_bits(new.grad, old.grad)


@pytest.mark.parametrize("seed", [71, 72, 73])
def test_hr_align_loss_bitwise_equals_eye_formula(seed):
    from hralign.alignment import AlignmentBatchFeatures, hr_align_loss

    rng = RngState(seed)

    def unit_rows():
        x = rng.normal((16, 32))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    human, frozen = unit_rows(), unit_rows()
    new, old = _twin_leaves(unit_rows())
    loss = hr_align_loss(AlignmentBatchFeatures(Tensor(human), Tensor(frozen), new, 0.1))
    ref = _eye_hr_align_loss(human, frozen, old, 0.1)
    loss.backward()
    ref.backward()
    assert _same_bits(loss.data, ref.data)
    assert _same_bits(new.grad, old.grad)


def test_matmul_backward_skips_constant_operand():
    # the constant's gradient would be g @ w.T; only w's, x.T @ g, is built
    x = RngState(15).normal((4, 3))
    w = Tensor(RngState(14).normal((3, 2)), requires_grad=True)
    w.data = w.data.view(_NoTranspose)
    T.tsum(T.matmul(Tensor(x), w)).backward()
    assert np.array_equal(w.grad, x.T @ np.ones((4, 2)))


@pytest.mark.parametrize("op", [T.add, T.mul])
def test_broadcast_backward_skips_constant_operand(op, monkeypatch):
    reduced = []
    unbroadcast = T._unbroadcast

    def recording(g, shape):
        reduced.append(shape)
        return unbroadcast(g, shape)

    monkeypatch.setattr(T, "_unbroadcast", recording)
    b = Tensor(RngState(16).normal((4,)), requires_grad=True)
    T.tsum(op(Tensor(RngState(17).normal((3, 4))), b)).backward()
    assert reduced == [(4,)]
    assert b.grad is not None


def test_softmax_uniform():
    out = T.softmax(Tensor([1.0, 1.0, 1.0, 1.0]))
    assert np.allclose(out.data, 0.25, atol=1e-15)


def test_softmax_saturation():
    out = T.softmax(Tensor([1000.0, 0.0]))
    assert abs(out.data[0] - 1.0) < 1e-12
    assert out.data[1] < 1e-12


def test_softmax_analytic():
    out = T.softmax(Tensor([0.0, np.log(3.0)]))
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-15)


def test_softmax_nan_rejected():
    with pytest.raises(NumericError):
        T.softmax(Tensor([np.nan, 0.0]))


@settings(deadline=None, max_examples=30)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8),
    st.floats(min_value=-100, max_value=100),
)
def test_softmax_sums_to_one_and_shift_invariant(logits, shift):
    x = np.array(logits)
    out = T.softmax(Tensor(x)).data
    shifted = T.softmax(Tensor(x + shift)).data
    assert abs(out.sum() - 1.0) <= 1e-12
    assert np.all(out > 0)
    assert rel_err(out, shifted) < 1e-12


def test_logsumexp_matches_naive():
    rng = RngState(8)
    x = rng.normal((4, 6))
    out = T.logsumexp(Tensor(x), axis=1)
    naive = np.log(np.exp(x).sum(axis=1))
    assert rel_err(out.data, naive) < 1e-12


def test_l2_normalize_unit_norm():
    rng = RngState(9)
    x = rng.normal((5, 7))
    out = T.l2_normalize(Tensor(x), axis=1)
    norms = np.linalg.norm(out.data, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-9


@pytest.mark.parametrize(
    "name,build,shape",
    [
        ("add", lambda x: T.tsum(T.mul(T.add(x, Tensor(RngState(21).normal((3, 4)))), x)), (3, 4)),
        ("mul", lambda x: T.tsum(T.mul(x, Tensor(RngState(22).normal((3, 4))))), (3, 4)),
        ("relu", lambda x: T.tsum(T.mul(T.relu(x), x)), (3, 4)),
        ("exp", lambda x: T.tsum(T.exp(x)), (2, 3)),
        ("mean", lambda x: T.tsum(T.tmean(T.mul(x, x), axis=(0, 2))), (2, 3, 2)),
        ("transpose", lambda x: T.tsum(T.mul(T.transpose(x, (1, 0)), Tensor(RngState(23).normal((4, 3))))), (3, 4)),
        ("reshape", lambda x: T.tsum(T.mul(T.reshape(x, (2, 6)), Tensor(RngState(24).normal((2, 6))))), (3, 4)),
        ("softmax", lambda x: T.tsum(T.mul(T.softmax(x, axis=1), Tensor(RngState(25).normal((3, 4))))), (3, 4)),
        ("logsumexp", lambda x: T.tsum(T.logsumexp(x, axis=0)), (3, 4)),
        ("l2_normalize", lambda x: T.tsum(T.mul(T.l2_normalize(x, axis=1), Tensor(RngState(26).normal((3, 4))))), (3, 4)),
        ("power", lambda x: T.tsum(T.power(T.add(T.mul(x, x), Tensor(0.5)), -0.5)), (3, 4)),
        ("concat", lambda x: T.tsum(T.mul(T.concat([x, x], axis=1), Tensor(RngState(27).normal((3, 8))))), (3, 4)),
        ("take_slice", lambda x: T.tsum(T.mul(T.take(x, slice(1, 3)), Tensor(RngState(28).normal((2, 4))))), (3, 4)),
        ("take_index", lambda x: T.tsum(T.mul(T.take(x, (np.array([0, 2, 2, 1]), np.array([1, 3, 3, 0]))), Tensor(RngState(29).normal(4)))), (3, 4)),
        ("cross_entropy", lambda x: T.cross_entropy(x, np.array([2, 0, 3])), (3, 4)),
    ],
)
def test_op_gradients_vs_fd(name, build, shape):
    rng = RngState(fnv1a64(name.encode()) % 1000 + 13)
    x0 = rng.normal(shape)
    if name == "relu":
        x0 = x0 + np.sign(x0) * 0.2  # keep away from the kink
    check_grad_against_fd(build, x0)


def test_log_rejects_nonpositive():
    with pytest.raises(NumericError):
        T.log(Tensor([1.0, 0.0]))


def test_backward_requires_grad():
    with pytest.raises(ValueError):
        Tensor(np.ones(3)).backward()


def test_backward_seed_shape_checked():
    x = Tensor(np.ones(3), requires_grad=True)
    y = T.tsum(x)
    with pytest.raises(ShapeError):
        y.backward(np.ones(2))


def test_backward_deterministic_repeat():
    rng = RngState(10)
    x = Tensor(rng.normal((4, 4)), requires_grad=True)
    w = Tensor(rng.normal((4, 4)), requires_grad=True)

    def run():
        x.grad = None
        w.grad = None
        loss = T.tsum(T.relu(T.matmul(x, w)))
        loss.backward()
        return x.grad.copy(), w.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1[0], g2[0])
    assert np.array_equal(g1[1], g2[1])


def test_grad_accumulates_across_backward_calls():
    x = Tensor(np.array([2.0]), requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    loss.backward()
    first = x.grad.copy()
    loss2 = T.tsum(T.mul(x, x))
    loss2.backward()
    assert np.allclose(x.grad, 2 * first)


def test_broadcast_add_gradient():
    rng = RngState(12)
    b0 = rng.normal((4,))
    x = rng.normal((3, 4))
    check_grad_against_fd(lambda b: T.tsum(T.mul(T.add(Tensor(x), b), Tensor(x))), b0)


def test_detach_blocks_gradients():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = T.mul(x, Tensor(3.0)).detach()
    assert not y.requires_grad
    z = T.tsum(T.mul(y, y))
    assert not z.requires_grad


def test_grad_shape_matches_data():
    x = Tensor(RngState(13).normal((2, 5)), requires_grad=True)
    T.tsum(T.relu(x)).backward()
    assert x.grad.shape == x.data.shape


# serialization -------------------------------------------------------------


def test_serialization_header_layout():
    arr = np.arange(6, dtype=np.float64).reshape(2, 3)
    blob = T.to_bytes(arr)
    assert blob[:4] == (2).to_bytes(4, "little")
    assert blob[4:8] == (2).to_bytes(4, "little")
    assert blob[8:12] == (3).to_bytes(4, "little")
    assert len(blob) == 12 + 6 * 8


@settings(deadline=None, max_examples=25)
@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4), st.integers(0, 2**32))
def test_serialization_roundtrip(shape, seed):
    arr = RngState(seed).normal(tuple(shape))
    back, offset = T.from_bytes(T.to_bytes(arr))
    assert np.array_equal(back, arr)
    assert offset == 4 + 4 * len(shape) + 8 * arr.size


def test_serialization_concatenated_stream():
    a = RngState(1).normal((2, 2))
    b = RngState(2).normal((3,))
    blob = T.to_bytes(a) + T.to_bytes(b)
    a2, off = T.from_bytes(blob)
    b2, _ = T.from_bytes(blob, off)
    assert np.array_equal(a, a2) and np.array_equal(b, b2)
