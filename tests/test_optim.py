import ast
from pathlib import Path

import numpy as np
import pytest

from hralign import tensor as T
from hralign.dataset import generate_paired_set
from hralign.encoder import Backbone, encode_batch, pretext_loss, pretext_pretrain
from hralign.optim import AdamState, adam_step, collect_grads, fit, zero_grads
from hralign.rng import RngState
from hralign.tensor import NumericError, ShapeError, Tensor

SRC = Path(__file__).resolve().parent.parent / "src" / "hralign"


def test_zero_gradient_leaves_params_and_bumps_step():
    w = Tensor(RngState(1).normal((3, 2)), requires_grad=True)
    before = w.data.copy()
    state = AdamState.for_params({"w": w}, lr=0.1)
    state = adam_step({"w": w}, {"w": np.zeros((3, 2))}, state)
    assert np.array_equal(w.data, before)
    assert state.step == 1


def test_first_step_magnitude_is_lr():
    w = Tensor(np.array(0.5), requires_grad=True)
    state = AdamState.for_params({"w": w}, lr=0.01)
    adam_step({"w": w}, {"w": np.array(3.7)}, state)
    delta = float(w.data) - 0.5
    assert delta < 0  # opposite sign to the gradient
    assert abs(abs(delta) - 0.01) < 1e-6  # bias correction makes |step| ~ lr


def test_descent_on_quadratic():
    w = Tensor(np.array(1.0), requires_grad=True)
    params = {"w": w}
    state = AdamState.for_params(params, lr=0.1)
    values = []
    for _ in range(10):
        zero_grads(params)
        loss = T.mul(w, w)
        loss.backward()
        adam_step(params, collect_grads(params), state)
        values.append(abs(float(w.data)))
    assert all(b < a for a, b in zip(values, values[1:]))


def test_shape_mismatch_rejected():
    w = Tensor(np.zeros((2, 2)), requires_grad=True)
    state = AdamState.for_params({"w": w}, lr=0.1)
    with pytest.raises(ShapeError):
        adam_step({"w": w}, {"w": np.zeros(3)}, state)


def test_moment_shapes_validated():
    w = Tensor(np.zeros((2, 2)), requires_grad=True)
    state = AdamState.for_params({"w": w}, lr=0.1)
    state.m["w"] = np.zeros(5)
    with pytest.raises(ShapeError):
        adam_step({"w": w}, {"w": np.zeros((2, 2))}, state)


def test_collect_grads_defaults_missing_to_zero():
    w = Tensor(np.ones(3), requires_grad=True)
    grads = collect_grads({"w": w})
    assert np.array_equal(grads["w"], np.zeros(3))


# fit -------------------------------------------------------------------------


def test_fit_with_start_at_steps_takes_no_step():
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    params = {"w": w}
    state = AdamState.for_params(params, lr=0.1)
    calls = []

    def step_fn(step):
        calls.append(step)
        return T.tsum(T.mul(w, w)), {}

    assert fit(params, state, 4, step_fn, start=4) == []
    assert calls == []
    assert state.step == 0
    assert np.array_equal(w.data, [1.0, -2.0])


def test_fit_rows_in_step_order_with_forward_losses():
    w = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    params = {"w": w}
    state = AdamState.for_params(params, lr=0.1)
    forward = []

    def step_fn(step):
        loss = T.tsum(T.mul(w, w))
        forward.append(loss.item())
        return loss, {"step": step}

    rows = fit(params, state, 7, step_fn, start=2)
    assert [stats["step"] for _, stats, _ in rows] == [2, 3, 4, 5, 6]
    assert [loss for loss, _, _ in rows] == forward
    assert all(ms >= 0.0 for _, _, ms in rows)
    assert state.step == 5
    assert all(b < a for a, b in zip(forward, forward[1:]))


def test_fit_gives_unreached_parameters_a_zero_gradient():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    idle = Tensor(np.array([3.0]), requires_grad=True)
    params = {"w": w, "idle": idle}
    state = AdamState.for_params(params, lr=0.1)
    fit(params, state, 3, lambda _: (T.tsum(T.mul(w, w)), {}))
    assert np.array_equal(idle.data, [3.0])
    assert np.array_equal(state.m["idle"], [0.0])


def test_fit_names_the_step_and_parameter_left_non_finite():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([0.5]), requires_grad=True)
    params = {"a": a, "b": b}
    state = AdamState.for_params(params, lr=0.1)

    def step_fn(step):
        scale = np.inf if step == 2 else 1.0  # an infinite gradient: Adam's step is inf/inf
        return T.add(T.tsum(T.mul(a, a)), T.tsum(T.mul(b, Tensor(scale)))), {}

    with np.errstate(all="ignore"), pytest.raises(
        NumericError, match=r"^fit: step 2 at lr 0\.1 left parameter 'b' non-finite$"
    ):
        fit(params, state, 5, step_fn)
    assert state.step == 3
    assert np.isfinite(a.data).all()


def test_fit_names_the_step_whose_loss_is_non_finite():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    params = {"a": a}
    state = AdamState.for_params(params, lr=0.1)

    def step_fn(step):
        offset = np.inf if step == 1 else 0.0  # a constant: every gradient stays finite
        return T.add(T.tsum(T.mul(a, a)), Tensor(offset)), {}

    with pytest.raises(NumericError, match=r"^fit: step 1 at lr 0\.1 gave the non-finite loss inf$"):
        fit(params, state, 3, step_fn)
    assert state.step == 2
    assert np.isfinite(a.data).all()


def test_pretext_pretrain_with_an_overflowing_lr_raises():
    clips = [p.human for p in generate_paired_set(RngState(3), 2, 4, 0.5)]
    message = r"fit: step \d+ at lr 1e\+300 left parameter 'backbone\.block\d\.[wb]' non-finite"
    with np.errstate(all="ignore"), pytest.raises(NumericError, match=message):
        pretext_pretrain(RngState(3), clips, 3, lr=1e300)


def _seed_pretext_pretrain(rng, human_clips, epochs, lr, batch_size):
    """The hand-rolled epoch loop ``pretext_pretrain`` had before it ran on
    ``fit``: a permutation per epoch, full batches only, the per-epoch mean
    loss. ``fit`` must reproduce it bitwise."""
    backbone = Backbone.create(rng)
    params = backbone.named_parameters()
    adam = AdamState.for_params(params, lr=lr)
    n = len(human_clips)
    bsz = min(batch_size, n)
    history = []
    for _ in range(epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n - bsz + 1, bsz):
            batch = [human_clips[i] for i in order[start : start + bsz]]
            loss, _ = pretext_loss(lambda fr: encode_batch(backbone, fr), batch, rng)
            zero_grads(params)
            loss.backward()
            adam_step(params, collect_grads(params), adam)
            losses.append(loss.item())
        history.append(float(np.mean(losses)))
    return backbone, history


@pytest.mark.parametrize("batch_size", [4, 5])
def test_pretext_pretrain_matches_the_hand_rolled_loop(batch_size):
    clips = [p.human for p in generate_paired_set(RngState(5), 2, 6, 0.6)]
    assert len(clips) % 4 == 0 and len(clips) % 5 != 0  # 5 leaves a partial last batch
    ref_backbone, ref_history = _seed_pretext_pretrain(RngState(5), clips, 2, 3e-4, batch_size)
    backbone, history = pretext_pretrain(RngState(5), clips, 2, lr=3e-4, batch_size=batch_size)
    assert history == ref_history
    ref, new = ref_backbone.named_parameters(), backbone.named_parameters()
    assert all(ref[k].data.tobytes() == new[k].data.tobytes() for k in ref)


def test_optimizer_steps_run_only_inside_fit():
    """zero_grads, backward and adam_step are called in one place in the
    package: the training loop ``optim.fit``."""
    callers = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in ("zero_grads", "backward", "adam_step"):
                callers.add((where, name))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert callers == {
        ("optim.fit", "zero_grads"),
        ("optim.fit", "backward"),
        ("optim.fit", "adam_step"),
    }
