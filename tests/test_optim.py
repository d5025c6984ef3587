import ast
from pathlib import Path

import numpy as np
import pytest

from hralign import tensor as T
from hralign.dataset import generate_paired_set
from hralign.encoder import Backbone, encode_batch, pretext_loss, pretext_pretrain
from hralign.optim import AdamState, adam_step, collect_grads, epoch_batches, fit, zero_grads
from hralign.rng import RngState
from hralign.tensor import NumericError, ShapeError, Tensor

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hralign"


def test_zero_gradient_leaves_params_and_bumps_step():
    w = Tensor(RngState(1).normal((3, 2)), requires_grad=True)
    before = w.data.copy()
    state = AdamState.for_params({"w": w})
    state = adam_step({"w": w}, {"w": np.zeros((3, 2))}, state, 0.1)
    assert np.array_equal(w.data, before)
    assert state.step == 1


def test_first_step_magnitude_is_lr():
    w = Tensor(np.array(0.5), requires_grad=True)
    state = AdamState.for_params({"w": w})
    adam_step({"w": w}, {"w": np.array(3.7)}, state, 0.01)
    delta = float(w.data) - 0.5
    assert delta < 0  # opposite sign to the gradient
    assert abs(abs(delta) - 0.01) < 1e-6  # bias correction makes |step| ~ lr


def test_descent_on_quadratic():
    w = Tensor(np.array(1.0), requires_grad=True)
    params = {"w": w}
    state = AdamState.for_params(params)
    values = []
    for _ in range(10):
        zero_grads(params)
        loss = T.mul(w, w)
        loss.backward()
        adam_step(params, collect_grads(params), state, 0.1)
        values.append(abs(float(w.data)))
    assert all(b < a for a, b in zip(values, values[1:]))


def test_shape_mismatch_rejected():
    w = Tensor(np.zeros((2, 2)), requires_grad=True)
    state = AdamState.for_params({"w": w})
    with pytest.raises(ShapeError):
        adam_step({"w": w}, {"w": np.zeros(3)}, state, 0.1)


def test_moment_shapes_validated():
    w = Tensor(np.zeros((2, 2)), requires_grad=True)
    state = AdamState.for_params({"w": w})
    state.m["w"] = np.zeros(5)
    with pytest.raises(ShapeError):
        adam_step({"w": w}, {"w": np.zeros((2, 2))}, state, 0.1)


def test_collect_grads_defaults_missing_to_zero():
    w = Tensor(np.ones(3), requires_grad=True)
    grads = collect_grads({"w": w})
    assert np.array_equal(grads["w"], np.zeros(3))


# fit -------------------------------------------------------------------------


def test_fit_with_start_at_steps_takes_no_step():
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    params = {"w": w}
    state = AdamState.for_params(params)
    calls = []

    def step_fn(step):
        calls.append(step)
        return T.tsum(T.mul(w, w)), {}

    assert fit(params, state, 0.1, 4, step_fn, start=4) == []
    assert calls == []
    assert state.step == 0
    assert np.array_equal(w.data, [1.0, -2.0])


def test_fit_rows_in_step_order_with_forward_losses():
    w = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    params = {"w": w}
    state = AdamState.for_params(params)
    forward = []

    def step_fn(step):
        loss = T.tsum(T.mul(w, w))
        forward.append(loss.item())
        return loss, {"step": step}

    rows = fit(params, state, 0.1, 7, step_fn, start=2)
    assert [stats["step"] for _, stats, _ in rows] == [2, 3, 4, 5, 6]
    assert [loss for loss, _, _ in rows] == forward
    assert all(ms >= 0.0 for _, _, ms in rows)
    assert state.step == 5
    assert all(b < a for a, b in zip(forward, forward[1:]))


def test_fit_gives_unreached_parameters_a_zero_gradient():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    idle = Tensor(np.array([3.0]), requires_grad=True)
    params = {"w": w, "idle": idle}
    state = AdamState.for_params(params)
    fit(params, state, 0.1, 3, lambda _: (T.tsum(T.mul(w, w)), {}))
    assert np.array_equal(idle.data, [3.0])
    assert np.array_equal(state.m["idle"], [0.0])


def test_fit_names_the_step_and_parameter_left_non_finite():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([0.5]), requires_grad=True)
    params = {"a": a, "b": b}
    state = AdamState.for_params(params)

    def step_fn(step):
        scale = np.inf if step == 2 else 1.0  # an infinite gradient: Adam's step is inf/inf
        return T.add(T.tsum(T.mul(a, a)), T.tsum(T.mul(b, Tensor(scale)))), {}

    with np.errstate(all="ignore"), pytest.raises(
        NumericError, match=r"^fit: step 2 at lr 0\.1 left parameter 'b' non-finite$"
    ):
        fit(params, state, 0.1, 5, step_fn)
    assert state.step == 3
    assert np.isfinite(a.data).all()


def test_fit_names_the_step_whose_loss_is_non_finite():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    params = {"a": a}
    state = AdamState.for_params(params)

    def step_fn(step):
        offset = np.inf if step == 1 else 0.0  # a constant: every gradient stays finite
        return T.add(T.tsum(T.mul(a, a)), Tensor(offset)), {}

    with pytest.raises(NumericError, match=r"^fit: step 1 at lr 0\.1 gave the non-finite loss inf$"):
        fit(params, state, 0.1, 3, step_fn)
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
    adam = AdamState.for_params(params)
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
            adam_step(params, collect_grads(params), adam, lr)
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


def test_epoch_batches_shuffles_once_per_epoch_and_slices_its_order():
    """Batch k of epoch e is slice k of ``shuffle(e)``, the partial last
    batch dropped; each epoch's shuffle is called once, by its first step
    that runs, so a schedule entered mid-epoch draws that epoch's order."""
    items = [f"item{i}" for i in range(18)]
    orders = {e: RngState(31).derive("epoch", e).permutation(18) for e in range(3)}
    calls = []

    def shuffle(epoch):
        calls.append(epoch)
        return orders[epoch]

    def expected(step):
        epoch, k = divmod(step, 4)  # 4 full batches per epoch, 2 items dropped
        return [items[i] for i in orders[epoch][4 * k : 4 * k + 4]]

    batches = epoch_batches(items, 4, shuffle)
    assert [batches(step) for step in range(12)] == [expected(step) for step in range(12)]
    assert calls == [0, 1, 2]
    calls.clear()
    resumed = epoch_batches(items, 4, shuffle)
    assert [resumed(step) for step in (6, 7, 8)] == [expected(step) for step in (6, 7, 8)]
    assert calls == [1, 2]


def test_epoch_batches_refuses_an_empty_list_and_a_batch_larger_than_it():
    def shuffle(epoch):
        raise AssertionError("a refused schedule shuffles nothing")

    with pytest.raises(ValueError, match="^dataset is empty$"):
        epoch_batches([], 1, shuffle)
    with pytest.raises(ValueError, match="^batch size 5 exceeds dataset size 4$"):
        epoch_batches([0, 1, 2, 3], 5, shuffle)
    assert epoch_batches([0, 1, 2, 3], 4, lambda e: [3, 2, 1, 0])(7) == [3, 2, 1, 0]


def _package_calls(names, loads: bool = False) -> set[tuple[str, str]]:
    """(where, name) of every call in the package and the scripts of a
    function in ``names``, or with ``loads`` of every load of such a name,
    called or not; ``where`` is the module and the enclosing defs, dotted,
    and a lambda passed to ``f(...)`` adds ``<lambda in f>``."""
    callers = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        lambdas = {}
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in names:
                callers.add((where, name))
            lambdas = {
                id(a): f"{where}.<lambda in {name}>" for a in node.args if isinstance(a, ast.Lambda)
            }
        elif loads and isinstance(getattr(node, "ctx", None), ast.Load):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in names:
                callers.add((where, name))
        for child in ast.iter_child_nodes(node):
            visit(child, lambdas.get(id(child), where))

    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return callers


def test_optimizer_steps_run_only_inside_fit():
    """zero_grads, backward and adam_step are called in one place in the
    package: the training loop ``optim.fit``."""
    assert _package_calls({"zero_grads", "backward", "adam_step"}) == {
        ("optim.fit", "zero_grads"),
        ("optim.fit", "backward"),
        ("optim.fit", "adam_step"),
    }


TRAINER_NAMES = {"train_hr_align", "train_baseline_pret", "train_baseline_cls"}


def test_trainers_run_only_through_train():
    """Programs train through ``trainer.train``: it is the only caller of
    the three trainers, and no program names them anywhere else, so no
    table can hold a trainer bound before a caller replaced it."""
    through_train = {("trainer.train", name) for name in TRAINER_NAMES}
    assert _package_calls(TRAINER_NAMES) == through_train
    assert _package_calls(TRAINER_NAMES, loads=True) == through_train


def test_adapters_run_only_inside_encode_batch():
    """Adapters are data: ``adapter_forward`` runs only in ``encode_batch``'s
    block loop, and ``encode_batch`` is called only by ``encode_pooled`` (a
    batch), ``encode_clips`` (a set) and the encode lambdas the two
    ``pretext_loss`` callers pass."""
    assert _package_calls({"adapter_forward", "encode_batch"}) == {
        ("encoder.encode_batch", "adapter_forward"),
        ("encoder.encode_pooled", "encode_batch"),
        ("encoder.encode_clips", "encode_batch"),
        ("encoder.pretext_pretrain.step_loss.<lambda in pretext_loss>", "encode_batch"),
        ("trainer.train_baseline_pret.batch_loss.<lambda in pretext_loss>", "encode_batch"),
    }


def test_epoch_shuffles_run_only_inside_epoch_batches():
    """Every minibatch loop takes its order from ``epoch_batches``: the
    package shuffles by ``permutation`` only in the shuffles the trainers'
    schedule and pretext pre-training pass it."""
    assert _package_calls({"permutation", "epoch_batches"}) == {
        ("trainer._seeded_batches", "epoch_batches"),
        ("trainer._seeded_batches.<lambda in epoch_batches>", "permutation"),
        ("encoder.pretext_pretrain", "epoch_batches"),
        ("encoder.pretext_pretrain.<lambda in epoch_batches>", "permutation"),
    }
