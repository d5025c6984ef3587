"""Adam optimizer over named parameter tensors, the one training loop and
the one minibatch schedule it runs on. The step size is an argument of each
step, not part of Adam's state."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .tensor import NumericError, ShapeError, Tensor

# Adam's moment decays and denominator guard, the same for every run.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Step count plus per-parameter moment buffers, keyed by name."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, Tensor]) -> "AdamState":
        state = cls()
        for name, p in params.items():
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        return state


def adam_step(
    params: dict[str, Tensor], grads: dict[str, np.ndarray], state: AdamState, lr: float
) -> AdamState:
    """One bias-corrected Adam update of step size ``lr``, in place on ``params``."""
    state.step += 1
    t = state.step
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.data.shape:
            raise ShapeError(
                f"adam_step: grad shape {g.shape} != param shape {p.data.shape} for {name!r}"
            )
        if state.m[name].shape != p.data.shape:
            raise ShapeError(
                f"adam_step: moment shape {state.m[name].shape} != param shape "
                f"{p.data.shape} for {name!r}"
            )
        state.m[name] = BETA1 * state.m[name] + (1.0 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1.0 - BETA2) * g * g
        m_hat = state.m[name] / c1
        v_hat = state.v[name] / c2
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + EPS)
    return state


def collect_grads(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradients for an optimizer step; missing grads count as zero."""
    return {
        name: (p.grad if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


def epoch_batches(
    items: Sequence, batch_size: int, shuffle: Callable[[int], np.ndarray]
) -> Callable[[int], list]:
    """The one minibatch schedule, step -> batch: epoch e is the full batches
    of ``items`` in the order ``shuffle(e)``, called once, by the epoch's
    first step that runs, and held by this schedule alone (one run's)."""
    if not items:
        raise ValueError("dataset is empty")
    if batch_size > len(items):
        raise ValueError(f"batch size {batch_size} exceeds dataset size {len(items)}")
    per_epoch, current = len(items) // batch_size, [None, None]  # epoch, its order

    def batch(step: int) -> list:
        epoch, slot = divmod(step, per_epoch)
        if current[0] != epoch:
            current[:] = epoch, shuffle(epoch)
        return [items[i] for i in current[1][slot * batch_size : (slot + 1) * batch_size]]

    return batch


def fit(
    params: dict[str, Tensor],
    adam: AdamState,
    lr: float,
    steps: int,
    step_fn: Callable[[int], tuple[Tensor, dict]],
    start: int = 0,
) -> list[tuple[float, dict, float]]:
    """The training loop: steps ``start .. steps-1`` of Adam at ``lr`` on ``params``.

    ``step_fn(step)`` builds the step's loss and a stats dict; the loop then
    clears the gradients, backpropagates and takes one Adam step. Returns
    ``(loss value, stats, wall ms)`` per step, in step order. Raises
    ``NumericError`` naming the step, the lr and the first parameter that a
    step leaves NaN or infinite (say, from a step size that overflows), or
    else the step's non-finite loss, rather than training on from weights no
    later step can repair. Since it names the failure itself, numpy's
    overflow and invalid-value warnings are silenced inside the loop.
    """
    rows = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(start, steps):
            t0 = time.perf_counter()
            loss, stats = step_fn(step)
            zero_grads(params)
            loss.backward()
            adam_step(params, collect_grads(params), adam, lr)
            for name, p in params.items():
                if not np.isfinite(p.data).all():
                    raise NumericError(
                        f"fit: step {step} at lr {lr!r} left parameter {name!r} non-finite"
                    )
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(f"fit: step {step} at lr {lr!r} gave the non-finite loss {value}")
            rows.append((value, stats, (time.perf_counter() - t0) * 1e3))
    return rows
