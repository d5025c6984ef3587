"""Which hralign functions the traced run wraps, and the per-layer metrics
derived from the spans it records.

Spans are recorded only from outside the package: every wrapper sits where
a caller looks the function's name up, so the package itself is unchanged.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys

from .spans import Patcher, Span, Tracer, children_index, self_time, traced

# Benchmark-owned spans that mark the phases of a traced repetition.
SETUP_SPAN = "bench.setup"
TIMED_SPAN = "bench.timed"

# Calls whose optimizer steps define "per step" for the per-layer metrics.
TRAIN_CALLS = (
    "trainer.train_hr_align",
    "trainer.train_baseline_pret",
    "trainer.train_baseline_cls",
    "encoder.pretext_pretrain",
)
# Calls that make up the evaluation part of a repetition.
EVAL_CALLS = (
    "evaluation.eval_retrieval",
    "evaluation.eval_downstream",
    "trainer.classification_accuracy",
)

PER_STEP_MS = (
    "tensor.conv2d",
    "encoder.encode_batch",
    "encoder.pretext_loss",
    "adapter.adapter_forward",
    "task_query.embed_texts",
    "alignment.pool_many",
    "alignment.hr_align_loss",
    "alignment.alignment_stats",
    "optim.adam_step",
    "rng.permutation",
    "dataset.sample_frames",
)
TOTAL_S = (
    "dataset.generate_paired_set",
    "evaluation.eval_retrieval",
    "evaluation.eval_downstream",
    "evaluation.train_bc_head",
    "evaluation.train_linear_probe",
)

# Every per-layer metric the traced run reports, in BENCHMARK.json order.
LAYER_METRICS = {
    "tensor.conv2d.fwd_ms_per_step": "ms",
    "tensor.conv2d.bwd_ms_per_step": "ms",
    "tensor.conv2d.calls_per_step": "count",
    "tensor.conv2d.flops_per_step": "flop",
    "tensor.conv2d.bytes_per_step": "B",
    "tensor.backward.self_ms_per_step": "ms",
    "encoder.encode_batch.ms_per_step": "ms",
    "encoder.encode_batch.frames_per_step": "count",
    "encoder.prefix_reuse_ratio": "ratio",
    "encoder.pretext_loss.ms_per_step": "ms",
    "adapter.adapter_forward.ms_per_step": "ms",
    "adapter.adapter_forward.calls_per_step": "count",
    "task_query.embed_texts.ms_per_step": "ms",
    "alignment.pool_many.ms_per_step": "ms",
    "alignment.hr_align_loss.ms_per_step": "ms",
    "alignment.alignment_stats.ms_per_step": "ms",
    "optim.adam_step.ms_per_step": "ms",
    "optim.adam_step.scalars": "count",
    "rng.permutation.ms_per_step": "ms",
    "rng.permutation.calls_per_step": "count",
    "rng.permutation.unique_frac": "ratio",
    "dataset.sample_frames.ms_per_step": "ms",
    "dataset.generate_paired_set.s": "s",
    "trainer.step_ms.p50": "ms",
    "trainer.step_ms.p99": "ms",
    "trainer.loop.self_ms_per_step": "ms",
    "trainer.checkpoint.save_ms": "ms",
    "trainer.checkpoint.load_ms": "ms",
    "trainer.checkpoint.bytes": "B",
    "evaluation.eval_retrieval.s": "s",
    "evaluation.eval_downstream.s": "s",
    "evaluation.encode.s": "s",
    "evaluation.train_bc_head.s": "s",
    "evaluation.train_linear_probe.s": "s",
    "trace.overhead_frac": "ratio",
}


class FrameLedger:
    """Frames entering a frozen backbone prefix, and how many are distinct.

    A frame counts when the backbone is frozen and the first adapter
    junction (if any) sits after block 0, so at least one frozen block
    sees the raw frame; that is the work a frozen-prefix cache could skip.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.pushed = 0
        self.distinct: set[bytes] = set()

    def observe(self, backbone, frames, hooks=None) -> dict:
        prefix = min(hooks) if hooks else backbone.n_blocks
        frozen = backbone.frozen and prefix > 0
        if frozen and self.tracer.is_open(TIMED_SPAN):
            self.pushed += len(frames)
            for frame in frames:
                self.distinct.add(hashlib.blake2b(frame.tobytes(), digest_size=16).digest())
        return {"frames": int(len(frames))}


def _conv_cost(x, kernels, stride: int = 1, padding: int = 0) -> dict:
    """Forward FLOPs and bytes copied by the pad and im2col steps, from shapes."""
    shape = x.shape if len(x.shape) == 4 else (1,) + tuple(x.shape)
    n, c_in, h, w = shape
    c_out, _, k, _ = kernels.shape
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    pad_bytes = n * c_in * (h + 2 * padding) * (w + 2 * padding) * 8 if padding else 0
    im2col_bytes = n * ho * wo * c_in * k * k * 8
    return {"flops": 2 * n * ho * wo * c_out * c_in * k * k, "bytes": pad_bytes + im2col_bytes}


def install(tracer: Tracer) -> tuple[Patcher, FrameLedger]:
    """Wrap every traced hralign function; call ``patcher.restore()`` after."""
    from hralign import adapter, alignment, dataset, encoder, evaluation, optim, task_query, trainer
    from hralign import tensor as T
    from hralign.rng import RngState

    patcher = Patcher()
    frames = FrameLedger(tracer)
    try:
        def wrap(module, attr, before=None, after=None):
            """Bind the wrapper to every hralign module global bound to the function."""
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            fn = getattr(module, attr)
            wrapper = traced(tracer, name, fn, before, after)
            for mod_name, mod in sorted(sys.modules.items()):
                if mod is not None and (mod_name == "hralign" or mod_name.startswith("hralign.")):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            patcher.set(mod, key, wrapper)

        def wrap_conv_backward(out, span):
            if out._bwd is not None:
                out._bwd = traced(tracer, "tensor.conv2d.bwd", out._bwd)

        wrap(T, "conv2d", before=_conv_cost, after=wrap_conv_backward)
        patcher.wrap_method(T.Tensor, "backward", lambda f: traced(tracer, "tensor.backward", f))
        wrap(encoder, "encode_batch", before=frames.observe)
        wrap(encoder, "pretext_loss")
        wrap(encoder, "pretext_pretrain")
        wrap(adapter, "adapter_forward")
        wrap(task_query, "embed_texts")
        for attr in ("pool_many", "hr_align_loss", "alignment_stats"):
            wrap(alignment, attr)
        wrap(optim, "adam_step", before=lambda params, *a, **k: {
            "scalars": int(sum(p.data.size for p in params.values()))
        })
        patcher.wrap_method(RngState, "permutation", lambda f: traced(
            tracer, "rng.permutation", f,
            before=lambda self, n: {"key": [self.seed, self.position, int(n)]},
        ))
        wrap(dataset, "sample_frames")
        wrap(dataset, "generate_paired_set")
        for attr in ("train_hr_align", "train_baseline_pret", "train_baseline_cls",
                     "classification_accuracy"):
            wrap(trainer, attr)
        patcher.wrap_method(trainer.ModelCheckpoint, "save", lambda f: traced(
            tracer, "trainer.checkpoint.save", f,
            before=lambda self, path: {"path": path},
            after=lambda _, span: span.attrs.update(bytes=os.path.getsize(span.attrs["path"])),
        ))
        patcher.wrap_method(trainer.ModelCheckpoint, "load", lambda f: traced(
            tracer, "trainer.checkpoint.load", f
        ))
        for attr in ("eval_retrieval", "eval_downstream", "train_bc_head", "train_linear_probe"):
            wrap(evaluation, attr)
    except BaseException:
        patcher.restore()
        raise
    return patcher, frames


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def per_layer(
    spans: list[Span], frames: FrameLedger, traced_cpu: float, untraced_cpu: float
) -> dict[str, float]:
    """Per-layer metrics of the traced repetition under ``TIMED_SPAN``.

    Per-step values are totals inside training calls divided by the
    optimizer steps those calls took. Layers a workload never reaches
    report 0.
    """
    kids = children_index(spans)
    # parents are opened before their children, so one forward pass
    # propagates (inside timed phase, enclosing train call, inside eval)
    timed = [False] * len(spans)
    train_of: list[int | None] = [None] * len(spans)
    in_eval = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s.parent
        timed[i] = s.name == TIMED_SPAN or (p is not None and timed[p])
        train_of[i] = train_of[p] if p is not None else None
        in_eval[i] = p is not None and in_eval[p]
        if timed[i] and train_of[i] is None and s.name in TRAIN_CALLS:
            train_of[i] = i
        if timed[i] and s.name in EVAL_CALLS:
            in_eval[i] = True

    in_train = [train_of[i] is not None and train_of[i] != i for i in range(len(spans))]
    train_calls = [i for i in range(len(spans)) if train_of[i] == i]
    step_ends: dict[int, list[float]] = {i: [] for i in train_calls}
    for i, s in enumerate(spans):
        if in_train[i] and s.name == "optim.adam_step":
            step_ends[train_of[i]].append(s.end)
    steps = sum(len(v) for v in step_ends.values())
    per = 1.0 / steps if steps else 0.0

    def train_spans(name):
        return [s for i, s in enumerate(spans) if in_train[i] and s.name == name]

    out: dict[str, float] = {}
    for name in PER_STEP_MS:
        out[f"{name}.ms_per_step"] = sum(s.duration for s in train_spans(name)) * 1e3 * per
    conv = train_spans("tensor.conv2d")
    out["tensor.conv2d.fwd_ms_per_step"] = out.pop("tensor.conv2d.ms_per_step")
    out["tensor.conv2d.bwd_ms_per_step"] = (
        sum(s.duration for s in train_spans("tensor.conv2d.bwd")) * 1e3 * per
    )
    out["tensor.conv2d.calls_per_step"] = len(conv) * per
    out["tensor.conv2d.flops_per_step"] = sum(s.attrs["flops"] for s in conv) * per
    out["tensor.conv2d.bytes_per_step"] = sum(s.attrs["bytes"] for s in conv) * per
    out["tensor.backward.self_ms_per_step"] = (
        sum(
            self_time(spans[i], [spans[c] for c in kids.get(i, [])])
            for i in range(len(spans))
            if in_train[i] and spans[i].name == "tensor.backward"
        )
        * 1e3
        * per
    )
    out["encoder.encode_batch.frames_per_step"] = (
        sum(s.attrs["frames"] for s in train_spans("encoder.encode_batch")) * per
    )
    out["encoder.prefix_reuse_ratio"] = (
        frames.pushed / len(frames.distinct) if frames.distinct else 0.0
    )
    out["adapter.adapter_forward.calls_per_step"] = (
        len(train_spans("adapter.adapter_forward")) * per
    )
    adam = train_spans("optim.adam_step")
    out["optim.adam_step.scalars"] = sum(s.attrs["scalars"] for s in adam) * per
    perms = train_spans("rng.permutation")
    out["rng.permutation.calls_per_step"] = len(perms) * per
    out["rng.permutation.unique_frac"] = (
        len({tuple(s.attrs["key"]) for s in perms}) / len(perms) if perms else 0.0
    )
    for name in TOTAL_S:
        out[f"{name}.s"] = sum(s.duration for s in spans if s.name == name)

    step_ms = []
    for call, ends in step_ends.items():
        prev = spans[call].start
        for end in sorted(ends):
            step_ms.append((end - prev) * 1e3)
            prev = end
    out["trainer.step_ms.p50"] = _percentile(step_ms, 0.50) if step_ms else 0.0
    out["trainer.step_ms.p99"] = _percentile(step_ms, 0.99) if step_ms else 0.0
    out["trainer.loop.self_ms_per_step"] = (
        sum(self_time(spans[i], [spans[c] for c in kids.get(i, [])]) for i in train_calls)
        * 1e3
        * per
    )
    saves = [s for i, s in enumerate(spans) if timed[i] and s.name == "trainer.checkpoint.save"]
    loads = [s for i, s in enumerate(spans) if timed[i] and s.name == "trainer.checkpoint.load"]
    out["trainer.checkpoint.save_ms"] = (
        sum(s.duration for s in saves) * 1e3 / len(saves) if saves else 0.0
    )
    out["trainer.checkpoint.load_ms"] = (
        sum(s.duration for s in loads) * 1e3 / len(loads) if loads else 0.0
    )
    out["trainer.checkpoint.bytes"] = float(saves[-1].attrs["bytes"]) if saves else 0.0
    out["evaluation.encode.s"] = sum(
        s.duration for i, s in enumerate(spans) if in_eval[i] and s.name == "encoder.encode_batch"
    )
    out["trace.overhead_frac"] = traced_cpu / untraced_cpu - 1.0
    return {name: out[name] for name in LAYER_METRICS}
