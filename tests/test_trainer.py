import dataclasses
import hashlib
import json
import os
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASELINE_LR
from helpers import (
    body_tensors,
    fail_writes_partway,
    header_length,
    learnable_parameters,
    seal,
    setting,
    small_checkpoint,
    sum_param_sizes,
    with_header,
    with_tensors,
    without,
)
from hralign import trainer
from hralign.adapter import ADAPTER_RATIO, POSITION_SPECS
from hralign.dataset import generate_paired_set, split_pairs
from hralign.encoder import Backbone, pretext_pretrain
from hralign.evaluation import dump_embeddings, eval_downstream, eval_retrieval
from hralign.rng import RngState
from hralign.task_query import TEXT_DIM
from hralign.tensor import to_bytes
from hralign.trainer import (
    CheckpointError,
    LinearHead,
    MetricsLog,
    MetricsRow,
    ModelCheckpoint,
    TrainConfig,
    classification_accuracy,
    format_config,
    parse_config_text,
    train_baseline_cls,
    train_baseline_pret,
    train_hr_align,
    _batch_indices,
    _epoch_order,
    _fit_head_scaler,
)


@pytest.fixture(scope="module")
def small_setup():
    pairs = generate_paired_set(RngState(31), 3, 8, 0.6)
    train, heldout = split_pairs(pairs, 0.25)
    backbone, _ = pretext_pretrain(RngState(31), [p.human for p in train], epochs=2, lr=3e-6)
    return pairs, train, heldout, backbone


def small_config(**kwargs):
    base = dict(steps=6, batch_size=4, seed=31)
    base.update(kwargs)
    return TrainConfig(**base)


# config ----------------------------------------------------------------------


def test_config_text_roundtrip():
    config = TrainConfig(steps=12, adapter_positions="EML", use_language=False)
    text = format_config(config)
    parsed = TrainConfig.from_mapping(parse_config_text(text))
    assert parsed == config


def test_config_parse_comments_and_spacing():
    mapping = parse_config_text("# a comment\n  steps =  42 \n\nmethod=hr_align\n")
    assert mapping == {"steps": "42", "method": "hr_align"}


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        TrainConfig.from_mapping({"nonsense": "1"})


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        TrainConfig(method="nope").validate()
    with pytest.raises(ValueError):
        TrainConfig(adapter_positions="Q").validate()
    with pytest.raises(ValueError):
        TrainConfig.from_mapping({"use_language": "maybe"})


@pytest.mark.parametrize(
    "key, value",
    [
        ("steps", [1]),
        ("steps", None),
        ("steps", "x"),
        ("steps", 1.7),
        ("steps", True),
        ("learning_rate", None),
        ("learning_rate", "fast"),
        ("use_language", "maybe"),
        ("method", 5),
    ],
)
def test_config_value_that_cannot_be_read_names_its_key(key, value):
    with pytest.raises(ValueError, match=re.escape(f"config key '{key}': cannot read")):
        TrainConfig.from_mapping({key: value})


def test_config_reads_integral_floats_and_strings():
    config = TrainConfig.from_mapping(
        {"steps": 12.0, "seed": " 5", "learning_rate": 1, "use_language": "no"}
    )
    read = (config.steps, config.seed, config.learning_rate, config.use_language)
    assert read == (12, 5, 1.0, False)
    assert type(config.steps) is int and type(config.learning_rate) is float


@pytest.mark.parametrize("name", ["learning_rate"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        TrainConfig(**{name: value}).validate()
    with pytest.raises(ValueError, match=name):
        TrainConfig.from_mapping({name: str(value)})


def test_config_rejects_hr_align_with_nothing_to_learn():
    with pytest.raises(ValueError, match="adapter_positions.*use_language"):
        TrainConfig(adapter_positions="none", use_language=False).validate()
    # each alone still leaves something to learn
    TrainConfig(adapter_positions="none", use_language=True).validate()
    TrainConfig(adapter_positions="L", use_language=False).validate()


def test_readme_config_table_lists_every_field_and_its_default():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", section, flags=re.MULTILINE)
    assert [key for key, _ in rows] == [f.name for f in dataclasses.fields(TrainConfig)]
    assert TrainConfig.from_mapping(dict(rows)) == TrainConfig()


def test_config_hash_stable_and_sensitive():
    a = TrainConfig()
    assert a.config_hash() == TrainConfig().config_hash()
    assert a.config_hash() != TrainConfig(seed=8).config_hash()


def test_metrics_csv_header():
    log = MetricsLog([MetricsRow(1, 0.5, 0.1, 0.2, 3.0)])
    text = log.to_csv_text()
    assert text.splitlines()[0] == "step,loss,pos_sim,hard_neg_sim,wall_ms"
    assert text.splitlines()[1].startswith("1,0.5,")


# hr-align --------------------------------------------------------------------


def test_zero_steps_identity(small_setup):
    _, train, _, backbone = small_setup
    checkpoint, metrics = train_hr_align(small_config(steps=0), train, backbone)
    assert metrics.rows == []
    assert checkpoint.step == 0
    init_rng = RngState(31)
    from hralign.adapter import AdapterStack

    fresh = AdapterStack.for_positions("L", backbone, 4, init_rng)
    for name, tensor in fresh.named_parameters().items():
        assert np.array_equal(tensor.data, checkpoint.stack.named_parameters()[name].data)


def test_batch_larger_than_dataset_rejected(small_setup):
    _, train, _, backbone = small_setup
    with pytest.raises(ValueError, match="batch size"):
        train_hr_align(small_config(batch_size=999), train, backbone)


def test_backbone_bitwise_frozen_after_short_run(small_setup):
    _, train, _, backbone = small_setup
    before = {n: t.data.copy() for n, t in backbone.named_parameters().items()}
    train_hr_align(small_config(), train, backbone)
    for name, tensor in backbone.named_parameters().items():
        assert np.array_equal(before[name], tensor.data), name


def test_learnable_set_is_adapters_and_projection(small_setup):
    _, train, _, backbone = small_setup
    checkpoint, _ = train_hr_align(small_config(), train, backbone)
    names = set(learnable_parameters(checkpoint))
    assert names == {
        "adapter.j3.down_w",
        "adapter.j3.down_b",
        "adapter.j3.up_w",
        "adapter.j3.up_b",
        "query.proj_w",
        "query.proj_b",
    }


def test_no_language_learnable_set(small_setup):
    _, train, _, backbone = small_setup
    checkpoint, _ = train_hr_align(small_config(use_language=False), train, backbone)
    assert all(n.startswith("adapter.") for n in learnable_parameters(checkpoint))
    assert checkpoint.embedder is None


def test_training_moves_adapter_weights(small_setup):
    _, train, _, backbone = small_setup
    checkpoint, metrics = train_hr_align(small_config(steps=8), train, backbone)
    up = checkpoint.stack.named_parameters()["adapter.j3.up_w"]
    assert not np.array_equal(up.data, np.zeros_like(up.data))
    assert len(metrics.rows) == 8
    assert all(r.loss > 0 for r in metrics.rows)


def test_determinism_same_config_same_metrics(small_setup, tmp_path):
    _, train, _, backbone = small_setup
    c1, m1 = train_hr_align(small_config(), train, backbone)
    c2, m2 = train_hr_align(small_config(), train, backbone)
    assert m1.deterministic_text() == m2.deterministic_text()
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    c1.save(p1)
    c2.save(p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_resume_equals_uninterrupted(small_setup, tmp_path):
    _, train, _, backbone = small_setup
    full, _ = train_hr_align(small_config(steps=8), train, backbone)
    part, _ = train_hr_align(small_config(steps=5), train, backbone)
    part_path = str(tmp_path / "part.ckpt")
    part.save(part_path)
    resumed_from = ModelCheckpoint.load(part_path)
    resumed, metrics = train_hr_align(
        small_config(steps=8), train, backbone, resume=resumed_from
    )
    assert [r.step for r in metrics.rows] == [6, 7, 8]
    full_path, resumed_path = str(tmp_path / "full.ckpt"), str(tmp_path / "resumed.ckpt")
    full.save(full_path)
    resumed.save(resumed_path)
    assert Path(full_path).read_bytes() == Path(resumed_path).read_bytes()


def test_resume_leaves_the_callers_checkpoint_untouched(small_setup, tmp_path):
    _, train, _, backbone = small_setup
    part, _ = train_hr_align(small_config(steps=3), train, backbone)
    path = tmp_path / "part.ckpt"
    part.save(str(path))
    before = path.read_bytes()
    _, first = train_hr_align(small_config(steps=5), train, backbone, resume=part)
    part.save(str(path))
    assert path.read_bytes() == before  # step, weights, Adam state and RNG unmoved
    _, second = train_hr_align(small_config(steps=5), train, backbone, resume=part)
    assert second.deterministic_text() == first.deterministic_text()


def test_resume_below_checkpoint_step_rejected(small_setup):
    _, train, _, backbone = small_setup
    part, _ = train_hr_align(small_config(steps=5), train, backbone)
    with pytest.raises(ValueError, match="steps=3.*step 5"):
        train_hr_align(small_config(steps=3), train, backbone, resume=part)
    # resuming at the checkpoint's own step is a no-op, not an error
    same, metrics = train_hr_align(small_config(steps=5), train, backbone, resume=part)
    assert same.step == 5 and not metrics.rows


def test_resume_over_a_different_backbone_rejected(small_setup):
    _, train, _, backbone = small_setup
    part, _ = train_hr_align(small_config(steps=2), train, backbone)
    nudged = backbone.copy()
    w = nudged.named_parameters()["backbone.block1.w"]
    w.data = w.data.copy()
    w.data.flat[0] = np.nextafter(w.data.flat[0], np.inf)  # one bit of one weight
    with pytest.raises(ValueError, match="differs from the checkpoint's at tensor 'backbone.block1.w'"):
        train_hr_align(small_config(steps=4), train, nudged, resume=part)
    with pytest.raises(ValueError, match="differs from the checkpoint's at tensor 'backbone.block"):
        train_hr_align(small_config(steps=4), train, Backbone.create(RngState(2)), resume=part)
    resumed, _ = train_hr_align(small_config(steps=4), train, backbone.copy().unfreeze(), resume=part)
    assert resumed.step == 4  # the same weights resume, frozen or not


def _no_training(*args, **kwargs):
    raise AssertionError("training started")


@pytest.mark.parametrize(
    "field, part",
    [
        ("stack", "adapter stack"),
        ("rng", "training RNG"),
        ("adam", "Adam state"),
        ("embedder", "query projection use_language needs"),
    ],
    ids=["stack", "rng", "adam", "embedder"],
)
def test_resume_missing_a_part_is_refused_before_training(small_pairs, monkeypatch, field, part):
    # a pretrain output resumed by `adapt --resume` once died with an
    # AttributeError on its missing adapter stack
    checkpoint = dataclasses.replace(small_checkpoint("L", adam=True), **{field: None})
    monkeypatch.setattr(trainer, "fit", _no_training)
    with pytest.raises(ValueError, match=f"^resume checkpoint holds no {part}$"):
        train_hr_align(checkpoint.config, small_pairs, checkpoint.backbone, resume=checkpoint)


@pytest.mark.parametrize(
    "dropped, first",
    [
        (lambda name: name.startswith("adam."), "adapter.j3.down_w"),
        (lambda name: name in ("adam.m.query.proj_b", "adam.v.query.proj_b"), "query.proj_b"),
    ],
    ids=["every-moment", "one-pair"],
)
def test_resume_without_adam_moments_is_refused_before_training(
    small_pairs, tmp_path, monkeypatch, dropped, first
):
    # such a resealed file loads (its header still says adam), and resuming
    # from it once died with a bare KeyError inside adam_step
    path = tmp_path / "model.ckpt"
    small_checkpoint("L", adam=True).save(str(path))
    path.write_bytes(
        with_tensors(path.read_bytes(), lambda tensors: {n: b for n, b in tensors.items() if not dropped(n)})
    )
    loaded = ModelCheckpoint.load(str(path))
    assert loaded.adam is not None and first not in loaded.adam.m
    monkeypatch.setattr(trainer, "fit", _no_training)
    with pytest.raises(ValueError, match=f"^resume checkpoint holds no Adam moments of '{first}'$"):
        train_hr_align(loaded.config, small_pairs, loaded.backbone, resume=loaded)


def test_epoch_order_is_shared_read_only():
    order = _epoch_order(31, 2, 18)
    assert order is _epoch_order(31, 2, 18)
    assert not order.flags.writeable
    assert np.array_equal(order, RngState(31).derive("epoch", 2).permutation(18))
    assert _batch_indices(31, 2 * 4 + 1, 18, 4) == [int(i) for i in order[4:8]]


def test_checkpoint_save_failing_partway_keeps_previous_file(small_setup, tmp_path, monkeypatch):
    _, train, _, backbone = small_setup
    first, _ = train_hr_align(small_config(steps=2), train, backbone)
    second, _ = train_hr_align(small_config(steps=4), train, backbone)
    path = str(tmp_path / "model.ckpt")
    first.save(path)
    before = Path(path).read_bytes()
    fail_writes_partway(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        second.save(path)
    monkeypatch.undo()
    assert Path(path).read_bytes() == before
    assert ModelCheckpoint.load(path).step == 2
    assert os.listdir(tmp_path) == ["model.ckpt"]


def test_metrics_save_failing_partway_keeps_previous_file(tmp_path, monkeypatch):
    path = str(tmp_path / "metrics.csv")
    first = MetricsLog([MetricsRow(1, 2.5, 0.1, 0.2, 3.0)])
    first.save(path)
    fail_writes_partway(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        MetricsLog(first.rows + [MetricsRow(2, 2.4, 0.1, 0.2, 3.0)]).save(path)
    monkeypatch.undo()
    assert Path(path).read_text(encoding="utf-8") == first.to_csv_text()
    assert os.listdir(tmp_path) == ["metrics.csv"]


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ckpt") / "model.ckpt")
    small_checkpoint("L", language=True, head=True, adam=True, seed=3).save(path)
    return Path(path).read_bytes()


@pytest.mark.parametrize(
    "cut, match",
    [
        (lambda raw: raw[:3], "too short"),
        (lambda raw: raw[: 4 + header_length(raw) // 2], "header truncated"),
        (lambda raw: raw[:-5], "sha256 mismatch"),
    ],
    ids=["under_4_bytes", "header", "body"],
)
def test_truncated_checkpoint_raises_checkpoint_error(checkpoint_bytes, tmp_path, cut, match):
    path = tmp_path / "model.ckpt"
    path.write_bytes(cut(checkpoint_bytes))
    with pytest.raises(CheckpointError, match=match):
        ModelCheckpoint.load(str(path))


def test_checkpoint_with_unparsable_header_raises_checkpoint_error(checkpoint_bytes, tmp_path):
    raw = bytearray(checkpoint_bytes)
    raw[4] = 0xFF  # the header's opening brace, now invalid UTF-8
    path = tmp_path / "model.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="header is not valid JSON"):
        ModelCheckpoint.load(str(path))


def test_checkpoint_corrupt_tensor_dims_raise_checkpoint_error(checkpoint_bytes, tmp_path):
    raw = bytearray(checkpoint_bytes)
    first = 4 + header_length(checkpoint_bytes)  # the first tensor's rank, then its dims
    raw[first + 4 : first + 8] = (10**6).to_bytes(4, "little")
    path = tmp_path / "model.ckpt"
    path.write_bytes(seal(bytes(raw[:-32])))
    with pytest.raises(CheckpointError, match="is corrupt"):
        ModelCheckpoint.load(str(path))


def test_checkpoint_missing_tensor_entry_raises_checkpoint_error(checkpoint_bytes, tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(with_tensors(checkpoint_bytes, _dropping("backbone.block0.w")))
    with pytest.raises(CheckpointError, match="no tensor entry 'backbone.block0.w'"):
        ModelCheckpoint.load(str(path))


def test_saved_checkpoint_holds_the_version_2_header_and_a_sha256_trailer(checkpoint_bytes):
    hlen = header_length(checkpoint_bytes)
    header = json.loads(checkpoint_bytes[4 : 4 + hlen])
    assert list(header) == sorted(trainer.HEADER_SPEC)
    assert header["backbone"] == {"channels": [3, 4, 4, 4], "kernel": 3, "strides": [2, 2, 1]}
    flags = {key: header[key] for key in ("version", "stack", "embedder", "head", "adam", "step")}
    assert flags == {"version": 2, "stack": True, "embedder": True, "head": [0, 1, 2], "adam": True, "step": 3}
    assert b"".join(body_tensors(checkpoint_bytes).values()) == checkpoint_bytes[4 + hlen : -32]
    assert checkpoint_bytes[-32:] == hashlib.sha256(checkpoint_bytes[:-32]).digest()


def _version_1_bytes(checkpoint: ModelCheckpoint) -> bytes:
    """``checkpoint`` in the last version-1 layout: a header indexing each
    tensor's shape, offset and size beside the values version 2 derives,
    then the same body, and no trailer."""
    adam, bb, config = checkpoint.adam, checkpoint.backbone, checkpoint.config
    arrays = {name: t.data for name, t in checkpoint.named_tensors().items()}
    for name in adam.m:
        arrays[f"adam.m.{name}"], arrays[f"adam.v.{name}"] = adam.m[name], adam.v[name]
    names = sorted(arrays)
    blobs = [to_bytes(arrays[name]) for name in names]
    offsets = np.cumsum([0] + [len(blob) for blob in blobs]).tolist()
    header = {
        "version": 1,
        "tensors": [
            {"name": name, "shape": list(arrays[name].shape), "offset": offset, "nbytes": len(blob)}
            for name, offset, blob in zip(names, offsets, blobs)
        ],
        "config": config.to_mapping(),
        "config_hash": config.config_hash(),
        "backbone": {
            "channels": list(bb.channels), "strides": [blk.stride for blk in bb.blocks],
            "kernel": bb.kernel, "frozen": True,
        },
        "stack": {
            "positions": config.adapter_positions, "junctions": list(checkpoint.stack.blocks),
            "ratio": ADAPTER_RATIO,
        },
        "embedder": {"text_dim": TEXT_DIM, "out_dim": bb.out_channels},
        "head": {"in_dim": bb.out_channels, "task_ids": checkpoint.head.task_ids},
        "adam": {"lr": adam.lr, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "step": adam.step},
        "rng": list(checkpoint.rng.state()),
        "step": checkpoint.step,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return struct.pack("<I", len(header_bytes)) + header_bytes + b"".join(blobs)


def test_version_1_checkpoint_raises_unsupported_version(tmp_path):
    # "version 1" named three incompatible layouts, so an older file failed
    # on whichever key had changed instead of on its version
    path = tmp_path / "model.ckpt"
    path.write_bytes(_version_1_bytes(small_checkpoint("L", head=True, adam=True, seed=3)))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: unsupported checkpoint version 1")):
        ModelCheckpoint.load(str(path))


@pytest.mark.parametrize(
    "header",
    [{"version": 3}, {"version": 1, "tensors": 5}, {"version": 0, "head": {"in_dim": 4}}],
    ids=["3_alone", "1_bad_tensors", "0_old_head"],
)
def test_any_other_version_raises_unsupported_version_whatever_its_keys(
    checkpoint_bytes, tmp_path, header
):
    path = tmp_path / "model.ckpt"
    path.write_bytes(with_header(checkpoint_bytes, lambda _: header))
    message = f"{path}: unsupported checkpoint version {header['version']}"
    with pytest.raises(CheckpointError, match=re.escape(message)):
        ModelCheckpoint.load(str(path))


@pytest.mark.parametrize("change", ["unfrozen_backbone", "adam_lr", "adam_step"])
def test_save_refuses_a_checkpoint_load_would_rebuild_otherwise(tmp_path, change):
    checkpoint = small_checkpoint(adam=True, seed=3)
    if change == "unfrozen_backbone":
        checkpoint.backbone.unfreeze()
    elif change == "adam_lr":
        checkpoint.adam.lr *= 2
    else:
        checkpoint.adam.step += 1
    with pytest.raises(ValueError, match="frozen backbone and Adam at its config's lr and its step"):
        checkpoint.save(str(tmp_path / "model.ckpt"))
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("header", [[1], "x"], ids=["list", "string"])
def test_checkpoint_header_not_an_object_raises_checkpoint_error(
    checkpoint_bytes, tmp_path, header
):
    path = tmp_path / "model.ckpt"
    path.write_bytes(with_header(checkpoint_bytes, lambda _: header))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: header is not a JSON object")):
        ModelCheckpoint.load(str(path))


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda header: {"version": header["version"]}, "tensors"),
        (without("config"), "config"),
        (without("backbone", "channels"), "backbone.channels"),
    ],
    ids=["version_only", "config", "backbone.channels"],
)
def test_checkpoint_header_missing_key_raises_checkpoint_error(
    checkpoint_bytes, tmp_path, edit, key
):
    path = tmp_path / "model.ckpt"
    path.write_bytes(with_header(checkpoint_bytes, edit))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: header lacks key '{key}'")):
        ModelCheckpoint.load(str(path))


@pytest.mark.parametrize(
    "edit, key",
    [
        (setting("tensors", 5), "tensors"),
        (setting("tensors", 0, [1]), "tensors[0]"),
        (setting("config", [1]), "config"),
        (setting("backbone", "channels", 5), "backbone.channels"),
        (setting("backbone", "kernel", "3"), "backbone.kernel"),
        (setting("rng", 5), "rng"),
        (setting("step", "x"), "step"),
        (setting("backbone", "channels", 0, "a"), "backbone.channels[0]"),
        (setting("backbone", "strides", 1, "x"), "backbone.strides[1]"),
        (setting("rng", 1, "x"), "rng[1]"),
        (setting("step", True), "step"),
        (setting("version", True), "version"),
        (setting("stack", 1), "stack"),
        (setting("head", 0, "0"), "head[0]"),
    ],
    ids=[
        "tensors",
        "tensor_name",
        "config",
        "backbone.channels",
        "backbone.kernel",
        "rng",
        "step",
        "backbone.channels[0]",
        "backbone.strides[1]",
        "rng[1]",
        "step_bool",
        "version_bool",
        "stack_int",
        "head[0]",
    ],
)
def test_checkpoint_header_value_of_wrong_type_raises_checkpoint_error(
    checkpoint_bytes, tmp_path, edit, key
):
    path = tmp_path / "model.ckpt"
    path.write_bytes(with_header(checkpoint_bytes, edit))
    with pytest.raises(
        CheckpointError, match=re.escape(f"{path}: header key '{key}' has the wrong type")
    ):
        ModelCheckpoint.load(str(path))


def _swap_names(header):
    """Two same-shaped tensors' names swapped in the header, not in the body."""
    names = header["tensors"]
    a, b = names.index("backbone.block1.b"), names.index("backbone.block2.b")
    names[a], names[b] = names[b], names[a]
    return header


@pytest.mark.parametrize(
    "edit, message",
    [
        (setting("backbone", "kernel", 5), "tensor 'backbone.block0.w' has shape"),
        (
            setting("backbone", "strides", [2, 0, 1]),
            "block 1: stride must be a positive int, got 0",
        ),
        (setting("config_hash", "0" * 64), "header key 'config_hash' disagrees"),
        (_swap_names, "header key 'tensors["),
        (setting("stack", False), "adam moments of unknown tensor 'adapter.j3.down_b'"),
        (setting("embedder", False), "adam moments of unknown tensor 'query.proj_b'"),
        (setting("config", "adapter_positions", "E"), "no tensor entry 'adapter.j0.down_w'"),
        (setting("step", -1), "header key 'step' is negative"),
        (setting("config", "steps", 1.7), "config key 'steps'"),
        (setting("config", "steps", [1]), "config key 'steps'"),
        (setting("config", "baseline_full_data", False), "unknown config key 'baseline_full_data'"),
        (
            setting("config", "baseline_adapter_only", False),
            "unknown config key 'baseline_adapter_only'",
        ),
        (setting("config", "frames", 5), "unknown config key 'frames'"),
        (setting("config", "tau", 0.1), "unknown config key 'tau'"),
        (setting("config", "normalize", True), "unknown config key 'normalize'"),
        (setting("config", "adapter_ratio", 4), "unknown config key 'adapter_ratio'"),
        (setting("head", [0, 2, 1]), "head task ids must be ascending and distinct"),
        (setting("head", [0, 1, 1]), "head task ids must be ascending and distinct"),
        (setting("head", [0, 1]), "tensor 'head.w' has shape (4, 3), the model (4, 2)"),
    ],
    ids=[
        "kernel",
        "stride_0",
        "config_hash",
        "swapped_names",
        "no_stack",
        "no_embedder",
        "config_positions",
        "negative_step",
        "config_steps_fraction",
        "config_steps_list",
        "config_dropped_full_data",
        "config_dropped_adapter_only",
        "config_dropped_frames",
        "config_dropped_tau",
        "config_dropped_normalize",
        "config_dropped_adapter_ratio",
        "head_task_ids_unsorted",
        "head_task_ids_repeated",
        "head_task_ids_too_few",
    ],
)
def test_checkpoint_header_disagreeing_with_its_model_raises_checkpoint_error(
    checkpoint_bytes, tmp_path, edit, message
):
    path = tmp_path / "model.ckpt"
    path.write_bytes(with_header(checkpoint_bytes, edit))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
        ModelCheckpoint.load(str(path))


def _dropping(name):
    """A body edit removing the tensor ``name``."""

    def edit(tensors):
        del tensors[name]
        return tensors

    return edit


def _adding(name, like):
    """A body edit appending one more tensor ``name``, a copy of ``like``."""

    def edit(tensors):
        tensors[name] = tensors[like]
        return tensors

    return edit


def _swapping(a, b):
    """A body edit swapping the places of tensors ``a`` and ``b``, names and bytes."""

    def edit(tensors):
        order = list(tensors)
        i, j = order.index(a), order.index(b)
        order[i], order[j] = order[j], order[i]
        return {name: tensors[name] for name in order}

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_dropping("adam.m.head.b"), "no tensor entry 'adam.m.head.b'"),
        (
            _adding("adam.m.backbone.block0.b", "backbone.block0.b"),
            "no tensor entry 'adam.v.backbone.block0.b'",
        ),
        (_adding("adam.m.nothing", "head.b"), "adam moments of unknown tensor 'nothing'"),
        (_adding("stray", "head.b"), "header key 'tensors' disagrees"),
        (_swapping("backbone.block0.w", "head.b"), "header key 'tensors["),
    ],
    ids=[
        "dropped_adam_m",
        "adam_m_without_v",
        "adam_m_of_unknown_tensor",
        "stray_tensor",
        "swapped_tensors",
    ],
)
def test_checkpoint_tensors_disagreeing_with_its_model_raise_checkpoint_error(
    checkpoint_bytes, tmp_path, edit, message
):
    path = tmp_path / "model.ckpt"
    path.write_bytes(with_tensors(checkpoint_bytes, edit))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
        ModelCheckpoint.load(str(path))


def test_checkpoint_with_trailing_bytes_raises_checkpoint_error(checkpoint_bytes, tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(seal(checkpoint_bytes[:-32] + b"garbage"))
    with pytest.raises(
        CheckpointError, match=re.escape(f"{path}: 7 trailing bytes after the last tensor")
    ):
        ModelCheckpoint.load(str(path))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_checkpoint_with_non_finite_tensor_value_raises_checkpoint_error(
    checkpoint_bytes, tmp_path, value
):
    def poison(tensors):
        blob = bytearray(tensors["backbone.block1.b"])
        (rank,) = struct.unpack_from("<I", blob)
        struct.pack_into("<d", blob, 4 + 4 * rank, value)  # the tensor's first float
        tensors["backbone.block1.b"] = bytes(blob)
        return tensors

    path = tmp_path / "model.ckpt"
    path.write_bytes(with_tensors(checkpoint_bytes, poison))
    with pytest.raises(
        CheckpointError,
        match=re.escape(f"{path}: tensor 'backbone.block1.b' holds a NaN or infinite value"),
    ):
        ModelCheckpoint.load(str(path))


checkpoints = st.builds(
    small_checkpoint,
    positions=st.sampled_from(POSITION_SPECS),
    language=st.booleans(),
    head=st.booleans(),
    adam=st.booleans(),
    seed=st.integers(0, 1000),
)


@pytest.fixture(scope="module")
def ckpt_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("checkpoints")


def _saved(checkpoint: ModelCheckpoint, ckpt_dir) -> bytes:
    checkpoint.save(str(ckpt_dir / "model.ckpt"))
    return (ckpt_dir / "model.ckpt").read_bytes()


@settings(deadline=None, max_examples=30)
@given(checkpoint=checkpoints)
def test_checkpoint_save_load_save_is_byte_identical(ckpt_dir, checkpoint):
    raw = _saved(checkpoint, ckpt_dir)
    assert _saved(ModelCheckpoint.load(str(ckpt_dir / "model.ckpt")), ckpt_dir) == raw


@settings(deadline=None, max_examples=30)
@given(checkpoint=checkpoints, data=st.data())
def test_every_strict_prefix_of_a_checkpoint_raises_checkpoint_error(ckpt_dir, checkpoint, data):
    raw = _saved(checkpoint, ckpt_dir)
    (ckpt_dir / "model.ckpt").write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(CheckpointError):
        ModelCheckpoint.load(str(ckpt_dir / "model.ckpt"))


@settings(deadline=None, max_examples=50)
@given(checkpoint=checkpoints, data=st.data())
def test_a_flipped_checkpoint_byte_raises_checkpoint_error(ckpt_dir, checkpoint, data):
    raw = bytearray(_saved(checkpoint, ckpt_dir))
    # half the flips land in the length prefix or the JSON header
    at = data.draw(st.integers(0, 3 + header_length(raw)) | st.integers(0, len(raw) - 1))
    raw[at] ^= data.draw(st.integers(1, 255))
    (ckpt_dir / "model.ckpt").write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        ModelCheckpoint.load(str(ckpt_dir / "model.ckpt"))


def test_resume_config_mismatch_rejected(small_setup):
    _, train, _, backbone = small_setup
    part, _ = train_hr_align(small_config(steps=3), train, backbone)
    with pytest.raises(ValueError, match="resume"):
        train_hr_align(small_config(steps=8, learning_rate=2e-2), train, backbone, resume=part)


def test_checkpoint_roundtrip_values(small_setup, tmp_path):
    _, train, _, backbone = small_setup
    checkpoint, _ = train_hr_align(small_config(), train, backbone)
    path = str(tmp_path / "model.ckpt")
    checkpoint.save(path)
    loaded = ModelCheckpoint.load(path)
    assert loaded.config == checkpoint.config
    assert loaded.step == checkpoint.step
    assert loaded.rng.state() == checkpoint.rng.state()
    for name, tensor in checkpoint.named_tensors().items():
        assert np.array_equal(tensor.data, loaded.named_tensors()[name].data), name
    assert loaded.adam.step == checkpoint.adam.step
    for name in checkpoint.adam.m:
        assert np.array_equal(checkpoint.adam.m[name], loaded.adam.m[name])
    # requires_grad flags survive
    assert set(learnable_parameters(loaded)) == set(learnable_parameters(checkpoint))


# baselines -------------------------------------------------------------------


def test_baseline_pret_zero_steps_identity(small_setup):
    _, train, _, backbone = small_setup
    copy = backbone.copy().unfreeze()
    before = {n: t.data.copy() for n, t in copy.named_parameters().items()}
    checkpoint, metrics = train_baseline_pret(
        small_config(method="pret_baseline", steps=0, learning_rate=BASELINE_LR), train, copy
    )
    for name, tensor in checkpoint.backbone.named_parameters().items():
        assert np.array_equal(before[name], tensor.data)
    assert metrics.rows == []


def test_baseline_pret_loss_decreases(small_setup):
    _, train, _, backbone = small_setup
    copy = backbone.copy().unfreeze()
    checkpoint, metrics = train_baseline_pret(
        small_config(method="pret_baseline", steps=30, learning_rate=BASELINE_LR), train, copy
    )
    assert metrics.losses[-1] < metrics.losses[0]
    assert checkpoint.backbone.frozen  # frozen for downstream use


def test_baseline_pret_learnable_count_is_full_backbone(small_setup):
    _, train, _, backbone = small_setup
    copy = backbone.copy().unfreeze()
    params = copy.named_parameters()
    assert sum_param_sizes(params) == 14336  # full reference backbone
    checkpoint, _ = train_baseline_pret(
        small_config(method="pret_baseline", steps=1, learning_rate=BASELINE_LR), train, copy
    )
    assert set(checkpoint.named_tensors()) >= set(params)


def test_baseline_cls_single_class_rejected(small_setup):
    pairs, _, _, backbone = small_setup
    single = [p for p in pairs if p.task_id == 0]
    copy = backbone.copy().unfreeze()
    with pytest.raises(ValueError, match="class"):
        train_baseline_cls(
            small_config(method="cls_baseline", learning_rate=BASELINE_LR), single, copy
        )


def test_baseline_cls_zero_steps_identity(small_setup):
    _, train, _, backbone = small_setup
    copy = backbone.copy().unfreeze()
    before = {n: t.data.copy() for n, t in copy.named_parameters().items()}
    checkpoint, _ = train_baseline_cls(
        small_config(method="cls_baseline", steps=0, learning_rate=BASELINE_LR), train, copy
    )
    for name, tensor in checkpoint.backbone.named_parameters().items():
        assert np.array_equal(before[name], tensor.data)
    assert checkpoint.head is not None


def test_baseline_cls_accuracy_evaluable(small_setup):
    _, train, _, backbone = small_setup
    copy = backbone.copy().unfreeze()
    checkpoint, metrics = train_baseline_cls(
        small_config(method="cls_baseline", steps=20, learning_rate=BASELINE_LR), train, copy
    )
    acc = classification_accuracy(checkpoint, train)
    assert 0.0 <= acc <= 1.0
    assert len(metrics.rows) == 20


def test_classification_accuracy_scores_a_subset_of_the_trained_tasks(small_setup, monkeypatch):
    """Pairs of tasks {1, 2} alone score by the head's class of each task:
    their accuracy counts the hits the same pairs make when scored first
    among all three tasks' pairs, where they draw the same frames."""
    _, train, heldout, backbone = small_setup
    checkpoint, _ = train_baseline_cls(
        small_config(method="cls_baseline", steps=0, learning_rate=BASELINE_LR),
        train,
        backbone.copy().unfreeze(),
    )
    assert checkpoint.head.task_ids == [0, 1, 2]
    predicted = []
    head_logits = trainer._head_logits

    def recording(head, backbone, frames, b):
        logits = head_logits(head, backbone, frames, b)
        predicted.append(head.task_ids[int(np.argmax(logits.data[0]))])
        return logits

    monkeypatch.setattr(trainer, "_head_logits", recording)
    partial = [p for p in heldout if p.task_id != 0]
    rest = [p for p in heldout if p.task_id == 0]
    assert partial and rest
    classification_accuracy(checkpoint, partial + rest)
    hits = sum(task == p.task_id for task, p in zip(predicted, partial))
    assert 0 < hits < len(partial)
    assert classification_accuracy(checkpoint, partial) == hits / len(partial)


def test_classification_accuracy_rejects_a_task_the_head_never_saw():
    # a head over tasks {0, 1, 2} scored on tasks {1, 2, 3} once read task 1
    # as class 0 and returned 1/3 with no error
    checkpoint = small_checkpoint(head=True)
    pairs = [p for p in generate_paired_set(RngState(43), 4, 2, 0.5) if p.task_id > 0]
    with pytest.raises(ValueError, match=r"task 3 is not among the head's tasks \[0, 1, 2\]"):
        classification_accuracy(checkpoint, pairs)


def test_classification_accuracy_of_no_pairs_is_an_error():
    # it once divided its hit count by zero
    with pytest.raises(ValueError, match="classification_accuracy: no pairs"):
        classification_accuracy(small_checkpoint(head=True), [])


def test_method_mismatch_rejected(small_setup):
    _, train, _, backbone = small_setup
    with pytest.raises(ValueError, match="method"):
        train_hr_align(small_config(method="cls_baseline"), train, backbone)
    with pytest.raises(ValueError, match="method"):
        train_baseline_pret(small_config(), train, backbone.copy().unfreeze())


TRAINERS = {
    "hr_align": lambda train, bb: train_hr_align(small_config(steps=2), train, bb),
    "pret": lambda train, bb: train_baseline_pret(
        small_config(method="pret_baseline", steps=2, learning_rate=BASELINE_LR), train, bb
    ),
    "cls": lambda train, bb: train_baseline_cls(
        small_config(method="cls_baseline", steps=2, learning_rate=BASELINE_LR), train, bb
    ),
}


@pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "unfrozen"])
@pytest.mark.parametrize("name", list(TRAINERS))
def test_trainers_train_a_copy_of_any_backbone(small_setup, name, frozen):
    """Each trainer takes a frozen or an unfrozen backbone, trains its own
    copy (the baselines move its weights, hr_align does not) and leaves the
    caller's backbone bitwise unchanged, frozen as it was."""
    _, train, _, backbone = small_setup
    given = backbone.copy().freeze() if frozen else backbone.copy().unfreeze()
    before = {n: t.data.copy() for n, t in given.named_parameters().items()}
    checkpoint, metrics = TRAINERS[name](train, given)
    assert len(metrics.rows) == 2 and all(np.isfinite(metrics.losses))
    assert given.frozen == frozen and checkpoint.backbone.frozen
    for n, t in given.named_parameters().items():
        assert t.data.tobytes() == before[n].tobytes(), n
    trained = checkpoint.backbone.named_parameters()
    moved = any(not np.array_equal(trained[n].data, before[n]) for n in before)
    assert moved == (name in ("pret", "cls"))


DIRECT = {
    "hr_align": train_hr_align,
    "pret_baseline": train_baseline_pret,
    "cls_baseline": train_baseline_cls,
}


@pytest.mark.parametrize("method", list(DIRECT))
def test_train_equals_a_direct_trainer_call(small_setup, method, tmp_path):
    """``train`` dispatches ``config.method`` to its trainer: the same
    metrics and checkpoint bytes as calling that trainer."""
    _, train, _, backbone = small_setup
    lr = {} if method == "hr_align" else {"learning_rate": BASELINE_LR}
    config = small_config(method=method, steps=2, **lr)
    via_train, via_train_metrics = trainer.train(config, train, backbone)
    direct, direct_metrics = DIRECT[method](config, train, backbone)
    assert via_train_metrics.deterministic_text() == direct_metrics.deterministic_text()
    a, b = tmp_path / "train.ckpt", tmp_path / "direct.ckpt"
    via_train.save(str(a))
    direct.save(str(b))
    assert a.read_bytes() == b.read_bytes()
    assert trainer.METHODS == tuple(DIRECT)


@pytest.mark.parametrize("method", list(DIRECT))
def test_train_looks_its_trainer_up_when_called(monkeypatch, method):
    """A wrapper put on a ``trainer.train_*`` attribute sees the call that
    ``train`` makes, and no other trainer is called."""
    calls = []
    for trainer_fn in DIRECT.values():
        name = trainer_fn.__name__
        monkeypatch.setattr(
            trainer, name, lambda *args, name=name: calls.append(name) or ("ckpt", "log")
        )
    assert trainer.train(small_config(method=method), [], None) == ("ckpt", "log")
    assert calls == [DIRECT[method].__name__]


@pytest.mark.parametrize("method", ["pret_baseline", "cls_baseline"])
def test_train_refuses_a_baseline_resume_by_name(small_setup, method):
    _, train, _, backbone = small_setup
    config = small_config(method=method, steps=1, learning_rate=BASELINE_LR)
    part, _ = trainer.train(config, train, backbone)
    with pytest.raises(ValueError, match=f"method '{method}' cannot resume"):
        trainer.train(small_config(method=method, steps=2, learning_rate=BASELINE_LR), train, backbone, part)


def test_head_scaler_pass_peaks_at_one_batch_not_the_whole_set():
    # the scaler pass runs through an unfrozen backbone, whose graph keeps
    # every block's activations until the encode returns
    clips = [p.robot for p in generate_paired_set(RngState(41), 4, 16, 0.5)]
    config = small_config(method="cls_baseline", batch_size=16)

    def peak_bytes(n: int) -> int:
        backbone = Backbone.create(RngState(41))
        head = LinearHead.create(RngState(41), backbone.out_channels, [0, 1, 2, 3])
        tracemalloc.start()
        try:
            _fit_head_scaler(head, backbone, clips[:n], config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert not Backbone.create(RngState(41)).frozen
    small, large = peak_bytes(16), peak_bytes(64)
    assert large <= 1.5 * small, f"{small / 2**20:.1f} MB at 16 clips, {large / 2**20:.1f} at 64"


# write path --------------------------------------------------------------------

# sha256 of the checkpoint files these tiny runs write, recorded with conv2d's
# NCHW input-gradient scatter. The pretext backbone and both full fine-tune
# baselines train every conv weight through input gradients, and the EML run
# puts an adapter at junction 0 (the c_in = 3 scatter) and trains the 1x1
# adapter convs, so a moved bit of any gradient shows here.
# ``cls_baseline_partial``'s batch size 5 splits its 18 robot clips into
# scaler chunks of 5, 5, 5 and 3; its digests equal those of a run whose head
# scaler encodes all clips at once, so chunking the scaler pass must leave
# its stats bitwise. All five are recorded at one BLAS thread, which the root
# conftest.py pins: at two OpenBLAS threads conv2d's 25-frame weight-gradient
# GEMMs, (32x400)@(400x144) and (32x400)@(400x288), change their last bits
# and move ``cls_baseline_partial``'s digest. The five were re-pinned when the
# checkpoint format went to version 2, whose bodies ``BODY_DIGESTS`` pins.
WRITE_PATH_DIGESTS = {
    "pretext": "9289fcfb5dbdb2bd659166af9fbbbf6fec07829c8af61c116bf9ba0c7c2ac46b",
    "pret_baseline": "86674508b9ab7afb287222c805e5d4ed644666293bfd9fa446d660e503a4029c",
    "cls_baseline": "103edeca9645d5d84dd9a09770f2c448cef0a507406a81350ab24138814fa2f7",
    "cls_baseline_partial": "df783e779a610d241f54d69160f74bb418e64b3de98add4db59fa7970e80e526",
    "hr_align_EML": "01ab1db0e22f0c2f598afa926fe2eae0de7e88c6e55a6c8c8de07117ec50f942",
}


# sha256 of the same checkpoints' bodies, the tensor bytes between the header
# and the sha256 trailer. Version 2 of the format changed the header and added
# the trailer but left the body alone, so these equal the bodies of the
# version-1 files of the whole-file digests above at the parent commit.
BODY_DIGESTS = {
    "pretext": "be44faa0d19ee036ff1bb71d7a9ca041a757e7ed129840d47e8eb020403443d9",
    "pret_baseline": "6b3a28a4ba3f9e811b2cefcc690e01ec18f6f882309bb5467312bcd2d78fac8a",
    "cls_baseline": "0fff3289bcf8182618f1aceb2394b06e163e3e0a0b2147f2d507f758f7862c64",
    "cls_baseline_partial": "75ac4fb5abeaa57b331590e2ad06006030b57ca4bc2f5cf87ef67624b6e06e1e",
    "hr_align_EML": "08c1045304dff6eee6c1cf400d17095c79f53ef841affa9368be92701e13a43a",
}


def _checkpoint_sha256(checkpoint: ModelCheckpoint, path) -> str:
    checkpoint.save(str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pinned_runs(small_setup):
    """The tiny runs whose checkpoints, metrics and evaluations are pinned, by
    name: (checkpoint, metrics log), the log None for the pretext backbone."""
    _, train, _, _ = small_setup
    rng = RngState(37)
    backbone, _ = pretext_pretrain(rng, [p.human for p in train], epochs=2, lr=3e-4, batch_size=8)
    fixed = dict(steps=3, out_dir="runs/pinned")
    pretext = ModelCheckpoint(config=small_config(**fixed), backbone=backbone, rng=rng, step=0)
    return {
        "pretext": (pretext, None),
        "pret_baseline": train_baseline_pret(
            small_config(method="pret_baseline", learning_rate=BASELINE_LR, **fixed),
            train,
            backbone.copy().unfreeze(),
        ),
        "cls_baseline": train_baseline_cls(
            small_config(method="cls_baseline", learning_rate=BASELINE_LR, **fixed),
            train,
            backbone.copy().unfreeze(),
        ),
        "cls_baseline_partial": train_baseline_cls(
            small_config(
                method="cls_baseline",
                learning_rate=BASELINE_LR,
                batch_size=5,
                **fixed,
            ),
            train,
            backbone.copy().unfreeze(),
        ),
        "hr_align_EML": train_hr_align(
            small_config(adapter_positions="EML", **fixed), train, backbone
        ),
    }


def test_write_path_checkpoints_match_pinned_digests(pinned_runs, tmp_path):
    digests = {
        name: _checkpoint_sha256(c, tmp_path / f"{name}.ckpt") for name, (c, _) in pinned_runs.items()
    }
    assert digests == WRITE_PATH_DIGESTS


def test_write_path_checkpoint_bodies_match_pinned_digests(pinned_runs, tmp_path):
    digests = {}
    for name, (checkpoint, _) in pinned_runs.items():
        path = tmp_path / f"{name}.ckpt"
        checkpoint.save(str(path))
        raw = path.read_bytes()
        digests[name] = hashlib.sha256(raw[4 + header_length(raw) : -32]).hexdigest()
    assert digests == BODY_DIGESTS


# sha256 of the deterministic metrics.csv text (every column but wall_ms) of
# the pinned training runs. The baselines and the EML run each log their
# pos_sim/hard_neg_sim columns through a different scorer input (pretext
# logits, class probabilities, alignment dots), so a moved bit of any of
# them shows here.
METRICS_DIGESTS = {
    "pret_baseline": "dfc603357eea62b61c2f6d9fc3de8433123d16e07034b788c4512750aea2cefc",
    "cls_baseline": "c19c377fa2371aedb3a0659e9742bdfb62e9f1eacaa2ab98ddd5b8774cb126c9",
    "cls_baseline_partial": "23b40cb09f2a393d0d89e166a02d4099061557a6cfd2b5c951e336662255f3f7",
    "hr_align_EML": "33b7f96b35e0ebd26b5f1c88acba3395e5eacf3475913dec718dad472dc4783c",
}


def test_training_metrics_match_pinned_digests(pinned_runs):
    digests = {
        name: hashlib.sha256(metrics.deterministic_text().encode()).hexdigest()
        for name, (_, metrics) in pinned_runs.items()
        if metrics is not None
    }
    assert digests == METRICS_DIGESTS


# sha256 of what the evaluation functions make of two pinned runs: the
# retrieval and downstream reports as sorted JSON (float repr is exact), the
# embedding CSV bytes and the classification accuracy's repr. The EML run has
# early, middle and late adapters and a query projection, so the adapted and the
# frozen path of each clip-level encode are both pinned.
READ_PATH_DIGESTS = {
    "retrieval_adapted": "aa0ee1232b24aea085c7b65a773bfdedc7221ec89e59bddf326493072435e566",
    "downstream_adapted": "d072276b0c8db555f4d3b6f7e8a8dfb74bb6388cdba088798135b0de57932e5d",
    "embeddings_adapted": "cc06c9a3cfbacea1c3749fa8e0376e10d0d34af4237bc6bd5bbed9b48a2170a5",
    "retrieval_frozen": "32258fa5d3e27d14bcf3c3fa959b1893950a4559111c9ce73d4329ce8a060fc6",
    "downstream_frozen": "024eda91206d1f8f0e3c750a8c87ec257a133641958ce5a4e5fb423327bacfb5",
    "embeddings_frozen": "f0f42ffc7dc06b8848f7943c9cc4854d7104d2b3183f0d5bc45e5050dc5e3087",
    "classification_accuracy": "cf1a763e65018b273fd16a1e7bf8d18198f5af3e7d47b369952af7654b09acc2",
}


def test_read_path_evaluations_match_pinned_digests(pinned_runs, small_setup, tmp_path):
    pairs, _, heldout, _ = small_setup
    (eml, _), (cls, _) = pinned_runs["hr_align_EML"], pinned_runs["cls_baseline"]

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    def report_sha(report) -> str:
        return sha(json.dumps(report.to_dict(), sort_keys=True).encode())

    descriptions = {p.pair_id: p.description.text for p in heldout}
    clips = [clip for p in heldout for clip in (p.human, p.robot)]
    digests = {}
    for tag, adapted in (("adapted", True), ("frozen", False)):
        digests[f"retrieval_{tag}"] = report_sha(eval_retrieval(eml, heldout, adapted=adapted))
        digests[f"downstream_{tag}"] = report_sha(
            eval_downstream(eml, [p.robot for p in pairs], adapted=adapted)
        )
        path = tmp_path / f"embeddings_{tag}.csv"
        dump_embeddings(eml, clips, str(path), descriptions, adapted=adapted)
        digests[f"embeddings_{tag}"] = sha(path.read_bytes())
    digests["classification_accuracy"] = sha(repr(classification_accuracy(cls, heldout)).encode())
    assert digests == READ_PATH_DIGESTS

