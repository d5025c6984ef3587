import hashlib
import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASELINE_LR
from helpers import (
    fail_writes_partway,
    header_length,
    setting,
    small_checkpoint,
    sum_param_sizes,
    with_header,
    without,
)
from hralign.adapter import POSITION_SPECS
from hralign.dataset import generate_paired_set, split_pairs
from hralign.encoder import Backbone, pretext_pretrain
from hralign.rng import RngState
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
        TrainConfig(tau=0.0).validate()
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
    config = TrainConfig.from_mapping({"steps": 12.0, "seed": " 5", "tau": 1, "normalize": "no"})
    assert (config.steps, config.seed, config.tau, config.normalize) == (12, 5, 1.0, False)
    assert type(config.steps) is int and type(config.tau) is float


@pytest.mark.parametrize("name", ["learning_rate", "tau"])
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


def test_config_hash_stable_and_sensitive():
    a = TrainConfig()
    assert a.config_hash() == TrainConfig().config_hash()
    assert a.config_hash() != TrainConfig(seed=8).config_hash()


def test_metrics_log_requires_increasing_steps():
    log = MetricsLog()
    log.append(MetricsRow(1, 1.0, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        log.append(MetricsRow(1, 1.0, 0.0, 0.0, 1.0))


def test_metrics_csv_header():
    log = MetricsLog()
    log.append(MetricsRow(1, 0.5, 0.1, 0.2, 3.0))
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


def test_unfrozen_backbone_rejected(small_setup):
    _, train, _, _ = small_setup
    loose = Backbone.create(RngState(1))
    with pytest.raises(ValueError, match="frozen"):
        train_hr_align(small_config(), train, loose)


def test_backbone_bitwise_frozen_after_short_run(small_setup):
    _, train, _, backbone = small_setup
    before = {n: t.data.copy() for n, t in backbone.named_parameters().items()}
    train_hr_align(small_config(), train, backbone)
    for name, tensor in backbone.named_parameters().items():
        assert np.array_equal(before[name], tensor.data), name


def test_learnable_set_is_adapters_and_projection(small_setup):
    _, train, _, backbone = small_setup
    checkpoint, _ = train_hr_align(small_config(), train, backbone)
    names = set(checkpoint.learnable_parameters())
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
    assert all(n.startswith("adapter.") for n in checkpoint.learnable_parameters())
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
    assert open(p1, "rb").read() == open(p2, "rb").read()


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
    assert open(full_path, "rb").read() == open(resumed_path, "rb").read()


def test_resume_below_checkpoint_step_rejected(small_setup):
    _, train, _, backbone = small_setup
    part, _ = train_hr_align(small_config(steps=5), train, backbone)
    with pytest.raises(ValueError, match="steps=3.*step 5"):
        train_hr_align(small_config(steps=3), train, backbone, resume=part)
    # resuming at the checkpoint's own step is a no-op, not an error
    same, metrics = train_hr_align(small_config(steps=5), train, backbone, resume=part)
    assert same.step == 5 and not metrics.rows


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
    before = open(path, "rb").read()
    fail_writes_partway(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        second.save(path)
    monkeypatch.undo()
    assert open(path, "rb").read() == before
    assert ModelCheckpoint.load(path).step == 2
    assert os.listdir(tmp_path) == ["model.ckpt"]


def test_metrics_save_failing_partway_keeps_previous_file(tmp_path, monkeypatch):
    path = str(tmp_path / "metrics.csv")
    log = MetricsLog([MetricsRow(1, 2.5, 0.1, 0.2, 3.0)])
    log.save(path)
    log.append(MetricsRow(2, 2.4, 0.1, 0.2, 3.0))
    fail_writes_partway(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        log.save(path)
    monkeypatch.undo()
    assert open(path, encoding="utf-8").read() == MetricsLog(log.rows[:1]).to_csv_text()
    assert os.listdir(tmp_path) == ["metrics.csv"]


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ckpt") / "model.ckpt")
    small_checkpoint("L", language=True, head=True, adam=True, seed=3).save(path)
    return open(path, "rb").read()


@pytest.mark.parametrize(
    "cut, match",
    [
        (lambda raw: raw[:3], "too short"),
        (lambda raw: raw[: 4 + header_length(raw) // 2], "header truncated"),
        (lambda raw: raw[:-5], "body truncated"),
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
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="is corrupt"):
        ModelCheckpoint.load(str(path))


def test_checkpoint_missing_tensor_entry_raises_checkpoint_error(checkpoint_bytes, tmp_path):
    hlen = header_length(checkpoint_bytes)
    names = [entry["name"] for entry in json.loads(checkpoint_bytes[4 : 4 + hlen])["tensors"]]
    at = names.index("backbone.block0.w")
    path = tmp_path / "model.ckpt"
    path.write_bytes(with_header(checkpoint_bytes, without("tensors", at)))
    with pytest.raises(CheckpointError, match="no tensor entry 'backbone.block0.w'"):
        ModelCheckpoint.load(str(path))


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
        (without("tensors", 0, "offset"), "tensors[0].offset"),
    ],
    ids=["version_only", "config", "backbone.channels", "tensor_offset"],
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
        (setting("tensors", 0, "name", [1]), "tensors[0].name"),
        (setting("tensors", 0, "offset", "x"), "tensors[0].offset"),
        (setting("tensors", 0, "nbytes", "x"), "tensors[0].nbytes"),
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
        (setting("adam", "lr", True), "adam.lr"),
    ],
    ids=[
        "tensors",
        "tensor_name",
        "tensor_offset",
        "tensor_nbytes",
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
        "adam.lr_bool",
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


def _entry(header, name):
    """The tensor index entry of ``name``."""
    return next(e for e in header["tensors"] if e["name"] == name)


def _editing(name, **fields):
    """A header edit setting ``fields`` of the tensor entry ``name``."""

    def edit(header):
        _entry(header, name).update(fields)
        return header

    return edit


def _swap_offsets(header):
    a, b = _entry(header, "backbone.block1.b"), _entry(header, "backbone.block2.b")
    a["offset"], b["offset"] = b["offset"], a["offset"]
    return header


def _share_offset(header):
    _entry(header, "backbone.block2.b")["offset"] = _entry(header, "backbone.block1.b")["offset"]
    return header


def _dropping(name):
    """A header edit removing the tensor entry ``name``."""

    def edit(header):
        header["tensors"].remove(_entry(header, name))
        return header

    return edit


def _adding(name, like):
    """A header edit indexing one more tensor ``name`` at the blob of ``like``."""

    def edit(header):
        header["tensors"].append({**_entry(header, like), "name": name})
        return header

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (setting("backbone", "kernel", 5), "tensor 'backbone.block0.w' has shape"),
        (setting("stack", "ratio", 0), "division"),
        (
            setting("backbone", "strides", [2, 0, 1]),
            "block 1: stride must be a positive int, got 0",
        ),
        (setting("stack", "ratio", 8), "tensor 'adapter.j3.down_w' has shape"),
        (setting("stack", "junctions", [0]), "header key 'stack.junctions[0]' disagrees"),
        (setting("embedder", "text_dim", 16), "header key 'embedder.text_dim' disagrees"),
        (setting("embedder", "out_dim", 16), "tensor 'query.proj_w' has shape"),
        (setting("config_hash", "0" * 64), "header key 'config_hash' disagrees"),
        (_editing("backbone.block0.b", shape=[5]), ".shape[0]' disagrees"),
        (_swap_offsets, ".offset' disagrees"),
        (_share_offset, ".offset' disagrees"),
        (_dropping("adam.m.head.b"), "no tensor entry 'adam.m.head.b'"),
        (
            _adding("adam.m.backbone.block0.b", "backbone.block0.b"),
            "no tensor entry 'adam.v.backbone.block0.b'",
        ),
        (_adding("adam.m.nothing", "head.b"), "adam moments of unknown tensor 'nothing'"),
        (_adding("stray", "head.b"), "header key 'tensors' disagrees"),
        (setting("step", -1), "header key 'step' is negative"),
        (setting("adam", "step", -1), "header key 'adam.step' is negative"),
        (setting("config", "steps", 1.7), "config key 'steps'"),
        (setting("config", "steps", [1]), "config key 'steps'"),
    ],
    ids=[
        "kernel",
        "ratio_0",
        "stride_0",
        "ratio_8",
        "junctions",
        "text_dim",
        "out_dim",
        "config_hash",
        "tensor_shape",
        "swapped_offsets",
        "shared_offset",
        "dropped_adam_m",
        "adam_m_without_v",
        "adam_m_of_unknown_tensor",
        "stray_tensor",
        "negative_step",
        "negative_adam_step",
        "config_steps_fraction",
        "config_steps_list",
    ],
)
def test_checkpoint_header_disagreeing_with_its_model_raises_checkpoint_error(
    checkpoint_bytes, tmp_path, edit, message
):
    path = tmp_path / "model.ckpt"
    path.write_bytes(with_header(checkpoint_bytes, edit))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
        ModelCheckpoint.load(str(path))


def test_checkpoint_with_trailing_bytes_raises_checkpoint_error(checkpoint_bytes, tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(checkpoint_bytes + b"garbage")
    with pytest.raises(
        CheckpointError, match=re.escape(f"{path}: 7 trailing bytes after the last tensor")
    ):
        ModelCheckpoint.load(str(path))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_checkpoint_with_non_finite_tensor_value_raises_checkpoint_error(
    checkpoint_bytes, tmp_path, value
):
    hlen = header_length(checkpoint_bytes)
    entries = json.loads(checkpoint_bytes[4 : 4 + hlen])["tensors"]
    start = 4 + hlen + next(e["offset"] for e in entries if e["name"] == "backbone.block1.b")
    (rank,) = struct.unpack_from("<I", checkpoint_bytes, start)
    raw = bytearray(checkpoint_bytes)
    struct.pack_into("<d", raw, start + 4 + 4 * rank, value)  # the tensor's first float
    path = tmp_path / "model.ckpt"
    path.write_bytes(bytes(raw))
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
def test_a_flipped_checkpoint_byte_raises_checkpoint_error_or_loads(ckpt_dir, checkpoint, data):
    raw = bytearray(_saved(checkpoint, ckpt_dir))
    # half the flips land in the length prefix or the JSON header
    at = data.draw(st.integers(0, 3 + header_length(raw)) | st.integers(0, len(raw) - 1))
    raw[at] ^= data.draw(st.integers(1, 255))
    (ckpt_dir / "model.ckpt").write_bytes(bytes(raw))
    try:
        ModelCheckpoint.load(str(ckpt_dir / "model.ckpt"))
    except CheckpointError:
        pass


def test_resume_config_mismatch_rejected(small_setup):
    _, train, _, backbone = small_setup
    part, _ = train_hr_align(small_config(steps=3), train, backbone)
    with pytest.raises(ValueError, match="resume"):
        train_hr_align(small_config(steps=8, tau=0.2), train, backbone, resume=part)


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
    assert set(loaded.learnable_parameters()) == set(checkpoint.learnable_parameters())


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


def test_baseline_pret_requires_unfrozen(small_setup):
    _, train, _, backbone = small_setup
    with pytest.raises(ValueError, match="unfrozen"):
        train_baseline_pret(small_config(method="pret_baseline"), train, backbone)


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


def test_baseline_adapter_only_learnable_set(small_setup):
    _, train, _, backbone = small_setup
    frozen_copy = backbone.copy()
    checkpoint, _ = train_baseline_pret(
        small_config(
            method="pret_baseline", steps=2, learning_rate=BASELINE_LR, baseline_adapter_only=True
        ),
        train,
        frozen_copy,
    )
    names = set(checkpoint.learnable_parameters())
    assert names and all(n.startswith("adapter.") for n in names)
    for name, tensor in checkpoint.backbone.named_parameters().items():
        assert np.array_equal(tensor.data, backbone.named_parameters()[name].data)


def test_baseline_full_data_uses_both_domains(small_setup):
    _, train, _, backbone = small_setup
    copy = backbone.copy().unfreeze()
    config = small_config(
        method="pret_baseline", steps=2, learning_rate=BASELINE_LR, baseline_full_data=True
    )
    checkpoint, metrics = train_baseline_pret(config, train, copy)
    assert len(metrics.rows) == 2


def test_method_mismatch_rejected(small_setup):
    _, train, _, backbone = small_setup
    with pytest.raises(ValueError, match="method"):
        train_hr_align(small_config(method="cls_baseline"), train, backbone)
    with pytest.raises(ValueError, match="method"):
        train_baseline_pret(small_config(), train, backbone.copy().unfreeze())


def test_head_scaler_pass_peaks_at_one_batch_not_the_whole_set():
    # the scaler pass runs through an unfrozen backbone, whose graph keeps
    # every block's activations until the encode returns
    clips = [p.robot for p in generate_paired_set(RngState(41), 4, 16, 0.5)]
    config = small_config(method="cls_baseline", batch_size=16)

    def peak_bytes(n: int) -> int:
        backbone = Backbone.create(RngState(41))
        head = LinearHead.create(RngState(41), backbone.out_channels, 4)
        tracemalloc.start()
        try:
            _fit_head_scaler(head, backbone, None, clips[:n], config)
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
# ``cls_baseline_partial`` was recorded with the head scaler's single encode
# over all clips: its batch size 5 splits the 36 clips (both domains) into
# chunks that end with a partial one, so chunking the scaler pass must leave
# its stats bitwise. All five are recorded at one BLAS thread, which the root
# conftest.py pins: at two OpenBLAS threads conv2d's 25-frame weight-gradient
# GEMMs, (32x400)@(400x144) and (32x400)@(400x288), change their last bits,
# and ``cls_baseline_partial`` alone reads b23aa039...
WRITE_PATH_DIGESTS = {
    "pretext": "09858057e219dc6318ab5fa7e5ac15f08023ba244e30df5db7d30f9e10473f54",
    "pret_baseline": "b76017b07f962a1aff0840b300f4a5835138d1517d8dc91d777f3a840e9e9300",
    "cls_baseline": "d4559d0e35c536b9cdc6fb229b49d0a9ca177ecb889ed9a1ec1a0e94297ee3b7",
    "cls_baseline_partial": "da0d657fc6f699301ac55ce67bb5a84d4b8e575a3ed30de791d9e0ec49135625",
    "hr_align_EML": "1ee76bbd0d2a395a58371562094c6b0ed054660d9efcfaeac13b36d570b03cdb",
}


def _checkpoint_sha256(checkpoint: ModelCheckpoint, path) -> str:
    checkpoint.save(str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_write_path_checkpoints_match_pinned_digests(small_setup, tmp_path):
    _, train, _, _ = small_setup
    rng = RngState(37)
    backbone, _ = pretext_pretrain(rng, [p.human for p in train], epochs=2, lr=3e-4, batch_size=8)
    fixed = dict(steps=3, out_dir="runs/pinned")
    pretext = ModelCheckpoint(config=small_config(**fixed), backbone=backbone, rng=rng, step=0)
    runs = {
        "pretext": pretext,
        "pret_baseline": train_baseline_pret(
            small_config(method="pret_baseline", learning_rate=BASELINE_LR, **fixed),
            train,
            backbone.copy().unfreeze(),
        )[0],
        "cls_baseline": train_baseline_cls(
            small_config(method="cls_baseline", learning_rate=BASELINE_LR, **fixed),
            train,
            backbone.copy().unfreeze(),
        )[0],
        "cls_baseline_partial": train_baseline_cls(
            small_config(
                method="cls_baseline",
                learning_rate=BASELINE_LR,
                batch_size=5,
                baseline_full_data=True,
                **fixed,
            ),
            train,
            backbone.copy().unfreeze(),
        )[0],
        "hr_align_EML": train_hr_align(
            small_config(adapter_positions="EML", **fixed), train, backbone
        )[0],
    }
    digests = {name: _checkpoint_sha256(c, tmp_path / f"{name}.ckpt") for name, c in runs.items()}
    assert digests == WRITE_PATH_DIGESTS

