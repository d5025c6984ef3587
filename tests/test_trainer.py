import json
import os

import numpy as np
import pytest

from conftest import BASELINE_LR
from helpers import sum_param_sizes
from hralign.dataset import generate_paired_set, split_pairs
from hralign.encoder import Backbone, pretext_pretrain
from hralign import dataset
from hralign.rng import RngState
from hralign.trainer import (
    CheckpointError,
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


def _fail_writes_partway(monkeypatch):
    monkeypatch.setattr(
        dataset, "open", lambda path, mode="r", **kw: _HalfWriter(open(path, mode, **kw)),
        raising=False,
    )


def test_checkpoint_save_failing_partway_keeps_previous_file(small_setup, tmp_path, monkeypatch):
    _, train, _, backbone = small_setup
    first, _ = train_hr_align(small_config(steps=2), train, backbone)
    second, _ = train_hr_align(small_config(steps=4), train, backbone)
    path = str(tmp_path / "model.ckpt")
    first.save(path)
    before = open(path, "rb").read()
    _fail_writes_partway(monkeypatch)
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
    _fail_writes_partway(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        log.save(path)
    monkeypatch.undo()
    assert open(path, encoding="utf-8").read() == MetricsLog(log.rows[:1]).to_csv_text()
    assert os.listdir(tmp_path) == ["metrics.csv"]


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ckpt") / "model.ckpt")
    ModelCheckpoint(TrainConfig(), Backbone.create(RngState(0))).save(path)
    return open(path, "rb").read()


def _header_length(raw: bytes) -> int:
    return int.from_bytes(raw[:4], "little")


@pytest.mark.parametrize(
    "cut, match",
    [
        (lambda raw: raw[:3], "too short"),
        (lambda raw: raw[: 4 + _header_length(raw) // 2], "header truncated"),
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
    first = 4 + _header_length(checkpoint_bytes)  # the first tensor's rank, then its dims
    raw[first + 4 : first + 8] = (10**6).to_bytes(4, "little")
    path = tmp_path / "model.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="is corrupt"):
        ModelCheckpoint.load(str(path))


def test_checkpoint_missing_tensor_entry_raises_checkpoint_error(checkpoint_bytes, tmp_path):
    hlen = _header_length(checkpoint_bytes)
    header = json.loads(checkpoint_bytes[4 : 4 + hlen])
    dropped = header["tensors"].pop(0)["name"]
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    path = tmp_path / "model.ckpt"
    path.write_bytes(
        len(header_bytes).to_bytes(4, "little") + header_bytes + checkpoint_bytes[4 + hlen :]
    )
    with pytest.raises(CheckpointError, match=f"no tensor entry '{dropped}'"):
        ModelCheckpoint.load(str(path))


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
