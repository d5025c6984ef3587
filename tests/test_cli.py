import csv
import dataclasses
import gc
import hashlib
import json
import os
import re
import shlex
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import (
    clip_embedding,
    fail_writes_partway,
    setting,
    small_checkpoint,
    strict_json,
    with_header,
    with_short_first_pair,
)
from hralign import cli, encoder, evaluation, trainer
from hralign.cli import cli_main
from hralign.dataset import _write_run_outputs, generate_paired_set, load_manifest, save_manifest, split_pairs
from hralign.evaluation import eval_downstream, eval_retrieval
from hralign.rng import RngState
from hralign.trainer import ModelCheckpoint, format_config
from hralign.tensor import from_bytes, to_bytes


def run(argv):
    return cli_main(argv)


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["train", "--help"]) == 0
    out = capsys.readouterr().out
    assert "usage" in out.lower()


def test_unknown_subcommand_exits_one():
    assert run(["frobnicate"]) == 1


def test_unknown_flag_exits_one():
    assert run(["generate", "--no-such-flag"]) == 1


def test_missing_config_exits_one_naming_path(tmp_path, capsys):
    data = str(tmp_path / "data")
    assert run(["generate", "--out", data, "--tasks", "2", "--pairs-per-task", "2"]) == 0
    code = run(
        [
            "train",
            "--config",
            "/nonexistent/config.txt",
            "--data",
            os.path.join(data, "manifest.json"),
            "--backbone",
            "whatever.ckpt",
        ]
    )
    assert code == 1
    assert "/nonexistent/config.txt" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_two_naming_path(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"steps = 3\n\xff\xfe\n")
    argv = ["train", "--config", str(config), "--data", "m.json", "--backbone", "b.ckpt"]
    assert run(argv) == 2
    assert f"config is not UTF-8 text: {config}" in capsys.readouterr().err


def test_bad_manifest_exits_two(tmp_path, capsys):
    out = str(tmp_path / "pre")
    code = run(["pretrain", "--data", str(tmp_path / "missing.json"), "--out", out])
    assert code == 2
    assert "manifest" in capsys.readouterr().err


def test_manifest_entry_missing_key_exits_two(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(["generate", "--out", str(data), "--tasks", "2", "--pairs-per-task", "2"]) == 0
    manifest = data / "manifest.json"
    doc = json.loads(manifest.read_text())
    del doc["pairs"][0]["robot_sha256"]
    manifest.write_text(json.dumps(doc))
    code = run(["pretrain", "--data", str(manifest), "--out", str(tmp_path / "pre")])
    assert code == 2
    assert "robot_sha256" in capsys.readouterr().err


def test_manifest_key_of_wrong_type_exits_two_writing_nothing(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(["generate", "--out", str(data), "--tasks", "2", "--pairs-per-task", "2"]) == 0
    manifest = data / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["pairs"][1]["description"] = 5
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "pre"
    assert run(["pretrain", "--data", str(manifest), "--out", str(out)]) == 2
    assert "manifest key 'pairs[1].description' has the wrong type int" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--lr", "nan"),
        ("--lr", "0"),
        ("--lr", "1e300"),  # finite, but the first Adam steps overflow the weights
        ("--epochs", "0"),
        ("--epochs", "-1"),
    ],
)
def test_pretrain_bad_schedule_exits_two_writing_nothing(tmp_path, capsys, flag, value):
    data = str(tmp_path / "data")
    assert run(["generate", "--out", data, "--tasks", "2", "--pairs-per-task", "2"]) == 0
    out = tmp_path / "pre"
    manifest = os.path.join(data, "manifest.json")
    assert run(["pretrain", "--data", manifest, "--out", str(out), flag, value]) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command", [["pretrain"], ["train", "--arm", "pret_ft", "--set", "batch_size=2"]], ids=["pretrain", "train-pret_ft"]
)
def test_a_clip_too_short_for_the_pretext_exits_two_before_any_step(pipeline, tmp_path, capsys, monkeypatch, command):
    """A 3-frame clip has an anchor with no frame 1 or 2 away; both pretext
    commands refuse it up front instead of at whichever step draws it."""
    pairs = with_short_first_pair(generate_paired_set(RngState(5), 2, 4, 0.5), 3)
    assert pairs[0].pair_id in {p.pair_id for p in split_pairs(pairs)[0]}  # a training pair
    manifest = str(tmp_path / "data" / "manifest.json")
    save_manifest(pairs, manifest)

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    for module in (encoder, trainer):
        monkeypatch.setattr(module, "fit", no_training)
    out = tmp_path / "out"
    backbone = [] if command == ["pretrain"] else ["--backbone", pipeline[2]]
    assert run([*command, "--data", manifest, *backbone, "--out", str(out)]) == 2
    assert f"error: pretext: the clip of pair {pairs[0].pair_id} has 3 frames, fewer than 4\n" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_path_that_is_a_directory_exits_two(tmp_path, capsys):
    code = run(["pretrain", "--data", str(tmp_path), "--out", str(tmp_path / "pre")])
    assert code == 2
    assert str(tmp_path) in capsys.readouterr().err


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    small_checkpoint().save(str(path))
    return path.read_bytes()


def eval_checkpoint(tmp_path, raw: bytes) -> int:
    """Exit code of ``hralign eval`` on a checkpoint file holding ``raw``;
    the checkpoint is read before the (absent) manifest."""
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(raw)
    manifest = str(tmp_path / "manifest.json")
    return run(["eval", "--checkpoint", str(ckpt), "--data", manifest, "--out", str(tmp_path)])


def test_truncated_checkpoint_exits_two(tmp_path, capsys, checkpoint_bytes):
    assert eval_checkpoint(tmp_path, checkpoint_bytes[:2]) == 2
    assert "too short" in capsys.readouterr().err


def test_checkpoint_header_missing_key_exits_two(tmp_path, capsys, checkpoint_bytes):
    raw = with_header(checkpoint_bytes, lambda header: {"version": header["version"]})
    assert eval_checkpoint(tmp_path, raw) == 2
    assert "header lacks key 'tensors'" in capsys.readouterr().err


def test_checkpoint_header_value_of_wrong_type_exits_two(tmp_path, capsys, checkpoint_bytes):
    assert eval_checkpoint(tmp_path, with_header(checkpoint_bytes, setting("tensors", 5))) == 2
    assert "header key 'tensors' has the wrong type int" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (setting("backbone", "kernel", 5), "tensor 'backbone.block0.w' has shape"),
        (setting("config_hash", "0" * 64), "header key 'config_hash' disagrees"),
        (setting("config", "steps", 1.7), "config key 'steps'"),
    ],
    ids=["kernel", "config_hash", "config_steps"],
)
def test_checkpoint_header_disagreeing_with_its_model_exits_two(
    tmp_path, capsys, checkpoint_bytes, edit, message
):
    assert eval_checkpoint(tmp_path, with_header(checkpoint_bytes, edit)) == 2
    assert message in capsys.readouterr().err


def test_unreadable_set_value_exits_two_naming_its_key(tmp_path, capsys):
    argv = ["train", "--data", str(tmp_path / "manifest.json"), "--backbone", "none.ckpt"]
    assert run(argv + ["--set", "steps=x"]) == 2
    assert "config key 'steps'" in capsys.readouterr().err


def test_clip_values_outside_unit_range_exit_two(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(["generate", "--out", str(data), "--tasks", "2", "--pairs-per-task", "2"]) == 0
    manifest = data / "manifest.json"
    doc = json.loads(manifest.read_text())
    entry = doc["pairs"][1]
    clip = data / entry["robot_file"]
    frames, _ = from_bytes(clip.read_bytes())
    frames[0, 0, 0, 0] = 1.5
    blob = to_bytes(frames)
    clip.write_bytes(blob)
    entry["robot_sha256"] = hashlib.sha256(blob).hexdigest()  # past the checksum check
    manifest.write_text(json.dumps(doc))
    code = run(["pretrain", "--data", str(manifest), "--out", str(tmp_path / "pre")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"pair {entry['pair_id']}: clip {entry['robot_file']}" in err
    assert "[0, 1]" in err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_latent_position_that_is_not_finite_exits_two_writing_nothing(tmp_path, capsys, bad):
    data = tmp_path / "data"
    assert run(["generate", "--out", str(data), "--tasks", "2", "--pairs-per-task", "2"]) == 0
    manifest = data / "manifest.json"
    doc = json.loads(manifest.read_text())
    entry = doc["pairs"][1]
    entry["latent"]["positions"][0][0] = bad
    manifest.write_text(json.dumps(doc))  # the NaN / Infinity literal
    out = tmp_path / "pre"
    assert run(["pretrain", "--data", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"pair {entry['pair_id']}: clip {entry['human_file']}: latent positions" in err
    assert not out.exists()


def test_run_outputs_failing_partway_keep_previous_files(tmp_path, monkeypatch):
    _write_run_outputs(str(tmp_path), "seed = 1\n", ["report.txt"])
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    assert sorted(before) == ["files.json", "resolved_config.txt"]
    fail_writes_partway(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        _write_run_outputs(str(tmp_path), "seed = 2\n", ["report.json"])
    monkeypatch.undo()
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Tiny end-to-end pipeline: generate -> pretrain -> train (the L arm)."""
    root = tmp_path_factory.mktemp("pipeline")
    data = str(root / "data")
    pre = str(root / "pretrain")
    adapt = str(root / "adapt")
    assert (
        run(
            [
                "generate",
                "--out",
                data,
                "--tasks",
                "3",
                "--pairs-per-task",
                "8",
                "--gap",
                "0.6",
                "--seed",
                "11",
            ]
        )
        == 0
    )
    manifest = os.path.join(data, "manifest.json")
    assert run(["pretrain", "--data", manifest, "--out", pre, "--epochs", "2", "--seed", "11"]) == 0
    backbone = os.path.join(pre, "backbone.ckpt")
    assert (
        run(
            [
                "train",
                "--data",
                manifest,
                "--backbone",
                backbone,
                "--out",
                adapt,
                "--set",
                "steps=6",
                "--set",
                "batch_size=4",
                "--set",
                "seed=11",
            ]
        )
        == 0
    )
    return root, manifest, backbone, os.path.join(adapt, "model.ckpt")


def test_pipeline_artifacts_present(pipeline):
    root, manifest, backbone, model = pipeline
    for path in (manifest, backbone, model):
        assert os.path.exists(path), path
    for run_dir in (os.path.dirname(backbone), os.path.dirname(model)):
        assert os.path.exists(os.path.join(run_dir, "resolved_config.txt"))
        files = json.loads(Path(run_dir, "files.json").read_text())
        assert "resolved_config.txt" in files["produced"]
    metrics = Path(os.path.dirname(model), "metrics.csv").read_text()
    assert metrics.splitlines()[0] == "step,loss,pos_sim,hard_neg_sim,wall_ms"
    assert len(metrics.splitlines()) == 7  # header + 6 steps


def test_cli_eval_and_dump(pipeline, tmp_path):
    root, manifest, backbone, model = pipeline
    eval_dir = str(tmp_path / "eval")
    assert run(["eval", "--checkpoint", model, "--data", manifest, "--out", eval_dir]) == 0
    report = json.loads(Path(eval_dir, "report.json").read_text())
    assert "retrieval" in report and "downstream" in report
    assert 0.0 <= report["retrieval"]["r2h_recall1"] <= 1.0
    assert os.path.exists(os.path.join(eval_dir, "report.txt"))

    dump_path = str(tmp_path / "emb.csv")
    assert run(["dump", "--checkpoint", model, "--data", manifest, "--out", dump_path]) == 0
    lines = Path(dump_path).read_text().splitlines()
    assert len(lines) == 1 + 2 * 24  # header + human+robot clips of 24 pairs


def test_cli_eval_report_equals_the_reports_run_arms_writes(pipeline, tmp_path):
    """``hralign eval`` scores a checkpoint as ``run_arms`` does, so it
    reproduces ``summary.json``'s numbers: every evaluation seed is fixed
    in the code, and the command takes none."""
    root, manifest, backbone, model = pipeline
    eval_dir = str(tmp_path / "eval")
    assert run(["eval", "--checkpoint", model, "--data", manifest, "--out", eval_dir]) == 0
    report = json.loads(Path(eval_dir, "report.json").read_text())
    checkpoint = ModelCheckpoint.load(model)
    train, heldout = split_pairs(load_manifest(manifest))
    robot = [p.robot for p in train + heldout]
    assert report == {
        "retrieval": eval_retrieval(checkpoint, heldout, adapted=True).to_dict(),
        "downstream": eval_downstream(checkpoint, robot, adapted=True).to_dict(),
    }


def test_cli_dump_frozen_writes_the_unadapted_embeddings(pipeline, tmp_path):
    root, manifest, backbone, model = pipeline
    path = tmp_path / "frozen.csv"
    assert run(["dump", "--checkpoint", model, "--data", manifest, "--out", str(path), "--frozen"]) == 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    checkpoint = ModelCheckpoint.load(model)
    pairs = {p.pair_id: p for p in load_manifest(manifest)}
    assert len(rows) == 2 * len(pairs)
    for row in rows:
        assert row["adapted"] == "0"
        pair = pairs[int(row["clip_id"].split("_")[0])]
        clip, text = getattr(pair, row["domain"]), pair.description.text
        frozen = clip_embedding(checkpoint, clip, text, adapted=False)
        assert [float(row[f"f{i}"]) for i in range(len(frozen))] == frozen.tolist()
        assert not np.array_equal(frozen, clip_embedding(checkpoint, clip, text, adapted=True))


def test_cli_eval_frozen_mode(pipeline, tmp_path):
    root, manifest, backbone, model = pipeline
    eval_dir = str(tmp_path / "eval-frozen")
    assert (
        run(["eval", "--checkpoint", model, "--data", manifest, "--out", eval_dir, "--frozen"]) == 0
    )
    report = json.loads(Path(eval_dir, "report.json").read_text())
    assert report["retrieval"]["tag"] == "frozen"


def test_cli_eval_tags_a_backbone_only_checkpoint_frozen(pipeline, tmp_path):
    """A pretrain ``backbone.ckpt`` holds no adapters or query projection,
    so its eval is the frozen one and says so, with or without --frozen."""
    _, manifest, backbone, _ = pipeline
    reports = []
    for extra in ([], ["--frozen"]):
        out = tmp_path / f"eval{len(extra)}"
        argv = ["eval", "--checkpoint", backbone, "--data", manifest, "--out", str(out)]
        assert run(argv + extra) == 0
        reports.append(json.loads((out / "report.json").read_text()))
        assert "retrieval [frozen]" in (out / "report.txt").read_text()
    assert reports[0]["retrieval"]["tag"] == reports[0]["downstream"]["tag"] == "frozen"
    assert reports[0] == reports[1]


def test_cli_dump_labels_a_backbone_only_checkpoint_frozen(pipeline, tmp_path):
    """``dump`` of a pretrain ``backbone.ckpt`` once wrote ``adapted`` = 1 on
    every row beside the --frozen dump's very features; the column now says
    what was encoded, as the report tags do."""
    _, manifest, backbone, _ = pipeline
    dumps = []
    for extra in ([], ["--frozen"]):
        path = tmp_path / f"emb{len(extra)}.csv"
        assert run(["dump", "--checkpoint", backbone, "--data", manifest, "--out", str(path), *extra]) == 0
        with open(path, newline="") as fh:
            dumps.append(list(csv.DictReader(fh)))
    assert dumps[0] == dumps[1]
    assert {row["adapted"] for row in dumps[0]} == {"0"}


@pytest.mark.parametrize("flag", ["--data", "--checkpoint"])
def test_cli_dump_refuses_an_out_that_is_its_input(pipeline, tmp_path, capsys, monkeypatch, flag):
    """An --out naming the manifest or the checkpoint, here by another
    spelling of its path, once replaced that input with the CSV; dump now
    exits 2 before it loads anything."""
    _, manifest, _, model = pipeline
    shutil.copytree(os.path.dirname(manifest), tmp_path / "data")
    shutil.copy(model, tmp_path / "model.ckpt")
    inputs = {"--data": "data/manifest.json", "--checkpoint": "model.ckpt"}
    before = {name: (tmp_path / name).read_bytes() for name in inputs.values()}
    out = str(tmp_path / "data" / ".." / inputs[flag])
    loads = _spy_loads(monkeypatch)
    argv = ["dump", "--out", out] + [arg for f, name in inputs.items() for arg in (f, str(tmp_path / name))]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output:") and out in err and flag in err
    assert loads == []
    assert {name: (tmp_path / name).read_bytes() for name in inputs.values()} == before


def _spy_loads(monkeypatch) -> list[str]:
    """The paths ``load_manifest`` and ``ModelCheckpoint.load`` are called
    with from here on, in call order."""
    loads = []
    load_manifest, load_checkpoint = cli.load_manifest, ModelCheckpoint.load
    monkeypatch.setattr(cli, "load_manifest", lambda path: loads.append(path) or load_manifest(path))
    monkeypatch.setattr(
        ModelCheckpoint, "load", classmethod(lambda _, path: loads.append(path) or load_checkpoint(path))
    )
    return loads


def _tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` by its relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("arm, flag", [("L", "--backbone"), ("L", "--resume"), ("pret_ft", "--backbone")])
def test_cli_training_refuses_an_out_whose_checkpoint_is_its_input(
    pipeline, tmp_path, capsys, monkeypatch, arm, flag
):
    """``train --backbone A/model.ckpt --out A`` once trained over A's
    checkpoint and replaced it, and ``train --resume D/model.ckpt --out D``
    did the same; a training command now exits 2 before it loads anything
    when its ``model.ckpt`` would be its --backbone or --resume file."""
    _, manifest, _, model = pipeline
    run_dir = tmp_path / "run"
    shutil.copytree(os.path.dirname(model), run_dir)
    before = _tree(tmp_path)
    loads = _spy_loads(monkeypatch)
    argv = ["train", "--arm", arm, "--data", manifest]
    argv += [flag, str(run_dir / "model.ckpt"), "--out", str(run_dir)]
    argv += ["--set", "steps=8", "--set", "batch_size=4", "--set", "seed=11"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output:") and "model.ckpt" in err and flag in err
    assert loads == []
    assert _tree(tmp_path) == before


def test_cli_ablate_refuses_an_arm_checkpoint_that_is_its_backbone(pipeline, tmp_path, capsys, monkeypatch):
    """``ablate --backbone B/frozen/model.ckpt --out B`` once replaced its
    own --backbone with the frozen arm's checkpoint; it now exits 2 before
    it loads anything."""
    _, manifest, backbone, _ = pipeline
    out = tmp_path / "ablation"
    (out / "frozen").mkdir(parents=True)
    shutil.copy(backbone, out / "frozen" / "model.ckpt")
    before = _tree(tmp_path)
    loads = _spy_loads(monkeypatch)
    argv = ["ablate", "--data", manifest, "--backbone", str(out / "frozen" / "model.ckpt"), "--out", str(out)]
    assert run(argv + ["--set", "steps=1", "--set", "batch_size=4"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write output: {out / 'frozen' / 'model.ckpt'} is the --backbone input\n"
    assert loads == []
    assert _tree(tmp_path) == before


def test_cli_ablate_refuses_an_arm_path_that_is_a_file_before_any_arm(pipeline, tmp_path, capsys, monkeypatch):
    """With ``<out>/L`` a file, ``ablate`` once trained E and M, wrote
    their directories, and only then exited 2; it now checks every arm's
    path before it loads anything."""
    out = tmp_path / "ablation"
    out.mkdir()
    (out / "L").write_text("kept\n")
    loads = _spy_loads(monkeypatch)
    assert run(_ablate_argv(pipeline, out)) == 2
    assert capsys.readouterr().err == f"error: cannot write output: {out / 'L'} is not a directory\n"
    assert loads == []
    assert _tree(tmp_path) == {"ablation/L": b"kept\n"}


def test_cli_eval_leaves_no_checkpoint_handle_open(pipeline, tmp_path):
    root, manifest, backbone, model = pipeline
    eval_dir = str(tmp_path / "eval")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert run(["eval", "--checkpoint", model, "--data", manifest, "--out", eval_dir]) == 0
        gc.collect()
    leaks = [str(w.message) for w in caught if model in str(w.message)]
    assert leaks == []


@pytest.mark.parametrize(
    "command, tasks, length, message",
    [
        ("eval", 3, 1, "clip pair {} has 1 frame, but behavior cloning needs a next frame"),
        ("ablate", 3, 1, "clip pair {} has 1 frame, but behavior cloning needs a next frame"),
        ("ablate", 3, 3, "pretext: the clip of pair {} has 3 frames, fewer than 4"),
        ("ablate", 1, None, "classification baseline needs >= 2 task classes, got 1"),
    ],
    ids=["eval-1-frame", "ablate-1-frame", "ablate-3-frames", "ablate-1-task"],
)
def test_data_some_arm_cannot_use_exits_two_before_anything_is_encoded(
    pipeline, tmp_path, capsys, monkeypatch, command, tasks, length, message
):
    """Behavior cloning predicts each robot frame's next one, pret_ft's
    pretext needs 4 frames a clip and cls_ft 2 tasks. Over 1-frame clips,
    eval and ablate once died with a raw ZeroDivisionError from the BC loss;
    later eval encoded every held-out clip for retrieval, and ablate trained
    and saved each arm before the one that refused the data (E over 1-frame
    clips, all but the fine-tunes over 3-frame ones). Both now refuse the
    first such clip, or the single task, before anything is encoded, and
    ablate leaves no arm directory."""
    _, _, backbone, model = pipeline

    def cut(clip):  # a pair shares one latent, so both its clips are cut
        return dataclasses.replace(
            clip, frames=clip.frames[:length], positions=clip.positions[:length], gripper=clip.gripper[:length]
        )

    pairs = [
        dataclasses.replace(p, human=cut(p.human), robot=cut(p.robot))
        for p in generate_paired_set(RngState(11), 3, 8, 0.6)
        if p.task_id < tasks
    ]
    manifest = str(tmp_path / "data" / "manifest.json")
    save_manifest(pairs, manifest)
    encoded = []
    # every encode in the package runs encoder.encode_batch, by that name in
    # encoder or in trainer (the pretext lambda of pret_ft)
    monkeypatch.setattr(encoder, "encode_batch", lambda *a, **k: encoded.append(a))
    monkeypatch.setattr(trainer, "encode_batch", lambda *a, **k: encoded.append(a))
    out = tmp_path / "out"
    argv = {
        "eval": ["eval", "--checkpoint", model, "--data", manifest, "--out", str(out)],
        "ablate": ["ablate", "--data", manifest, "--backbone", backbone, "--out", str(out),
                   "--set", "steps=1", "--set", "batch_size=4"],
    }[command]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message.format(split_pairs(pairs)[0][0].pair_id)}\n"
    assert encoded == []
    assert not out.exists()


@pytest.mark.parametrize("arm", ["pret_ft", "cls_ft"])
def test_cli_reports_name_a_fine_tuned_checkpoint_fine_tuned(pipeline, tmp_path, arm):
    """A fine-tune's checkpoint holds a trained backbone and no adapters:
    eval once printed ``retrieval [frozen]`` for it. Its reports are now
    tagged ``fine-tuned``, with or without --frozen, and dump's ``adapted``
    column stays 0, since no adapter or query projection took part."""
    _, manifest, backbone, _ = pipeline
    out = tmp_path / arm
    train = ["--set", "steps=2", "--set", "batch_size=4"]
    assert run(["train", "--arm", arm, "--data", manifest, "--backbone", backbone, "--out", str(out), *train]) == 0
    model = str(out / "model.ckpt")
    for extra in ([], ["--frozen"]):
        report_dir = tmp_path / f"eval{len(extra)}"
        assert run(["eval", "--checkpoint", model, "--data", manifest, "--out", str(report_dir), *extra]) == 0
        text = (report_dir / "report.txt").read_text()
        assert "retrieval [fine-tuned]" in text and "downstream [fine-tuned]" in text
    path = tmp_path / "emb.csv"
    assert run(["dump", "--checkpoint", model, "--data", manifest, "--out", str(path)]) == 0
    with open(path, newline="") as fh:
        assert {row["adapted"] for row in csv.DictReader(fh)} == {"0"}


def test_cli_resume_matches_straight_run(pipeline, tmp_path):
    root, manifest, backbone, _ = pipeline
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    c = str(tmp_path / "c")
    common = ["--data", manifest, "--backbone", backbone, "--set", "batch_size=4", "--set", "seed=11"]
    assert run(["train", *common, "--out", a, "--set", "steps=6"]) == 0
    assert run(["train", *common, "--out", b, "--set", "steps=3"]) == 0
    assert (
        run(
            [
                "train",
                *common,
                "--out",
                c,
                "--set",
                "steps=6",
                "--resume",
                os.path.join(b, "model.ckpt"),
            ]
        )
        == 0
    )
    # headers differ in out_dir only; compare the trajectory-relevant state
    from hralign.trainer import ModelCheckpoint, format_config

    direct = ModelCheckpoint.load(os.path.join(a, "model.ckpt"))
    resumed = ModelCheckpoint.load(os.path.join(c, "model.ckpt"))
    assert direct.rng.state() == resumed.rng.state()
    assert direct.adam.step == resumed.adam.step
    for name, tensor in direct.named_tensors().items():
        assert np.array_equal(tensor.data, resumed.named_tensors()[name].data), name
    for name in direct.adam.m:
        assert np.array_equal(direct.adam.m[name], resumed.adam.m[name])


def test_cli_resume_without_backbone_trains_over_the_checkpoints_own(pipeline, tmp_path, capsys):
    """``train --resume R`` without --backbone once exited 1 (a required
    flag); it now goes on over R's own backbone, byte for byte the run
    that names it. Neither flag is a usage error."""
    _, manifest, backbone, _ = pipeline
    common = ["--data", manifest, "--set", "batch_size=4", "--set", "seed=11"]
    half = str(tmp_path / "half")
    assert run(["train", *common, "--backbone", backbone, "--out", half, "--set", "steps=3"]) == 0
    resume = ["--set", "steps=6", "--resume", os.path.join(half, "model.ckpt")]
    named, own = str(tmp_path / "named"), str(tmp_path / "own")
    assert run(["train", *common, "--backbone", backbone, "--out", named, *resume]) == 0
    assert run(["train", *common, "--out", own, *resume]) == 0
    ours, theirs = (ModelCheckpoint.load(os.path.join(d, "model.ckpt")) for d in (named, own))
    for name, tensor in ours.named_tensors().items():
        assert np.array_equal(tensor.data, theirs.named_tensors()[name].data), name
    for name in ours.adam.m:
        assert np.array_equal(ours.adam.m[name], theirs.adam.m[name])
    assert ours.rng.state() == theirs.rng.state()
    losses = [[row.rsplit(",", 1)[0] for row in Path(d, "metrics.csv").read_text().splitlines()] for d in (named, own)]
    assert losses[0] == losses[1]  # every column but wall_ms
    capsys.readouterr()
    neither = tmp_path / "neither"
    assert run(["train", *common, "--out", str(neither), "--set", "steps=1"]) == 1
    assert "hralign train: error: --backbone is required without --resume\n" in capsys.readouterr().err
    assert not neither.exists()


def test_cli_resume_over_a_different_backbone_exits_two_writing_nothing(
    pipeline, tmp_path, capsys
):
    _, manifest, _, model = pipeline
    other = str(tmp_path / "other")
    assert run(["pretrain", "--data", manifest, "--out", other, "--epochs", "1", "--seed", "12"]) == 0
    out = tmp_path / "resumed"
    argv = [
        "train", "--data", manifest, "--backbone", os.path.join(other, "backbone.ckpt"),
        "--out", str(out), "--set", "steps=8", "--set", "batch_size=4", "--set", "seed=11",
        "--resume", model,
    ]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "error: resume backbone differs from the checkpoint's at tensor 'backbone.block" in err
    assert not out.exists()


def test_cli_resume_from_a_pretrain_checkpoint_exits_two_writing_nothing(pipeline, tmp_path, capsys):
    # a pretrain output is the frozen arm's start checkpoint, which holds no
    # adapters to go on from; resuming from it once died with an
    # AttributeError traceback
    _, manifest, backbone, _ = pipeline
    out = tmp_path / "resumed"
    argv = [
        "train", "--data", manifest, "--backbone", backbone, "--resume", backbone,
        "--out", str(out), "--set", "seed=11",  # the pretrain run's seed, so only the parts differ
    ]
    assert run(argv) == 2
    assert "error: resume config differs on ['adapter_positions', 'use_language']" in capsys.readouterr().err
    assert not out.exists()


DROPPED_KEYS = {
    "baseline_full_data": "false",
    "baseline_adapter_only": "false",
    "frames": "5",
    "tau": "0.1",
    "normalize": "true",
    "adapter_ratio": "4",
}


def test_cli_train_refuses_a_config_file_with_a_dropped_key(pipeline, tmp_path, capsys):
    _, manifest, backbone, _ = pipeline
    for key, value in DROPPED_KEYS.items():
        config = tmp_path / f"{key}.cfg"
        config.write_text(f"steps = 2\n{key} = {value}\n")
        out = tmp_path / f"pret_ft_{key}"
        argv = ["train", "--arm", "pret_ft", "--config", str(config), "--data", manifest, "--backbone", backbone]
        assert run(argv + ["--out", str(out)]) == 2, key
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not out.exists()


ARMS = ["E", "M", "L", "EML", "L_nolang", "frozen", "pret_ft", "cls_ft", "Q"]
# (adapter_positions, use_language) of each arm's row and checkpoint config: only parts that took part
ARM_PARTS = {
    "E": ("E", True),
    "M": ("M", True),
    "L": ("L", True),
    "EML": ("EML", True),
    "L_nolang": ("L", False),
    "frozen": ("none", False),
    "pret_ft": ("none", False),
    "cls_ft": ("none", False),
    "Q": ("none", True),
}
ABLATION_KEYS = [
    "name",
    "adapter_positions",
    "use_language",
    "adapter_params",
    "projection_params",
    "total_learnable",
    "final_loss",
    "r2h_recall1",
    "r2h_recall5",
    "h2r_recall1",
    "h2r_recall5",
    "probe_accuracy",
    "bc_mse",
]


def _ablate_argv(pipeline, out):
    _, manifest, backbone, _ = pipeline
    return [
        "ablate", "--data", manifest, "--backbone", backbone, "--out", str(out),
        "--set", "steps=2", "--set", "batch_size=4",
    ]


def test_cli_ablate_trains_scores_and_saves_every_arm(tiny_reference, tmp_path):
    """``hralign ablate`` and ``scripts/run_reference.py`` are one runner:
    over the script's manifest, with its frozen arm's checkpoint as the
    backbone, at the same size and seed, ablate writes the script's rows."""
    reference, summary = tiny_reference
    out = tmp_path / "ablate"
    backbone_path = str(reference / "ablation" / "frozen" / "model.ckpt")
    argv = ["ablate", "--data", str(reference / "manifest.json"), "--backbone", backbone_path]
    assert run(argv + ["--out", str(out), "--set", "steps=2"]) == 0
    rows = strict_json(out / "ablation.json")
    assert rows == summary["ablation"]
    assert [row["name"] for row in rows] == ARMS
    for row in rows:
        assert list(row) == ABLATION_KEYS
        for key in ABLATION_KEYS[7:]:
            assert np.isfinite(row[key]), (row["name"], key)
    with open(out / "ablation.csv", newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ABLATION_KEYS
    assert [line[0] for line in table[1:]] == ARMS
    backbone = ModelCheckpoint.load(backbone_path).backbone
    backbone_size = sum(t.size for t in backbone.named_parameters().values())
    head_size = (backbone.out_channels + 1) * 2  # a linear head over the 2 tasks
    for row in rows:
        run_dir = out / row["name"]
        assert sorted(os.listdir(run_dir)) == ["files.json", "metrics.csv", "model.ckpt", "resolved_config.txt"]
        checkpoint = ModelCheckpoint.load(str(run_dir / "model.ckpt"))
        assert (run_dir / "resolved_config.txt").read_text() == format_config(checkpoint.config)
        assert (row["adapter_positions"], row["use_language"]) == ARM_PARTS[row["name"]]
        assert (checkpoint.config.adapter_positions, checkpoint.config.use_language) == ARM_PARTS[row["name"]]
        assert bool(checkpoint.query) == row["use_language"]
        trained = {"frozen": 0, "pret_ft": backbone_size, "cls_ft": backbone_size + head_size}
        want = trained.get(row["name"], row["adapter_params"] + row["projection_params"])
        assert row["total_learnable"] == want, row["name"]


def test_cli_ablate_without_steps_writes_strict_json(pipeline, tmp_path, monkeypatch):
    """A run with no loss rows once wrote ``"final_loss": NaN``, which strict
    JSON readers refuse; it is null now, and the CSV cell empty. The heads
    do not bear on the JSON, so they are stubbed to keep the run short."""
    monkeypatch.setattr(evaluation, "train_linear_probe", lambda *a, **k: 0.0)
    monkeypatch.setattr(evaluation, "train_bc_head", lambda x, y, seed: lambda f: np.zeros((len(f), 2)))
    out = tmp_path / "ablate"
    argv = _ablate_argv(pipeline, out)
    argv[argv.index("steps=2")] = "steps=0"
    assert run(argv) == 0
    rows = strict_json(out / "ablation.json")
    assert [row["name"] for row in rows] == ARMS
    assert all(row["final_loss"] is None for row in rows)
    with open(out / "ablation.csv", newline="") as fh:
        assert {row["final_loss"] for row in csv.DictReader(fh)} == {""}


def test_cli_ablate_without_heldout_pairs_exits_two_writing_nothing(pipeline, tmp_path, capsys):
    data = str(tmp_path / "data")  # 2 pairs per task split 2/0
    assert run(["generate", "--out", data, "--tasks", "2", "--pairs-per-task", "2"]) == 0
    out = tmp_path / "ablate"
    argv = _ablate_argv(pipeline, out)
    argv[argv.index("--data") + 1] = os.path.join(data, "manifest.json")
    assert run(argv) == 2
    assert "held-out split needs at least 2 pairs, got 0" in capsys.readouterr().err
    assert not out.exists()


def _path_flag_argv(pipeline, flag, path, out):
    _, manifest, backbone, _ = pipeline
    if flag == "--checkpoint":
        return ["eval", "--checkpoint", path, "--data", manifest, "--out", out]
    argv = ["train", "--data", manifest, "--out", out, flag, path]
    return argv if flag == "--backbone" else argv + ["--backbone", backbone]


@pytest.mark.parametrize("flag", ["--backbone", "--resume", "--config", "--checkpoint"])
def test_path_flag_naming_a_directory_exits_two_and_a_missing_file_one(
    pipeline, tmp_path, capsys, flag
):
    out = tmp_path / "out"
    directory = tmp_path / "a_directory"
    directory.mkdir()
    assert run(_path_flag_argv(pipeline, flag, str(directory), str(out))) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error:") and str(directory) in line for line in err.splitlines())
    missing = str(tmp_path / "absent")
    assert run(_path_flag_argv(pipeline, flag, missing, str(out))) == 1
    assert missing in capsys.readouterr().err
    assert not out.exists()


def _out_argv(pipeline, command, out):
    """A cheap run of ``command`` over the pipeline's files writing to ``out``."""
    _, manifest, backbone, model = pipeline
    train = ["--data", manifest, "--backbone", backbone, "--out", out]
    train += ["--set", "steps=1", "--set", "batch_size=4"]
    return {
        "generate": ["generate", "--out", out, "--tasks", "2", "--pairs-per-task", "2"],
        "pretrain": ["pretrain", "--data", manifest, "--out", out, "--epochs", "1"],
        "train": ["train", *train],
        "ablate": ["ablate", *train],
        "eval": ["eval", "--checkpoint", model, "--data", manifest, "--out", out],
        "dump": ["dump", "--checkpoint", model, "--data", manifest, "--out", out],
    }[command]


@pytest.mark.parametrize("command", ["generate", "pretrain", "train", "ablate", "eval", "dump"])
def test_output_path_that_cannot_be_written_exits_two_naming_it(
    pipeline, tmp_path, capsys, monkeypatch, command
):
    # an --out naming a file (for dump's CSV, a directory) once escaped as a
    # FileExistsError or IsADirectoryError traceback, and pretrain, eval and
    # dump once did all their work before they found it
    ran = []
    for name in ("pretext_pretrain", "eval_retrieval", "dump_embeddings"):
        work = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _f=work, **k: ran.append(_f) or _f(*a, **k))
    if command == "dump":
        out = tmp_path / "a_directory"
        out.mkdir()
    else:
        out = tmp_path / "a_file"
        out.write_text("kept\n")
    assert run(_out_argv(pipeline, command, str(out))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err
    assert "Traceback" not in err
    if command == "dump":
        assert os.listdir(out) == []
    else:
        assert out.read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == [out.name]
    assert ran == []


@pytest.mark.parametrize(
    "command, setting, via, message",
    [
        (["train", "--arm", "pret_ft"], "method=hr_align", "set",
         "config sets method = 'hr_align', but arm pret_ft trains method = 'pret_baseline'"),
        (["train"], "method=cls_baseline", "config",
         "config sets method = 'cls_baseline', but arm L trains method = 'hr_align'"),
        (["train", "--arm", "L_nolang"], "use_language=true", "set",
         "config sets use_language = True, but arm L_nolang trains use_language = False"),
        (["train", "--arm", "cls_ft"], "learning_rate=1e-2", "config",
         "config sets learning_rate = 0.01, but arm cls_ft trains learning_rate = 0.0003"),
        (["ablate"], "adapter_positions=E", "set",
         "config sets adapter_positions = 'E', but arm M trains adapter_positions = 'M'"),
        (["ablate"], "learning_rate=1e-3", "config",
         "config sets learning_rate = 0.001, but arm pret_ft trains learning_rate = 0.0003"),
    ],
    ids=["train-pret_ft-method", "train-L-method", "train-L_nolang-language", "train-cls_ft-lr",
         "ablate-positions", "ablate-lr"],
)
def test_a_key_an_arm_fixes_to_another_value_exits_two_naming_both(
    pipeline, tmp_path, capsys, monkeypatch, command, setting, via, message
):
    """`adapt --set method=cls_baseline` once trained hr_align, and `ablate
    --set adapter_positions=E` trained every arm at its own positions while
    resolved_config.txt recorded E. A key that --config or --set gives and
    an arm the command trains fixes to another value now exits 2 before
    anything is loaded, naming the key and the arm."""
    out = tmp_path / "out"
    argv = [*command, *_out_argv(pipeline, command[0], str(out))[1:]]
    if via == "set":
        argv += ["--set", setting]
    else:
        (tmp_path / "run.cfg").write_text(setting.replace("=", " = ") + "\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    loads = _spy_loads(monkeypatch)
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert loads == []
    assert os.listdir(tmp_path) == ([] if via == "set" else ["run.cfg"])


@pytest.mark.parametrize(
    "command, sets, trained",
    [
        (["train"], ["method=hr_align", "adapter_positions=L"], ("hr_align", "L", True, 1e-2, 1)),
        (["train", "--arm", "pret_ft"], ["method=pret_baseline", "learning_rate=3e-4", "steps=500"],
         ("pret_baseline", "none", False, 3e-4, 120)),
        (["train", "--arm", "frozen"], ["adapter_positions=none", "use_language=false"],
         ("hr_align", "none", False, 1e-2, 0)),
        (["ablate"], ["learning_rate=3e-4"], ("hr_align", "L", True, 3e-4, 1)),
    ],
    ids=["train-L", "train-pret_ft", "train-frozen", "ablate"],
)
def test_a_key_set_equal_to_the_arms_value_trains(pipeline, tmp_path, monkeypatch, command, sets, trained):
    """A key an arm fixes may be given at the arm's value, and ``steps`` at
    any value, since an arm's ``steps`` caps it; ``train`` then trains the
    arm's config and ``ablate`` runs the arms over the base it was given."""
    configs = []

    def stop(config, *args):
        configs.append(config)
        raise RuntimeError("stop before training")

    monkeypatch.setattr(cli, "train", stop)
    monkeypatch.setattr(cli, "run_arms", stop)
    argv = [*command, *_out_argv(pipeline, command[0], str(tmp_path / "out"))[1:]]
    assert run(argv + [token for value in sets for token in ("--set", value)]) == 2
    fields = ("method", "adapter_positions", "use_language", "learning_rate", "steps")
    assert [tuple(getattr(c, f) for f in fields) for c in configs] == [trained]


@pytest.mark.parametrize(
    "command", [["adapt"], ["baseline", "pret"], ["baseline", "cls"]], ids=["adapt", "baseline-pret", "baseline-cls"]
)
def test_removed_training_subcommands_exit_one_writing_nothing(pipeline, tmp_path, capsys, command):
    """``adapt`` and ``baseline pret|cls`` are arms of ``train`` now; like a
    removed flag, each is an unknown subcommand."""
    _, manifest, backbone, _ = pipeline
    argv = [*command, "--data", manifest, "--backbone", backbone, "--out", str(tmp_path / "out")]
    assert run(argv + ["--set", "steps=1"]) == 1
    assert f"invalid choice: '{command[0]}'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_train_writes_each_arm_as_ablate_does(pipeline, tmp_path):
    """``train --arm X --out P/X`` and ``ablate --out P`` build arm X's
    config by one ``arm_config``: every file of each arm's directory is
    byte for byte the one ablate writes, ``metrics.csv`` but for
    ``wall_ms``. Ablate once wrote only the base config, and only into P."""
    out = tmp_path / "P"
    ablate = _ablate_argv(pipeline, out)

    def files(root, arm):
        found = {name: (root / arm / name).read_bytes() for name in sorted(os.listdir(root / arm))}
        found["metrics.csv"] = [line.rsplit(b",", 1)[0] for line in found["metrics.csv"].splitlines()]
        return found

    for arm in ARMS:
        argv = ["train", "--arm", arm, *ablate[1:]]
        argv[argv.index("--out") + 1] = str(out / arm)
        assert run(argv) == 0, arm
    trained = tmp_path / "trained"
    out.rename(trained)  # the files name P in their configs; ablate writes P anew
    assert run(ablate) == 0
    for arm in ARMS:
        kept = files(trained, arm)
        assert sorted(kept) == ["files.json", "metrics.csv", "model.ckpt", "resolved_config.txt"], arm
        assert files(out, arm) == kept, arm


def test_a_run_without_steps_prints_no_loss(pipeline, tmp_path, capsys):
    """A 0-step run has no loss: ``train --arm frozen`` once printed
    ``final loss nan``, which reads as a diverged run."""
    _, manifest, backbone, _ = pipeline
    common = ["--data", manifest, "--backbone", backbone, "--set", "batch_size=4"]
    frozen, trained = tmp_path / "frozen", tmp_path / "L"
    assert run(["train", "--arm", "frozen", *common, "--out", str(frozen)]) == 0
    assert capsys.readouterr().out == f"train frozen: 0 steps -> {frozen / 'model.ckpt'}\n"
    assert run(["train", "--arm", "L", *common, "--set", "steps=1", "--out", str(trained)]) == 0
    loss = float((trained / "metrics.csv").read_text().splitlines()[-1].split(",")[1])
    assert capsys.readouterr().out == f"train L: 1 steps, final loss {loss:.4f} -> {trained / 'model.ckpt'}\n"


def test_pretrain_writes_the_frozen_arms_checkpoint(pipeline, tmp_path):
    """``pretrain --out D`` saves the frozen arm's start checkpoint, so
    ``train --arm frozen --backbone D/backbone.ckpt --out D`` writes the
    same bytes. The pretrain header once claimed the L adapters and query
    projection of a default config, and held neither."""
    _, manifest, _, _ = pipeline
    assert len(split_pairs(load_manifest(manifest))[0]) >= 16  # one default batch
    out = tmp_path / "D"
    assert run(["pretrain", "--data", manifest, "--out", str(out), "--epochs", "1", "--seed", "11"]) == 0
    argv = ["train", "--arm", "frozen", "--data", manifest, "--backbone", str(out / "backbone.ckpt")]
    assert run(argv + ["--out", str(out), "--set", "seed=11"]) == 0
    assert (out / "model.ckpt").read_bytes() == (out / "backbone.ckpt").read_bytes()


def test_readme_commands_parse():
    """Every ``hralign`` line of the README's code blocks, continuations
    joined, parses: the quick start names no removed subcommand or flag."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```[a-z]*\n(.*?)```", readme, flags=re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("hralign ")]
    for argv in commands:
        cli.build_parser().parse_args(argv)
    assert {argv[0] for argv in commands} == {"generate", "pretrain", "train", "ablate", "eval", "dump"}


@pytest.mark.parametrize(
    "command, flag",
    [
        pytest.param(c, ["--heldout-frac", "0.1"], id=f"{c}-heldout-frac")
        for c in ("pretrain", "train", "ablate", "eval", "dump")
    ]
    + [pytest.param("dump", ["--split", "heldout"], id="dump-split")]
    + [pytest.param(c, ["--seed", "313"], id=f"{c}-seed") for c in ("eval", "dump")],
)
def test_removed_split_flags_exit_one_writing_nothing(pipeline, tmp_path, command, flag):
    # every command holds out the pairs of dataset.HELDOUT_FRAC; a flag that
    # re-split the manifest once let adaptation train on scored pairs. eval
    # and dump sample retrieval's frames from the fixed seed 311.
    out = tmp_path / "out"
    assert run(_out_argv(pipeline, command, str(out)) + flag) == 1
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# argv fuzzing: whatever the argv, the CLI exits 0, 1 or 2 and never raises


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """The input paths an argv may name, built once: a tiny manifest (2
    tasks x 12 pairs, so the default batch of 16 fits its 18 training
    pairs), its pretrain ``backbone.ckpt``, a one-step ``model.ckpt``, a
    config text file, a directory and a missing path."""
    root = tmp_path_factory.mktemp("fuzz")
    data, pre, adapt = root / "data", root / "pre", root / "train"
    assert run(["generate", "--out", str(data), "--tasks", "2", "--pairs-per-task", "12"]) == 0
    manifest = str(data / "manifest.json")
    assert run(["pretrain", "--data", manifest, "--out", str(pre), "--epochs", "1"]) == 0
    backbone = str(pre / "backbone.ckpt")
    adapt_argv = ["train", "--data", manifest, "--backbone", backbone, "--out", str(adapt)]
    assert run(adapt_argv + ["--set", "steps=1"]) == 0
    (root / "run.cfg").write_text("steps = 1\n")
    (root / "a_dir").mkdir()
    return {
        "@manifest": manifest,
        "@backbone": backbone,
        "@model": str(adapt / "model.ckpt"),
        "@text": str(root / "run.cfg"),
        "@dir": str(root / "a_dir"),
        "@missing": str(root / "absent"),
    }


def _path(*kinds):
    """An input path token: one of the flag's own kinds half the time."""
    every = ["@manifest", "@backbone", "@model", "@text", "@dir", "@missing"]
    return st.one_of(st.sampled_from(kinds), st.sampled_from(every))


# output tokens resolve under a fresh directory per example
_OUT = st.sampled_from(["@new", "@out_file", "@out_dir"])
_SEED = st.sampled_from(["7", "0", "-1", "x"])
_SET = st.sampled_from(
    [
        "steps=1", "steps=0", "steps=-1", "steps=x", "batch_size=4", "batch_size=0",
        "batch_size=99", "learning_rate=0", "learning_rate=nan", "learning_rate=1e300",
        "seed=11", "adapter_positions=EML", "adapter_positions=none", "adapter_positions=Q",
        "use_language=false", "use_language=maybe", "method=cls_baseline", "method=pret_baseline",
        "method=x", "out_dir=rel", "tau=0.1", "bogus=1", "steps", "=1",
    ]
)
# each command's required flags, optional flags and the flags every argv
# carries, so that no example generates or trains more than a few steps;
# a value strategy of None marks a switch
_TRAIN = (
    {"--data": _path("@manifest"), "--backbone": _path("@backbone", "@model")},
    {"--config": _path("@text"), "--out": _OUT},
)
_READ = (
    {"--checkpoint": _path("@model", "@backbone"), "--data": _path("@manifest"), "--out": _OUT},
    {"--frozen": None},
    {},
)
_STEPS = {"--set": st.sampled_from(["steps=1", "steps=2"])}
_COMMANDS = {
    "generate": (
        {"--out": _OUT},
        {"--gap": st.sampled_from(["0.7", "0", "1", "-0.5", "nan", "inf"]), "--seed": _SEED},
        {"--tasks": st.sampled_from(["2", "1", "0", "-1", "x"]),
         "--pairs-per-task": st.sampled_from(["2", "1", "0", "-1"])},
    ),
    "pretrain": (
        {"--data": _path("@manifest"), "--out": _OUT},
        {"--seed": _SEED, "--lr": st.sampled_from(["3e-6", "0", "-1", "nan", "inf", "1e300"])},
        {"--epochs": st.sampled_from(["1", "0", "-1", "x"])},
    ),
    "train": (
        _TRAIN[0],
        {**_TRAIN[1], "--resume": _path("@model", "@backbone"), "--arm": st.sampled_from([*ARMS, "x", ""])},
        _STEPS,
    ),
    "ablate": (*_TRAIN, {"--set": st.sampled_from(["steps=1", "steps=0"])}),
    "eval": _READ,
    "dump": _READ,
}
# an argv carries at most one of these, and half carry none
_JUNK = st.one_of(
    st.just([]),
    st.sampled_from(
        [["--no-such-flag"], ["--seed", "3"], ["--heldout-frac", "0.1"], ["--split", "heldout"],
         ["-x"], ["stray"], ["--set"], ["--out"], ["--help"]]
    ),
)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(list(_COMMANDS) + ["frobnicate"]))
    required, optional, always = _COMMANDS.get(command, ({}, {}, {}))
    # most argvs keep every required flag; the rest leave out one
    dropped = draw(st.one_of(st.none(), st.sampled_from([None, *required])))
    groups = [[flag, draw(values)] for flag, values in {**always, **required}.items() if flag != dropped]
    for flag, values in optional.items():
        if draw(st.booleans()):
            groups.append([flag] if values is None else [flag, draw(values)])
    if "--config" in optional:
        sets = draw(st.one_of(st.just([]), st.lists(_SET, min_size=1, max_size=2)))
        groups += [["--set", value] for value in sets]
    groups.append(draw(_JUNK))
    return [command] + [token for group in draw(st.permutations(groups)) for token in group]


@settings(deadline=None, max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@example(  # a pretrain output holds nothing to resume from
    argv=["train", "--data", "@manifest", "--backbone", "@backbone", "--resume", "@backbone",
          "--out", "@new", "--set", "steps=1"]
)
@example(  # only hr_align arms resume
    argv=["train", "--arm", "pret_ft", "--data", "@manifest", "--resume", "@model", "--out", "@new",
          "--set", "steps=1"]
)
@given(argv=_argvs())
def test_cli_exits_zero_one_or_two_whatever_the_argv(fuzz_files, tmp_path_factory, argv):
    scratch = tmp_path_factory.mktemp("argv")
    (scratch / "out_file").write_text("kept\n")
    (scratch / "out_dir").mkdir()
    outputs = {"@new": str(scratch / "new"), "@out_file": str(scratch / "out_file"),
               "@out_dir": str(scratch / "out_dir")}
    resolved = [fuzz_files.get(token, outputs.get(token, token)) for token in argv]
    cwd = os.getcwd()
    os.chdir(scratch)  # a run without --out writes under its relative default
    try:
        code = run(resolved)
    finally:
        os.chdir(cwd)
        shutil.rmtree(scratch)
    assert code in (0, 1, 2), resolved
