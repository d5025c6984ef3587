"""``scripts/run_reference.py`` end to end at a tiny size (the session
fixture ``tiny_reference``), and its exit codes."""

import json
import os

import pytest

from helpers import run_reference_script
from hralign.trainer import ModelCheckpoint, format_config

ARMS = ["E", "M", "L", "EML", "L_nolang", "frozen", "pret_ft", "cls_ft", "Q"]


def test_reference_summary_reads_off_the_arm_runs(tiny_reference):
    out, summary = tiny_reference
    assert list(summary) == ["adapted", "frozen", "baselines", "ablation"]
    rows = {row["name"]: row for row in summary["ablation"]}
    assert list(rows) == ARMS
    for tag, arm in (("adapted", "L"), ("frozen", "frozen")):
        for key in ("r2h_recall1", "r2h_recall5", "h2r_recall1", "h2r_recall5"):
            assert summary[tag]["retrieval"][key] == rows[arm][key], (tag, key)
        for key in ("probe_accuracy", "bc_mse"):
            assert summary[tag]["downstream"][key] == rows[arm][key], (tag, key)
        assert summary[tag]["retrieval"]["tag"] == summary[tag]["downstream"]["tag"] == tag
    assert rows["frozen"]["final_loss"] is None and rows["frozen"]["total_learnable"] == 0
    for kind in ("pret", "cls"):
        losses = summary["baselines"][f"{kind}_loss"]
        assert len(losses) == 2 and losses[1] == rows[f"{kind}_ft"]["final_loss"]
    assert not (out / "adapt").exists()
    assert sorted(os.listdir(out / "ablation")) == sorted(ARMS)
    for arm in ARMS:  # each arm's directory holds the record train and ablate write
        arm_dir = out / "ablation" / arm
        assert sorted(os.listdir(arm_dir)) == ["files.json", "metrics.csv", "model.ckpt", "resolved_config.txt"]
        config = ModelCheckpoint.load(str(arm_dir / "model.ckpt")).config
        assert (arm_dir / "resolved_config.txt").read_text() == format_config(config)
        assert json.loads((arm_dir / "files.json").read_text()) == {"produced": sorted(os.listdir(arm_dir))}
    assert (out / "embeddings.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--tasks", "2", "--pairs-per-task", "2"], "the held-out split needs at least 2 pairs, got 0"),
        (["--gap", "nan"], "gap must lie in [0, 1], got nan"),
    ],
    ids=["no-heldout", "gap-nan"],
)
def test_runtime_error_exits_two_writing_nothing(tmp_path, capsys, argv, message):
    # both once escaped as a traceback with exit 1, the usage-error code; a
    # split without held-out pairs was found after the manifest was written,
    # and later after the whole pretext pre-training had run
    out = tmp_path / "reference"
    assert run_reference_script("--out", str(out), "--pretext-epochs", "1", *argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "[2/4] pretext" not in captured.out
    assert not out.exists()


def test_unknown_flag_exits_one_writing_nothing(tmp_path, capsys):
    # argparse's own exit 2 is the code `hralign` keeps for runtime errors
    out = tmp_path / "reference"
    for flag in ("--skip-ablation", "--baseline-steps"):  # both removed
        assert run_reference_script("--out", str(out), flag) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()
