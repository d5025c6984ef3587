"""``scripts/run_reference.py`` end to end at a tiny size: 2 tasks x 12 pairs
(18 training pairs fill one default batch of 16), 2 steps per arm."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_reference.py"
ARMS = ["E", "M", "L", "EML", "L_nolang"]
SMALL = ["--tasks", "2", "--pairs-per-task", "12", "--steps", "2"]
SMALL += ["--pretext-epochs", "1", "--baseline-steps", "2"]


def _run_reference(out: Path) -> dict:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))  # the script prepends src/
        mp.setattr(sys, "argv", [str(SCRIPT), "--out", str(out), *SMALL])
        spec = importlib.util.spec_from_file_location("run_reference", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.main() == 0
    return json.loads((out / "summary.json").read_text())


@pytest.fixture(scope="module")
def reference_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    return out, _run_reference(out)


def test_reference_adapted_summary_is_the_l_arm(reference_out):
    out, summary = reference_out
    assert list(summary) == ["adapted", "frozen", "baselines", "ablation"]
    assert [row["name"] for row in summary["ablation"]] == ARMS
    row = summary["ablation"][ARMS.index("L")]
    adapted = summary["adapted"]
    for key in ("r2h_recall1", "r2h_recall5", "h2r_recall1", "h2r_recall5"):
        assert adapted["retrieval"][key] == row[key], key
    for key in ("probe_accuracy", "bc_mse", "success_rate"):
        assert adapted["downstream"][key] == row[key], key
    assert summary["frozen"]["retrieval"]["tag"] == "frozen"
    assert not (out / "adapt").exists()
    assert sorted(os.listdir(out / "ablation")) == sorted(ARMS)
    for arm in ARMS:
        assert sorted(os.listdir(out / "ablation" / arm)) == ["metrics.csv", "model.ckpt"]
    assert (out / "embeddings.csv").exists()

