"""Session-scoped reference artifacts shared by trainer, evaluation and
acceptance tests.

The reference configuration: 8 tasks x 32 pairs, gap 0.7, seed 7; pretext
pre-training on the train-split human clips; every arm of
``evaluation.ARMS`` at 300 steps (the full fine-tunes at 120), whose L arm
is the default-config reference run. Built once per session because
several tests pin ordinals measured on exactly these runs.
``tiny_reference`` is ``scripts/run_reference.py`` at a tiny size, shared
by the script's tests and ``hralign ablate``'s.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import run_reference_script, strict_json
from hralign.dataset import HELDOUT_FRAC, generate_paired_set, split_pairs
from hralign.encoder import pretext_pretrain
from hralign.evaluation import run_arms
from hralign.rng import RngState
from hralign.trainer import TrainConfig

REFERENCE_SEED = 7
REFERENCE_TASKS = 8
REFERENCE_PAIRS_PER_TASK = 32
REFERENCE_GAP = 0.7
PRETEXT_EPOCHS = 20
PRETEXT_LR = 3e-6
BASELINE_LR = 3e-4


@pytest.fixture(scope="session")
def reference_pairs():
    return generate_paired_set(
        RngState(REFERENCE_SEED), REFERENCE_TASKS, REFERENCE_PAIRS_PER_TASK, REFERENCE_GAP
    )


@pytest.fixture(scope="session")
def reference_split(reference_pairs):
    return split_pairs(reference_pairs, HELDOUT_FRAC)


@pytest.fixture(scope="session")
def reference_backbone(reference_split):
    train, _ = reference_split
    backbone, history = pretext_pretrain(
        RngState(REFERENCE_SEED),
        [p.human for p in train],
        epochs=PRETEXT_EPOCHS,
        lr=PRETEXT_LR,
    )
    backbone.pretext_history = history  # stashed for the pretext tests
    return backbone


@pytest.fixture(scope="session")
def reference_grid(reference_split, reference_backbone, tmp_path_factory):
    """(every arm's run, backbone snapshot taken before training)."""
    train, heldout = reference_split
    snapshot = {
        name: t.data.copy() for name, t in reference_backbone.named_parameters().items()
    }
    base = TrainConfig(out_dir=str(tmp_path_factory.mktemp("grid")))
    return run_arms(base, train, heldout, reference_backbone), snapshot


@pytest.fixture(scope="session")
def reference_arms(reference_grid):
    """The session grid's runs by arm name."""
    runs, _ = reference_grid
    return {run.name: run for run in runs}


@pytest.fixture(scope="session")
def reference_run(reference_grid):
    """(checkpoint, metrics, backbone snapshot taken before training) of the
    grid's L arm: its config is ``TrainConfig()`` but for ``out_dir``, which
    training never reads."""
    runs, snapshot = reference_grid
    run = next(run for run in runs if run.name == "L")
    return run.checkpoint, run.metrics, snapshot


@pytest.fixture(scope="session")
def tiny_reference(tmp_path_factory):
    """(out directory, strictly parsed summary.json) of the reference script
    at 2 tasks x 12 pairs (18 training pairs fill one default batch of 16),
    1 pretext epoch and 2 steps per arm."""
    out = tmp_path_factory.mktemp("reference")
    argv = ["--tasks", "2", "--pairs-per-task", "12", "--steps", "2", "--pretext-epochs", "1"]
    assert run_reference_script("--out", str(out), *argv) == 0
    return out, strict_json(out / "summary.json")


@pytest.fixture(scope="session")
def small_pairs():
    """A light dataset for unit tests that just need real clips."""
    return generate_paired_set(RngState(11), 3, 6, 0.5)
